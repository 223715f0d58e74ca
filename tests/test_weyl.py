import cmath

import numpy as np
import pytest

from weylkit import (
    DomainError,
    ShapeError,
    WeylIndex,
    clock_matrix,
    commutator_in_basis,
    decompose,
    frobenius_distance,
    gram_matrix,
    omega,
    reconstruct,
    shift_matrix,
    weyl_basis,
    weyl_element,
)
from weylkit.rand import random_complex_matrix

RNG = np.random.default_rng(777)


def dense_decompose(a):
    """Oracle: solve the d**2 x d**2 linear system vectorizing a over the basis."""
    d = a.shape[0]
    columns = np.stack(
        [weyl_element(d, l, k).ravel() for l in range(d) for k in range(d)], axis=1
    )
    xi = np.linalg.solve(columns, a.ravel())
    return xi.reshape(d, d)


class TestOmega:
    def test_small_cases(self):
        assert omega(1) == 1
        assert omega(2) == -1
        assert omega(4) == 1j

    def test_primitivity(self):
        for d in (2, 3, 5, 8):
            w = omega(d)
            assert abs(w ** d - 1) < 1e-10
            for t in range(1, d):
                assert abs(w ** t - 1) > 0.1

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            omega(0)


class TestShiftAndClock:
    def test_swap(self):
        np.testing.assert_array_equal(shift_matrix(2, 1), [[0, 1], [1, 0]])

    def test_zero_shift_is_identity(self):
        for d in (2, 3, 7):
            np.testing.assert_array_equal(shift_matrix(d, 0), np.eye(d))

    def test_shift_composes(self):
        np.testing.assert_allclose(
            shift_matrix(3, 2), shift_matrix(3, 1) @ shift_matrix(3, 1), atol=1e-15
        )

    def test_negative_shift_normalized(self):
        np.testing.assert_array_equal(shift_matrix(5, -2), shift_matrix(5, 3))

    def test_clock_d2(self):
        np.testing.assert_array_equal(clock_matrix(2, 1), np.diag([1.0, -1.0]))

    def test_clock_d3(self):
        w = cmath.exp(2j * cmath.pi / 3)
        np.testing.assert_allclose(clock_matrix(3, 1), np.diag([1, w, w ** 2]), atol=1e-15)

    def test_clock_composes(self):
        np.testing.assert_allclose(clock_matrix(3, 2), clock_matrix(3, 1) @ clock_matrix(3, 1), atol=1e-15)


class TestWeylElement:
    def test_d2_xz(self):
        np.testing.assert_array_equal(weyl_element(2, 1, 1), [[0, -1], [1, 0]])

    def test_identity_element(self):
        for d in (2, 3, 5):
            np.testing.assert_array_equal(weyl_element(d, 0, 0), np.eye(d))

    def test_d3_entries(self):
        w = cmath.exp(2j * cmath.pi / 3)
        expected = np.array([[0, 0, w ** 2], [1, 0, 0], [0, w, 0]])
        np.testing.assert_allclose(weyl_element(3, 1, 1), expected, atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_equals_shift_times_clock(self, d):
        for l in range(d):
            for k in range(d):
                np.testing.assert_allclose(
                    weyl_element(d, l, k), shift_matrix(d, l) @ clock_matrix(d, k), atol=1e-15
                )

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_weyl_commutation_relation(self, d):
        # Z_k X_l = omega**(l*k) X_l Z_k
        for l in range(d):
            for k in range(d):
                lhs = clock_matrix(d, k) @ shift_matrix(d, l)
                rhs = omega(d) ** (l * k) * (shift_matrix(d, l) @ clock_matrix(d, k))
                assert frobenius_distance(lhs, rhs) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_unitarity(self, d):
        for l in range(d):
            for k in range(d):
                w = weyl_element(d, l, k)
                assert frobenius_distance(w.conj().T @ w, np.eye(d)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_trace_character(self, d):
        for l in range(d):
            for k in range(d):
                expected = d if (l, k) == (0, 0) else 0.0
                assert abs(np.trace(weyl_element(d, l, k)) - expected) < 1e-10


class TestWeylIndex:
    def test_normalizes_negative(self):
        idx = WeylIndex(l=-1, k=7, d=3)
        assert (idx.l, idx.k) == (2, 1)
        assert idx.linear == 2 * 3 + 1

    def test_rejects_bad_dimension(self):
        with pytest.raises(DomainError):
            WeylIndex(l=0, k=0, d=1)


class TestGram:
    def test_d2_brute_force(self):
        basis = weyl_basis(2)
        g = gram_matrix(basis)
        # independent 4x4 trace table
        expected = np.empty((4, 4), dtype=complex)
        for i, wi in enumerate(basis.elements):
            for j, wj in enumerate(basis.elements):
                expected[i, j] = np.trace(wi.conj().T @ wj)
        np.testing.assert_allclose(g, expected, atol=1e-14)
        np.testing.assert_allclose(g, 2 * np.eye(4), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_gram_is_d_identity(self, d):
        assert frobenius_distance(gram_matrix(weyl_basis(d)), d * np.eye(d * d)) < 1e-10

    def test_d3_specific_off_diagonal(self):
        basis = weyl_basis(3)
        entry = np.trace(basis.element(1, 0).conj().T @ basis.element(0, 1))
        assert abs(entry) < 1e-14


class TestDecompose:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_rank_one_formula(self, d):
        # xi[l, k] = omega**(-b*k) * delta(b + l = a) / d, from first principles
        for a in range(d):
            for b in range(d):
                mat = np.zeros((d, d), dtype=complex)
                mat[a, b] = 1.0
                xi = decompose(mat)
                expected = np.zeros((d, d), dtype=complex)
                for k in range(d):
                    expected[(a - b) % d, k] = cmath.exp(-2j * cmath.pi * b * k / d) / d
                assert np.max(np.abs(xi - expected)) < 1e-12

    def test_identity_decomposition(self):
        for d in (2, 3, 5):
            xi = decompose(np.eye(d))
            expected = np.zeros((d, d))
            expected[0, 0] = 1.0
            np.testing.assert_allclose(xi, expected, atol=1e-14)

    def test_against_dense_solver_d4(self):
        a = random_complex_matrix(4, RNG)
        np.testing.assert_allclose(decompose(a), dense_decompose(a), atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_round_trip(self, d):
        for _ in range(100):
            a = random_complex_matrix(d, RNG)
            assert frobenius_distance(reconstruct(decompose(a)), a) < 1e-10

    def test_linearity(self):
        for d in (2, 3, 5):
            a = random_complex_matrix(d, RNG)
            b = random_complex_matrix(d, RNG)
            alpha = complex(RNG.standard_normal(), RNG.standard_normal())
            beta = complex(RNG.standard_normal(), RNG.standard_normal())
            lhs = decompose(alpha * a + beta * b)
            rhs = alpha * decompose(a) + beta * decompose(b)
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_parseval(self, d):
        a = random_complex_matrix(d, RNG)
        xi = decompose(a)
        assert abs(np.sum(np.abs(xi) ** 2) - np.trace(a.conj().T @ a).real / d) < 1e-10

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            decompose(np.ones((2, 3)))


class TestReconstruct:
    def test_zero_table(self):
        np.testing.assert_array_equal(reconstruct(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_single_element(self):
        xi = np.zeros((2, 2))
        xi[1, 0] = 1.0
        np.testing.assert_array_equal(reconstruct(xi), [[0, 1], [1, 0]])

    def test_rank_one_round_trip_d3(self):
        # |2><1| at d=3: reconstruct the proof's coefficient table explicitly
        d, a, b = 3, 2, 1
        xi = np.zeros((d, d), dtype=complex)
        for k in range(d):
            xi[(a - b) % d, k] = cmath.exp(-2j * cmath.pi * b * k / d) / d
        expected = np.zeros((d, d))
        expected[a, b] = 1.0
        np.testing.assert_allclose(reconstruct(xi), expected, atol=1e-14)


class TestCommutator:
    def test_self_commutator_vanishes(self):
        idx = WeylIndex(1, 2, 3)
        np.testing.assert_allclose(commutator_in_basis(idx, idx), np.zeros((3, 3)), atol=1e-14)

    def test_identity_commutes(self):
        ident = WeylIndex(0, 0, 3)
        other = WeylIndex(2, 1, 3)
        np.testing.assert_allclose(commutator_in_basis(ident, other), np.zeros((3, 3)), atol=1e-14)

    def test_xz_commutator_d2(self):
        # [X, Z] = (1 - omega) XZ with omega = -1, so xi[1, 1] = 2
        table = commutator_in_basis(WeylIndex(1, 0, 2), WeylIndex(0, 1, 2))
        expected = np.zeros((2, 2), dtype=complex)
        expected[1, 1] = 2.0
        np.testing.assert_allclose(table, expected, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_closure(self, d):
        for i in range(d * d):
            for j in range(d * d):
                x = WeylIndex(i // d, i % d, d)
                y = WeylIndex(j // d, j % d, d)
                table = commutator_in_basis(x, y)
                comm = x.matrix() @ y.matrix() - y.matrix() @ x.matrix()
                assert frobenius_distance(reconstruct(table), comm) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            commutator_in_basis(WeylIndex(0, 1, 2), WeylIndex(0, 1, 3))


class TestBasisObject:
    def test_enumeration_order(self):
        basis = weyl_basis(3)
        for l in range(3):
            for k in range(3):
                np.testing.assert_array_equal(basis.elements[l * 3 + k], weyl_element(3, l, k))
                np.testing.assert_array_equal(basis.element(l, k), weyl_element(3, l, k))

    def test_elements_read_only(self):
        basis = weyl_basis(2)
        with pytest.raises(ValueError):
            basis.elements[0][0, 0] = 5.0
