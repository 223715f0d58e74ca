import re

import numpy as np
import pytest

from weylkit import (
    ParseError,
    ShapeError,
    ValidationError,
    basis_ket,
    frobenius_distance,
    json_to_vector,
    matrix_to_json,
    partial_trace_env,
    validate_density_matrix,
    validate_ket,
)
from weylkit.config import DEFAULT_TOLERANCES
from weylkit.numerics import as_vector
from weylkit.rand import random_complex_matrix, random_density, random_unitary
from weylkit.weyl import clock_matrix, shift_matrix

RNG = np.random.default_rng(1234)


class TestMatmul:
    def test_identity(self):
        a = random_complex_matrix(3, RNG)
        np.testing.assert_array_equal(np.eye(2) @ np.array([[1, 2], [3, 4]]), [[1, 2], [3, 4]])
        np.testing.assert_allclose(np.eye(3) @ a, a)

    def test_hand_product(self):
        # X Z at d = 2 with the package's shift and clock
        np.testing.assert_array_equal(shift_matrix(2, 1) @ clock_matrix(2, 1), [[0, -1], [1, 0]])

    def test_zero(self):
        a = random_complex_matrix(4, RNG)
        np.testing.assert_array_equal(np.zeros((4, 4)) @ a, np.zeros((4, 4)))


class TestDagger:
    def test_scalar_conjugate(self):
        np.testing.assert_array_equal(np.array([[1j]]).conj().T, [[-1j]])

    def test_real_symmetric_fixed(self):
        a = np.array([[1.0, 2.0], [2.0, 5.0]])
        np.testing.assert_array_equal(a.conj().T, a)

    def test_clock_dagger(self):
        w = np.exp(2j * np.pi / 3)
        expected = np.diag([1, w ** -1, w ** -2])
        np.testing.assert_allclose(clock_matrix(3, 1).conj().T, expected, atol=1e-15)

    def test_involution_and_product_reversal(self):
        a = random_complex_matrix(4, RNG)
        b = random_complex_matrix(4, RNG)
        np.testing.assert_array_equal(a.conj().T.conj().T, a)
        np.testing.assert_allclose((a @ b).conj().T, b.conj().T @ a.conj().T, atol=1e-14)


class TestTrace:
    def test_identity(self):
        for d in (2, 5, 8):
            assert np.trace(np.eye(d)) == d

    def test_shift_traceless(self):
        assert np.trace(shift_matrix(3, 1)) == 0

    def test_cube_roots_sum_to_zero(self):
        w = np.exp(2j * np.pi / 3)
        assert abs(np.trace(np.diag([1, w, w ** 2]))) < 1e-15

    def test_linearity_and_cyclicity(self):
        a = random_complex_matrix(4, RNG)
        b = random_complex_matrix(4, RNG)
        alpha, beta = 0.7 - 0.2j, 1.1 + 0.9j
        assert abs(np.trace(alpha * a + beta * b) - (alpha * np.trace(a) + beta * np.trace(b))) < 1e-12
        assert abs(np.trace(a @ b) - np.trace(b @ a)) < 1e-12


class TestKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(np.kron(np.eye(2), np.eye(3)), np.eye(6))

    def test_basis_bookkeeping(self):
        v = np.kron(basis_ket(2, 0), basis_ket(2, 1))
        np.testing.assert_array_equal(v, [0, 1, 0, 0])

    def test_system_factor_is_outer(self):
        # X_1 on the left factor sends joint index 0 (sys 0, env 0) to 2 (sys 1, env 0).
        op = np.kron(shift_matrix(2, 1), np.eye(2))
        v = np.zeros(4)
        v[0] = 1.0
        np.testing.assert_array_equal(op @ v, [0, 0, 1, 0])

    def test_associativity(self):
        a = random_complex_matrix(2, RNG)
        b = random_complex_matrix(3, RNG)
        c = random_complex_matrix(2, RNG)
        np.testing.assert_allclose(np.kron(np.kron(a, b), c), np.kron(a, np.kron(b, c)), atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        rho = random_density(3, RNG)
        env = np.zeros((4, 4), dtype=complex)
        env[0, 0] = 1.0
        np.testing.assert_allclose(partial_trace_env(np.kron(rho, env), 3, 4), rho, atol=1e-14)

    def test_maximally_mixed(self):
        d, dd = 3, 9
        joint = np.eye(d * dd) / (d * dd)
        np.testing.assert_allclose(partial_trace_env(joint, d, dd), np.eye(d) / d, atol=1e-14)

    def test_kron_collapses_to_trace(self):
        a = random_complex_matrix(3, RNG)
        b = random_complex_matrix(4, RNG)
        np.testing.assert_allclose(partial_trace_env(np.kron(a, b), 3, 4), np.trace(b) * a, atol=1e-13)

    def test_trace_preserved(self):
        joint = random_complex_matrix(12, RNG)
        out = partial_trace_env(joint, 3, 4)
        assert abs(np.trace(out) - np.trace(joint)) < 1e-12

    def test_bad_factorization(self):
        with pytest.raises(ShapeError):
            partial_trace_env(np.eye(10), 3, 4)


def min_eigenvalue_reported(rho):
    """The smallest eigenvalue ``validate_density_matrix`` reports for a trace-1 Hermitian ``rho``, or None if it passes."""
    try:
        validate_density_matrix(rho)
    except ValidationError as exc:
        return float(re.search(r"min eigenvalue (\S+) <", str(exc)).group(1))
    return None


class TestHermitianEigenvalues:
    # The spectrum the density check computes, on matrices of known spectrum.
    def test_diagonal(self):
        assert min_eigenvalue_reported(np.diag([0.75, -0.25, 0.5])) == -0.25

    def test_swap_matrix(self):
        # I/2 + (3/4) X has eigenvalues 1/2 -+ 3/4
        assert min_eigenvalue_reported([[0.5, 0.75], [0.75, 0.5]]) == -0.25

    def test_maximally_mixed(self):
        for d in (2, 5):
            assert min_eigenvalue_reported(np.eye(d) / d) is None

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 27])
    def test_against_numpy(self, n):
        g = random_complex_matrix(n, RNG)
        h = g + g.conj().T
        h /= np.trace(h).real
        lo = np.linalg.eigvalsh(h)[0]
        expected = None if lo >= -DEFAULT_TOLERANCES.psd else float(f"{lo:.3e}")
        assert min_eigenvalue_reported(h) == expected

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError, match="not Hermitian"):
            validate_density_matrix([[0.5, 1], [0, 0.5]])


class TestFrobenius:
    def test_zero_iff_equal(self):
        a = random_complex_matrix(3, RNG)
        assert frobenius_distance(a, a) == 0.0

    def test_identity_vs_zero(self):
        assert abs(frobenius_distance(np.eye(2), np.zeros((2, 2))) - np.sqrt(2)) < 1e-15

    def test_shift_vs_clock(self):
        # four entries of unit magnitude differ
        assert abs(frobenius_distance(shift_matrix(2, 1), clock_matrix(2, 1)) - 2.0) < 1e-15

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            frobenius_distance(np.eye(2), np.eye(3))


class TestValidators:
    def test_ket_accepts_unit(self):
        validate_ket([1 / np.sqrt(2), 1j / np.sqrt(2)])

    def test_ket_rejects_unnormalized(self):
        with pytest.raises(ValidationError, match="norm"):
            validate_ket([1.0, 1.0])

    def test_ket_rejects_nan(self):
        with pytest.raises(ValidationError, match="finite"):
            validate_ket([np.nan, 0.0])

    def test_density_accepts_random(self):
        validate_density_matrix(random_density(4, RNG))

    def test_density_lists_failures(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]])  # not Hermitian
        with pytest.raises(ValidationError, match="Hermitian"):
            validate_density_matrix(bad)
        with pytest.raises(ValidationError, match="trace"):
            validate_density_matrix(np.eye(2))
        with pytest.raises(ValidationError, match="semidefinite"):
            validate_density_matrix(np.diag([1.5, -0.5]))

    def test_outer_is_rank_one_projector(self):
        v = validate_ket(basis_ket(3, 1))
        p = np.outer(v, v.conj())
        np.testing.assert_allclose(p @ p, p, atol=1e-15)
        assert abs(np.trace(p) - 1) < 1e-15


def composed_density_check(rho, tol=DEFAULT_TOLERANCES):
    """Reference: the density check composed of ``np.trace`` and ``np.linalg.eigvalsh``."""
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape[0] != rho.shape[1]:
        raise ShapeError(f"density matrix must be square, got {rho.shape}")
    if not np.all(np.isfinite(rho)):
        raise ValidationError("density matrix contains non-finite entries")
    failures = []
    herm_defect = frobenius_distance(rho, rho.conj().T)
    if herm_defect > tol.herm:
        failures.append(f"not Hermitian (defect {herm_defect:.3e} > {tol.herm:.3e})")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol.norm:
        failures.append(f"trace {tr!r} is not 1 within {tol.norm:.3e}")
    if not failures:
        lo = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2)[0])
        if lo < -tol.psd:
            failures.append(f"not positive semidefinite (min eigenvalue {lo:.3e} < -{tol.psd:.3e})")
    if failures:
        raise ValidationError("invalid density matrix: " + "; ".join(failures))


def outcome(check, rho):
    try:
        check(rho)
    except (ShapeError, ValidationError) as exc:
        return type(exc), str(exc)
    return None


def density_cases(d, rng):
    rho = random_density(d, rng)
    skew = rho.copy()
    skew[0, 1] += 1e-3
    u = random_unitary(d, rng)
    spectrum = np.full(d, 1.02 / (d - 1))
    spectrum[0] = -0.02
    bad_nan = rho.copy()
    bad_nan[d - 1, 0] = np.nan
    return {
        "valid": rho,
        "non_hermitian": skew,
        "wrong_trace": 1.5 * rho,
        "non_hermitian_and_wrong_trace": 1.5 * skew,
        "negative_eigenvalue": (u * spectrum) @ u.conj().T,
        "non_finite": bad_nan,
        "non_square": np.ones((d, d + 1)) / d,
    }


class TestDensityCheckSinglePass:
    @pytest.mark.parametrize("d", range(2, 33))
    def test_same_outcome_as_composed_check(self, d):
        rng = np.random.default_rng(1000 + d)
        for name, rho in density_cases(d, rng).items():
            assert outcome(validate_density_matrix, rho) == outcome(composed_density_check, rho), name

    @pytest.mark.parametrize("d", [2, 5, 16, 32])
    def test_min_eigenvalue_equals_hermitian_eigenvalues(self, d, monkeypatch):
        rng = np.random.default_rng(2000 + d)
        eigvalsh = np.linalg.eigvalsh
        seen = []

        def spy(a):
            seen.append(eigvalsh(a))
            return seen[-1]

        monkeypatch.setattr(np.linalg, "eigvalsh", spy)
        for name in ("valid", "negative_eigenvalue"):
            rho = density_cases(d, rng)[name]
            seen.clear()
            outcome(validate_density_matrix, rho)
            assert len(seen) == 1
            assert seen[0][0] == eigvalsh((rho + rho.conj().T) / 2)[0]


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: as_vector(np.eye(2)), ShapeError, "expected a vector, got array of shape (2, 2)"),
        (lambda: basis_ket(0, 0), ShapeError, "dimension must be positive, got 0"),
        (
            lambda: json_to_vector(matrix_to_json(np.eye(2))),
            ParseError,
            "vector: expected a single-column matrix, got 2 columns",
        ),
    ],
    ids=["matrix-as-vector", "ket-dimension-0", "two-column-vector"],
)
def test_input_errors(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
