import numpy as np
import pytest

from weylkit import (
    DomainError,
    GammaTable,
    ShapeError,
    ValidationError,
    basis_ket,
    env_gram,
    evolve_density,
    evolve_pure,
    frobenius_distance,
    make_isometry,
    partial_trace_env,
    validate_density_matrix,
    weyl_element,
    weyl_form_of_joint,
)
from weylkit.rand import random_density, random_gamma, random_ket, random_uniform_gamma

RNG = np.random.default_rng(4242)


def env_index(d, a, b):
    """Linear position of the environment basis vector ``|e_{a, b}>``."""
    return (a % d) * d + b % d


def mixture(weights, states):
    """The convex combination ``sum_s p_s * A_s`` of coefficient matrices, checked as a density matrix."""
    return validate_density_matrix(np.tensordot(weights, states, 1))


def brute_force_joint(psi, g):
    """Oracle: evaluate the defining double sum of the interaction term by term.

    out = sum_{i,l} psi_i * gamma[l-i, -i] |i+l> (x) |e_{l-i, -i}>, all mod d.
    """
    d = g.d
    out = np.zeros(d ** 3, dtype=complex)
    for i in range(d):
        for l in range(d):
            a = (l - i) % d
            b = (-i) % d
            out[((i + l) % d) * d * d + a * d + b] += psi[i] * g.gamma[a, b]
    return out


def single_entry_gamma(d, rows):
    """Unit entry at (rows[b], b) for each column b."""
    g = np.zeros((d, d), dtype=complex)
    for b, a in enumerate(rows):
        g[a, b] = 1.0
    return GammaTable(g)


class TestGammaTable:
    def test_accepts_normalized_columns(self):
        GammaTable(np.eye(3))
        random_gamma(4, RNG)

    def test_rejects_and_names_offending_column(self):
        g = np.eye(3, dtype=complex)
        g[0, 1] = 0.5  # column 1 mass becomes 1.25
        with pytest.raises(ValidationError, match=r"column 1.*1\.25"):
            GammaTable(g)

    def test_rejects_non_square(self):
        with pytest.raises(ShapeError):
            GammaTable(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        g = np.eye(2, dtype=complex)
        g[0, 0] = np.inf
        with pytest.raises(ValidationError, match="finite"):
            GammaTable(g)

    def test_uniform_magnitudes(self):
        g = GammaTable.uniform(3)
        np.testing.assert_allclose(np.abs(g.gamma), np.full((3, 3), 1 / np.sqrt(3)))

    def test_table_is_immutable(self):
        g = GammaTable.uniform(2)
        with pytest.raises(ValueError):
            g.gamma[0, 0] = 0.0


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: GammaTable.uniform(1), DomainError, "dimension must be >= 2, got 1"),
        (
            lambda: GammaTable.uniform(2, phases=np.zeros((3, 3))),
            ShapeError,
            "phases must have shape (2, 2), got (3, 3)",
        ),
        (
            lambda: weyl_form_of_joint(np.ones(3) / np.sqrt(3), GammaTable.uniform(2)),
            ShapeError,
            "state dimension 3 does not match gamma dimension 2",
        ),
    ],
    ids=["uniform-d-1", "phases-shape", "joint-dimension"],
)
def test_input_errors(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message


class TestMakeIsometry:
    def test_top_row_gamma_maps_basis_to_doubled_index(self):
        # gamma[a, b] = delta(a, 0): the only surviving term has l = i, so
        # |i> goes to |2i mod d> (x) |e_{0, -i}>.
        for d in (2, 3, 5):
            g = single_entry_gamma(d, rows=[0] * d)
            v = make_isometry(g)
            for i in range(d):
                expected = np.zeros(d ** 3, dtype=complex)
                expected[((2 * i) % d) * d * d + env_index(d, 0, -i)] = 1.0
                np.testing.assert_allclose(v[:, i], expected, atol=1e-15)

    def test_single_entry_column_is_permutation_style(self):
        g = single_entry_gamma(3, rows=[1, 2, 0])
        v = make_isometry(g)
        assert np.all(np.isin(np.abs(v), [0.0, 1.0]))
        assert np.count_nonzero(v) == 3
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-15)

    def test_uniform_gamma_two_nonzeros_per_column(self):
        g = GammaTable.uniform(2)
        v = make_isometry(g)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-14)
        for i in range(2):
            assert np.count_nonzero(v[:, i]) == 2

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_isometry_for_random_gamma(self, d):
        for _ in range(10):
            v = make_isometry(random_gamma(d, RNG))
            assert frobenius_distance(v.conj().T @ v, np.eye(d)) < 1e-10

    def test_columns_match_brute_force(self):
        for d in (2, 3):
            g = random_gamma(d, RNG)
            v = make_isometry(g)
            for i in range(d):
                np.testing.assert_allclose(v[:, i], brute_force_joint(basis_ket(d, i), g), atol=1e-14)


class TestEvolvePure:
    def test_basis_state_single_entry_gamma_is_product(self):
        d = 3
        g = single_entry_gamma(d, rows=[2, 0, 1])
        joint = evolve_pure(basis_ket(d, 0), g)
        # column 0: a = l, so the unit entry a0 = 2 selects l = 2
        expected = np.kron(basis_ket(d, 2), basis_ket(d * d, env_index(d, 2, 0)))
        np.testing.assert_allclose(joint, expected, atol=1e-15)

    def test_plus_state_uniform_real_gamma_frozen_vector(self):
        g = GammaTable.uniform(2)
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        joint = evolve_pure(psi, g)
        expected = np.array([0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5])  # from the double sum by hand
        np.testing.assert_allclose(joint, expected, atol=1e-14)
        np.testing.assert_allclose(joint, brute_force_joint(psi, g), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_brute_force_double_sum(self, d):
        for _ in range(10):
            g = random_gamma(d, RNG)
            psi = random_ket(d, RNG)
            joint = evolve_pure(psi, g)
            np.testing.assert_allclose(joint, brute_force_joint(psi, g), atol=1e-13)
            assert abs(np.linalg.norm(joint) - 1.0) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            evolve_pure(random_ket(3, RNG), GammaTable.uniform(2))

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValidationError):
            evolve_pure(np.array([1.0, 1.0]), GammaTable.uniform(2))


class TestWeylForm:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_reassembly_matches_direct_evolution(self, d):
        for _ in range(50):
            g = random_gamma(d, RNG)
            psi = random_ket(d, RNG)
            terms = weyl_form_of_joint(psi, g)
            reassembled = sum(np.kron(t.sys, t.env) for t in terms) / d
            direct = evolve_pure(psi, g)
            assert np.linalg.norm(reassembled - direct) < 1e-10

    def test_term_structure(self):
        d = 3
        g = random_gamma(d, RNG)
        psi = random_ket(d, RNG)
        terms = weyl_form_of_joint(psi, g)
        assert [(t.l, t.k) for t in terms] == [(l, k) for l in range(d) for k in range(d)]
        w = np.exp(2j * np.pi / d)
        for t in terms:
            np.testing.assert_allclose(t.sys, weyl_element(d, t.l, t.k) @ psi, atol=1e-14)
            for z in range(d):
                expected = w ** (z * t.k) * g.gamma[(z + t.l) % d, z]
                assert abs(t.env[env_index(d, t.l + z, z)] - expected) < 1e-13

    def test_sys_norms_are_one_for_uniform_gamma(self):
        g = GammaTable.uniform(2)
        psi = random_ket(2, RNG)
        for t in weyl_form_of_joint(psi, g):
            assert abs(np.linalg.norm(t.sys) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_env_parseval_per_l(self, d):
        g = random_gamma(d, RNG)
        psi = random_ket(d, RNG)
        terms = weyl_form_of_joint(psi, g)
        for l in range(d):
            total = sum(np.linalg.norm(t.env) ** 2 for t in terms if t.l == l)
            diag_mass = sum(abs(g.gamma[(z + l) % d, z]) ** 2 for z in range(d))
            assert abs(total - d * diag_mass) < 1e-10

    def test_diagonal_constant_gamma_kills_component_sums(self):
        # With gamma constant along each wrapped diagonal, the k-DFT of the
        # diagonal sequence vanishes for k != 0: the components of v_lk sum
        # to zero (the vector itself is not zero - it lives on d distinct
        # environment kets).
        d = 4
        diag_values = np.array([0.8, 0.3 + 0.2j, 0.1j, 0.5]) / 1.0
        g = np.empty((d, d), dtype=complex)
        for l in range(d):
            for z in range(d):
                g[(z + l) % d, z] = diag_values[l]
        g = g / np.linalg.norm(g, axis=0, keepdims=True)
        terms = weyl_form_of_joint(basis_ket(d, 0), GammaTable(g))
        for t in terms:
            if t.k != 0:
                assert abs(t.env.sum()) < 1e-12
                assert np.linalg.norm(t.env) > 0.1  # and the vector is far from zero


class TestEnvGram:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matches_direct_inner_products(self, d):
        g = random_gamma(d, RNG)
        psi = random_ket(d, RNG)
        terms = {(t.l, t.k): t.env for t in weyl_form_of_joint(psi, g)}
        gram = env_gram(g)
        for l in range(d):
            for k in range(d):
                for kp in range(d):
                    direct = np.vdot(terms[(l, k)], terms[(l, kp)])
                    assert abs(gram[l, k, kp] - direct) < 1e-12

    def test_cross_l_vectors_are_disjoint(self):
        g = random_gamma(3, RNG)
        terms = {(t.l, t.k): t.env for t in weyl_form_of_joint(basis_ket(3, 0), g)}
        for k in range(3):
            for kp in range(3):
                assert abs(np.vdot(terms[(0, k)], terms[(1, kp)])) == 0.0

    def test_uniform_magnitude_gives_orthonormal_vectors(self):
        for d in (2, 3):
            g = random_uniform_gamma(d, RNG)
            gram = env_gram(g)
            for l in range(d):
                np.testing.assert_allclose(gram[l], np.eye(d), atol=1e-12)


class TestEvolveDensity:
    def test_pure_state_gives_outer_product_of_column(self):
        d = 3
        g = random_gamma(d, RNG)
        v = make_isometry(g)
        for i in range(d):
            rho = np.outer(basis_ket(d, i), basis_ket(d, i).conj())
            np.testing.assert_allclose(evolve_density(rho, g), np.outer(v[:, i], v[:, i].conj()), atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_trace_preserved(self, d):
        for _ in range(5):
            joint = evolve_density(random_density(d, RNG), random_gamma(d, RNG))
            assert abs(np.trace(joint) - 1.0) < 1e-12

    def test_purity_preservation(self):
        d = 3
        g = random_gamma(d, RNG)
        psi = random_ket(d, RNG)
        joint_vec = evolve_pure(psi, g)
        np.testing.assert_allclose(
            evolve_density(np.outer(psi, psi.conj()), g), np.outer(joint_vec, joint_vec.conj()), atol=1e-13
        )

    def test_joint_output_is_valid_density(self):
        d = 2
        joint = evolve_density(random_density(d, RNG), random_gamma(d, RNG))
        validate_density_matrix(joint)

    def test_uniform_gamma_depolarizes(self):
        d = 2
        g = GammaTable.uniform(d)
        for _ in range(5):
            joint = evolve_density(random_density(d, RNG), g)
            reduced = partial_trace_env(joint, d, d * d)
            assert frobenius_distance(reduced, np.eye(d) / d) < 1e-12

    def test_linearity_over_mixtures(self):
        d = 2
        g = random_gamma(d, RNG)
        rho_a = random_density(d, RNG)
        rho_b = random_density(d, RNG)
        mixed = mixture([0.3, 0.7], [rho_a, rho_b])
        lhs = evolve_density(mixed, g)
        rhs = 0.3 * evolve_density(rho_a, g) + 0.7 * evolve_density(rho_b, g)
        assert frobenius_distance(lhs, rhs) < 1e-12

    def test_rejects_invalid_density(self):
        with pytest.raises(ValidationError):
            evolve_density(np.eye(2), GammaTable.uniform(2))


class TestEnsemble:
    # The mixture recipe that replaces the removed ``ensemble_to_density``:
    # weights are not checked on their own, only the state they produce.
    def test_single_projector(self):
        rho = mixture([1.0], [np.outer(basis_ket(2, 0), basis_ket(2, 0).conj())])
        np.testing.assert_allclose(rho, [[1, 0], [0, 0]], atol=1e-15)

    def test_equal_mixture_is_maximally_mixed(self):
        states = [np.outer(basis_ket(2, i), basis_ket(2, i).conj()) for i in range(2)]
        np.testing.assert_allclose(mixture([0.5, 0.5], states), np.eye(2) / 2, atol=1e-15)

    def test_weighted_mixture_matches_direct_sum(self):
        kets = [random_ket(3, RNG) for _ in range(2)]
        projectors = [np.outer(v, v.conj()) for v in kets]
        rho = mixture([0.25, 0.75], projectors)
        np.testing.assert_allclose(rho, 0.25 * projectors[0] + 0.75 * projectors[1], atol=1e-14)
        assert np.linalg.eigvalsh(rho).min() > -1e-12

    def test_rejects_bad_weight_sum(self):
        with pytest.raises(ValidationError, match="trace"):
            mixture([0.5, 0.4], [np.eye(2) / 2, np.eye(2) / 2])

    def test_rejects_inconsistent_coefficients(self):
        # trace-1 Hermitian but indefinite coefficient input
        with pytest.raises(ValidationError, match="semidefinite"):
            mixture([1.0], [np.diag([1.5, -0.5])])
