import numpy as np
import pytest

from weylkit import (
    DEFAULT_TOLERANCES,
    DomainError,
    GammaTable,
    QuantumChannel,
    ShapeError,
    Tolerances,
    ValidationError,
    apply_channel,
    basis_ket,
    channel_from_dilation,
    channels_equal,
    choi_matrix,
    evolve_density,
    frobenius_distance,
    is_trace_preserving,
    kraus_mix,
    make_isometry,
    partial_trace_env,
    shift_matrix,
    unitality_deficit,
    weyl_channel,
    weyl_element,
)
from weylkit.rand import (
    random_density,
    random_gamma,
    random_uniform_gamma,
    random_unitary,
)

RNG = np.random.default_rng(3141)


def uniform_weights(d):
    return np.full((d, d), 1.0 / (d * d))


def reset_gamma(d):
    """gamma[a, b] = delta(a, 0); dilation Kraus |{-2b}><-b| collapse onto |0>... for d=2."""
    g = np.zeros((d, d), dtype=complex)
    g[0, :] = 1.0
    return GammaTable(g)


class TestKrausFromIsometry:
    def test_rank_one_extraction_formula(self):
        # Every environment slot (a, b) yields gamma[a, b] |a - 2b><-b|.
        for d in (2, 3):
            g = random_gamma(d, RNG)
            v = make_isometry(g)
            slots = v.reshape(d, d * d, d)
            for a in range(d):
                for b in range(d):
                    e = slots[:, a * d + b, :]
                    expected = g.gamma[a, b] * np.outer(basis_ket(d, a - 2 * b), basis_ket(d, -b).conj())
                    np.testing.assert_allclose(e, expected, atol=1e-14)

    def test_completeness_by_construction(self):
        for d in (2, 3, 5):
            ch = channel_from_dilation(random_gamma(d, RNG))
            acc = sum(e.conj().T @ e for e in ch.kraus)
            assert frobenius_distance(acc, np.eye(d)) < 1e-10

    def test_top_row_gamma_resets_to_zero_ket(self):
        # gamma[a, b] = delta(a, 0) at d=2 extracts {|0><0|, |0><1|}: the
        # channel sends every state to |0><0|.
        ch = channel_from_dilation(reset_gamma(2))
        assert len(ch) == 2
        kraus_set = {tuple(np.round(e, 12).ravel()) for e in ch.kraus}
        expected = {(1 + 0j, 0j, 0j, 0j), (0j, 1 + 0j, 0j, 0j)}
        assert kraus_set == expected
        out = apply_channel(QuantumChannel(d=2, kraus=ch.stack), random_density(2, RNG))
        np.testing.assert_allclose(out, [[1, 0], [0, 0]], atol=1e-12)

    def test_prunes_zero_slots(self):
        d = 3
        ch = channel_from_dilation(reset_gamma(d))
        assert len(ch) == len(ch.stack) == d  # d nonzero entries out of d**2 slots

    def test_rejects_non_isometry(self):
        # V^dagger V is diag(column masses of gamma), so the table's column
        # check is the isometry check on the only path to a Kraus list.
        g = np.zeros((2, 2), dtype=complex)
        g[0, 0] = 1.0
        g[0, 1] = 0.5
        with pytest.raises(ValidationError, match="column 1: mass 0.25"):
            channel_from_dilation(GammaTable(g))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_entry(self, bad):
        # The table refuses it before any channel exists; a NaN slot would
        # otherwise fail the prune test and drop out of the Kraus list unseen.
        g = np.full((3, 3), 1 / np.sqrt(3), dtype=complex)
        g[0, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            channel_from_dilation(GammaTable(g))


class TestApplyChannel:
    def test_identity_channel(self):
        rho = random_density(3, RNG)
        ch = QuantumChannel(d=3, kraus=(np.eye(3),))
        np.testing.assert_allclose(apply_channel(ch, rho), rho, atol=1e-14)

    def test_uniform_weyl_on_ground_state_d2(self):
        rho = np.outer(basis_ket(2, 0), basis_ket(2, 0).conj())
        # brute-force sum of the four conjugations
        expected = sum(
            weyl_element(2, l, k) @ rho @ weyl_element(2, l, k).conj().T for l in range(2) for k in range(2)
        ) / 4
        out = apply_channel(weyl_channel(uniform_weights(2)), rho)
        np.testing.assert_allclose(out, expected, atol=1e-14)
        np.testing.assert_allclose(out, np.eye(2) / 2, atol=1e-14)

    def test_shift_unitary_channel(self):
        ch = QuantumChannel(d=3, kraus=(shift_matrix(3, 1),))
        out = apply_channel(ch, np.outer(basis_ket(3, 0), basis_ket(3, 0).conj()))
        np.testing.assert_allclose(out, np.outer(basis_ket(3, 1), basis_ket(3, 1).conj()), atol=1e-14)

    def test_outputs_stay_positive(self):
        for d in (2, 3):
            ch = channel_from_dilation(random_gamma(d, RNG))
            for _ in range(5):
                out = apply_channel(ch, random_density(d, RNG))
                assert np.linalg.eigvalsh(out).min() >= -1e-9

    def test_non_cptp_channel_flagged_on_apply(self):
        ch = QuantumChannel(d=2, kraus=(shift_matrix(2, 1) / np.sqrt(2),))
        with pytest.raises(ValidationError, match="CPTP"):
            apply_channel(ch, random_density(2, RNG))

    def test_dimension_mismatch(self):
        ch = QuantumChannel(d=2, kraus=(np.eye(2),))
        with pytest.raises(ShapeError):
            apply_channel(ch, random_density(3, RNG))


class TestTracePreservation:
    def test_identity_exact(self):
        ok, deficit = is_trace_preserving(QuantumChannel(d=3, kraus=(np.eye(3),)))
        assert ok and deficit == 0.0

    def test_halved_shift_deficit(self):
        # sum E^dagger E = I/2, so the Frobenius deficit is ||I/2 - I||_F = sqrt(2)/2
        ch = QuantumChannel(d=2, kraus=(shift_matrix(2, 1) / np.sqrt(2),))
        ok, deficit = is_trace_preserving(ch)
        assert not ok
        assert abs(deficit - np.sqrt(2) / 2) < 1e-14

    def test_uniform_weyl_channel(self):
        for d in (2, 3, 5):
            ok, deficit = is_trace_preserving(weyl_channel(uniform_weights(d)))
            assert ok and deficit < 1e-12

    def test_unitality_reported_separately(self):
        ch = channel_from_dilation(random_gamma(2, RNG))
        assert unitality_deficit(ch) >= 0.0
        # Weyl channels are unital: both deficits vanish.
        wch = weyl_channel(uniform_weights(3))
        assert unitality_deficit(wch) < 1e-12


class TestWeylChannel:
    def test_point_mass_is_identity(self):
        p = np.zeros((3, 3))
        p[0, 0] = 1.0
        ch = weyl_channel(p)
        assert len(ch) == 1
        rho = random_density(3, RNG)
        np.testing.assert_allclose(apply_channel(ch, rho), rho, atol=1e-14)

    @pytest.mark.parametrize("d", [2, 3])
    def test_uniform_depolarizes(self, d):
        ch = weyl_channel(uniform_weights(d))
        for _ in range(10):
            out = apply_channel(ch, random_density(d, RNG))
            assert frobenius_distance(out, np.eye(d) / d) < 1e-10

    def test_phase_damping_kills_off_diagonals(self):
        p = np.zeros((2, 2))
        p[0, 0] = 0.5
        p[0, 1] = 0.5
        ch = weyl_channel(p)
        rho = random_density(2, RNG)
        z = weyl_element(2, 0, 1)
        np.testing.assert_allclose(apply_channel(ch, rho), (rho + z @ rho @ z.conj().T) / 2, atol=1e-14)
        out = apply_channel(ch, rho)
        assert abs(out[0, 1]) < 1e-14 and abs(out[1, 0]) < 1e-14
        np.testing.assert_allclose(np.diagonal(out), np.diagonal(rho), atol=1e-14)

    def test_rejects_negative_weights(self):
        p = np.array([[-0.25, 0.5], [0.25, 0.5]])  # sums to 1 but dips negative
        with pytest.raises(DomainError, match="nonnegative"):
            weyl_channel(p)

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError, match="sum to 1"):
            weyl_channel(np.full((2, 2), 0.3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bad):
        # With p[0, 0] = nan the other weights sum to 7/8, yet the sum check
        # alone cannot see it: abs(nan - 1) > tol is False.
        p = np.full((3, 3), 1.0 / 8)
        p[0, 0] = bad
        p[2, 2] = 0.0
        with pytest.raises(DomainError, match="finite"):
            weyl_channel(p)


class TestChannelFromDilation:
    def test_single_entry_gamma_gives_rank_one_kraus(self):
        g = np.zeros((3, 3), dtype=complex)
        for b, a in enumerate([1, 2, 0]):
            g[a, b] = 1.0
        ch = channel_from_dilation(GammaTable(g))
        assert len(ch) == 3
        for e in ch.kraus:
            assert np.linalg.matrix_rank(e) == 1
        ok, deficit = is_trace_preserving(ch)
        assert ok and deficit < 1e-12

    def test_uniform_magnitude_matches_weyl_channel_choi(self):
        d = 2
        g = random_uniform_gamma(d, RNG)
        ch = channel_from_dilation(g)
        # the environment term norms give k-independent weights ||v_lk||^2 / d**2
        p = np.empty((d, d))
        for l in range(d):
            diag_mass = sum(abs(g.gamma[(z + l) % d, z]) ** 2 for z in range(d))
            p[l, :] = diag_mass / (d * d)
        wch = weyl_channel(p)
        assert frobenius_distance(choi_matrix(ch), choi_matrix(wch)) < 1e-9
        assert channels_equal(ch, wch, 1e-9)

    def test_all_slots_pruned_is_rejected(self):
        # Every slot of the uniform d = 3 table has norm 1/sqrt(3) = 0.577.
        with pytest.raises(DomainError, match="^all slots prune to zero$"):
            channel_from_dilation(GammaTable.uniform(3), tol=Tolerances(prune=10.0))

    def test_accepts_gamma_within_column_tolerance(self):
        # V^dagger V is diag(column masses): each mass is within tol.norm of 1,
        # but the Frobenius defect of the whole diagonal is 1.8e-10 > 1e-10.
        d = 4
        g = GammaTable(np.full((d, d), np.sqrt((1 + 0.9e-10) / d)))
        ch = channel_from_dilation(g)
        ok, deficit = is_trace_preserving(ch)
        assert ok and deficit < DEFAULT_TOLERANCES.cptp
        np.testing.assert_array_equal(ch.stack, make_isometry(g).reshape(d, d * d, d).transpose(1, 0, 2))

    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_partial_trace_oracle(self, d):
        for _ in range(20):
            g = random_gamma(d, RNG)
            rho = random_density(d, RNG)
            via_kraus = apply_channel(channel_from_dilation(g), rho)
            via_trace = partial_trace_env(evolve_density(rho, g), d, d * d)
            assert frobenius_distance(via_kraus, via_trace) < 1e-10


class TestChoi:
    def test_identity_channel_is_maximally_entangled_projector(self):
        ch = QuantumChannel(d=2, kraus=(np.eye(2),))
        omega_vec = np.zeros(4)
        omega_vec[0] = 1.0  # |00>
        omega_vec[3] = 1.0  # |11>
        np.testing.assert_allclose(choi_matrix(ch), np.outer(omega_vec, omega_vec), atol=1e-14)
        assert abs(np.trace(choi_matrix(ch)) - 2.0) < 1e-14

    def test_uniform_weyl_choi_is_maximally_mixed(self):
        np.testing.assert_allclose(choi_matrix(weyl_channel(uniform_weights(2))), np.eye(4) / 2, atol=1e-14)

    def test_trace_is_d_for_trace_preserving(self):
        for d in (2, 3, 5):
            ch = channel_from_dilation(random_gamma(d, RNG))
            assert abs(np.trace(choi_matrix(ch)).real - d) < 1e-10

    def test_hermitian_psd(self):
        ch = channel_from_dilation(random_gamma(3, RNG))
        j = choi_matrix(ch)
        assert frobenius_distance(j, j.conj().T) < 1e-12
        assert np.linalg.eigvalsh(j).min() >= -1e-9

    def test_invariant_under_unitary_mixing(self):
        ch = channel_from_dilation(random_gamma(2, RNG))
        u = random_unitary(len(ch), RNG)
        mixed = kraus_mix(ch, u)
        assert frobenius_distance(choi_matrix(ch), choi_matrix(mixed)) < 1e-10

    def test_unitary_channel_choi_is_rank_one(self):
        ch = QuantumChannel(d=3, kraus=(random_unitary(3, RNG),))
        eigs = np.linalg.eigvalsh(choi_matrix(ch))
        assert eigs[-2] < 1e-9  # second-largest eigenvalue vanishes

    def test_matches_defining_sum(self):
        # J = sum_{i,j} Channel(|i><j|) (x) |i><j| with the output factor outer
        d = 2
        ch = channel_from_dilation(random_gamma(d, RNG))
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            for j in range(d):
                eij = np.outer(basis_ket(d, i), basis_ket(d, j).conj())
                image = sum(e @ eij @ e.conj().T for e in ch.kraus)
                expected += np.kron(image, eij)
        np.testing.assert_allclose(choi_matrix(ch), expected, atol=1e-13)


class TestChannelsEqual:
    def test_permuted_kraus_list(self):
        ch = channel_from_dilation(random_gamma(2, RNG))
        permuted = QuantumChannel(d=2, kraus=tuple(reversed(ch.kraus)))
        assert channels_equal(ch, permuted, 1e-10)

    def test_global_phase(self):
        w = np.exp(2j * np.pi / 3)
        a = QuantumChannel(d=3, kraus=(weyl_element(3, 0, 1),))
        b = QuantumChannel(d=3, kraus=(w * weyl_element(3, 0, 1),))
        assert channels_equal(a, b, 1e-12)

    def test_identity_vs_depolarizing(self):
        ident = QuantumChannel(d=2, kraus=(np.eye(2),))
        depol = weyl_channel(uniform_weights(2))
        assert not channels_equal(ident, depol, 1.0)
        dist = frobenius_distance(choi_matrix(ident), choi_matrix(depol))
        assert abs(dist - np.sqrt(3)) < 1e-12  # ||  |Omega><Omega| - I/2 ||_F

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            channels_equal(
                QuantumChannel(d=2, kraus=(np.eye(2),)),
                QuantumChannel(d=3, kraus=(np.eye(3),)),
                1e-10,
            )


class TestQuantumChannelType:
    def test_requires_at_least_one_operator(self):
        with pytest.raises(DomainError):
            QuantumChannel(d=2, kraus=())

    def test_rejects_wrong_shapes(self):
        with pytest.raises(ShapeError):
            QuantumChannel(d=2, kraus=(np.eye(3),))

    def test_kraus_are_immutable(self):
        ch = QuantumChannel(d=2, kraus=(np.eye(2),))
        with pytest.raises(ValueError):
            ch.kraus[0][0, 0] = 7.0

    def test_fields_cannot_be_reassigned(self):
        gamma = GammaTable(np.eye(2, dtype=complex))
        weights = np.full((2, 2), 0.25)
        for ch in (QuantumChannel(d=2, kraus=(np.eye(2),)), channel_from_dilation(gamma), weyl_channel(weights)):
            for name in ("d", "stack", "schur", "_count"):
                with pytest.raises(AttributeError, match="immutable"):
                    setattr(ch, name, None)
                with pytest.raises(AttributeError, match="immutable"):
                    delattr(ch, name)
            assert ch.d == 2 and len(ch) == len(ch.stack)

    # A list of equal-shape matrices is converted in one step; any other list
    # is scanned one operator at a time, so these errors keep their messages.
    @pytest.mark.parametrize(
        "ops, error, message",
        [
            ([np.eye(3), np.eye(3)], ShapeError, "Kraus operators must be 2 x 2, got (3, 3)"),
            ([np.full((2, 2), np.nan), np.eye(3)], ValidationError, "Kraus operator contains non-finite entries"),
            ([np.eye(3), np.full((2, 2), np.nan)], ShapeError, "Kraus operators must be 2 x 2, got (3, 3)"),
            ([np.ones(2), np.ones(2)], ShapeError, "expected a 2-d matrix, got array of rank 1"),
            ([np.eye(2), np.eye(2)[:1]], ShapeError, "Kraus operators must be 2 x 2, got (1, 2)"),
            ([np.eye(2), [["a", "b"], ["c", "d"]]], ValueError, "complex() arg is a malformed string"),
        ],
        ids=["wrong-shape", "nan-before-wrong-shape", "wrong-shape-before-nan", "1-d-items", "ragged", "non-numeric"],
    )
    def test_list_errors(self, ops, error, message):
        with pytest.raises(error) as caught:
            QuantumChannel(d=2, kraus=ops)
        assert type(caught.value) is error and str(caught.value) == message


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: QuantumChannel(d=1, kraus=[np.eye(1)]), DomainError, "channel dimension must be >= 2, got 1"),
        (lambda: weyl_channel(np.full((2, 2), 0.25) + 0.1j), DomainError, "weights must be real"),
        (
            lambda: weyl_channel(np.full((2, 3), 1 / 6)),
            ShapeError,
            "weights must be a square (d, d) table with d >= 2, got (2, 3)",
        ),
        (
            lambda: weyl_channel(np.full((2, 2), 0.25), tol=Tolerances(prune=10.0)),
            DomainError,
            "all weights prune to zero",
        ),
        (
            lambda: kraus_mix(weyl_channel(np.diag([1.0, 0.0])), np.eye(2)),
            ShapeError,
            "mixing matrix must be 1 x 1, got (2, 2)",
        ),
    ],
    ids=["channel-d-1", "complex-weights", "non-square-weights", "all-pruned", "mixing-size"],
)
def test_input_errors(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error and str(caught.value) == message
