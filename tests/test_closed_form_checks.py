"""Closed-form checks on the small-d path against the formulas they replace.

Kept below as oracles: the eigvalsh form of the density-matrix check, the
Weyl-weight checks one at a time, ``np.linalg.norm``, the kron sum of the
Weyl regrouping and the Kraus sum ``sum_m E_m E_m^dagger``.  Where the
arithmetic is unchanged the results must match byte for byte, and error
checks must raise the same class with the same message.
"""

import numpy as np
import pytest

from weylkit import (
    DEFAULT_TOLERANCES,
    GammaTable,
    QuantumChannel,
    channel_from_dilation,
    ensemble_to_density,
    make_isometry,
    unitality_deficit,
    weyl_channel,
)
from weylkit.dilation import _weyl_form_arrays, _weyl_form_index
from weylkit.errors import DomainError, ValidationError
from weylkit.numerics import _norm, validate_density_matrix
from weylkit.rand import random_gamma, random_ket
from weylkit.weyl import _MEMO_DIMS, dim_constants

DIMS = range(2, 33)


def _rng(d):
    return np.random.default_rng([1211, d])


def ref_validate_density_matrix(rho, tol=DEFAULT_TOLERANCES):
    """The check with the spectrum always from eigvalsh, as before the diagonal closed form."""
    rho = np.asarray(rho, dtype=np.complex128)
    if not np.isfinite(rho).all():
        raise ValidationError("density matrix contains non-finite entries")
    failures = []
    rho_h = rho.conj().T
    herm_defect = float(np.linalg.norm(rho - rho_h))
    if herm_defect > tol.herm:
        failures.append(f"not Hermitian (defect {herm_defect:.3e} > {tol.herm:.3e})")
    tr = complex(rho.trace())
    if abs(tr - 1.0) > tol.norm:
        failures.append(f"trace {tr!r} is not 1 within {tol.norm:.3e}")
    if not failures:
        lo = float(np.linalg.eigvalsh((rho + rho_h) / 2.0)[0])
        if lo < -tol.psd:
            failures.append(f"not positive semidefinite (min eigenvalue {lo:.3e} < -{tol.psd:.3e})")
    if failures:
        raise ValidationError("invalid density matrix: " + "; ".join(failures))
    return rho


def _outcome(check, rho):
    try:
        return "ok", check(rho).tobytes()
    except ValidationError as exc:
        return type(exc), str(exc)


def _diagonal_cases(d, rng):
    p = rng.random(d)
    p /= p.sum()
    yield np.diag(p)  # valid
    yield np.diag(np.r_[1.0, np.zeros(d - 1)])  # a pure state, zeros on the diagonal
    neg = p.copy()
    neg[0], neg[1] = -0.1, neg[1] + neg[0] + 0.1
    yield np.diag(neg)  # a negative entry, unit trace
    tiny = p.copy()
    tiny[0], tiny[1] = -1e-13, tiny[1] + tiny[0] + 1e-13
    yield np.diag(tiny)  # negative within tol.psd
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        v = p.astype(np.complex128)
        v[d // 2] = bad
        yield np.diag(v)
    yield np.diag(p + 0.01j)  # complex diagonal: not Hermitian
    yield np.diag(p + 1e-12j)  # complex within tol.herm
    yield np.diag(2 * p)  # wrong trace
    yield np.diag(2 * p + 0.01j)  # wrong trace and not Hermitian
    negzero = np.diag(p).astype(np.complex128)
    negzero[0, 1] = complex(-0.0, -0.0)
    negzero[1, 0] = -0.0
    yield negzero


@pytest.mark.parametrize("d", DIMS)
def test_diagonal_states_match_the_eigvalsh_check(d):
    rng = _rng(d)
    for rho in _diagonal_cases(d, rng):
        assert _outcome(validate_density_matrix, rho) == _outcome(ref_validate_density_matrix, rho), np.diagonal(rho)


@pytest.mark.parametrize("d", [2, 3, 8, 32])
def test_dense_and_off_diagonal_nan_take_the_generic_path(d, monkeypatch):
    rng = _rng(d)
    eigvalsh = np.linalg.eigvalsh
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    p = rng.random(d)
    p /= p.sum()
    rho = np.diag(p).astype(np.complex128)
    validate_density_matrix(rho)
    assert calls == []
    rho[0, d - 1] = rho[d - 1, 0] = 1e-3  # one off-diagonal pair: the spectrum is no longer the diagonal
    assert _outcome(validate_density_matrix, rho) == _outcome(ref_validate_density_matrix, rho)
    assert len(calls) == 2  # one of them from the oracle
    rho[0, d - 1] = np.nan
    rho[d - 1, 0] = 0.0  # the diagonal is finite: only a scan of the whole matrix sees the NaN
    with pytest.raises(ValidationError, match="^density matrix contains non-finite entries$"):
        validate_density_matrix(rho)


@pytest.mark.parametrize("d", [1, 2, 5, 32])
def test_norm_matches_numpy(d):
    rng = _rng(d)
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    for x in (a, a.T, a[:, ::2], a[0], np.zeros((d, 0), dtype=np.complex128), np.full(d, np.inf + 0j)):
        assert np.float64(_norm(x)).tobytes() == np.linalg.norm(x).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_weyl_form_kernel_reassembles_the_joint(d):
    rng = _rng(d)
    g = random_gamma(d, rng)
    psi = random_ket(d, rng)
    sys_, env = _weyl_form_arrays(psi, g)
    assert sys_.shape == (d * d, d) and env.shape == (d * d, d * d)
    kron_sum = sum(np.kron(s, e) for s, e in zip(sys_, env)) / d
    direct = make_isometry(g) @ psi
    np.testing.assert_allclose((sys_.T @ env).ravel() / d, kron_sum, rtol=0, atol=1e-13)
    np.testing.assert_allclose(kron_sum, direct, rtol=0, atol=1e-13)


def test_weyl_form_index_memo_is_bounded_and_read_only():
    assert _weyl_form_index.cache_info().maxsize == _MEMO_DIMS
    for d in (2, 7):
        gather, scatter, ls, ks = _weyl_form_index(d)
        assert gather.size == scatter.size == d ** 3
        assert not gather.flags.writeable and not scatter.flags.writeable
        assert ls == tuple(l for l in range(d) for _ in range(d)) and ks == tuple(range(d)) * d


@pytest.mark.parametrize("d", [2, 5, 32])
def test_flat_neg_is_flat_at_negated_columns(d):
    c = dim_constants(d)
    assert c.flat_neg.tobytes() == c.flat[:, -np.arange(d) % d].tobytes()


class TestFreshKrausStack:
    def test_weyl_channel_stack_is_read_only_and_owned(self):
        ch = weyl_channel(np.full((3, 3), 1.0 / 9))
        assert len(ch) == 9 and ch.stack.shape == (9, 3, 3)
        assert not ch.stack.flags.writeable and ch.stack.flags.owndata
        with pytest.raises(ValueError):
            ch.stack[0, 0, 0] = 1.0

    def test_takes_the_stack_without_copying_and_rejects_non_finite(self):
        stack = np.stack([np.eye(2, dtype=np.complex128)])
        ch = QuantumChannel._fresh(2, stack)
        assert ch.stack is stack and not stack.flags.writeable and len(ch) == 1
        for bad in (np.nan, np.inf):
            stack = np.stack([np.eye(2, dtype=np.complex128)])
            stack[0, 1, 0] = bad
            with pytest.raises(ValidationError, match="^Kraus operator contains non-finite entries$"):
                QuantumChannel._fresh(2, stack)


def ref_weyl_weight_checks(p, tol=DEFAULT_TOLERANCES):
    """The weight checks one at a time, in their documented order."""
    if not np.isfinite(p).all():
        raise DomainError("weights must be finite")
    if (p < 0).any():
        raise DomainError(f"weights must be nonnegative, got minimum {float(p.min())!r}")
    total = float(p.sum())
    if abs(total - 1.0) > tol.norm:
        raise DomainError(f"weights must sum to 1 within {tol.norm}, got {total!r}")


@pytest.mark.parametrize(
    "entries",
    [
        [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf], [np.inf, -1.0], [-1.0, np.nan], [-0.25],
        [1e308, 1e308], [1e308, 1e308, -1.0], [0.5], [0.0], [-0.0],
    ],
)
def test_weyl_weight_messages_keep_their_order(entries):
    p = np.full((3, 3), 1.0 / 9)
    p.flat[: len(entries)] = entries
    with np.errstate(all="ignore"):
        try:
            ref_weyl_weight_checks(p)
            want = None
        except DomainError as exc:
            want = str(exc)
        try:
            weyl_channel(p)
            got = None
        except DomainError as exc:
            got = str(exc)
    assert got == want


@pytest.mark.parametrize("d", DIMS)
def test_unitality_deficit_of_a_dilation_channel_in_closed_form(d):
    rng = _rng(d)
    gamma = random_gamma(d, rng).gamma.copy()
    gamma[rng.random((d, d)) < 0.3] = 0.0  # pruned slots
    gamma[0, 1] = 1e-20  # nonzero, but below the prune threshold
    gamma /= np.linalg.norm(gamma, axis=0)
    ch = channel_from_dilation(GammaTable(gamma))
    got = unitality_deficit(ch)
    assert "stack" not in vars(ch)
    assert abs(got - unitality_deficit(QuantumChannel(d=d, kraus=ch.stack))) <= 1e-12


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ensemble_rejects_non_finite_weights(bad):
    half = np.eye(2) / 2
    with pytest.raises(DomainError, match="^weights must be finite$"):
        ensemble_to_density([bad, 1.0], [half, half])
