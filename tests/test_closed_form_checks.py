"""Closed-form checks on the small-d path against the formulas they replace.

Kept below as oracles: the eigvalsh form of the density-matrix check, the
Weyl-weight checks one at a time, ``np.linalg.norm``, the kron sum of the
Weyl regrouping, the traced dense joint that verify's regrouped output
replaces above d = 12, and the Kraus sum ``sum_m E_m E_m^dagger``.  Where the
arithmetic is unchanged the results must match byte for byte, and error
checks must raise the same class with the same message.  The last part
covers one check per state: the density check from a diagonal vector, its
overflow guard, and ``apply_channel`` checking its input and its output once
per call.
"""

import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

import weylkit.channels as channels_module
from weylkit import (
    DEFAULT_TOLERANCES,
    GammaTable,
    QuantumChannel,
    apply_channel,
    channel_from_dilation,
    coefficients_to_json,
    gamma_to_json,
    make_isometry,
    matrix_to_json,
    unitality_deficit,
    vector_to_json,
    weyl_channel,
)
from weylkit.config import replace_tolerance
from weylkit.dilation import _weyl_form_arrays, _weyl_form_index, evolve_density
from weylkit.errors import DomainError, ShapeError, ValidationError
from weylkit.numerics import _norm, partial_trace_env, validate_density_matrix
from weylkit.rand import random_density, random_gamma, random_ket
from weylkit.verify import _regrouped_output
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


@pytest.mark.parametrize("d", [2, 3, 5, 8, 12])
def test_regrouped_output_is_the_traced_dense_joint(d):
    rng = _rng(d)
    g, rho = random_gamma(d, rng), random_density(d, rng)
    via_trace = partial_trace_env(evolve_density(rho, g), d, d * d)
    np.testing.assert_allclose(_regrouped_output(rho, g), via_trace, rtol=0, atol=1e-15)


@pytest.mark.parametrize("d", [16, 32])
def test_regrouped_output_is_the_channel_output_past_the_dense_joint(d):
    rng = _rng(d)
    g, rho = random_gamma(d, rng), random_density(d, rng)
    out = apply_channel(channel_from_dilation(g), rho)
    np.testing.assert_allclose(_regrouped_output(rho, g), out, rtol=0, atol=1e-15)


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

    def test_takes_the_stack_without_copying(self):
        stack = np.stack([np.eye(2, dtype=np.complex128)])
        ch = QuantumChannel._made(2, 1, stack)
        assert ch.stack is stack and not stack.flags.writeable and len(ch) == 1


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
    # weyl_channel's weight check writes no numpy warning.
    p = np.full((3, 3), 1.0 / 9)
    p.flat[: len(entries)] = entries
    with np.errstate(all="ignore"):
        try:
            ref_weyl_weight_checks(p)
            want = None
        except DomainError as exc:
            want = str(exc)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
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
    # The mixture recipe that replaces the removed ensemble_to_density (numpy warns on inf * 0).
    half = np.eye(2) / 2
    with np.errstate(invalid="ignore"), pytest.raises(ValidationError, match="^density matrix contains non-finite"):
        validate_density_matrix(np.tensordot([bad, 1.0], [half, half], 1))


# ---------------------------------------------------------------------------
# one density check per state: the guarded check, its diagonal path, and
# apply_channel checking its input and its output once each


def ref_check(rho):
    """The reference check, with numpy's warnings silenced for the entries that overflow it."""
    with np.errstate(all="ignore"):
        return ref_validate_density_matrix(rho)


def _state_cases(d, rng):
    """Real-diagonal, complex-diagonal and dense states, valid and not, with NaN, +-inf and +-1e308 entries.

    None of them reaches the reference's eigvalsh with an entry that overflows it (see the test below).
    """
    yield from _diagonal_cases(d, rng)
    p = rng.random(d)
    p /= p.sum()
    for big in ([1e308], [-1e308], [1e308, 1e308], [1e308, -1e308], [1.7976931348623157e308] * 2):
        v = p.astype(np.complex128)
        v[: len(big)] = big
        yield np.diag(v)  # a trace far from 1, or one that overflows
    yield np.diag(p + 1e308j)  # a Hermitian defect and a trace that overflow
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    dense = g @ g.conj().T
    dense /= np.trace(dense).real
    yield dense  # valid
    yield 2 * dense  # wrong trace
    yield dense + 1e-3 * (g - g.conj().T)  # not Hermitian
    h = (g + g.conj().T) / 2
    yield h + (1 - np.trace(h).real) / d * np.eye(d)  # unit trace, Hermitian, mostly indefinite
    for bad in (np.nan, np.inf, -np.inf, 1e308):
        m = dense.copy()
        m[0, 0] = bad
        yield m
        m = dense.copy()
        m[0, d - 1] = bad
        yield m  # NaN, inf off the diagonal; 1e308 makes it non-Hermitian
    m = dense.copy()
    m[0, 1], m[1, 0] = 1e308, -1e308
    yield m  # a Hermitian defect that overflows


@pytest.mark.parametrize("d", DIMS)
def test_density_check_matches_the_reference(d):
    for rho in _state_cases(d, _rng(d)):
        assert _outcome(validate_density_matrix, rho) == _outcome(ref_check, rho), rho


@pytest.mark.parametrize("d", DIMS)
def test_apply_channel_checks_its_input_as_the_reference(d):
    ch = weyl_channel(np.full((d, d), 1.0 / d ** 2))
    for rho in _state_cases(d, _rng(d)):
        want = _outcome(ref_check, rho)
        if want[0] == "ok":
            continue
        try:
            apply_channel(ch, rho)
            got = "ok"
        except ValidationError as exc:
            got = (type(exc), str(exc))
        assert got == want, rho


def _transition_cases(d, rng):
    t = rng.random((d, d))
    t /= t.sum(axis=0)
    yield t  # column-stochastic: a valid output
    yield 2 * t  # trace 2
    neg = t.copy()
    neg[0, 0], neg[1, 0] = neg[0, 0] - 1.0, neg[1, 0] + 1.0
    yield neg  # a negative output entry, unit trace
    for bad in (np.nan, np.inf, 1e308):
        odd = t.copy()
        odd[0, 0] = bad
        yield odd


@pytest.mark.parametrize("d", DIMS)
def test_dilation_output_is_checked_from_its_diagonal_as_the_reference(d):
    rng = _rng(d)
    p = rng.random(d)
    p /= p.sum()
    l, i = np.indices((d, d))
    # The second state has imaginary parts within tol.herm on its diagonal, so its outputs do too.
    for rho in (np.diag(p + 0j), np.diag(p + 1e-12j * rng.random(d))):
        for t in _transition_cases(d, rng):
            schur = np.zeros((d, d * d), dtype=np.complex128)
            schur[l, i * (d + 1)] = t[i, (i - l) % d]  # the dilation table of T
            ch = QuantumChannel._made(d, d, schur=schur)
            with np.errstate(all="ignore"):  # T times diag(rho) with an inf or NaN in T
                x = np.diagonal(rho)
                diag = schur[0, :: d + 1] * x  # sum_l T[i, i - l] rho[i - l, i - l], in l order
                for shift in range(1, d):
                    diag = diag + schur[shift, :: d + 1] * np.roll(x, shift)
                want = _outcome(ref_check, np.diag(diag))
                try:
                    got = "ok", apply_channel(ch, rho).tobytes()
                except ValidationError as exc:
                    got = type(exc), str(exc)
            if want[0] != "ok":
                want = want[0], f"channel output is not a valid state ({want[1]}); the Kraus list is not CPTP"
            assert got == want


@pytest.mark.parametrize("d", DIMS)
def test_trace_of_a_diagonal_vector_is_the_matrix_trace(d):
    rng = _rng(d)
    for _ in range(200):
        a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        scale = 10.0 ** rng.integers(-20, 20, size=d)
        a[np.diag_indices(d)] *= scale
        assert np.complex128(np.add.reduce(a.diagonal().copy())).tobytes() == a.trace().tobytes()


@pytest.mark.parametrize("d", [2, 3, 8, 32])
@pytest.mark.parametrize("big", [1e308, 1.7976931348623157e308])
def test_an_overflowing_indefinite_state_is_rejected(d, big):
    # The reference forms (rho + rho^dagger) / 2 with an inf in it: eigvalsh then
    # returns NaN (accepted at d = 2) or does not converge (a traceback at d = 3).
    rho = np.eye(d, dtype=np.complex128) / d
    rho[0, 1] = rho[1, 0] = big
    msg = f"not positive semidefinite (min eigenvalue {-big:.3e} < -1.000e-09)"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValidationError, match=f"^invalid density matrix: {re.escape(msg)}$"):
            validate_density_matrix(rho)


@pytest.mark.parametrize("d", [2, 5, 32])
def test_overflowing_states_raise_without_numpy_warnings(d):
    rng = _rng(d)
    ch = channel_from_dilation(random_gamma(d, rng))
    states = [rho for rho in _state_cases(d, rng) if np.isfinite(rho).all() and np.abs(rho).max() >= 1e300]
    states.append(np.eye(d) / d + np.eye(d, k=1) * 1e308 + np.eye(d, k=-1) * 1e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for rho in states:
            for check in (validate_density_matrix, lambda r: apply_channel(ch, r)):
                with pytest.raises(ValidationError):
                    check(rho)


@pytest.fixture
def counted_checks(monkeypatch):
    """Every state apply_channel hands to validate_density_matrix."""
    checked = []
    real = channels_module.validate_density_matrix

    def counting(rho, *, tol=DEFAULT_TOLERANCES):
        checked.append(rho)
        return real(rho, tol=tol)

    monkeypatch.setattr(channels_module, "validate_density_matrix", counting)
    return checked


def _weights(d, rng):
    w = rng.random((d, d))
    return w / w.sum()


class TestOneCheckPerState:
    def test_every_call_checks_its_input_and_output_once(self, counted_checks):
        rng = _rng(3)
        dil, wey = channel_from_dilation(random_gamma(3, rng)), weyl_channel(_weights(3, rng))
        rho = random_density(3, rng)
        names = dict(vars(channels_module))
        out1 = apply_channel(dil, rho)
        out2 = apply_channel(wey, out1)
        out3 = apply_channel(dil, out2)
        assert list(map(id, counted_checks)) == list(map(id, (rho, out1, out1, out2, out2, out3)))
        assert vars(channels_module).items() == names.items()  # the module keeps no record between calls

    @pytest.mark.parametrize(
        "change",
        [
            lambda out: out.copy(),
            lambda out: out.reshape(out.shape),
            lambda out: out.astype(np.clongdouble),
            lambda out: out.T,
        ],
        ids=["copy", "reshaped", "dtype", "transposed"],
    )
    def test_another_array_is_checked(self, counted_checks, change):
        rng = _rng(4)
        dil, wey = channel_from_dilation(random_gamma(4, rng)), weyl_channel(_weights(4, rng))
        out = apply_channel(dil, random_density(4, rng))
        other = change(out)
        counted_checks.clear()
        apply_channel(wey, other)
        assert counted_checks[0] is other and len(counted_checks) == 2

    def test_output_edited_in_place_is_checked(self):
        rng = _rng(5)
        dil, wey = channel_from_dilation(random_gamma(5, rng)), weyl_channel(_weights(5, rng))
        out = apply_channel(dil, random_density(5, rng))
        out[0, 0] += 0.5
        with pytest.raises(ValidationError, match=r"^invalid density matrix: trace \(1\.5"):
            apply_channel(wey, out)

    def test_output_edited_to_another_valid_state_is_checked(self, counted_checks):
        rng = _rng(5)
        dil, wey = channel_from_dilation(random_gamma(5, rng)), weyl_channel(_weights(5, rng))
        out = apply_channel(dil, random_density(5, rng))
        out[[0, 1], [0, 1]] = out[[1, 0], [1, 0]]
        counted_checks.clear()
        apply_channel(wey, out)
        assert counted_checks[0] is out

    @pytest.mark.parametrize("attr, value", [("shape", (1, 36)), ("dtype", np.float64)])
    def test_reshaped_or_retyped_in_place_is_checked(self, attr, value):
        rng = _rng(6)
        dil, wey = channel_from_dilation(random_gamma(6, rng)), weyl_channel(_weights(6, rng))
        out = apply_channel(dil, random_density(6, rng))
        setattr(out, attr, value)  # same object and bytes, another matrix
        with pytest.raises(ShapeError, match="^density matrix must be square"):
            apply_channel(wey, out)

    def test_retyped_in_place_to_the_same_item_size_is_checked(self, counted_checks):
        rng = _rng(3)
        dil, wey = channel_from_dilation(random_gamma(3, rng)), weyl_channel(_weights(3, rng))
        out = apply_channel(dil, random_density(3, rng))
        out.dtype = np.dtype([("re", "f8"), ("im", "f8")])  # same object, shape and bytes
        counted_checks.clear()
        with pytest.raises(TypeError):
            apply_channel(wey, out)
        assert [x is out for x in counted_checks] == [True]

    def test_other_tolerances_object_is_checked(self, counted_checks):
        rng = _rng(3)
        dil, wey = channel_from_dilation(random_gamma(3, rng)), weyl_channel(_weights(3, rng))
        out = apply_channel(dil, random_density(3, rng))
        equal = replace_tolerance(DEFAULT_TOLERANCES, "norm", DEFAULT_TOLERANCES.norm)
        counted_checks.clear()
        apply_channel(wey, out, tol=equal)
        assert counted_checks[0] is out

    def test_collected_output_leaves_no_state(self):
        rng = _rng(2)
        dil = channel_from_dilation(random_gamma(2, rng))
        apply_channel(dil, random_density(2, rng))  # its output is dropped at once
        with pytest.raises(ShapeError, match="^expected a 2-d matrix, got array of rank 0$"):
            apply_channel(dil, None)

    @pytest.mark.parametrize("d", [2, 5, 8, 32])
    def test_chained_dilation_then_weyl_calls_eigvalsh_for_the_dense_input_only(self, d, monkeypatch):
        rng = _rng(d)
        dil, wey = channel_from_dilation(random_gamma(d, rng)), weyl_channel(_weights(d, rng))
        rho = random_density(d, rng)
        eigvalsh = np.linalg.eigvalsh
        calls = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
        apply_channel(wey, apply_channel(dil, rho))
        assert calls == [(d, d)]


def _overflow_documents(tmp_path):
    big = np.diag([1e308, 1e308]).astype(np.complex128)
    (tmp_path / "big.json").write_text(matrix_to_json(big))
    (tmp_path / "xi.json").write_text(coefficients_to_json(np.full((2, 2), 1e308)))
    (tmp_path / "g.json").write_text(gamma_to_json(GammaTable.uniform(2)))
    (tmp_path / "wc.json").write_text(matrix_to_json(np.full((2, 2), 0.25 + 0.5j)))
    (tmp_path / "psi3.json").write_text(vector_to_json(np.eye(3)[0]))
    (tmp_path / "g13.json").write_text(gamma_to_json(GammaTable.uniform(13)))
    return tmp_path


@pytest.mark.parametrize(
    "argv, code, line",
    [
        (["decompose", "--in", "big.json"], 3, "error: decompose: the result overflows the float range"),
        (["reconstruct", "--in", "xi.json"], 3, "error: reconstruct: the result overflows the float range"),
        (
            ["channel", "--gamma", "g.json", "--rho", "big.json"],
            3,
            "error: invalid density matrix: trace (inf+0j) is not 1 within 1.000e-10",
        ),
        (["channel", "--weights", "wc.json", "--rho", "big.json"], 3, "error: weights must be real"),
        (
            ["dilate", "--gamma", "g.json", "--state", "psi3.json"],
            2,
            "error: state dimension 3 does not match gamma dimension 2",
        ),
        (  # refused before the state file, which does not exist, is read
            ["dilate", "--gamma", "g13.json", "--state", "missing.json", "--density"],
            3,
            "error: the joint density for d=13 needs 77228944 bytes, over the 47775744-byte budget",
        ),
    ],
    ids=["decompose", "reconstruct", "channel", "complex_weights", "dilate_state_size", "dilate_density_budget"],
)
def test_cli_overflow_is_one_error_line(tmp_path, argv, code, line):
    res = subprocess.run(
        [sys.executable, "-m", "weylkit", *argv], cwd=_overflow_documents(tmp_path), capture_output=True, text=True
    )
    assert (res.returncode, res.stdout, res.stderr) == (code, "", line + "\n")
