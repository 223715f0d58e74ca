"""The shift-and-Schur tables of the dilation and Weyl channels against their Kraus forms.

``channel_from_dilation`` and ``weyl_channel`` hold the (d, d**2) table ``schur``.
``QuantumChannel(d=d, kraus=ch.stack)`` is the same channel in Kraus form,
run by the batched Kraus kernels; over the whole advertised range the two
forms agree within 1e-12 (a few ULP of quantities of size at most d).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import (
    DEFAULT_TOLERANCES,
    GammaTable,
    QuantumChannel,
    ValidationError,
    apply_channel,
    channel_from_dilation,
    channel_to_json,
    choi_matrix,
    is_trace_preserving,
    make_isometry,
    replace_tolerance,
    unitality_deficit,
    weyl_channel,
    weyl_element,
)
from weylkit.rand import random_density, random_gamma

DIMS = range(2, 33)
TOL = 1e-12
PRUNE = DEFAULT_TOLERANCES.prune


def _sparse_gamma(d, rng):
    """A gamma table with about a third of its entries zero, so the Kraus path prunes slots."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    g[rng.random((d, d)) < 0.67] = 0.0
    g[rng.integers(d), np.arange(d)] = 1.0  # at least one nonzero entry per column
    return GammaTable(g / np.linalg.norm(g, axis=0))


def _channels(d, rng):
    return [channel_from_dilation(random_gamma(d, rng)), channel_from_dilation(_sparse_gamma(d, rng))]


def _max_diff(a, b):
    return float(np.max(np.abs(a - b)))


@pytest.mark.parametrize("d", DIMS)
def test_closed_forms_match_kraus_oracle(d):
    rng = np.random.default_rng(500 + d)
    rho = random_density(d, rng)
    for ch in _channels(d, rng):
        count = len(ch)
        out = apply_channel(ch, rho)
        _, deficit = is_trace_preserving(ch)
        choi = choi_matrix(ch)
        # Neither the count nor the closed-form kernels build the Kraus stack.
        assert "stack" not in vars(ch)
        oracle = QuantumChannel(d=d, kraus=ch.stack)
        assert count == len(oracle)
        assert _max_diff(out, apply_channel(oracle, rho)) <= TOL
        assert abs(deficit - is_trace_preserving(oracle)[1]) <= TOL
        assert _max_diff(choi, choi_matrix(oracle)) <= TOL


@pytest.mark.parametrize("d", [2, 5, 16])
def test_deficit_of_an_incomplete_table_matches_kraus_oracle(d):
    # A table 5 % off normalization, accepted under a loose norm tolerance.
    rng = np.random.default_rng(550 + d)
    loose = replace_tolerance(DEFAULT_TOLERANCES, "norm", 0.1)
    g = GammaTable(random_gamma(d, rng).gamma * np.sqrt(1.05), tol=loose)
    ch = channel_from_dilation(g, tol=loose)
    oracle = QuantumChannel(d=d, kraus=ch.stack)
    ok, deficit = is_trace_preserving(ch)
    assert not ok and abs(deficit - np.sqrt(d) * 0.05) <= TOL
    assert abs(deficit - is_trace_preserving(oracle)[1]) <= TOL
    with pytest.raises(ValidationError, match="not CPTP"):
        apply_channel(ch, random_density(d, rng))


def test_dilation_count_matches_pruning_at_the_threshold():
    # Slots with |gamma| just above, at and just below tol.prune.
    d = 3
    g = np.eye(d, dtype=complex)
    g[1:, 0] = [PRUNE, PRUNE * (1 - 1e-6)]
    g[2, 1] = PRUNE * (1 + 1e-6)
    g[:, :2] /= np.linalg.norm(g[:, :2], axis=0)
    ch = channel_from_dilation(GammaTable(g))
    assert len(ch) == len(ch.stack) == 5
    # A pruned slot contributes nothing to the table either.
    assert np.count_nonzero(ch.schur) == 5


def _former_dilation_kraus(g):
    """The Kraus stack the dilation factory built before, sliced here from V."""
    d = g.d
    ops = make_isometry(g).reshape(d, d * d, d).transpose(1, 0, 2)
    return ops[np.linalg.norm(ops, axis=(1, 2)) >= PRUNE]


@pytest.mark.parametrize("d", range(2, 9))
def test_channel_documents_are_unchanged(d):
    rng = np.random.default_rng(600 + d)
    for g in (random_gamma(d, rng), _sparse_gamma(d, rng)):
        former = QuantumChannel(d=d, kraus=_former_dilation_kraus(g))
        assert channel_to_json(channel_from_dilation(g)) == channel_to_json(former)


def test_dilation_output_is_diagonal():
    rng = np.random.default_rng(800)
    d = 5
    out = apply_channel(channel_from_dilation(random_gamma(d, rng)), random_density(d, rng))
    assert np.count_nonzero(out - np.diag(np.diagonal(out))) == 0


def test_closed_form_and_kraus_views_are_read_only():
    rng = np.random.default_rng(900)
    ch = channel_from_dilation(random_gamma(3, rng))
    with pytest.raises(ValueError):
        ch.schur[0, 0] = 7.0
    assert ch.stack is ch.stack and not ch.stack.flags.writeable
    assert ch.kraus is ch.kraus and len(ch.kraus) == len(ch)
    with pytest.raises(ValueError):
        ch.kraus[0][0, 0] = 7.0


@settings(max_examples=20, deadline=None, database=None)
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1), weyl=st.booleans())
def test_property_factories_are_cptp(d, seed, weyl):
    rng = np.random.default_rng(seed)
    if weyl:
        p = rng.random((d, d))
        ch = weyl_channel(p / p.sum())
    else:
        ch = channel_from_dilation(random_gamma(d, rng))
    ok, deficit = is_trace_preserving(ch)
    assert ok and deficit <= TOL
    j = choi_matrix(ch)
    assert _max_diff(j, j.conj().T) <= TOL
    assert abs(np.trace(j) - d) <= TOL
    assert np.linalg.eigvalsh(j).min() >= -TOL
    apply_channel(ch, random_density(d, rng))  # the output is validated as a state


def _weight_table(d, rng, kind):
    """A random, a sparse (about two thirds zero) or a prune-threshold weight table summing to 1."""
    p = rng.random((d, d))
    if kind == "sparse":
        p[rng.random((d, d)) < 0.67] = 0.0
        p[rng.integers(d), rng.integers(d)] = 1.0
    if kind == "prune":  # weights at, just above and just below the threshold sqrt(p * d) >= prune
        at = PRUNE ** 2 / d
        tiny = rng.choice(d * d, size=3, replace=False)
        p.flat[tiny] = 0.0
        p *= (1.0 - 3 * at) / p.sum()
        p.flat[tiny] = [at, at * (1 + 1e-6), at * (1 - 1e-6)]
        return p
    return p / p.sum()


def _prune_gamma(d, rng):
    """A random gamma table with slots at, just above and (for d >= 3) just below the threshold |gamma| >= prune."""
    g = random_gamma(d, rng).gamma.copy()
    levels = PRUNE * np.array([1.0, 1 + 1e-6, 1 - 1e-6])[:d]
    cols = np.arange(len(levels))
    g[0, cols] = levels
    g[1:, cols] *= np.sqrt(1 - levels**2) / np.linalg.norm(g[1:, cols], axis=0)
    return GammaTable(g)


def _factory_channel(d, rng, factory, kind):
    if factory == "weyl":
        return weyl_channel(_weight_table(d, rng, kind))
    make = {"random": random_gamma, "sparse": _sparse_gamma, "prune": _prune_gamma}[kind]
    return channel_from_dilation(make(d, rng))


@settings(max_examples=30, deadline=None, database=None)
@given(
    d=st.integers(2, 32),
    seed=st.integers(0, 2**32 - 1),
    factory=st.sampled_from(["weyl", "dilation"]),
    kind=st.sampled_from(["random", "sparse", "prune"]),
)
def test_property_schur_table_matches_kraus_oracle(d, seed, factory, kind):
    rng = np.random.default_rng(seed)
    ch = _factory_channel(d, rng, factory, kind)
    oracle = QuantumChannel(d=d, kraus=ch.stack)
    assert oracle.schur is None and len(ch) == len(oracle)
    if factory == "dilation":  # one diagonal entry per kept slot, and none for a pruned one
        assert np.count_nonzero(ch.schur) == len(ch)
    rho = random_density(d, rng)
    assert _max_diff(apply_channel(ch, rho), apply_channel(oracle, rho)) <= TOL
    assert _max_diff(choi_matrix(ch), choi_matrix(oracle)) <= TOL
    assert abs(is_trace_preserving(ch)[1] - is_trace_preserving(oracle)[1]) <= TOL
    assert abs(unitality_deficit(ch) - unitality_deficit(oracle)) <= TOL


@pytest.mark.parametrize("d", [3, 5])
def test_weyl_table_sign_is_pinned(d):
    # One conjugation by W = X_1 Z_1, built from its entries: at d >= 3, omega and omega**-1 differ,
    # so a negated shift or phase in the table forms fails here.
    p = np.zeros((d, d))
    p[1, 1] = 1.0
    ch = weyl_channel(p)
    w = weyl_element(d, 1, 1)
    rho = random_density(d, np.random.default_rng(950 + d))
    assert _max_diff(apply_channel(ch, rho), w @ rho @ w.conj().T) <= TOL
    assert _max_diff(choi_matrix(ch), np.outer(w.ravel(), w.ravel().conj())) <= TOL


def test_schur_table_is_read_only_and_held_by_factory_channels_alone():
    rng = np.random.default_rng(960)
    p = _weight_table(3, rng, "prune")
    weyl, dil = weyl_channel(p), channel_from_dilation(_prune_gamma(4, rng))
    for ch in (weyl, dil):
        assert ch.schur.dtype == np.complex128 and ch.schur.shape == (ch.d, ch.d**2)
        assert not ch.schur.flags.writeable
        with pytest.raises(ValueError):
            ch.schur[0, 0] = 1.0
        assert QuantumChannel(d=ch.d, kraus=ch.stack).schur is None
    # A pruned weight adds nothing to the table, and a pruned slot leaves its diagonal entry zero.
    assert weyl.schur.tobytes() == weyl_channel(np.where(np.sqrt(p * 3) >= PRUNE, p, 0.0)).schur.tobytes()
    assert np.count_nonzero(dil.schur) == len(dil) == 4 * 4 - 1
