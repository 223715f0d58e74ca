"""Whole-array kernels checked against the per-element loops they replaced.

The reference loops below build one Weyl element or one Kraus term at a time.
Where the batched kernel keeps the loop's summation order (basis, reconstruct,
apply_channel, is_trace_preserving) the results must be equal entry for entry;
the Choi matrix is one matrix product, which sums in another order, so it is
compared within a tolerance fixed from binary64 rounding.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import (
    DomainError,
    QuantumChannel,
    ShapeError,
    ValidationError,
    apply_channel,
    channel_from_dilation,
    choi_matrix,
    decompose,
    evolve_pure,
    frobenius_distance,
    is_trace_preserving,
    kraus_mix,
    reconstruct,
    weyl_basis,
    weyl_channel,
    weyl_element,
    weyl_form_of_joint,
)
from weylkit.rand import random_complex_matrix, random_density, random_gamma, random_ket, random_unitary

DIMS = range(2, 33)
PROPERTY_SETTINGS = settings(max_examples=20, deadline=None, database=None)


def _weights(d, rng, nonzero=None):
    """Random Weyl weights; with ``nonzero``, only that many entries are positive."""
    p = rng.random((d, d)) + 0.01
    if nonzero is not None:
        mask = np.zeros(d * d, dtype=bool)
        mask[rng.choice(d * d, size=nonzero, replace=False)] = True
        p = np.where(mask.reshape(d, d), p, 0.0)
    return p / p.sum()


# ---------------------------------------------------------------------------
# per-element reference loops


def ref_reconstruct(xi):
    d = xi.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for l in range(d):
        for k in range(d):
            if xi[l, k] != 0.0:
                out += xi[l, k] * weyl_element(d, l, k)
    return out


def ref_kraus_sum(ch, rho):
    out = np.zeros((ch.d, ch.d), dtype=np.complex128)
    for e in ch.kraus:
        out += e @ rho @ e.conj().T
    return out


def ref_completeness(ch):
    acc = np.zeros((ch.d, ch.d), dtype=np.complex128)
    for e in ch.kraus:
        acc += e.conj().T @ e
    return acc


def ref_choi(ch):
    n = ch.d * ch.d
    j = np.zeros((n, n), dtype=np.complex128)
    for e in ch.kraus:
        v = e.ravel(order="C")
        j += np.outer(v, v.conj())
    return j


# ---------------------------------------------------------------------------
# oracle tests over the whole advertised range


@pytest.mark.parametrize("d", DIMS)
def test_basis_stack_equals_elements(d):
    elements = weyl_basis(d).elements
    assert elements.shape == (d * d, d, d)
    for l in range(d):
        for k in range(d):
            assert np.array_equal(elements[l * d + k], weyl_element(d, l, k))


@pytest.mark.parametrize("d", DIMS)
def test_reconstruct_matches_term_loop(d):
    rng = np.random.default_rng(100 + d)
    xi = decompose(random_complex_matrix(d, rng))
    assert np.array_equal(reconstruct(xi), ref_reconstruct(xi))
    xi[rng.random((d, d)) < 0.5] = 0.0
    assert np.array_equal(reconstruct(xi), ref_reconstruct(xi))


@pytest.mark.parametrize("d", DIMS)
def test_apply_and_completeness_match_kraus_loop(d):
    rng = np.random.default_rng(200 + d)
    rho = random_density(d, rng)
    # Kraus-form copies of both factories' channels, so the batched Kraus kernel runs.
    for source in (channel_from_dilation(random_gamma(d, rng)), weyl_channel(_weights(d, rng))):
        ch = QuantumChannel(d=d, kraus=source.stack)
        assert np.array_equal(apply_channel(ch, rho), ref_kraus_sum(ch, rho))
        _, deficit = is_trace_preserving(ch)
        assert deficit == frobenius_distance(ref_completeness(ch), np.eye(d))


@pytest.mark.parametrize("d", DIMS)
def test_choi_matches_outer_product_loop(d):
    rng = np.random.default_rng(300 + d)
    # Few operators at large d keep the reference loop of d**4-entry outer
    # products cheap; small d also runs the full d**2-operator lists.
    channels = [weyl_channel(_weights(d, rng, nonzero=min(8, d * d)))]
    if d <= 8:
        channels += [channel_from_dilation(random_gamma(d, rng)), weyl_channel(_weights(d, rng))]
    for ch in channels:
        assert np.max(np.abs(choi_matrix(ch) - ref_choi(ch))) <= 1e-14


@pytest.mark.parametrize("d", DIMS)
def test_weyl_form_reassembles_evolve_pure(d):
    rng = np.random.default_rng(400 + d)
    g = random_gamma(d, rng)
    psi = random_ket(d, rng)
    terms = weyl_form_of_joint(psi, g)
    assert [(t.l, t.k) for t in terms] == [(l, k) for l in range(d) for k in range(d)]
    reassembled = sum(np.kron(t.sys, t.env) for t in terms) / d
    assert np.linalg.norm(reassembled - evolve_pure(psi, g)) <= 1e-12


def test_kraus_views_are_read_only_for_both_constructors():
    ops = np.stack([np.eye(2), np.array([[0.0, 1.0], [1.0, 0.0]])]) / np.sqrt(2)
    from_list = QuantumChannel(d=2, kraus=tuple(ops))
    from_stack = QuantumChannel(d=2, kraus=ops)
    for ch in (from_list, from_stack):
        assert not ch.stack.flags.writeable
        for e in ch.kraus:
            with pytest.raises(ValueError):
                e[0, 0] = 7.0
    ops[0, 0, 0] = 7.0  # each channel holds its own copy
    assert from_list.stack[0, 0, 0] == from_stack.stack[0, 0, 0] == 1 / np.sqrt(2)


def test_stack_constructor_keeps_list_checks():
    with pytest.raises(DomainError, match="at least one Kraus operator"):
        QuantumChannel(d=2, kraus=np.zeros((0, 2, 2)))
    with pytest.raises(ShapeError, match="must be 2 x 2, got \\(3, 3\\)"):
        QuantumChannel(d=2, kraus=np.zeros((1, 3, 3)))
    bad = np.zeros((2, 2, 2))
    bad[1, 0, 0] = np.nan
    with pytest.raises(ValidationError, match="non-finite"):
        QuantumChannel(d=2, kraus=bad)


# ---------------------------------------------------------------------------
# properties over d in [2, 32]


@PROPERTY_SETTINGS
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_property_decompose_reconstruct_round_trip(d, seed):
    a = random_complex_matrix(d, np.random.default_rng(seed))
    assert frobenius_distance(reconstruct(decompose(a)), a) <= 1e-12 * max(1.0, np.linalg.norm(a))


@PROPERTY_SETTINGS
@given(d=st.integers(2, 32), seed=st.integers(0, 2**32 - 1))
def test_property_parseval(d, seed):
    a = random_complex_matrix(d, np.random.default_rng(seed))
    xi = decompose(a)
    # ||A||_F**2 = d * sum |xi|**2, since each X_l Z_k has squared norm d.
    assert abs(d * np.sum(np.abs(xi) ** 2) - np.linalg.norm(a) ** 2) <= 1e-12 * np.linalg.norm(a) ** 2


@PROPERTY_SETTINGS
@given(d=st.integers(2, 32), m=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
def test_property_choi_invariant_under_kraus_mix(d, m, seed):
    rng = np.random.default_rng(seed)
    v = np.linalg.qr(rng.standard_normal((m * d, d)) + 1j * rng.standard_normal((m * d, d)))[0]
    ch = QuantumChannel(d=d, kraus=v.reshape(m, d, d))
    mixed = kraus_mix(ch, random_unitary(m, rng))
    assert np.max(np.abs(choi_matrix(mixed) - choi_matrix(ch))) <= 1e-12

