"""Kernels that index through ``DimConstants.flat`` against the formulas they replace.

Each former formula is kept below as the oracle.  The rewritten kernels do
the same arithmetic in the same order, so they must match it byte for byte
(``tobytes()``), signed zeros included, at every d in the advertised range.
The last tests pin the huge-exponent path of ``phase_vector`` and the exit
code of a CLI command whose standard output is closed early.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from weylkit import (
    DEFAULT_TOLERANCES,
    GammaTable,
    QuantumChannel,
    apply_channel,
    channel_from_dilation,
    decompose,
    reconstruct,
    weyl_channel,
    weyl_form_of_joint,
)
from weylkit.rand import random_gamma
from weylkit.weyl import dim_constants, phase_vector

DIMS = range(2, 33)


def _rng(d):
    return np.random.default_rng([2011, d])


def _ginibre(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _signed_zeros(rng, d):
    """A random table with whole zero rows of every sign pattern and scattered (negated) zeros."""
    t = _ginibre(rng, d)
    t[rng.random((d, d)) < 0.25] = 0.0
    t[rng.random((d, d)) < 0.25] *= -1.0
    for row, z in zip(range(d), (complex(-0.0, 0.0), complex(-0.0, -0.0), complex(0.0, -0.0), 0.0)):
        t[row] = z
    t[-1, ::2] = complex(-0.0, -0.0)
    return t


def _wrapped_rows(d):
    n = np.arange(d)
    return (n + n[:, None]) % d


def ref_decompose(a):
    d = a.shape[0]
    return a[_wrapped_rows(d), np.arange(d)] @ dim_constants(d).dft.T / d


def ref_reconstruct(xi):
    d = xi.shape[0]
    phases = dim_constants(d).phases
    diags = np.zeros((d, d), dtype=np.complex128)
    for k in range(d):
        diags += xi[:, k, None] * phases[k]
    out = np.empty((d, d), dtype=np.complex128)
    out[_wrapped_rows(d), np.arange(d)] = diags
    return out


def ref_transition(g, prune):
    d = g.d
    mass = (g.gamma.conj() * g.gamma).real
    keep = np.sqrt(mass) >= prune
    a, b = np.indices((d, d))
    t = np.zeros((d, d))
    t[(a - 2 * b) % d, -b % d] = np.where(keep, mass, 0.0)
    return t


def ref_weyl_form(psi, gamma):
    d = len(psi)
    z = np.arange(d)
    c = dim_constants(d)
    rows = _wrapped_rows(d)
    sys_ = (c.phases * psi)[z[:, None], rows[-z % d][:, None, :]]
    env = np.zeros((d, d, d * d), dtype=np.complex128)
    env[z[:, None, None], z[:, None], rows[:, None, :] * d + z] = c.phases * gamma[rows, z][:, None, :]
    return sys_, env


@pytest.mark.parametrize("d", DIMS)
def test_flat_table_is_read_only_and_matches_its_formula(d):
    c = dim_constants(d)
    n = np.arange(d)
    assert c.flat.tobytes() == (c.rows * d + n).tobytes()
    assert np.array_equal(np.sort(c.flat, axis=None), np.arange(d * d))
    assert not c.flat.flags.writeable
    with pytest.raises(ValueError):
        c.flat[0, 0] = 1


@pytest.mark.parametrize("d", DIMS)
def test_decompose_matches_the_gather_formula(d):
    rng = _rng(d)
    for a in (_ginibre(rng, d), _signed_zeros(rng, d), _ginibre(rng, d).T):  # the last one is not C-contiguous
        assert decompose(a).tobytes() == ref_decompose(np.asarray(a)).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_reconstruct_matches_the_k_loop(d):
    rng = _rng(d)
    for xi in (_ginibre(rng, d), _signed_zeros(rng, d), np.zeros((d, d)), np.full((d, d), complex(-0.0, -0.0))):
        assert reconstruct(xi).tobytes() == ref_reconstruct(xi.astype(np.complex128)).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_transition_matches_the_indices_formula(d):
    rng = _rng(d)
    gamma = random_gamma(d, rng).gamma.copy()
    gamma[rng.random((d, d)) < 0.3] = 0.0  # pruned slots
    gamma[0, 1] = 1e-20  # nonzero, but below the prune threshold
    gamma /= np.linalg.norm(gamma, axis=0)
    g = GammaTable(gamma)
    ch = channel_from_dilation(g)
    assert ch.transition.tobytes() == ref_transition(g, DEFAULT_TOLERANCES.prune).tobytes()
    assert not ch.transition.flags.writeable


@pytest.mark.parametrize("d", DIMS)
def test_kraus_apply_matches_the_batched_product(d):
    rng = _rng(d)
    a = _ginibre(rng, d)
    rho = a @ a.conj().T
    rho /= np.trace(rho)
    p = rng.random((d, d))
    p[0, 1] = 0.0
    sources = (weyl_channel(p / p.sum()).stack, channel_from_dilation(random_gamma(d, rng)).stack)
    for stack in sources:
        ch = QuantumChannel(d=d, kraus=stack)
        want = (stack @ rho @ stack.conj().transpose(0, 2, 1)).sum(axis=0)
        assert apply_channel(ch, rho).tobytes() == want.tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_weyl_form_terms_match_the_index_formula(d):
    rng = _rng(d)
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    g = random_gamma(d, rng)
    sys_, env = ref_weyl_form(psi, g.gamma)
    terms = weyl_form_of_joint(psi, g)
    assert [(t.l, t.k) for t in terms] == [(l, k) for l in range(d) for k in range(d)]
    for t in terms:
        assert type(t.l) is int and type(t.k) is int
        assert t.sys.tobytes() == sys_[t.l, t.k].tobytes()
        assert t.env.tobytes() == env[t.l, t.k].tobytes()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 7, 32])
def test_phase_vector_reduces_huge_exponents_first(d):
    huge = [2**63, 3 * 2**62 + 1, -(2**70), 10**40 + 7, 2**63 - 1, -(2**63)]
    assert phase_vector(d, huge).tobytes() == phase_vector(d, [e % d for e in huge]).tobytes()
    nested = [[1, 2**64], [-(2**65), 5]]
    assert phase_vector(d, nested).tobytes() == phase_vector(d, [[e % d for e in row] for row in nested]).tobytes()
    for e in huge:
        assert np.asarray(phase_vector(d, e)).tobytes() == np.asarray(phase_vector(d, e % d)).tobytes()


def _buffered_env():
    """The child's environment with block-buffered stdout, as in a plain shell."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def _assert_one_error_line(code, err):
    text = err.decode()
    assert code == 2, text
    assert text.startswith("error: cannot write -: ") and text.count("\n") == 1, text
    assert "Traceback" not in text and "Exception ignored" not in text


def test_stdout_closed_mid_artifact_exits_2_without_a_traceback():
    proc = subprocess.Popen(
        [sys.executable, "-m", "weylkit", "basis", "--d", "16"],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_buffered_env(),
    )
    head = proc.stdout.read(10)
    proc.stdout.close()  # the reader goes away, as with `| head -c 10`
    _, err = proc.communicate(timeout=120)
    assert len(head) == 10
    _assert_one_error_line(proc.returncode, err)


def test_stdout_closed_before_a_small_artifact_exits_2_without_a_traceback():
    # The artifact fits in the stdout buffer, so the failure surfaces at the flush, not at the write.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        res = subprocess.run(
            [sys.executable, "-m", "weylkit", "basis", "--d", "2"],
            stdin=subprocess.DEVNULL,
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=_buffered_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    _assert_one_error_line(res.returncode, res.stderr)
