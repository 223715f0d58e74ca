"""Kernels that build Weyl operators from their monomial form, checked against dense references.

Column n of ``X_l Z_k`` holds ``omega**(n*k)`` at row ``(n + l) % d``.  The Weyl
channel's Kraus stack, the Weyl-form system vectors and the Lie-closure check
all work from that layout; the dense products they replaced are kept here as
oracles.
"""

import numpy as np
import pytest

from weylkit import (
    DomainError,
    WeylIndex,
    clock_matrix,
    commutator_in_basis,
    reconstruct,
    shift_matrix,
    weyl_channel,
    weyl_element,
    weyl_form_of_joint,
)
from weylkit import verify
from weylkit.cli import run
from weylkit.rand import random_gamma, random_ket
from weylkit.verify import _bracket_coefficients, run_verification


@pytest.mark.parametrize("d", range(2, 7))
def test_closed_form_commutators_match_dense(d):
    for l in range(d):
        coefficients = _bracket_coefficients(d, l)
        for k in range(d):
            for m in range(d):
                for n in range(d):
                    dense = reconstruct(commutator_in_basis(WeylIndex(l, k, d), WeylIndex(m, n, d)))
                    closed = coefficients[k, m, n] * weyl_element(d, l + m, k + n)
                    assert np.max(np.abs(closed - dense)) <= 1e-12


def test_wrong_structure_constant_fails_lie_closure(monkeypatch):
    assert all(c.passed for c in run_verification([3], draws=1).checks if c.name == "lie_closure")

    def commuting(d, l):
        e = np.arange(d)
        km = np.exp(2j * np.pi * (np.outer(e, e) % d) / d)[:, :, None]
        return km - km  # omega**(k*m) in both terms

    monkeypatch.setattr(verify, "_bracket_coefficients", commuting)
    (check,) = [c for c in run_verification([3], draws=1).checks if c.name == "lie_closure"]
    assert not check.passed
    assert check.residual > 1.0


@pytest.mark.parametrize("d", [*range(2, 9), 16, 32])
def test_weyl_channel_stack_equals_scaled_element_loop(d):
    rng = np.random.default_rng(700 + d)
    p = rng.random((d, d)) + 0.01
    p[0, 1] = p[d - 1, d - 1] = 0.0  # pruned slots are left out
    p /= p.sum()
    ref = [np.sqrt(p[l, k]) * weyl_element(d, l, k) for l in range(d) for k in range(d) if p[l, k] > 0]
    assert weyl_channel(p).stack.tobytes() == np.stack(ref).tobytes()


@pytest.mark.parametrize("d", range(2, 33))
def test_weyl_form_sys_vectors_match_dense_products(d):
    rng = np.random.default_rng(800 + d)
    g = random_gamma(d, rng)
    psi = random_ket(d, rng)
    for t in weyl_form_of_joint(psi, g):
        assert np.max(np.abs(t.sys - weyl_element(d, t.l, t.k) @ psi)) <= 1e-15


@pytest.mark.parametrize("big", [2 ** 62, 2 ** 63 - 1, -(2 ** 63), 10 ** 23])
@pytest.mark.parametrize("d", [2, 3, 7])
def test_huge_indices_reduce_to_their_residue(d, big):
    r = big % d
    assert np.array_equal(shift_matrix(d, big), shift_matrix(d, r))
    assert np.array_equal(clock_matrix(d, big), clock_matrix(d, r))
    assert np.array_equal(weyl_element(d, big, big), weyl_element(d, r, r))
    assert np.array_equal(weyl_element(d, 1, big), weyl_element(d, 1, r))


def _cli(capsys, *argv):
    code = run(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_huge_k_prints_the_residue_element(capsys):
    assert _cli(capsys, "basis", "--d", "3", "--l", "1", "--k", str(2 ** 62)) == _cli(
        capsys, "basis", "--d", "3", "--l", "1", "--k", "1"
    )
    assert _cli(capsys, "basis", "--d", "3", "--l", str(10 ** 23), "--k", "0") == _cli(
        capsys, "basis", "--d", "3", "--l", str(10 ** 23 % 3), "--k", "0"
    )


def test_negative_seed_is_refused(capsys):
    code, out, err = _cli(capsys, "verify", "--d", "2", "--seed", "-5")
    assert (code, out) == (2, "")
    assert err == "error: --seed must be non-negative, got -5\n"
    with pytest.raises(DomainError, match="seed"):
        run_verification([2], seed=-1)
