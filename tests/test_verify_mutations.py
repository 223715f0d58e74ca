"""Named kernel mutations that ``verify`` must catch: a failing report, never a crash.

Each mutation monkeypatches one kernel or one cached table, as a real defect
would break it (mutation analysis: DeMillo, Lipton & Sayward, "Hints on test
data selection", 1978).  Under each, ``run_verification`` returns a report
whose overall status is fail, and ``weylkit verify`` exits 1 with a report
that parses.  A mutation that makes a kernel raise (such as an output that is
no longer a state) fails the check it raised in, with a NaN residual.
Two known mutations stay uncaught, since no check compares a non-uniform Weyl
table with its input: the Weyl phase table ``mult`` negated, and the weights
read transposed.
"""

import json

import numpy as np
import pytest

import weylkit.channels as channels
import weylkit.dilation as dilation
import weylkit.verify as verify
import weylkit.weyl as weyl
from weylkit.cli import run
from weylkit.verify import run_verification

_CACHED = (weyl._roots, weyl.dim_constants, channels._schur_tables, dilation._weyl_form_index)


def _conjugated_roots(mp):
    real = weyl._roots

    def conj(d):  # omega -> conj(omega) wherever the tables read the roots
        return weyl._frozen(real(d).conj())

    for module in (weyl, channels):
        mp.setattr(module, "_roots", conj)


def _decompose_with_conjugate_dft(mp):
    def decompose(a):
        a = np.asarray(a, dtype=np.complex128)
        c = weyl.dim_constants(a.shape[0])
        return a.reshape(-1)[c.flat] @ c.phases.T / a.shape[0]

    mp.setattr(verify, "decompose", decompose)


def _env_gram_transposed(mp):
    real = dilation.env_gram
    mp.setattr(verify, "env_gram", lambda g: real(g).transpose(0, 2, 1))


def _isometry_of_conjugate_gamma(mp):
    real = dilation.make_isometry
    for module in (dilation, channels, verify):
        mp.setattr(module, "make_isometry", lambda g: real(g).conj())


def _shifted_by_plus_l(mp):
    real = channels._schur_tables

    def tables(d):
        fwd = weyl.dim_constants(d).rows  # (n + l) % d where the table reads (n - l) % d
        return real(d)._replace(shifted=(fwd[:, :, None] * d + fwd[:, None, :]).reshape(d, d * d))

    mp.setattr(channels, "_schur_tables", tables)


def _dilation_slot_index_transposed(mp):
    real = weyl.dim_constants
    mp.setattr(channels, "dim_constants", lambda d: real(d)._replace(flat_neg=real(d).flat_neg.T))


# Each mutation with the checks it must fail.
MUTATIONS = {
    "roots_conjugated": (_conjugated_roots, {"coefficient_formula", "lie_closure"}),
    "decompose_conjugate_dft": (_decompose_with_conjugate_dft, {"basis_roundtrip", "coefficient_formula"}),
    "env_gram_transposed": (_env_gram_transposed, {"kraus_vs_partial_trace"}),
    "isometry_conjugated": (_isometry_of_conjugate_gamma, {"weyl_form_consistency"}),
    "shifted_plus_l": (_shifted_by_plus_l, {"kraus_vs_partial_trace"}),
    "dilation_slot_transposed": (_dilation_slot_index_transposed, {"kraus_vs_partial_trace", "trace_preservation"}),
}


@pytest.fixture
def mutate(monkeypatch):
    """Apply a named mutation to fresh caches; the caches are cleared again once it is undone."""

    def clear():
        for f in _CACHED:
            f.cache_clear()

    def apply(name):
        clear()
        MUTATIONS[name][0](monkeypatch)

    yield apply
    monkeypatch.undo()
    clear()


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_fails_the_report(mutate, name):
    mutate(name)
    report = run_verification([2, 3, 5], draws=2)
    failed = {c.name for c in report.checks if not c.passed}
    assert not report.passed and MUTATIONS[name][1] <= failed


@pytest.mark.parametrize("name", MUTATIONS)
def test_mutation_makes_the_cli_exit_1_with_a_report(mutate, name, tmp_path):
    mutate(name)
    out = tmp_path / "report.json"
    assert run(["verify", "--d", "3", "--draws", "2", "--out", str(out)]) == 1
    assert json.loads(out.read_text())["overall"] == "fail"
