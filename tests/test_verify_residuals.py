"""How the verify suite turns the residuals a check measures into its one reported value.

Every check yields its residuals and ``run_verification`` takes their maximum with
``np.max``, which keeps a NaN: a NaN at any draw fails its check, and the JSON
report writes that residual as ``null``.
"""

import json

import numpy as np
import pytest

from weylkit import DomainError, verify
from weylkit.cli import run
from weylkit.verify import CheckResult, VerifyReport, run_verification


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=refuse)


def _failed(report):
    return sorted({c.name for c in report.checks if not c.passed})


def test_nan_from_decompose_fails_the_checks_that_use_it(monkeypatch, capsys):
    decompose = verify.decompose
    monkeypatch.setattr(verify, "decompose", lambda a: decompose(a) * np.nan)
    report = run_verification([2, 5], draws=3)
    assert _failed(report) == ["basis_roundtrip", "coefficient_formula"]
    assert all(np.isnan(c.residual) for c in report.checks if not c.passed)

    assert run(["verify", "--d", "2,5"]) == 1
    doc = _strict_json(capsys.readouterr().out)
    assert doc["overall"] == "fail"
    bad = [(c["name"], c["d"], c["status"], c["residual"]) for c in doc["checks"] if c["residual"] is None]
    assert bad == [(name, d, "fail", None) for name in ("basis_roundtrip", "coefficient_formula") for d in (2, 5)]


@pytest.mark.parametrize("nan_call", [2, 3, 4])
def test_nan_on_any_draw_fails_its_check(monkeypatch, nan_call):
    # At d = 2 frobenius_distance is called once by basis_orthogonality, then once per basis_roundtrip draw.
    distance = verify.frobenius_distance
    calls = []

    def nan_on_one_call(a, b):
        calls.append(None)
        return float("nan") if len(calls) == nan_call else distance(a, b)

    monkeypatch.setattr(verify, "frobenius_distance", nan_on_one_call)
    report = run_verification([2], draws=3)
    assert _failed(report) == ["basis_roundtrip"]


@pytest.mark.parametrize("draws", [0, -1])
def test_draws_below_one_are_refused(draws, capsys):
    with pytest.raises(DomainError, match="draws"):
        run_verification([2], draws=draws)
    assert run(["verify", "--d", "2", "--draws", str(draws)]) == 2
    assert capsys.readouterr().err == f"error: --draws must be at least 1, got {draws}\n"


@pytest.mark.parametrize(
    "dims, message",
    [([], "verify requires at least one dimension"), ([33], "verify requires 2 <= d <= 32, got 33")],
    ids=["no-dimension", "d-33"],
)
def test_dimensions_are_checked(dims, message):
    with pytest.raises(DomainError) as caught:
        run_verification(dims)
    assert str(caught.value) == message


def test_cli_keeps_its_own_empty_dimension_message(capsys):
    assert run(["verify", "--d", ","]) == 2
    assert capsys.readouterr().err == "error: --d expects at least one dimension\n"


def test_report_writes_a_nonfinite_residual_as_null():
    checks = (
        CheckResult("basis_roundtrip", 2, False, float("nan"), 1e-10, 0.5),
        CheckResult("basis_roundtrip", 3, True, 2.5e-16, 1e-10, 0.25),
    )
    text = VerifyReport(seed=1, dims=(2, 3), checks=checks).to_json()
    rows = text.splitlines()[6:8]
    assert rows == [
        '    {"name": "basis_roundtrip", "d": 2, "status": "fail", "residual": null, '
        '"tolerance": 1.000000e-10, "wall_time_s": 0.500000},',
        '    {"name": "basis_roundtrip", "d": 3, "status": "pass", "residual": 2.500000e-16, '
        '"tolerance": 1.000000e-10, "wall_time_s": 0.250000}',
    ]
    assert _strict_json(text)["overall"] == "fail"
