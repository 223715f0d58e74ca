"""Smoke test: every narrative script under demos/ runs to completion without a warning and cleans up."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_exits_0(script, tmp_path):
    # TMPDIR keeps the files a demo writes inside the test's own directory; any warning is an error.
    env = dict(os.environ, TMPDIR=str(tmp_path), PYTHONWARNINGS="error")
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert not any(tmp_path.iterdir()), f"{script.name} left files behind in TMPDIR"
