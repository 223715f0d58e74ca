"""Smoke test: every narrative script under demos/ runs to completion and cleans up."""

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
    pythonpath = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    # TMPDIR keeps the files a demo writes inside the test's own directory.
    env = dict(os.environ, PYTHONPATH=pythonpath, TMPDIR=str(tmp_path))
    res = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert not any(tmp_path.iterdir()), f"{script.name} left files behind in TMPDIR"
