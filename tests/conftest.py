"""Child processes started by the tests import weylkit from this checkout's src/."""

import os
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True, scope="session")
def child_pythonpath():
    """Put src/ first on the PYTHONPATH that ``python -m weylkit`` children inherit."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        yield
