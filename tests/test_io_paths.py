"""Golden bytes of every JSON writer and CLI summary, and the single ``--tol`` path.

The fixtures are d = 2 objects with ``-0.0`` in their entries, so a writer
that stops normalizing negative zero, reorders a field or changes a
separator fails here: the file formats are fixed byte for byte.
"""

import contextlib
import io
import re

import numpy as np
import pytest

from weylkit import (
    GammaTable,
    channel_to_json,
    choi_matrix,
    choi_to_json,
    coefficients_to_json,
    gamma_to_json,
    matrix_to_json,
    vector_to_json,
    weyl_channel,
)
from weylkit.cli import run

M = np.array([[1.0, complex(-0.0, 0.5)], [complex(-0.25, -0.0), 1 / 3]])
V = np.array([complex(-0.0, 0.6), 0.8])
XI = np.array([[0.5, complex(-0.0, -0.0)], [complex(0.1, 0.2), -1e-300]])
G = GammaTable(np.array([[0.6, complex(-0.0, 1.0)], [complex(0.0, -0.8), -0.0]]))
W = np.array([[0.5, 0.0], [0.25, 0.25]])
CH = weyl_channel(W)
RHO = np.array([[0.75, complex(0.0, -0.25)], [complex(0.0, 0.25), 0.25]])

WRITERS = {
    "matrix": (
        lambda: matrix_to_json(M),
        '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0.5], [-0.25, 0], [0.33333333333333331, 0]]}',
    ),
    "vector": (
        lambda: vector_to_json(V),
        '{"rows": 2, "cols": 1, "entries": [[0, 0.59999999999999998], [0.80000000000000004, 0]]}',
    ),
    "coefficients": (
        lambda: coefficients_to_json(XI),
        '{"d": 2, "order": "l-major", "xi": [[0.5, 0], [0, 0], [0.10000000000000001, 0.20000000000000001], '
        "[-1e-300, 0]]}",
    ),
    "gamma": (
        lambda: gamma_to_json(G),
        '{"d": 2, "gamma": [[0.59999999999999998, 0], [0, 1], [0, -0.80000000000000004], [0, 0]]}',
    ),
    "channel": (
        lambda: channel_to_json(CH),
        '{"d": 2, "kraus": ['
        '{"rows": 2, "cols": 2, "entries": [[0.70710678118654757, 0], [0, 0], [0, 0], [0.70710678118654757, 0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[0, 0], [0.5, 0], [0.5, 0], [0, 0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[0, 0], [-0.5, 0], [0.5, 0], [0, 0]]}]}',
    ),
    "choi": (
        lambda: choi_to_json(choi_matrix(CH)),
        '{"convention": "column-stacking", "rows": 4, "cols": 4, "entries": ['
        "[0.5, 0], [0, 0], [0, 0], [0.5, 0], "
        "[0, 0], [0.5, 0], [0, 0], [0, 0], "
        "[0, 0], [0, 0], [0.5, 0], [0, 0], "
        "[0.5, 0], [0, 0], [0, 0], [0.5, 0]]}",
    ),
}

CLI_GOLDENS = {
    "basis": (
        ["basis", "--d", "2"],
        '{"d": 2, "order": "l-major", "elements": ['
        '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [-1, 0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[0, 0], [1, 0], [1, 0], [0, 0]]}, '
        '{"rows": 2, "cols": 2, "entries": [[0, 0], [-1, 0], [1, 0], [0, 0]]}]}\n',
        "",
    ),
    "decompose": (
        ["decompose", "--in", "m"],
        '{"d": 2, "order": "l-major", "xi": [[0.66666666666666663, 0], [0.33333333333333337, 0], '
        "[-0.125, 0.25], [-0.125, -0.25]]}\n",
        '{"d": 2, "roundtrip_residual": 5.5511151231257827e-17, "tolerance": 1e-10}\n',
    ),
    "dilate": (
        ["dilate", "--gamma", "g", "--state", "psi", "--weyl-norms"],
        '{"rows": 8, "cols": 1, "entries": [[0, 0.35999999999999999], [0, 0.80000000000000004], '
        "[0, 0], [0, 0], [0, 0], [0, 0], [0.47999999999999998, 0], [0, 0]]}\n",
        '{"d": 2, "joint_norm": 1, "env_term_norms": {"0,0": 0.59999999999999998, '
        '"0,1": 0.59999999999999998, "1,0": 1.2806248474865698, "1,1": 1.2806248474865698}}\n',
    ),
    "dilate_density": (
        ["dilate", "--gamma", "g", "--state", "rho", "--density"],
        None,  # the 8 x 8 joint is checked through its summary only
        '{"d": 2, "joint_trace": 1}\n',
    ),
    "channel": (
        ["channel", "--weights", "w", "--rho", "rho"],
        '{"rows": 2, "cols": 2, "entries": [[0.5, 0], [0, -0.125], '
        "[0, 0.125], [0.5, 0]]}\n",
        '{"d": 2, "kraus_count": 3, "trace_preservation_deficit": 0}\n',
    ),
    "choi": (
        ["choi", "--gamma", "g"],
        '{"convention": "column-stacking", "rows": 4, "cols": 4, "entries": ['
        "[0.35999999999999999, 0], [0, 0], [0, 0], [0, 0], "
        "[0, 0], [1, 0], [0, 0], [0, 0], "
        "[0, 0], [0, 0], [0.64000000000000012, 0], [0, 0], "
        "[0, 0], [0, 0], [0, 0], [0, 0]]}\n",
        '{"d": 2, "choi_trace": 2, "trace_preservation_deficit": 0}\n',
    ),
}


@pytest.fixture
def inputs(tmp_path):
    """The d = 2 fixtures as files, keyed by the short names the commands use."""
    texts = {
        "m": matrix_to_json(M),
        "xi": coefficients_to_json(XI),
        "psi": vector_to_json(V),
        "rho": matrix_to_json(RHO),
        "g": gamma_to_json(G),
        "w": matrix_to_json(W),
    }
    paths = {}
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def run_captured(argv, paths):
    """In-process ``weylkit`` run; short names in ``argv`` become fixture paths."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run([paths.get(a, a) for a in argv])
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("name", WRITERS)
def test_writer_golden(name):
    write, expected = WRITERS[name]
    assert write() == expected


@pytest.mark.parametrize("name", CLI_GOLDENS)
def test_cli_golden(name, inputs):
    argv, stdout, stderr = CLI_GOLDENS[name]
    code, out, err = run_captured(argv, inputs)
    assert code == 0
    if stdout is not None:
        assert out == stdout
    assert err == stderr


# One valid invocation of each subcommand, so only --tol can make it fail.
SUBCOMMANDS = {
    "basis": ["basis", "--d", "2"],
    "decompose": ["decompose", "--in", "m"],
    "reconstruct": ["reconstruct", "--in", "xi"],
    "dilate": ["dilate", "--gamma", "g", "--state", "psi"],
    "channel": ["channel", "--gamma", "g", "--rho", "rho"],
    "choi": ["choi", "--weights", "w"],
    "verify": ["verify", "--d", "2", "--draws", "1"],
}
WALL_TIME = re.compile(r'"wall_time_s": [0-9.e+-]+')


class TestTolOption:
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_valid_invocations_exit_0(self, command, inputs):
        assert run_captured(SUBCOMMANDS[command], inputs)[0] == 0

    @pytest.mark.parametrize("tol", ["bogus", "norm=x", "norm=-1", "what=1", "jacobi=1e-12", "NORM_TOL=1e-9"])
    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_malformed_tol_exits_2_everywhere(self, command, tol, inputs):
        code, out, err = run_captured([*SUBCOMMANDS[command], "--tol", tol], inputs)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["basis", "reconstruct", "verify"])
    def test_valid_tol_leaves_unused_commands_unchanged(self, command, inputs):
        plain = run_captured(SUBCOMMANDS[command], inputs)
        tuned = run_captured([*SUBCOMMANDS[command], "--tol", "norm=1e-9"], inputs)
        assert tuned[0] == plain[0] == 0
        assert WALL_TIME.sub("", tuned[1]) == WALL_TIME.sub("", plain[1])
