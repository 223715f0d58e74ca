import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylkit import (
    GammaTable,
    gamma_to_json,
    json_to_coefficients,
    json_to_matrix,
    matrix_to_json,
    validate_density_matrix,
    vector_to_json,
    weyl_element,
    weyl_form_of_joint,
)
from weylkit.cli import run
from weylkit.rand import random_complex_matrix, random_density, random_gamma

RNG = np.random.default_rng(555)


def run_cli(*args, stdin=None):
    return subprocess.run(
        [sys.executable, "-m", "weylkit", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )


def write(path, text):
    path.write_text(text + "\n", encoding="utf-8")
    return str(path)


class TestBasisCommand:
    def test_single_element(self, tmp_path):
        out = tmp_path / "w.json"
        res = run_cli("basis", "--d", "2", "--l", "1", "--k", "1", "--out", str(out))
        assert res.returncode == 0
        np.testing.assert_array_equal(json_to_matrix(out.read_text()), [[0, -1], [1, 0]])

    def test_identity_element(self):
        res = run_cli("basis", "--d", "2", "--l", "0", "--k", "0")
        assert res.returncode == 0
        np.testing.assert_array_equal(json_to_matrix(res.stdout), np.eye(2))

    def test_full_enumeration_order(self):
        res = run_cli("basis", "--d", "3")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["d"] == 3 and doc["order"] == "l-major" and len(doc["elements"]) == 9
        for idx, element in enumerate(doc["elements"]):
            expected = weyl_element(3, idx // 3, idx % 3)
            np.testing.assert_allclose(
                json_to_matrix(json.dumps(element)), expected, atol=1e-15
            )

    def test_table_format(self):
        res = run_cli("basis", "--d", "2", "--l", "1", "--k", "1", "--format", "table")
        assert res.returncode == 0
        assert res.stdout.split() == ["0", "-1", "1", "0"]

    def test_bad_dimension_is_usage_error(self):
        assert run_cli("basis", "--d", "1").returncode == 2
        assert run_cli("basis", "--d", "33").returncode == 2

    def test_l_without_k_is_usage_error(self):
        assert run_cli("basis", "--d", "2", "--l", "1").returncode == 2


class TestDecomposeReconstruct:
    def test_identity_coefficients(self, tmp_path):
        src = write(tmp_path / "m.json", matrix_to_json(np.eye(2)))
        res = run_cli("decompose", "--in", src)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["xi"][0] == [1, 0] and all(pair == [0, 0] for pair in doc["xi"][1:])
        summary = json.loads(res.stderr)
        assert summary["roundtrip_residual"] < 1e-10

    def test_rank_one_matches_formula(self, tmp_path):
        # |2><1| at d = 3: xi[1, k] = omega**(-k) / 3, all other rows zero
        d, a, b = 3, 2, 1
        mat = np.zeros((d, d), dtype=complex)
        mat[a, b] = 1.0
        src = write(tmp_path / "m.json", matrix_to_json(mat))
        res = run_cli("decompose", "--in", src, "--d", "3")
        assert res.returncode == 0
        xi = json_to_coefficients(res.stdout)
        expected = np.zeros((d, d), dtype=complex)
        for k in range(d):
            expected[1, k] = np.exp(-2j * np.pi * k / d) / d
        np.testing.assert_allclose(xi, expected, atol=1e-15)

    def test_file_round_trip(self, tmp_path):
        a = random_complex_matrix(4, RNG)
        src = write(tmp_path / "a.json", matrix_to_json(a))
        coeffs = tmp_path / "xi.json"
        back = tmp_path / "b.json"
        assert run_cli("decompose", "--in", src, "--out", str(coeffs)).returncode == 0
        assert run_cli("reconstruct", "--in", str(coeffs), "--out", str(back)).returncode == 0
        assert np.max(np.abs(json_to_matrix(back.read_text()) - a)) < 1e-10

    def test_stdin_stdout_streams(self):
        res = run_cli("decompose", "--in", "-", stdin=matrix_to_json(np.eye(2)))
        assert res.returncode == 0
        res2 = run_cli("reconstruct", "--in", "-", stdin=res.stdout)
        assert res2.returncode == 0
        np.testing.assert_allclose(json_to_matrix(res2.stdout), np.eye(2), atol=1e-15)

    def test_parse_failure_exits_2(self, tmp_path):
        src = write(tmp_path / "bad.json", '{"rows": 2, "cols"')
        res = run_cli("decompose", "--in", src)
        assert res.returncode == 2
        assert "line" in res.stderr

    def test_non_square_exits_2(self, tmp_path):
        src = write(tmp_path / "rect.json", matrix_to_json(np.ones((2, 3))))
        assert run_cli("decompose", "--in", src).returncode == 2

    def test_missing_file_exits_2(self):
        assert run_cli("decompose", "--in", "/nonexistent/x.json").returncode == 2

    def test_d_mismatch_exits_2(self, tmp_path):
        src = write(tmp_path / "m.json", matrix_to_json(np.eye(2)))
        assert run_cli("decompose", "--in", src, "--d", "3").returncode == 2

    def test_non_utf8_input_exits_2(self, tmp_path):
        src = tmp_path / "bad.json"
        src.write_bytes(b"\xff\xfe")
        for command in ("decompose", "reconstruct"):
            res = run_cli(command, "--in", str(src))
            assert res.returncode == 2, command
            assert res.stderr.startswith(f"error: cannot read {src}: ")
            assert "Traceback" not in res.stderr


class TestDilateCommand:
    def test_pure_state_output(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(2)))
        state = write(tmp_path / "psi.json", vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)))
        res = run_cli("dilate", "--gamma", gamma, "--state", state)
        assert res.returncode == 0
        joint = json_to_matrix(res.stdout)
        assert joint.shape == (8, 1)
        np.testing.assert_allclose(joint[:, 0], [0.5, 0.5, 0, 0, 0, 0, 0.5, 0.5], atol=1e-14)
        summary = json.loads(res.stderr)
        assert abs(summary["joint_norm"] - 1.0) < 1e-12

    def test_weyl_norms_summary(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(2)))
        state = write(tmp_path / "psi.json", vector_to_json(np.array([1.0, 0.0])))
        res = run_cli("dilate", "--gamma", gamma, "--state", state, "--weyl-norms")
        assert res.returncode == 0
        summary = json.loads(res.stderr)
        assert set(summary["env_term_norms"]) == {"0,0", "0,1", "1,0", "1,1"}
        for value in summary["env_term_norms"].values():
            assert abs(value - 1.0) < 1e-12

    def test_weyl_norms_are_the_env_vector_norms(self, tmp_path):
        # ||v_lk|| depends on l alone; the summary lists it l-major, within 2 ulp of the vectors' own norms.
        g = random_gamma(3, RNG)
        psi = np.array([0.6, 0.8j, 0.0])
        gamma = write(tmp_path / "g.json", gamma_to_json(g))
        state = write(tmp_path / "psi.json", vector_to_json(psi))
        res = run_cli("dilate", "--gamma", gamma, "--state", state, "--weyl-norms")
        assert res.returncode == 0
        norms = json.loads(res.stderr)["env_term_norms"]
        terms = weyl_form_of_joint(psi, g)
        assert list(norms) == [f"{t.l},{t.k}" for t in terms]
        for t in terms:
            assert abs(norms[f"{t.l},{t.k}"] - np.linalg.norm(t.env)) <= 4.5e-16 * np.linalg.norm(t.env)

    def test_density_output_is_valid_on_reload(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(random_gamma(2, RNG)))
        rho = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        out = tmp_path / "joint.json"
        res = run_cli("dilate", "--gamma", gamma, "--state", rho, "--density", "--out", str(out))
        assert res.returncode == 0
        joint = json_to_matrix(out.read_text())
        assert joint.shape == (8, 8)
        validate_density_matrix(joint)
        summary = json.loads(res.stderr)
        assert abs(summary["joint_trace"] - 1.0) < 1e-12

    def test_gamma_normalization_failure_exits_3(self, tmp_path):
        gamma = write(tmp_path / "g.json", '{"d": 2, "gamma": [[1, 0], [1, 0], [0.5, 0], [0, 0]]}')
        state = write(tmp_path / "psi.json", vector_to_json(np.array([1.0, 0.0])))
        res = run_cli("dilate", "--gamma", gamma, "--state", state)
        assert res.returncode == 3
        assert "column" in res.stderr

    def test_unnormalized_state_exits_3(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(2)))
        state = write(tmp_path / "psi.json", vector_to_json(np.array([1.0, 1.0])))
        assert run_cli("dilate", "--gamma", gamma, "--state", state).returncode == 3


class TestChannelCommand:
    def test_uniform_weights_depolarize(self, tmp_path):
        d = 3
        weights = write(tmp_path / "w.json", matrix_to_json(np.full((d, d), 1 / d ** 2)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.diag([0.5, 0.3, 0.2])))
        res = run_cli("channel", "--weights", weights, "--rho", rho_in)
        assert res.returncode == 0
        np.testing.assert_allclose(json_to_matrix(res.stdout), np.eye(d) / d, atol=1e-12)
        summary = json.loads(res.stderr)
        assert summary["trace_preservation_deficit"] < 1e-12

    def test_point_weights_echo_input(self, tmp_path):
        p = np.zeros((2, 2))
        p[0, 0] = 1.0
        weights = write(tmp_path / "w.json", matrix_to_json(p))
        rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
        rho_in = write(tmp_path / "rho.json", matrix_to_json(rho))
        res = run_cli("channel", "--weights", weights, "--rho", rho_in)
        assert res.returncode == 0
        np.testing.assert_allclose(json_to_matrix(res.stdout), rho, atol=1e-14)

    def test_gamma_and_weights_sources_agree_for_uniform_magnitude(self, tmp_path):
        d = 2
        g = GammaTable.uniform(d)
        gamma = write(tmp_path / "g.json", gamma_to_json(g))
        weights = write(tmp_path / "w.json", matrix_to_json(np.full((d, d), 1 / d ** 2)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.array([[0.9, 0.1], [0.1, 0.1]])))
        via_gamma = run_cli("channel", "--gamma", gamma, "--rho", rho_in)
        via_weights = run_cli("channel", "--weights", weights, "--rho", rho_in)
        assert via_gamma.returncode == 0 and via_weights.returncode == 0
        a = json_to_matrix(via_gamma.stdout)
        b = json_to_matrix(via_weights.stdout)
        assert np.max(np.abs(a - b)) < 1e-10

    def test_both_sources_is_usage_error(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(2)))
        weights = write(tmp_path / "w.json", matrix_to_json(np.full((2, 2), 0.25)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        res = run_cli("channel", "--gamma", gamma, "--weights", weights, "--rho", rho_in)
        assert res.returncode == 2

    def test_no_source_is_usage_error(self, tmp_path):
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        assert run_cli("channel", "--rho", rho_in).returncode == 2

    def test_gamma_within_column_tolerance_is_accepted(self, tmp_path):
        # Column masses 1 + 0.9e-10 pass the gamma table's norm check, while
        # ||V^dagger V - I||_F = 1.8e-10 would fail the same tolerance.
        d = 4
        near = [[float(np.sqrt((1 + 0.9e-10) / d)), 0.0]] * (d * d)
        gamma = write(tmp_path / "g.json", json.dumps({"d": d, "gamma": near}))
        psi = write(tmp_path / "psi.json", vector_to_json(np.eye(d)[0]))
        rho = write(tmp_path / "rho.json", matrix_to_json(np.eye(d) / d))
        for argv in (("dilate", "--state", psi), ("channel", "--rho", rho), ("choi",)):
            res = run_cli(*argv, "--gamma", gamma)
            assert res.returncode == 0, (argv[0], res.stderr)

    def test_bad_weights_exit_3(self, tmp_path):
        weights = write(tmp_path / "w.json", matrix_to_json(np.full((2, 2), 0.3)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        assert run_cli("channel", "--weights", weights, "--rho", rho_in).returncode == 3

    def test_emitted_density_revalidates(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(random_gamma(3, RNG)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(3) / 3))
        res = run_cli("channel", "--gamma", gamma, "--rho", rho_in)
        assert res.returncode == 0
        validate_density_matrix(json_to_matrix(res.stdout))


class TestChoiCommand:
    def test_choi_of_uniform_weyl(self, tmp_path):
        weights = write(tmp_path / "w.json", matrix_to_json(np.full((2, 2), 0.25)))
        res = run_cli("choi", "--weights", weights)
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["convention"] == "column-stacking"
        np.testing.assert_allclose(json_to_matrix(res.stdout), np.eye(4) / 2, atol=1e-14)
        summary = json.loads(res.stderr)
        assert abs(summary["choi_trace"] - 2.0) < 1e-12

    def test_choi_from_channel_file(self, tmp_path):
        ch = '{"d": 2, "kraus": [{"rows": 2, "cols": 2, "entries": [[1, 0], [0, 0], [0, 0], [1, 0]]}]}'
        channel = write(tmp_path / "ch.json", ch)
        res = run_cli("choi", "--channel", channel)
        assert res.returncode == 0
        expected = np.zeros((4, 4))
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 1.0
        np.testing.assert_allclose(json_to_matrix(res.stdout), expected, atol=1e-14)

    @pytest.mark.parametrize(
        "table, line",
        [
            (np.full((5, 5), 1e308), "error: weights must sum to 1 within 1e-10, got inf"),
            (np.array([[0.35, -0.05], [0.35, 0.35]]), "error: weights must be nonnegative, got minimum -0.05"),
        ],
    )
    def test_bad_weights_give_one_error_line(self, tmp_path, table, line):
        """No numpy warning or scalar repr reaches stderr: an overflowing sum and a negative weight."""
        res = run_cli("choi", "--weights", write(tmp_path / "w.json", matrix_to_json(table)))
        assert res.returncode == 3
        assert res.stderr.splitlines() == [line]

    def test_all_pruned_dilation_gives_one_error_line(self, tmp_path):
        # Every slot of the uniform d = 3 table has norm 0.577, below the prune threshold.
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(3)))
        res = run_cli("choi", "--gamma", gamma, "--tol", "prune=10")
        assert (res.returncode, res.stdout) == (3, "")
        assert res.stderr.splitlines() == ["error: all slots prune to zero"]


class TestVerifyCommand:
    def test_verify_passes(self):
        res = run_cli("verify", "--d", "2,3")
        assert res.returncode == 0
        doc = json.loads(res.stdout)
        assert doc["overall"] == "pass"
        assert doc["seed"] == 20240528
        assert all(check["status"] == "pass" for check in doc["checks"])

    def test_names_are_canonically_ordered(self):
        res = run_cli("verify", "--d", "3,2")
        doc = json.loads(res.stdout)
        keys = [(check["name"], check["d"]) for check in doc["checks"]]
        assert keys == sorted(keys)

    def test_fault_injection_fails_orthogonality(self):
        res = run_cli("verify", "--d", "2", "--inject-fault")
        assert res.returncode == 1
        doc = json.loads(res.stdout)
        failed = [c for c in doc["checks"] if c["status"] == "fail"]
        assert [c["name"] for c in failed] == ["basis_orthogonality"]
        assert failed[0]["residual"] >= 1.0

    def test_d1_is_usage_error(self):
        assert run_cli("verify", "--d", "1").returncode == 2

    def test_table_format(self):
        res = run_cli("verify", "--d", "2", "--format", "table")
        assert res.returncode == 0
        assert "basis_orthogonality" in res.stdout and "overall: pass" in res.stdout

    def test_seed_recorded(self):
        res = run_cli("verify", "--d", "2", "--seed", "7")
        doc = json.loads(res.stdout)
        assert doc["seed"] == 7

    def test_d32_passes_within_1_gib(self):
        # No check builds the 16 GiB dense joint at d = 32; the child caps its own address space at 1 GiB.
        child = (
            "import resource, sys\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
            "from weylkit.cli import main\n"
            "main(sys.argv[1:])\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        res = subprocess.run(
            [sys.executable, "-c", child, "verify", "--d", "32", "--draws", "2"],
            capture_output=True,
            text=True,
            env=env,
            timeout=300,
        )
        assert res.returncode == 0, res.stderr
        assert json.loads(res.stdout)["overall"] == "pass"


class TestDeterminism:
    def test_identical_invocations_byte_identical(self, tmp_path):
        a = random_complex_matrix(3, RNG)
        src = write(tmp_path / "m.json", matrix_to_json(a))
        outs = []
        for name in ("o1.json", "o2.json"):
            out = tmp_path / name
            assert run_cli("decompose", "--in", src, "--out", str(out)).returncode == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_tolerance_override_flag(self, tmp_path):
        # an impossibly tight cptp tolerance turns a passing channel run into
        # a domain failure, proving the override reaches the machinery
        gamma = write(tmp_path / "g.json", gamma_to_json(random_gamma(2, RNG)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        ok = run_cli("channel", "--gamma", gamma, "--rho", rho_in)
        assert ok.returncode == 0
        strict = run_cli("channel", "--gamma", gamma, "--rho", rho_in, "--tol", "cptp=1e-18")
        assert strict.returncode == 3

    def test_unknown_tolerance_is_usage_error(self, tmp_path):
        gamma = write(tmp_path / "g.json", gamma_to_json(random_gamma(2, RNG)))
        rho_in = write(tmp_path / "rho.json", matrix_to_json(np.eye(2) / 2))
        res = run_cli("channel", "--gamma", gamma, "--rho", rho_in, "--tol", "bogus=1")
        assert res.returncode == 2


def run_quiet(*args):
    """In-process ``weylkit`` run with its stdout and stderr discarded."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return run(list(args))


def density_commands(tmp_path, rho_text):
    """The two commands that take a density file, on a d = 2 gamma table."""
    gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(2)))
    rho = write(tmp_path / "rho.json", rho_text)
    return [
        ("channel", "--gamma", gamma, "--rho", rho),
        ("dilate", "--gamma", gamma, "--state", rho, "--density"),
    ]


NON_HERMITIAN_3 = np.eye(3) / 3 + np.diag([0.5, 0.0], k=1)

FINITE = st.floats(-2.0, 2.0) | st.sampled_from([0.0, 0.5, 1.0, -0.5, 1e308])
MATRIX_DOCS = st.builds(
    lambda rows, cols, entries: json.dumps({"rows": rows, "cols": cols, "entries": entries}),
    st.integers(-1, 4),
    st.integers(-1, 4),
    st.lists(st.lists(FINITE, min_size=2, max_size=2), max_size=10)
    | st.lists(st.sampled_from([[float("nan"), 0], [0, float("inf")], [1], "x"]), max_size=4),
)
DENSITY_DOCS = st.builds(
    lambda d, seed, scale: matrix_to_json(scale * random_density(d, np.random.default_rng(seed))),
    st.integers(1, 3),
    st.integers(0, 2 ** 32),
    st.sampled_from([1.0, 1.0, -1.0, 1.5, 1 + 1e-12]),
)


class TestDensityInputs:
    @pytest.mark.parametrize(
        "rho, code",
        [
            (np.eye(3) / 3, 2),  # valid but wrong size
            (NON_HERMITIAN_3, 3),  # non-Hermitian and wrong size
            (np.eye(3), 3),  # wrong trace and wrong size
            (np.ones((2, 3)) / 2, 2),  # non-square
            (np.ones((3, 2)) / 2, 2),  # non-square
            (np.diag([1.5, -0.5]), 3),  # negative eigenvalue
            (np.eye(2) / 2, 0),
        ],
        ids=["wrong_size", "non_hermitian", "wrong_trace", "2x3", "3x2", "negative", "valid"],
    )
    def test_exit_codes(self, tmp_path, rho, code):
        for argv in density_commands(tmp_path, matrix_to_json(rho)):
            assert run_quiet(*argv) == code, argv[0]

    def test_eigvalsh_runs_once_per_state(self, tmp_path, monkeypatch):
        # channel validates its input and its output; dilate --density its input.
        # A diagonal state is checked without eigvalsh: the dilation channel's
        # output always is one, a Weyl channel's output of a dense state is not.
        eigvalsh = np.linalg.eigvalsh
        calls = []

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        rho_text = matrix_to_json(random_density(2, RNG))
        weights = write(tmp_path / "w.json", matrix_to_json(np.array([[0.4, 0.3], [0.2, 0.1]])))
        commands = density_commands(tmp_path, rho_text)
        commands.append(("channel", "--weights", weights, "--rho", commands[0][-1]))
        for argv, expected in zip(commands, (1, 1, 2)):
            calls.clear()
            assert run_quiet(*argv) == 0
            assert len(calls) == expected, argv[:2]

    @settings(max_examples=60, deadline=None, database=None)
    @given(text=MATRIX_DOCS | DENSITY_DOCS | st.text(st.characters(codec="utf-8"), max_size=30))
    def test_fuzzed_density_documents(self, tmp_path_factory, text):
        for argv in density_commands(tmp_path_factory.mktemp("fuzz"), text):
            assert run_quiet(*argv) in (0, 2, 3), (argv[0], text)


class TestOutputFailures:
    def test_unwritable_out_exits_2(self, tmp_path):
        out = str(tmp_path / "missing" / "x.json")
        for argv in (("basis", "--d", "2"), ("verify", "--d", "2", "--draws", "1")):
            res = run_cli(*argv, "--out", out)
            assert res.returncode == 2, argv[0]
            assert res.stderr.startswith(f"error: cannot write {out}: ")
            assert "Traceback" not in res.stderr

    def test_out_of_memory_exits_4(self, tmp_path):
        # The d = 12 joint density (45.6 MiB, the largest dilate --density
        # builds) and its JSON text do not fit once the child caps its own
        # address space at 200 MiB.  Start-up fits in 140 MiB, and the command
        # runs to completion from 270 MiB, so 200 MiB leaves margin both ways.
        d = 12
        gamma = write(tmp_path / "g.json", gamma_to_json(GammaTable.uniform(d)))
        rho = write(tmp_path / "rho.json", matrix_to_json(np.eye(d) / d))
        child = (
            "import resource, sys\n"
            "limit = 200 * 2 ** 20\n"
            "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
            "from weylkit.cli import main\n"
            "main(sys.argv[1:])\n"
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        res = subprocess.run(
            [sys.executable, "-c", child, "dilate", "--gamma", gamma, "--state", rho, "--density"],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert res.returncode == 4, res.stderr
        assert res.stderr.splitlines()[-1].startswith("error: out of memory: ")
        assert "Traceback" not in res.stderr
