"""File formats and the command-line front end.

Writes the JSON artifacts (matrices, gamma tables, coefficient tables),
drives the CLI on them, and runs the self-verification suite.

Run from the repository root:  python3 demos/04_files_and_cli.py
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from weylkit import GammaTable, gamma_to_json, json_to_matrix, matrix_to_json, vector_to_json


def cli(*args):
    res = subprocess.run([sys.executable, "-m", "weylkit", *args], capture_output=True, text=True)
    print(f"$ weylkit {' '.join(args)}   -> exit {res.returncode}")
    return res


with tempfile.TemporaryDirectory(prefix="weylkit-demo-") as tmp:
    workdir = Path(tmp)
    print("working in", workdir)

    # -----------------------------------------------------------------------
    # The matrix format: row-major [re, im] pairs, 17 significant digits.
    rho = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
    rho_path = workdir / "rho.json"
    rho_path.write_text(matrix_to_json(rho) + "\n")
    print("\nmatrix file:", rho_path.read_text().strip())

    # -----------------------------------------------------------------------
    # Emit a basis element and decompose the state over the basis.
    res = cli("basis", "--d", "2", "--l", "1", "--k", "1")
    print("X_1 Z_1 =", res.stdout.strip())

    coeff_path = workdir / "xi.json"
    cli("decompose", "--in", str(rho_path), "--out", str(coeff_path))
    print("coefficients:", coeff_path.read_text().strip())

    back_path = workdir / "back.json"
    cli("reconstruct", "--in", str(coeff_path), "--out", str(back_path))
    err = np.max(np.abs(json_to_matrix(back_path.read_text()) - rho))
    print("file round-trip error:", err)

    # -----------------------------------------------------------------------
    # Dilate a pure state and push the same state through the induced channel.
    gamma_path = workdir / "gamma.json"
    gamma_path.write_text(gamma_to_json(GammaTable.uniform(2)) + "\n")

    psi_path = workdir / "psi.json"
    psi_path.write_text(vector_to_json(np.array([1.0, 1.0]) / np.sqrt(2)) + "\n")

    res = cli("dilate", "--gamma", str(gamma_path), "--state", str(psi_path), "--weyl-norms")
    print("dilate summary:", res.stderr.strip())

    out_path = workdir / "out.json"
    res = cli("channel", "--gamma", str(gamma_path), "--rho", str(rho_path), "--out", str(out_path))
    print("channel summary:", res.stderr.strip())
    print("channel output:\n", json_to_matrix(out_path.read_text()))

    # Weight-defined channels use a plain real matrix file.
    weights_path = workdir / "weights.json"
    weights_path.write_text(matrix_to_json(np.full((2, 2), 0.25)) + "\n")
    res = cli("choi", "--weights", str(weights_path))
    print("Choi of the uniform Weyl channel:", res.stdout.strip())

    # -----------------------------------------------------------------------
    # The verification suite: machine-readable report, exit 0 iff everything
    # holds at tolerance.
    res = cli("verify", "--d", "2,3,5", "--format", "json")
    report = json.loads(res.stdout)
    print("verify overall:", report["overall"], " checks:", len(report["checks"]),
          " seed:", report["seed"])

    # Error handling is part of the contract: exit 2 for usage problems, exit 3
    # for domain violations such as an unnormalized gamma column.
    cli("verify", "--d", "1")
    bad_gamma = workdir / "bad_gamma.json"
    bad_gamma.write_text('{"d": 2, "gamma": [[1, 0], [1, 0], [0.5, 0], [0, 0]]}\n')
    res = cli("dilate", "--gamma", str(bad_gamma), "--state", str(psi_path))
    print("stderr:", res.stderr.strip().splitlines()[0])
