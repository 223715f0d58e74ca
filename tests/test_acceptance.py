"""Acceptance suite: one test per release criterion, at its stated tolerance.

Each test prints a single PASS line when it completes (run with ``pytest -v``
or ``-s`` to see them); a failure shows up as an ordinary pytest failure.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from weylkit import (
    QuantumChannel,
    apply_channel,
    channel_from_dilation,
    channels_equal,
    choi_matrix,
    commutator_in_basis,
    decompose,
    evolve_density,
    evolve_pure,
    frobenius_distance,
    gram_matrix,
    is_trace_preserving,
    kraus_mix,
    make_isometry,
    partial_trace_env,
    reconstruct,
    weyl_basis,
    weyl_channel,
    weyl_form_of_joint,
    WeylIndex,
)
from weylkit.rand import (
    random_complex_matrix,
    random_density,
    random_gamma,
    random_ket,
    random_uniform_gamma,
    random_unitary,
)


def report(criterion: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS")


def test_01_basis_theorem_gram_identity():
    """Gram matrix of {X_l Z_k} equals d*I for d in {2,3,4,5,8}, under 5 s."""
    start = time.perf_counter()
    for d in (2, 3, 4, 5, 8):
        residual = frobenius_distance(gram_matrix(weyl_basis(d)), d * np.eye(d * d))
        assert residual < 1e-10, f"d={d}: Gram deviates by {residual}"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"Gram checks took {elapsed:.2f} s"
    report("1 basis theorem (Gram = d*I, d in {2,3,4,5,8})")


def test_02_rank_one_coefficient_formula():
    """decompose(|a><b|)[l, k] = omega**(-b*k) delta(b+l, a) / d, error < 1e-12."""
    worst = 0.0
    for d in (2, 3, 5):
        for a in range(d):
            for b in range(d):
                mat = np.zeros((d, d), dtype=complex)
                mat[a, b] = 1.0
                xi = decompose(mat)
                expected = np.zeros((d, d), dtype=complex)
                for k in range(d):
                    expected[(a - b) % d, k] = np.exp(-2j * np.pi * b * k / d) / d
                worst = max(worst, float(np.max(np.abs(xi - expected))))
    assert worst < 1e-12, f"max entrywise error {worst}"
    report("2 coefficient formula (rank-one operators, d in {2,3,5})")


def test_03_round_trip_and_parseval():
    """100 random matrices per d in {2,3,5,8} round-trip and satisfy Parseval."""
    rng = np.random.default_rng(2025_03)
    for d in (2, 3, 5, 8):
        for _ in range(100):
            a = random_complex_matrix(d, rng)
            xi = decompose(a)
            assert frobenius_distance(reconstruct(xi), a) < 1e-10
            parseval = abs(np.sum(np.abs(xi) ** 2) - np.trace(a.conj().T @ a).real / d)
            assert parseval < 1e-10
    report("3 round trip + Parseval (100 random matrices, d in {2,3,5,8})")


def test_04_dilation_consistency():
    """Weyl-form reassembly equals direct evolution; V is an isometry."""
    rng = np.random.default_rng(2025_04)
    for d in (2, 3, 5):
        for _ in range(50):
            g = random_gamma(d, rng)
            psi = random_ket(d, rng)
            v = make_isometry(g)
            assert frobenius_distance(v.conj().T @ v, np.eye(d)) < 1e-10
            direct = evolve_pure(psi, g)
            terms = weyl_form_of_joint(psi, g)
            reassembled = sum(np.kron(t.sys, t.env) for t in terms) / d
            assert np.linalg.norm(reassembled - direct) < 1e-10
    report("4 dilation consistency (Weyl reassembly, 50 draws, d in {2,3,5})")


def test_05_operator_sum_equality():
    """Kraus action equals the partial trace of the evolved joint density."""
    rng = np.random.default_rng(2025_05)
    for d in (2, 3, 5):
        for _ in range(50):
            g = random_gamma(d, rng)
            rho = random_density(d, rng)
            ch = channel_from_dilation(g)
            kraus = QuantumChannel(d=d, kraus=ch.stack)  # the operators sliced from the isometry
            via_trace = partial_trace_env(evolve_density(rho, g), d, d * d)
            for form in (ch, kraus):
                ok, deficit = is_trace_preserving(form)
                assert ok and deficit < 1e-10
                assert frobenius_distance(apply_channel(form, rho), via_trace) < 1e-10
    report("5 operator-sum equality (Kraus vs partial trace, 50 draws, d in {2,3,5})")


def test_06_depolarizing_limit_and_choi_match():
    """Uniform Weyl channel depolarizes; uniform-magnitude dilation matches it."""
    rng = np.random.default_rng(2025_06)
    for d in (2, 3):
        uniform = weyl_channel(np.full((d, d), 1.0 / (d * d)))
        for _ in range(100):
            out = apply_channel(uniform, random_density(d, rng))
            assert frobenius_distance(out, np.eye(d) / d) < 1e-10
        g = random_uniform_gamma(d, rng)
        dilated = channel_from_dilation(g)
        choi_dist = frobenius_distance(choi_matrix(dilated), choi_matrix(uniform))
        assert choi_dist < 1e-9, f"d={d}: Choi distance {choi_dist}"
    report("6 uniform limit (depolarizing action + Choi match, d in {2,3})")


def test_07_lie_closure():
    """Commutators of all basis pairs decompose exactly back into the basis."""
    for d in (2, 3):
        for i in range(d * d):
            for j in range(d * d):
                x = WeylIndex(i // d, i % d, d)
                y = WeylIndex(j // d, j % d, d)
                comm = x.matrix() @ y.matrix() - y.matrix() @ x.matrix()
                residual = frobenius_distance(reconstruct(commutator_in_basis(x, y)), comm)
                assert residual < 1e-10
    report("7 Lie-algebra closure (all index pairs, d in {2,3})")


def test_08_kraus_non_uniqueness():
    """Unitary mixing preserves the Choi matrix; distinct channels differ."""
    rng = np.random.default_rng(2025_08)
    ch = channel_from_dilation(random_gamma(2, rng))
    u = random_unitary(len(ch), rng)
    assert frobenius_distance(choi_matrix(ch), choi_matrix(kraus_mix(ch, u))) < 1e-10
    identity = QuantumChannel(d=2, kraus=(np.eye(2),))
    depolarizing = weyl_channel(np.full((2, 2), 0.25))
    assert channels_equal(ch, kraus_mix(ch, u), 1e-10)
    assert not channels_equal(identity, depolarizing, 1.0)
    report("8 Kraus non-uniqueness (mixing invariance + channel discrimination)")


def test_09_cli_verify_and_determinism(tmp_path):
    """`verify --d 2,3,5` exits 0 in under 10 s; artifacts are byte-stable."""
    start = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-m", "weylkit", "verify", "--d", "2,3,5"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    assert res.returncode == 0, res.stdout + res.stderr
    assert elapsed < 10.0, f"verify took {elapsed:.2f} s"

    from weylkit import matrix_to_json

    rng = np.random.default_rng(2025_09)
    src = tmp_path / "m.json"
    src.write_text(matrix_to_json(random_complex_matrix(3, rng)) + "\n")
    artifacts = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        r = subprocess.run(
            [sys.executable, "-m", "weylkit", "decompose", "--in", str(src), "--out", str(out)],
            capture_output=True,
        )
        assert r.returncode == 0
        artifacts.append(out.read_bytes())
    assert artifacts[0] == artifacts[1]
    report("9 CLI verify end-to-end (< 10 s, byte-deterministic artifacts)")


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
