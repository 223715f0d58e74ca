"""Self-verification suite: every identity the toolkit rests on, measured.

Each check computes a residual that exact arithmetic would make zero and
compares it against the tolerance the rest of the package promises.  The
suite is deterministic for a fixed seed; results are ordered canonically by
check name and dimension.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .channels import apply_channel, channel_from_dilation, is_trace_preserving, weyl_channel
from .dilation import evolve_density, make_isometry, weyl_form_of_joint
from .errors import DomainError
from .numerics import (
    basis_ket,
    frobenius_distance,
    json_to_matrix,
    kron,
    matrix_to_json,
    partial_trace_env,
)
from .rand import random_complex_matrix, random_density, random_gamma, random_ket
from .weyl import decompose, gram_matrix, reconstruct, weyl_basis

__all__ = ["CheckResult", "VerifyReport", "run_verification", "DEFAULT_SEED"]

DEFAULT_SEED = 20240528
D_MIN, D_MAX = 2, 32  # the advertised range of d; the CLI checks its arguments against it


@dataclass(frozen=True)
class CheckResult:
    name: str
    d: int
    passed: bool
    residual: float
    tolerance: float
    wall_time_s: float


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    dims: tuple
    checks: tuple
    fault_injected: bool = False

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        lines = []
        for c in self.checks:
            lines.append(
                '    {"name": "%s", "d": %d, "status": "%s", "residual": %.6e, '
                '"tolerance": %.6e, "wall_time_s": %.6f}'
                % (c.name, c.d, "pass" if c.passed else "fail", c.residual, c.tolerance, c.wall_time_s)
            )
        body = ",\n".join(lines)
        dims = ", ".join(str(d) for d in self.dims)
        return (
            "{\n"
            f'  "seed": {self.seed},\n'
            f'  "dims": [{dims}],\n'
            f'  "fault_injected": {"true" if self.fault_injected else "false"},\n'
            f'  "overall": "{"pass" if self.passed else "fail"}",\n'
            f'  "checks": [\n{body}\n  ]\n'
            "}"
        )

    def to_table(self) -> str:
        width = max(len(c.name) for c in self.checks)
        rows = [f'{"check".ljust(width)}   d  status  residual      tolerance     time[s]']
        for c in self.checks:
            rows.append(
                f"{c.name.ljust(width)}  {c.d:2d}  {'pass' if c.passed else 'FAIL':6s}"
                f"  {c.residual:.6e}  {c.tolerance:.6e}  {c.wall_time_s:.4f}"
            )
        rows.append(f"overall: {'pass' if self.passed else 'FAIL'} (seed {self.seed})")
        return "\n".join(rows)


def _corrupt_one_phase(elements: np.ndarray) -> np.ndarray:
    """Flip the sign of one nonzero entry of element (0, 1): a phase fault."""
    bad = np.array(elements, copy=True)
    bad[1, 1, 1] = -bad[1, 1, 1]
    return bad


def run_verification(
    dims,
    *,
    seed: int = DEFAULT_SEED,
    draws: int = 10,
    inject_fault: bool = False,
) -> VerifyReport:
    """Run the full invariant suite for every requested dimension.

    ``draws`` controls how many random objects each randomized check uses.
    ``inject_fault`` deliberately corrupts one basis phase before the
    orthogonality check, as a self-test that the suite can fail.
    """
    dims = tuple(int(d) for d in dims)
    for d in dims:
        if d < D_MIN or d > D_MAX:
            raise DomainError(f"verify requires {D_MIN} <= d <= {D_MAX}, got {d}")

    results = []
    for d in dims:
        rng = np.random.default_rng(seed + d)
        for name, residual, tolerance in _checks_for_dim(d, rng, draws, inject_fault):
            start = time.perf_counter()
            value = float(residual())
            elapsed = time.perf_counter() - start
            results.append(
                CheckResult(
                    name=name,
                    d=d,
                    passed=value <= tolerance,
                    residual=value,
                    tolerance=tolerance,
                    wall_time_s=elapsed,
                )
            )
    results.sort(key=lambda c: (c.name, c.d))
    return VerifyReport(seed=seed, dims=dims, checks=tuple(results), fault_injected=inject_fault)


def _checks_for_dim(d, rng, draws, inject_fault):
    """Yield (name, residual_thunk, tolerance) triples for one dimension."""
    basis = weyl_basis(d)

    def basis_orthogonality():
        checked = basis
        if inject_fault:
            checked = replace(basis, elements=_corrupt_one_phase(basis.elements))
        return frobenius_distance(gram_matrix(checked), d * np.eye(d * d))

    yield "basis_orthogonality", basis_orthogonality, 1e-10

    def basis_roundtrip():
        worst = 0.0
        for _ in range(draws):
            a = random_complex_matrix(d, rng)
            worst = max(worst, frobenius_distance(reconstruct(decompose(a)), a))
        return worst

    yield "basis_roundtrip", basis_roundtrip, 1e-10

    def coefficient_formula():
        worst = 0.0
        for a in range(d):
            for b in range(d):
                xi = decompose(np.outer(basis_ket(d, a), basis_ket(d, b).conj()))
                expected = np.zeros((d, d), dtype=np.complex128)
                l = (a - b) % d
                for k in range(d):
                    expected[l, k] = np.exp(-2j * np.pi * ((b * k) % d) / d) / d
                worst = max(worst, float(np.max(np.abs(xi - expected))))
        return worst

    yield "coefficient_formula", coefficient_formula, 1e-12

    def depolarizing_limit():
        uniform = weyl_channel(np.full((d, d), 1.0 / (d * d)))
        maxmix = np.eye(d) / d
        worst = 0.0
        for _ in range(draws):
            out = apply_channel(uniform, random_density(d, rng))
            worst = max(worst, frobenius_distance(out, maxmix))
        return worst

    yield "depolarizing_limit", depolarizing_limit, 1e-10

    def dilation_isometry():
        worst = 0.0
        for _ in range(draws):
            v = make_isometry(random_gamma(d, rng))
            worst = max(worst, frobenius_distance(v.conj().T @ v, np.eye(d)))
        return worst

    yield "dilation_isometry", dilation_isometry, 1e-10

    def kraus_vs_partial_trace():
        worst = 0.0
        for _ in range(draws):
            g = random_gamma(d, rng)
            rho = random_density(d, rng)
            via_kraus = apply_channel(channel_from_dilation(g), rho)
            via_trace = partial_trace_env(evolve_density(rho, g), d, d * d)
            worst = max(worst, frobenius_distance(via_kraus, via_trace))
        return worst

    yield "kraus_vs_partial_trace", kraus_vs_partial_trace, 1e-10

    def lie_closure():
        pairs = [(x, y) for x in range(d * d) for y in range(d * d)]
        if len(pairs) > 4096:
            keep = rng.choice(len(pairs), size=4096, replace=False)
            pairs = [pairs[i] for i in sorted(keep)]
        worst = 0.0
        for x, y in pairs:
            wx = basis.elements[x]
            wy = basis.elements[y]
            comm = wx @ wy - wy @ wx
            worst = max(worst, frobenius_distance(reconstruct(decompose(comm)), comm))
        return worst

    yield "lie_closure", lie_closure, 1e-10

    def serialization_roundtrip():
        a = random_complex_matrix(d, rng)
        text = matrix_to_json(a)
        again = matrix_to_json(json_to_matrix(text))
        return 0.0 if text == again else 1.0

    yield "serialization_roundtrip", serialization_roundtrip, 0.0

    def trace_preservation():
        worst = 0.0
        for _ in range(draws):
            _, deficit = is_trace_preserving(channel_from_dilation(random_gamma(d, rng)))
            worst = max(worst, deficit)
        _, deficit = is_trace_preserving(weyl_channel(np.full((d, d), 1.0 / (d * d))))
        return max(worst, deficit)

    yield "trace_preservation", trace_preservation, 1e-10

    def weyl_form_consistency():
        worst = 0.0
        for _ in range(draws):
            g = random_gamma(d, rng)
            psi = random_ket(d, rng)
            direct = make_isometry(g) @ psi
            terms = weyl_form_of_joint(psi, g)
            reassembled = sum(kron(t.sys, t.env) for t in terms) / d
            worst = max(worst, float(np.linalg.norm(reassembled - direct)))
        return worst

    yield "weyl_form_consistency", weyl_form_consistency, 1e-10
