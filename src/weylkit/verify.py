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

from .channels import QuantumChannel, apply_channel, channel_from_dilation, is_trace_preserving, weyl_channel
from .config import D_MAX, D_MIN, DEFAULT_SEED, JOINT_BYTES_MAX
from .dilation import _weyl_form_arrays, env_gram, evolve_density, make_isometry
from .errors import DomainError, WeylkitError
from .numerics import (
    basis_ket,
    frobenius_distance,
    json_object,
    json_to_matrix,
    matrix_to_json,
    partial_trace_env,
)
from .rand import random_complex_matrix, random_density, random_gamma, random_ket
from .weyl import decompose, dim_constants, gram_matrix, reconstruct, weyl_basis

__all__ = ["CheckResult", "VerifyReport", "run_verification", "DEFAULT_SEED"]


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
            residual = f"{c.residual:.6e}" if np.isfinite(c.residual) else "null"  # NaN is not JSON; its check failed
            fields = [
                ("name", f'"{c.name}"'), ("d", str(c.d)), ("status", '"pass"' if c.passed else '"fail"'),
                ("residual", residual), ("tolerance", f"{c.tolerance:.6e}"), ("wall_time_s", f"{c.wall_time_s:.6f}"),
            ]
            lines.append("    " + json_object(fields))
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
    """Run the full invariant suite for every requested dimension (at least one), any d in 2..32.

    No check builds a dense joint over ``JOINT_BYTES_MAX`` (d > 12); ``kraus_vs_partial_trace`` traces the regrouping.
    ``draws`` (at least 1) controls how many random objects each randomized check uses; a check's
    residual is the maximum over everything it measures, and a NaN anywhere makes it NaN and fails.
    A ``WeylkitError`` raised while a check measures (a broken kernel) makes that check's residual NaN,
    and the suite goes on with the next check.
    ``inject_fault`` deliberately corrupts one basis phase before the
    orthogonality check, as a self-test that the suite can fail.
    """
    dims = tuple(int(d) for d in dims)
    if not dims:
        raise DomainError("verify requires at least one dimension")
    for d in dims:
        if d < D_MIN or d > D_MAX:
            raise DomainError(f"verify requires {D_MIN} <= d <= {D_MAX}, got {d}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    if draws < 1:
        raise DomainError(f"draws must be at least 1, got {draws}")

    results = []
    for d in dims:
        rng = np.random.default_rng(seed + d)
        for name, residual, tolerance in _checks_for_dim(d, rng, draws, inject_fault):
            start = time.perf_counter()
            try:
                value = float(np.max(np.fromiter(residual(), dtype=np.float64)))  # np.max keeps a NaN
            except WeylkitError:
                value = float("nan")
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


def _kraus_form(ch: QuantumChannel) -> QuantumChannel:
    """The channel as its Kraus list, so a check also runs the operators behind a closed form."""
    return QuantumChannel(d=ch.d, kraus=ch.stack)


def _regrouped_output(rho: np.ndarray, g) -> np.ndarray:
    """``tr_env(V rho V^dagger)`` from the Weyl regrouping ``V|psi> = (1/d) sum_lk X_l Z_k|psi> (x) v_lk``.

    Only same-l environment vectors overlap, so the output is ``(1/d**2) sum_l X_l (M_l o rho) X_l^dagger``
    with ``M_l = F G[l]^T F^dagger``, ``F[i, k] = omega**(i*k)`` and ``G = env_gram(g)``; conjugating by
    X_l rolls both axes by l.  No (d**3, d**3) joint is built.
    """
    d = g.d
    f = dim_constants(d).phases
    m = f @ env_gram(g).transpose(0, 2, 1) @ f.conj().T
    return sum(np.roll(m[l] * rho, (l, l), axis=(0, 1)) for l in range(d)) / (d * d)


def _bracket_coefficients(d: int, l: int) -> np.ndarray:
    """``c[k, m, n] = omega**(k*m) - omega**(n*l)``, so ``[X_l Z_k, X_m Z_n] = c * X_{l+m} Z_{k+n}``."""
    e = np.arange(d)  # each root from its own np.exp, independent of the cached tables
    return np.exp(2j * np.pi * (np.outer(e, e) % d) / d)[:, :, None] - np.exp(2j * np.pi * (e * l % d) / d)


def _checks_for_dim(d, rng, draws, inject_fault):
    """Yield (name, residuals, tolerance) triples for one dimension; ``residuals()`` yields every value measured."""
    basis = weyl_basis(d)

    def basis_orthogonality():
        checked = basis
        if inject_fault:
            checked = replace(basis, elements=_corrupt_one_phase(basis.elements))
        yield frobenius_distance(gram_matrix(checked), d * np.eye(d * d))

    yield "basis_orthogonality", basis_orthogonality, 1e-10

    def basis_roundtrip():
        for _ in range(draws):
            a = random_complex_matrix(d, rng)
            yield frobenius_distance(reconstruct(decompose(a)), a)

    yield "basis_roundtrip", basis_roundtrip, 1e-10

    def coefficient_formula():
        for a in range(d):
            for b in range(d):
                xi = decompose(np.outer(basis_ket(d, a), basis_ket(d, b).conj()))
                expected = np.zeros((d, d), dtype=np.complex128)
                expected[(a - b) % d] = np.exp(-2j * np.pi * (b * np.arange(d) % d) / d) / d
                yield np.max(np.abs(xi - expected))

    yield "coefficient_formula", coefficient_formula, 1e-12

    def depolarizing_limit():
        uniform = weyl_channel(np.full((d, d), 1.0 / (d * d)))
        forms = (uniform, _kraus_form(uniform))  # the weight table, and its Kraus list as the reference
        maxmix = np.eye(d) / d
        for _ in range(draws):
            rho = random_density(d, rng)
            yield from (frobenius_distance(apply_channel(form, rho), maxmix) for form in forms)

    yield "depolarizing_limit", depolarizing_limit, 1e-10

    def dilation_isometry():
        for _ in range(draws):
            v = make_isometry(random_gamma(d, rng))
            yield frobenius_distance(v.conj().T @ v, np.eye(d))

    yield "dilation_isometry", dilation_isometry, 1e-10

    def kraus_vs_partial_trace():
        for _ in range(draws):
            g = random_gamma(d, rng)
            rho = random_density(d, rng)
            ch = channel_from_dilation(g)
            oracles = [_regrouped_output(rho, g)]
            if 16 * d ** 6 <= JOINT_BYTES_MAX:  # the traced dense joint, while it fits the budget
                oracles.append(partial_trace_env(evolve_density(rho, g), d, d * d))
            for form in (ch, _kraus_form(ch)):
                out = apply_channel(form, rho)
                yield from (frobenius_distance(out, o) for o in oracles)

    yield "kraus_vs_partial_trace", kraus_vs_partial_trace, 1e-10

    def lie_closure():
        # Every pair, l at a time, in monomial form: cols[l, k, j] is the entry of column j
        # of X_l Z_k (at row j + l), and each product below is the entry at row j + l + m.
        z = np.arange(d)
        rows = dim_constants(d).rows  # rows[a, j] = (j + a) % d
        cols = basis.elements.reshape(d, d, d, d)[z[:, None, None], z[:, None], rows[:, None, :], z]
        for l in range(d):
            comm = cols[l].take(rows, axis=1)[:, :, None, :] * cols  # W_x W_y as (k, m, n, j), C-ordered
            comm -= cols[:, :, rows[l]] * cols[l][:, None, None, :]  # W_y W_x
            comm -= _bracket_coefficients(d, l)[..., None] * cols[rows[l][:, None], rows[:, None, :]]
            yield np.max(np.linalg.norm(comm, axis=-1))

    yield "lie_closure", lie_closure, 1e-10

    def serialization_roundtrip():
        a = random_complex_matrix(d, rng)
        text = matrix_to_json(a)
        again = matrix_to_json(json_to_matrix(text))
        yield 0.0 if text == again else 1.0

    yield "serialization_roundtrip", serialization_roundtrip, 0.0

    def trace_preservation():
        channels = [channel_from_dilation(random_gamma(d, rng)) for _ in range(draws)]
        channels.append(weyl_channel(np.full((d, d), 1.0 / (d * d))))
        yield from (is_trace_preserving(form)[1] for ch in channels for form in (ch, _kraus_form(ch)))

    yield "trace_preservation", trace_preservation, 1e-10

    def weyl_form_consistency():
        for _ in range(draws):
            g = random_gamma(d, rng)
            psi = random_ket(d, rng)
            direct = make_isometry(g) @ psi
            sys, env = _weyl_form_arrays(psi, g)
            reassembled = (sys.T @ env).ravel() / d  # (1/d) sum over (l, k) of kron(sys, env)
            yield np.linalg.norm(reassembled - direct)

    yield "weyl_form_consistency", weyl_form_consistency, 1e-10
