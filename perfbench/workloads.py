"""The four benchmark workloads: fixed task lists drawn from a seed, and their checks.

Each workload is a closed loop: one task at a time, each started when the
previous one finishes.  ``prepare()`` draws the task list from the seed with
the benchmark's own ``numpy.random.Generator`` (never ``weylkit.rand``, so a
change there cannot change the workload) and writes any input files.
``execute(task)`` is the timed part and calls weylkit only through module
attributes, so the tracer's rebinding reaches it.  ``check(task, out)``
compares the outputs with ``refs`` and is not timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import refs

# Relative Frobenius error allowed against the references.  The library and
# the references sum in different orders; at d = 32 with 1024 Kraus
# operators the observed error is below 1e-13.
TOL = 1e-9
FAULT = 1e-6  # added to every checked output by --inject-fault

VERIFY_CHECKS = (
    "basis_orthogonality",
    "basis_roundtrip",
    "coefficient_formula",
    "depolarizing_limit",
    "dilation_isometry",
    "kraus_vs_partial_trace",
    "lie_closure",
    "serialization_roundtrip",
    "trace_preservation",
    "weyl_form_consistency",
)


@dataclass
class Task:
    id: int
    d: int
    span: str  # root span name of the task in the traced run
    data: dict = field(default_factory=dict)


class Checks:
    """Counts checked operations and the ones that raised or mismatched."""

    def __init__(self, inject_fault: bool = False):
        self.inject_fault = inject_fault
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{what}: {detail}" if detail else what)

    def close(self, what: str, got, want, tol: float = TOL) -> None:
        got = np.asarray(got, dtype=np.complex128)
        if self.inject_fault:
            got = got + FAULT
        err = refs.relative_error(got, want)
        self.expect(what, err <= tol, f"relative error {err:.3e} > {tol:.0e}")

    def raised(self, what: str, exc: BaseException) -> None:
        self.expect(what, False, f"raised {type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# input draws (own generator, not weylkit.rand)


def ginibre(rng, d: int) -> np.ndarray:
    return (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)


def draw_gamma(rng, d: int) -> np.ndarray:
    g = ginibre(rng, d)
    return g / np.linalg.norm(g, axis=0, keepdims=True)


def draw_weights(rng, d: int) -> np.ndarray:
    p = rng.random((d, d)) + 0.01
    return p / p.sum()


def draw_rho(rng, d: int) -> np.ndarray:
    g = ginibre(rng, d)
    rho = g @ g.conj().T
    rho = (rho + rho.conj().T) / 2.0
    return rho / np.trace(rho).real


def draw_psi(rng, d: int) -> np.ndarray:
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


class Workload:
    name = ""
    index = 0  # second word of the generator's seed, distinct per workload
    dims: tuple = ()
    min_passes = 1  # passes a measured run makes at least

    def __init__(self, wk, seed: int, workdir: Path, checks: Checks):
        self.wk = wk  # namespace of weylkit modules: numerics, weyl, dilation, channels, verify, cli
        self.seed = seed
        self.workdir = workdir
        self.checks = checks
        self.tasks: list[Task] = []
        self.reset_counters()

    def reset_counters(self) -> None:
        self.verify_ms = dict.fromkeys(VERIFY_CHECKS, 0.0)
        self.artifact_bytes = 0

    def rng(self):
        return np.random.default_rng([self.seed, self.index])

    def prepare(self) -> None:
        raise NotImplementedError

    def warmup_tasks(self) -> list[Task]:
        raise NotImplementedError

    def execute(self, task: Task):
        raise NotImplementedError

    def check(self, task: Task, out) -> None:
        raise NotImplementedError

    def record_verify_report(self, doc: dict) -> bool:
        for c in doc["checks"]:
            self.verify_ms[c["name"]] += c["wall_time_s"] * 1e3
        return doc["overall"] == "pass"


class SweepSmall(Workload):
    """Parameter sweep at small d: per-call overhead and validation dominate."""

    name = "sweep_small"
    index = 1
    dims = (2, 3, 4, 5, 6, 8)
    cycles = 20

    def prepare(self) -> None:
        rng = self.rng()
        self.tasks = []
        for i in range(self.cycles * len(self.dims)):
            d = self.dims[i % len(self.dims)]
            data = dict(
                gamma=draw_gamma(rng, d), weights=draw_weights(rng, d), rho=draw_rho(rng, d), psi=draw_psi(rng, d)
            )
            self.tasks.append(Task(i, d, "task", data))

    def warmup_tasks(self) -> list[Task]:
        return self.tasks

    def execute(self, task: Task):
        C, D, W = self.wk.channels, self.wk.dilation, self.wk.weyl
        x = task.data
        g = D.GammaTable(x["gamma"])
        dil = C.channel_from_dilation(g)
        wey = C.weyl_channel(x["weights"])
        out1 = C.apply_channel(dil, x["rho"])
        out2 = C.apply_channel(wey, out1)
        back = W.reconstruct(W.decompose(out2))
        terms = D.weyl_form_of_joint(x["psi"], g)
        reversed_list = C.QuantumChannel(d=task.d, kraus=tuple(reversed(wey.kraus)))
        equal = C.channels_equal(wey, reversed_list, TOL)
        return out1, out2, back, terms, equal

    def check(self, task: Task, out) -> None:
        out1, out2, back, terms, equal = out
        x, d, chk = task.data, task.d, self.checks
        chk.close("apply_channel(dilation)", out1, refs.apply_kraus(refs.dilation_kraus(x["gamma"]), x["rho"]))
        chk.close("apply_channel(weyl)", out2, refs.apply_kraus(refs.weyl_kraus(x["weights"]), out1))
        chk.close("reconstruct(decompose)", back, out2)
        joint = sum(np.kron(t.sys, t.env) for t in terms) / d if len(terms) == d * d else np.zeros(0)
        chk.close("weyl_form_of_joint", joint, refs.joint_pure(x["gamma"], x["psi"]))
        chk.expect("channels_equal(reversed list)", equal is True, f"returned {equal!r}")


class ChannelsLarge(Workload):
    """Channel characterisation at large d: the d**2-term Kraus and Choi kernels dominate."""

    name = "channels_large"
    index = 2
    dims = (16, 24, 32)
    batch = 4  # states pushed through each channel per task

    def prepare(self) -> None:
        rng = self.rng()
        self.tasks = []
        for i, d in enumerate(self.dims):
            data = dict(
                gamma=draw_gamma(rng, d),
                weights=draw_weights(rng, d),
                rhos=[draw_rho(rng, d) for _ in range(self.batch)],
            )
            self.tasks.append(Task(i, d, "task", data))

    def warmup_tasks(self) -> list[Task]:
        return self.tasks[:1]

    def execute(self, task: Task):
        C, D = self.wk.channels, self.wk.dilation
        x = task.data
        results = []
        for ch in (C.channel_from_dilation(D.GammaTable(x["gamma"])), C.weyl_channel(x["weights"])):
            ok, _ = C.is_trace_preserving(ch)
            outs = [C.apply_channel(ch, rho) for rho in x["rhos"]]
            results.append((ok, outs, C.choi_matrix(ch)))
        return results

    def check(self, task: Task, out) -> None:
        x, d, chk = task.data, task.d, self.checks
        for label, kraus, (ok, outs, choi) in zip(
            ("dilation", "weyl"), (refs.dilation_kraus(x["gamma"]), refs.weyl_kraus(x["weights"])), out
        ):
            chk.expect(f"is_trace_preserving({label})", ok is True, f"returned {ok!r}")
            for rho, got in zip(x["rhos"], outs):
                chk.close(f"apply_channel({label})", got, refs.apply_kraus(kraus, rho))
            chk.close(f"choi_matrix({label})", choi, refs.choi(kraus))
            trace = complex(np.trace(choi)) + (FAULT if chk.inject_fault else 0.0)
            chk.expect(f"choi trace({label})", abs(trace - d) <= TOL * d, f"trace {trace} != {d}")


class VerifySuite(Workload):
    """In-process run_verification, one task per d: lie_closure and the d**3 joint dominate.

    d = 32 is never generated: kraus_vs_partial_trace would ask for a 16 GiB
    dense joint.
    """

    name = "verify_suite"
    index = 3
    dims = (2, 3, 5, 8, 12, 16)
    # Three samples of each task: with one, task_p50_ms (the d = 5 and d = 8
    # tasks) spread by a third between runs.
    min_passes = 3

    def prepare(self) -> None:
        rng = self.rng()
        self.tasks = [Task(i, d, "task", dict(seed=int(rng.integers(0, 2**31)))) for i, d in enumerate(self.dims)]

    def warmup_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.d <= 5]

    def execute(self, task: Task):
        return self.wk.verify.run_verification([task.d], seed=task.data["seed"], inject_fault=self.checks.inject_fault)

    def check(self, task: Task, out) -> None:
        ok = self.record_verify_report(json.loads(out.to_json()))
        self.checks.expect(f"run_verification(d={task.d})", ok, "overall is not pass")


class CliSession(Workload):
    """One weylkit subprocess per task: start-up and the JSON codec dominate.

    ``dilate --density`` is generated only up to d = 12, since its artifact
    is the dense d**3 x d**3 joint.  ``basis``, ``channel --channel`` and
    ``choi`` read or write d**4 numbers (d**2 operators or the d**2 x d**2
    Choi matrix) and are generated only up to d = 16: at d = 32 the three
    took 10 s, half a pass, and their few samples set the run's spread.
    ``verify --d 2,3,5`` does not depend on d and runs once per pass.  Each
    child lowers its own address-space limit first, so a memory regression
    fails one task instead of the machine.
    """

    name = "cli_session"
    index = 4
    dims = (2, 5, 8, 16, 32)
    density_max_d = 12
    d4_max_d = 16  # basis, channel --channel and choi
    verify_dims = (2, 3, 5)
    child_as_limit = 2 << 30  # bytes
    child_timeout_s = 120
    in_process = False  # the traced run sets this, so library spans nest under each command

    def child_argv(self, argv: list[str]) -> list[str]:
        child = Path(__file__).resolve().parent / "child.py"
        return [sys.executable, str(child), str(self.child_as_limit), *argv]

    def child_env(self) -> dict:
        src = str(Path(self.wk.root) / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
        return env

    def prepare(self) -> None:
        N, D, C = self.wk.numerics, self.wk.dilation, self.wk.channels
        rng = self.rng()
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.tasks = []

        def add(d, cmd, argv, **data):
            self.tasks.append(Task(len(self.tasks), d, f"cli.{cmd}", dict(cmd=cmd, argv=argv, **data)))

        for d in self.dims:
            x = dict(
                gamma=draw_gamma(rng, d),
                weights=draw_weights(rng, d),
                rho=draw_rho(rng, d),
                psi=draw_psi(rng, d),
                a=ginibre(rng, d),
            )
            f = {
                key: str(self.workdir / f"{key}_d{d}.json")
                for key in (
                    *("gamma", "weights", "rho", "psi", "a", "channel"),  # inputs
                    *("basis", "xi", "a2", "joint", "jointrho", "choi"),  # artifacts
                    *("out_gamma", "out_weights", "out_channel"),
                )
            }
            texts = {
                "gamma": D.gamma_to_json(D.GammaTable(x["gamma"])),
                "weights": N.matrix_to_json(x["weights"]),
                "rho": N.matrix_to_json(x["rho"]),
                "psi": N.vector_to_json(x["psi"]),
                "a": N.matrix_to_json(x["a"]),
            }
            if d <= self.d4_max_d:
                texts["channel"] = C.channel_to_json(C.weyl_channel(x["weights"]))
            for key, text in texts.items():
                with open(f[key], "w", encoding="utf-8") as fh:
                    fh.write(text)
            if d <= self.d4_max_d:
                add(d, "basis", ["basis", "--d", str(d), "--out", f["basis"]], out=f["basis"])
            add(d, "decompose", ["decompose", "--in", f["a"], "--out", f["xi"]], out=f["xi"], a=x["a"])
            add(d, "reconstruct", ["reconstruct", "--in", f["xi"], "--out", f["a2"]], out=f["a2"], a=x["a"])
            add(
                d, "dilate", ["dilate", "--gamma", f["gamma"], "--state", f["psi"], "--weyl-norms", "--out", f["joint"]],
                out=f["joint"], want=lambda x=x: refs.joint_pure(x["gamma"], x["psi"]),
            )
            if d <= self.density_max_d:
                add(
                    d, "dilate", ["dilate", "--gamma", f["gamma"], "--state", f["rho"], "--density", "--out", f["jointrho"]],
                    out=f["jointrho"], want=lambda x=x: refs.joint_density(x["gamma"], x["rho"]),
                )
            dil = lambda x=x: refs.apply_kraus(refs.dilation_kraus(x["gamma"]), x["rho"])
            wey = lambda x=x: refs.apply_kraus(refs.weyl_kraus(x["weights"]), x["rho"])
            sources = (("gamma", dil), ("weights", wey), ("channel", wey))
            for source, want in sources if d <= self.d4_max_d else sources[:2]:
                add(d, "channel", ["channel", f"--{source}", f[source], "--rho", f["rho"], "--out", f[f"out_{source}"]],
                    out=f[f"out_{source}"], want=want)
            if d <= self.d4_max_d:
                add(d, "choi", ["choi", "--gamma", f["gamma"], "--out", f["choi"]],
                    out=f["choi"], want=lambda x=x: refs.choi(refs.dilation_kraus(x["gamma"])))
        out = str(self.workdir / "verify.json")
        argv = ["verify", "--d", ",".join(map(str, self.verify_dims)), "--out", out]
        if self.checks.inject_fault:
            argv.append("--inject-fault")
        add(self.verify_dims[0], "verify", argv, out=out)

    def warmup_tasks(self) -> list[Task]:
        # Each task is a fresh process, so the warm-up only primes the OS
        # caches for the interpreter, numpy and weylkit: three children do.
        return self.tasks[:3]

    def execute(self, task: Task):
        argv = task.data["argv"]
        if self.in_process:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
                code = self.wk.cli.run(argv)
            return code, err.getvalue()
        proc = subprocess.run(
            self.child_argv(argv),
            env=self.child_env(),
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            timeout=self.child_timeout_s,
        )
        return proc.returncode, proc.stderr

    def check(self, task: Task, out) -> None:
        code, stderr = out
        x, d, chk = task.data, task.d, self.checks
        cmd = x["cmd"]
        chk.expect(f"{cmd} exit code (d={d})", code == 0, f"exit {code}: {stderr.strip()[-300:]}")
        if code != 0:
            return
        path = x["out"]
        self.artifact_bytes += os.path.getsize(path)
        what = f"{cmd} artifact (d={d})"
        if cmd == "basis":
            chk.close(what, refs.read_basis(path), refs.weyl_elements(d))
        elif cmd == "decompose":
            chk.close(what, refs.read_coefficients(path), refs.decompose(x["a"]))
        elif cmd == "reconstruct":
            chk.close(what, refs.read_matrix(path), x["a"])
        elif cmd == "verify":
            chk.expect(what, self.record_verify_report(refs.read_json(path)), "overall is not pass")
        else:
            got = refs.read_matrix(path)
            want = x["want"]()
            chk.close(what, got.reshape(want.shape) if got.size == want.size else got, want)
            if cmd == "choi":
                trace = complex(np.trace(got)) + (FAULT if chk.inject_fault else 0.0)
                chk.expect(f"choi trace (d={d})", abs(trace - d) <= TOL * d, f"trace {trace} != {d}")


WORKLOADS = {cls.name: cls for cls in (SweepSmall, ChannelsLarge, CliSession, VerifySuite)}
