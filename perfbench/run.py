"""weylkit benchmark: closed-loop workloads over d = 2..32.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_small --seed 1 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the ``end_to_end`` metrics of BENCHMARK.json, with
``--trace 1`` its ``per_layer`` metrics.  Details of each run (environment,
tail percentile and sample count, per-task medians, per-d span totals) go to
``perfbench/out/``.  See perfbench/README.md.
"""

import os

# BLAS threads are pinned before numpy is imported; CLI children inherit this.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import types  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, Checks, CliSession  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
SETUP_REPEATS = 5
STARTUP_PROBES = 5
# Cap on this process's address space: a memory regression in an in-process
# workload becomes a failed operation instead of exhausting the machine.
SELF_AS_LIMIT = 4 << 30


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=float, required=True, help="measuring time, in whole passes of the task list"
    )
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true", help="perturb every checked output (self-test of the checks)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def import_weylkit():
    """Import weylkit from this checkout's src/, or return None."""
    if not (SRC / "weylkit" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(SRC))
    import weylkit
    import weylkit.channels
    import weylkit.cli
    import weylkit.dilation
    import weylkit.numerics
    import weylkit.verify
    import weylkit.weyl

    if Path(weylkit.__file__).resolve().parent != (SRC / "weylkit").resolve():
        return None
    return types.SimpleNamespace(
        root=str(ROOT),
        numerics=weylkit.numerics,
        weyl=weylkit.weyl,
        dilation=weylkit.dilation,
        channels=weylkit.channels,
        verify=weylkit.verify,
        cli=weylkit.cli,
    )


def limit_address_space(limit: int) -> None:
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        limit = min(limit, hard)
    if soft == resource.RLIM_INFINITY or soft > limit:
        resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


# ---------------------------------------------------------------------------
# environment record


def _first_line_with(path: str, prefix: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(prefix):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f'{blas.get("name", "?")} {blas.get("version", "?")}'
    except (KeyError, TypeError, ValueError):
        openblas = "unknown"
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _first_line_with("/proc/cpuinfo", "model name"),
        "ram": _first_line_with("/proc/meminfo", "MemTotal"),
        "seed": seed,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# measuring


def run_pass(wl, tasks, tracer=None, check=True) -> list[float]:
    """Run ``tasks`` in order, one at a time; return each task's latency in seconds."""
    latencies = []
    for task in tasks:
        if tracer is not None:
            tracer.task = task.id
            span = tracer.begin(task.span)
        t0 = time.perf_counter()
        try:
            out, error = wl.execute(task), None
        except Exception as exc:  # a failed operation; recorded, and the loop goes on
            out, error = None, exc
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(span)
            tracer.task = None
        if not check:
            continue
        if error is not None:
            wl.checks.raised(f"task {task.id} ({task.span}, d={task.d})", error)
            continue
        try:
            wl.check(task, out)
        except Exception as exc:  # unreadable artifact and the like
            wl.checks.raised(f"check of task {task.id} ({task.span}, d={task.d})", exc)
    return latencies


def setup(wl) -> float:
    """Input generation, file writing and the untimed warm-up pass; seconds taken."""
    t0 = time.perf_counter()
    wl.prepare()
    run_pass(wl, wl.warmup_tasks(), check=False)
    return time.perf_counter() - t0


def tail(values: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it): the highest percentile with ten samples beyond.

    Lists of ten or fewer fall back to the maximum, reported as percentile 100
    with the number of samples beyond it (zero).
    """
    s = sorted(values)
    n = len(s)
    if n > 10:
        return s[n - 11], 100.0 * (n - 10) / n, 10
    return s[-1], 100.0, 0


def measure(wl, seconds: float) -> dict:
    per_task = [[] for _ in wl.tasks]
    start = time.perf_counter()
    passes = 0
    while True:
        t0 = time.perf_counter()
        for i, lat in enumerate(run_pass(wl, wl.tasks)):
            per_task[i].append(lat)
        passes += 1
        now = time.perf_counter()
        # Stop at the pass whose end lies nearest to ``seconds``: one more
        # pass is run while it would end closer to the mark than this one.
        if passes >= wl.min_passes and now - start + (now - t0) / 2 > seconds:
            break
    busy = sum(sum(lats) for lats in per_task)
    medians = [statistics.median(lats) for lats in per_task]
    tail_s, tail_pct, beyond = tail(medians)
    return {
        "passes": passes,
        "tasks_done": passes * len(wl.tasks),
        "busy_s": busy,
        # One pass of the task list at each task's median latency.
        "tasks_per_s": len(wl.tasks) / sum(medians),
        "task_p50_ms": statistics.median(medians) * 1e3,
        "task_tail_ms": tail_s * 1e3,
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "tail_sample_count": len(medians),
        "task_median_ms": [m * 1e3 for m in medians],
        "task_latencies_ms": [[x * 1e3 for x in lats] for lats in per_task],
    }


def peak_rss_mb(wl) -> float:
    who = resource.RUSAGE_CHILDREN if isinstance(wl, CliSession) else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def startup_ms(wl) -> float:
    """Median wall time of a child that only imports weylkit."""
    times = []
    for _ in range(STARTUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(wl.child_argv([]), env=wl.child_env(), stdin=subprocess.DEVNULL, check=True, timeout=60)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass


def layer_metrics(names, agg, tracer, extras) -> dict:
    """Resolve each per-layer metric name against the traced pass.

    ``<span>.ms`` is inclusive time, ``<span>.self_ms`` self time and
    ``<span>.calls`` the call count, all summed over the pass; a trailing
    ``.d<N>`` restricts the sum to tasks at that d.  A layer the workload does
    not reach reads 0.
    """
    values = dict(extras)
    values.update(tracer.counters)
    validations = agg.get("numerics.validate_density_matrix", {}).get("calls", 0)
    values["numerics.validate_density_matrix.distinct_ratio"] = (
        len(tracer.distinct_states) / validations if validations else 0.0
    )
    values["channels.kraus_kept_ratio"] = tracer.kraus_kept / tracer.kraus_slots if tracer.kraus_slots else 0.0
    values["trace.spans"] = len(tracer.spans)

    out = {}
    for name in names:
        if name in values:
            out[name] = values[name]
            continue
        base, _, last = name.rpartition(".")
        d = None
        if last.startswith("d") and last[1:].isdigit():
            d = int(last[1:])
            base, _, last = base.rpartition(".")
        if last not in ("ms", "self_ms", "calls"):
            raise KeyError(f"per-layer metric {name!r} is not produced by the benchmark")
        row = agg.get(base)
        if row is None:
            out[name] = 0
        elif last == "calls":
            out[name] = row["calls"]
        elif d is None:
            out[name] = row[last]
        else:
            out[name] = row["by_d"].get(d, [0.0, 0.0])[0 if last == "ms" else 1]
    return out


def traced_run(wl, names) -> tuple[dict, dict]:
    """Set up once, then an untraced, a traced and an untraced pass; per-layer metrics."""
    setup(wl)
    is_cli = isinstance(wl, CliSession)
    if is_cli:
        wl.in_process = True
        run_pass(wl, wl.warmup_tasks(), check=False)
    # Untraced passes on both sides of the traced one, so drift in machine
    # speed and the first pass's page faults do not read as tracing overhead.
    before = sum(run_pass(wl, wl.tasks))
    wl.reset_counters()
    tracer = Tracer()
    tracer.install()
    try:
        tracer.task = "setup"
        wl.prepare()
        tracer.task = None
        traced = sum(run_pass(wl, wl.tasks, tracer=tracer))
    finally:
        tracer.uninstall()
    verify_ms, artifact_bytes = dict(wl.verify_ms), wl.artifact_bytes
    after = sum(run_pass(wl, wl.tasks))
    untraced = (before + after) / 2.0
    n = len(wl.tasks)
    extras = {f"verify.{k}.ms": v for k, v in verify_ms.items()}
    extras["cli.artifact_bytes"] = artifact_bytes
    extras["cli.startup_ms"] = startup_ms(wl) if is_cli else 0.0
    extras["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    agg = tracer.aggregate({t.id: t.d for t in wl.tasks})
    metrics = layer_metrics(names, agg, tracer, extras)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write(OUT / f"{wl.name}.spans.jsonl")
    detail = {
        "untraced_tasks_per_s": n / untraced,
        "traced_tasks_per_s": n / traced,
        "self_ms_top": sorted(((row["self_ms"], name) for name, row in agg.items()), reverse=True)[:12],
        "spans": agg,
    }
    return metrics, detail


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    wk = import_weylkit()
    if wk is None:
        print(f"error: no weylkit package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    limit_address_space(SELF_AS_LIMIT)

    env = environment(args.seed)
    checks = Checks(inject_fault=args.inject_fault)
    wl = WORKLOADS[args.workload](wk, args.seed, OUT / f"work-{args.workload}", checks)
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            values, detail = traced_run(wl, names)
        else:
            setups = [setup(wl) for _ in range(SETUP_REPEATS)]
            detail = measure(wl, args.seconds)
            detail["setup_s_each"] = setups
            values = {
                "tasks_per_s": detail["tasks_per_s"],
                "task_p50_ms": detail["task_p50_ms"],
                "task_tail_ms": detail["task_tail_ms"],
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(wl),
            }
            names = [m["name"] for m in spec["end_to_end"]]
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}
    failed_ratio = checks.failed / checks.attempted if checks.attempted else 1.0
    report = {
        "workload": args.workload,
        "trace": args.trace,
        "env": env,
        "failed_ratio": failed_ratio,
        "failures": checks.messages,
        "metrics": metrics,
        "detail": detail,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"{args.workload}{'.trace' if args.trace else ''}.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for msg in checks.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    print("# env " + json.dumps(env))
    summary = {k: v for k, v in detail.items() if k not in ("task_median_ms", "task_latencies_ms", "spans")}
    print("# " + json.dumps({"workload": args.workload, "failed_ratio": failed_ratio, **summary}))
    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
