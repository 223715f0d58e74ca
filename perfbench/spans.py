"""In-memory span recorder that traces weylkit's public functions from outside.

``Tracer.install()`` wraps every function named in the ``__all__`` of the
traced modules and rebinds the wrapper wherever the original is bound inside
the package (``from .numerics import ...`` copies the name into the
importing module, so rebinding only the defining module would miss those
calls).  ``uninstall()`` puts the originals back.  Nothing under ``src/`` is
edited.

Per-element helpers are left alone: ``lie_closure`` makes about a million
``weyl_element`` calls at d = 16, and a wrapper there would cost more than
the work it measures.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np

TRACED_MODULES = ("numerics", "weyl", "dilation", "channels", "verify", "cli")
UNWRAPPED = frozenset({"weyl_element", "phase_vector", "omega", "basis_ket"})


def _validate_hook(tr, args, kwargs, result):
    rho = np.ascontiguousarray(np.asarray(args[0] if args else kwargs["rho"], dtype=np.complex128))
    tr.distinct_states.add(hash(rho.tobytes()))


def _to_json_hook(tr, args, kwargs, result):
    tr.counters["numerics.matrix_to_json.bytes"] += len(result)


def _dilation_hook(tr, args, kwargs, result):
    tr.kraus_kept += len(result)
    tr.kraus_slots += result.d ** 2


def _choi_hook(tr, args, kwargs, result):
    tr.counters["channels.choi_matrix.kraus_in"] += len(args[0].kraus)


def _evolve_density_hook(tr, args, kwargs, result):
    g = args[1] if len(args) > 1 else kwargs["g"]
    joint = g.d ** 6 * 16
    key = "dilation.evolve_density.joint_bytes"
    tr.counters[key] = max(tr.counters[key], joint)


HOOKS = {
    "numerics.validate_density_matrix": _validate_hook,
    "numerics.matrix_to_json": _to_json_hook,
    "channels.channel_from_dilation": _dilation_hook,
    "channels.choi_matrix": _choi_hook,
    "dilation.evolve_density": _evolve_density_hook,
}


class Tracer:
    """Spans are ``[name, start, end, parent_index, task]`` lists kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.task = None
        # Per-layer metrics counted by the hooks, under their metric names.
        self.counters = {
            "numerics.matrix_to_json.bytes": 0,
            "channels.choi_matrix.kraus_in": 0,
            "dilation.evolve_density.joint_bytes": 0,
        }
        self.kraus_kept = 0  # operators channel_from_dilation kept ...
        self.kraus_slots = 0  # ... out of its d**2 environment slots
        self.distinct_states: set[int] = set()
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, self.stack[-1] if self.stack else -1, self.task])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        return traced

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"weylkit.{short}"]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and attr not in UNWRAPPED:
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{attr}", fn))
        for mod in [m for n, m in sys.modules.items() if n == "weylkit" or n.startswith("weylkit.")]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(mod, attr, wrappers[id(value)][1])
                    self._rebound.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound.clear()

    # -- reporting -----------------------------------------------------------

    def aggregate(self, task_dims: dict) -> dict:
        """Per-name totals ``{name: {"calls", "ms", "self_ms", "by_d": {d: [ms, self_ms]}}}``.

        Self time is a span's duration minus the durations of its direct
        children.  ``task_dims`` maps a task id to its dimension d.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, task in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, parent, task) in enumerate(self.spans):
            dur = end - start
            own = dur - child[i]
            row = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0, "by_d": {}})
            row["calls"] += 1
            row["ms"] += dur * 1e3
            row["self_ms"] += own * 1e3
            d = task_dims.get(task)
            if d is not None:
                cell = row["by_d"].setdefault(d, [0.0, 0.0])
                cell[0] += dur * 1e3
                cell[1] += own * 1e3
        return out

    def write(self, path) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, task in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start_ms": round((start - t0) * 1e3, 6),
                            "end_ms": round((end - t0) * 1e3, 6),
                            "parent": parent,
                            "task": task,
                        }
                    )
                )
                fh.write("\n")
