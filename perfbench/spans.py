"""Span tracing around the calls into plantprop's public functions.

The wrappers live here, in the benchmark, and are installed only for traced
rounds. Each wrapped call is a span; a span's self time is its duration
minus the time of the wrapped calls made inside it. Spans are aggregated in
memory per name (calls, total, self, counters) rather than kept one by one,
because a pure-engine sweep makes millions of RNG draws. Every process
writes its aggregate to a JSON file when it ends: the traced CLI process
itself, and every pool worker it forks (through multiprocessing's
after-fork and exit hooks).
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

# (module, attribute path) -> span name. A layer is the span name's prefix.
TARGETS = {
    ("plantprop.rng", "Xoshiro256pp.next_uniform"): "rng.next_uniform",
    ("plantprop.rng", "Xoshiro256pp.from_seed"): "rng.from_seed",
    ("plantprop.rng", "derive_subseed"): "rng.derive_subseed",
    ("plantprop.benchmarks", "BenchmarkFunction.evaluate"): "benchmarks.evaluate",
    ("plantprop.benchmarks", "make_function"): "benchmarks.make_function",
    ("plantprop.core", "run_ppa"): "core.run_ppa",
    ("plantprop.core", "steepness"): "core.steepness",
    ("plantprop.core", "normalize"): "core.normalize",
    ("plantprop.core", "fitness"): "core.fitness",
    ("plantprop.core", "offspring_count"): "core.offspring_count",
    ("plantprop.core", "mutate"): "core.mutate",
    ("plantprop.core", "select_survivors"): "core.select_survivors",
    ("plantprop.engine", "run"): "engine.run",
    ("plantprop._kernel", "run"): "kernel.run",
    ("plantprop.experiment", "cell_seeds"): "experiment.cell_seeds",
    ("plantprop.experiment", "run_sweep"): "experiment.run_sweep",
    ("plantprop.report", "write_csv"): "report.write_csv",
    ("plantprop.report", "write_manifest"): "report.write_manifest",
    ("plantprop.report", "parse_csv"): "report.parse_csv",
    ("plantprop.report", "render_heatmaps"): "report.render_heatmaps",
    ("plantprop.cli", "main"): "cli.main",
}


def _file_bytes(paths) -> int:
    if not isinstance(paths, (list, tuple)):
        paths = [paths]
    return sum(os.path.getsize(p) for p in paths)


def _count_select(args, kwargs, result, counters):
    parents, offspring = args[0], args[1]
    counters["pool_items"] = counters.get("pool_items", 0) + len(parents) + len(offspring)
    counters["offspring_made"] = counters.get("offspring_made", 0) + len(offspring)
    parent_ids = {id(p) for p in parents}
    kept = sum(1 for ind in result if id(ind) not in parent_ids)
    counters["offspring_kept"] = counters.get("offspring_kept", 0) + kept


def _count_kernel(args, kwargs, result, counters):
    counters["evals"] = counters.get("evals", 0) + int(result[3])


def _count_bytes(args, kwargs, result, counters):
    counters["bytes"] = counters.get("bytes", 0) + _file_bytes(result)


# span name -> hook(args, kwargs, result, counters) run after a wrapped call
COUNTERS = {
    "core.select_survivors": _count_select,
    "kernel.run": _count_kernel,
    "report.write_csv": _count_bytes,
    "report.write_manifest": _count_bytes,
    "report.render_heatmaps": _count_bytes,
}


class Tracer:
    """Installs span wrappers and accumulates per-name aggregates."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, counters]
        self._stack = [0.0]  # child time accumulated by each open span
        self._undo: list = []
        self.missing: list[str] = []

    def reset(self) -> None:
        """Forget everything recorded, keeping the installed wrappers."""
        self.stats.clear()
        self._stack[:] = [0.0]

    def _wrap(self, name: str, fn):
        stats = self.stats
        stack = self._stack
        hook = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0, {}]
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - child
            if hook is not None:
                hook(args, kwargs, result, entry[3])
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target that exists, in every plantprop module."""
        self.missing = []
        replacements = {}
        for (modname, path), name in TARGETS.items():
            module = sys.modules.get(modname)
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name and module else module
            if owner is None or attr not in vars(owner):
                self.missing.append(name)
                continue
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(name, raw.__func__))
            else:
                new = self._wrap(name, raw)
                replacements[id(raw)] = (raw, new)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, raw))
        # names bound by `from x import y` elsewhere in the package
        for modname, module in list(sys.modules.items()):
            if modname != "plantprop" and not modname.startswith("plantprop."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._undo.append((module, attr, value))

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._undo):
            setattr(owner, attr, raw)
        self._undo = []

    def doc(self) -> dict:
        """The aggregates as JSON-ready data, in the form merge() reads."""
        return {
            "pid": os.getpid(),
            "missing": self.missing,
            "spans": {name: {"calls": e[0], "total_s": e[1], "self_s": e[2],
                             "counters": e[3]}
                      for name, e in self.stats.items()},
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.doc(), fh)



def follow_forks(recorder, prefix: str) -> None:
    """In every forked multiprocessing worker, reset `recorder` and write its
    doc() to PREFIX.<pid>.json when the worker exits."""
    import multiprocessing.util as mpu

    def dump(rec):
        with open(f"{prefix}.{os.getpid()}.json", "w", encoding="utf-8") as fh:
            json.dump(rec.doc(), fh)

    def in_child(rec):
        rec.reset()
        mpu.Finalize(None, dump, args=(rec,), exitpriority=100)

    mpu.register_after_fork(recorder, in_child)


def merge(docs) -> dict[str, dict]:
    """Sum span aggregates from several processes."""
    out: dict[str, dict] = {}
    for doc in docs:
        for name, e in doc["spans"].items():
            acc = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0, "counters": {}})
            acc["calls"] += e["calls"]
            acc["total_s"] += e["total_s"]
            acc["self_s"] += e["self_s"]
            for k, v in e["counters"].items():
                acc["counters"][k] = acc["counters"].get(k, 0) + v
    return out
