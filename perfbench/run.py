#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of plantprop.

    python3 perfbench/run.py --workload sweep-serial --seed 1 --seconds 10 --trace 0

Run from the root of a plantprop checkout. Workloads:

    sweep-serial    `plantprop sweep --jobs 1` on a 14-function grid, then
                    `plantprop plot` on its CSV
    sweep-parallel  the same grid with --jobs 2 (the process pool)
    highdim-runs    single plantprop.run calls on the nine scalable
                    functions at n=30, steepened and vanilla

The benchmark builds the checkout in place (setup.py build_ext --inplace),
times `setup_s`, then repeats whole rounds of the workload until --seconds
have passed. Every output is checked against perfbench/oracle.py or against
properties the method must have. With --trace 1 it alternates untraced and
traced rounds and reports per-layer figures instead of end-to-end ones.

The last line of standard output is the result:
{"correct", "attempted", "failed", "metrics"}; the line before it is a
{"record": ...} with the engine, host and per-round details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import oracle
import spans
import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Inputs shared by every workload: the package defaults.
BUDGET = 10_000
POP_SIZE = 30
N_MAX = 5

# The sweep grid: a cut of both presets (all 14 functions at n=2), factors
# from small to vanilla, three repeats per cell.
GRID_FACTORS = (100, 500, 1000, 2000, "vanilla")
GRID_REPEATS = 3
PARALLEL_JOBS = 2
SAMPLED_CELLS = 2

# functions with competing basins, where the steepening schedule matters
MULTIMODAL = ("ackley", "branin", "easom", "goldsteinprice", "griewank",
              "rastrigin", "schwefel", "sixhumpcamel")

HIGHDIM_N = 30
HIGHDIM_FACTOR = 1000.0
KERNEL_CROSSCHECK_RUNS = 2

SETUP_LAUNCHES = 5
CHILD_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840

WORKLOADS = ("sweep-serial", "sweep-parallel", "highdim-runs")

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "evals_per_s": "evals/s",
    "run_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "rng.draws": "count",
    "rng.self_s": "s",
    "rng.ns_per_draw": "ns",
    "benchmarks.evals": "count",
    "benchmarks.self_s": "s",
    "benchmarks.ns_per_eval": "ns",
    "core.run_ppa.self_s": "s",
    "core.mutate.self_s": "s",
    "core.normalize.self_s": "s",
    "core.fitness.self_s": "s",
    "core.offspring_count.self_s": "s",
    "core.select_survivors.self_s": "s",
    "core.select_survivors.pool_items": "count",
    "core.select_survivors.offspring_kept_ratio": "ratio",
    "core.generations": "count",
    "engine.run.calls": "count",
    "engine.run.s": "s",
    "kernel.run.s": "s",
    "kernel.ns_per_eval": "ns",
    "engine.marshal_s": "s",
    "experiment.cell_seeds.s": "s",
    "experiment.run_sweep.s": "s",
    "experiment.pool_overhead_s": "s",
    "report.write_csv.s": "s",
    "report.write_manifest.s": "s",
    "report.parse_csv.s": "s",
    "report.render_heatmaps.s": "s",
    "report.bytes_written": "bytes",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


class Context:
    """Where a run works and what it has learned about the checkout."""

    def __init__(self, args):
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = OUT / args.workload
        self.rng = random.Random(args.seed)
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.engine = None
        self.have_kernel = None
        env = dict(os.environ)
        # The CLI lets PPA_SEED override the seeds the benchmark passes.
        env.pop("PPA_SEED", None)
        # users' interpreters cache bytecode; the set-up warm-up launch fills it
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        env["TMPDIR"] = str(self.work / "tmp")
        self.env = env

    def problem(self, text: str) -> None:
        self.problems.append(text)


def run_child(ctx: Context, args: list, extra_env: dict | None = None,
              timeout: float = CHILD_TIMEOUT_S):
    """Run child.py in a fresh interpreter; return (rc, stdout, stderr, wall)."""
    env = dict(ctx.env, **(extra_env or {}))
    cmd = [sys.executable, str(HERE / "child.py")] + [str(a) for a in args]
    started = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ctx.work, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        err += f"\nkilled after {timeout} s"
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        # pool workers share the child's session; none may outlive a crash
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    return proc.returncode, out, err, wall


def build_checkout() -> float | None:
    """Build the checkout in place once; return the seconds it took."""
    marker = OUT / "build.done"
    if marker.exists():
        return None
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        timeout=BUILD_TIMEOUT_S)
    (OUT / "build.log").write_text(proc.stdout, encoding="utf-8")
    if proc.returncode != 0:
        raise BenchError(f"build failed, see {OUT / 'build.log'}")
    marker.write_text("", encoding="utf-8")
    return time.perf_counter() - started


def measure_setup(ctx: Context) -> tuple[list[float], list[float]]:
    """Fresh-interpreter launches: import plantprop, finish a tiny run.

    Returns each launch's time without the speed probe that follows the
    run, raw and scaled to the probe's nominal speed.
    """
    raw, scaled = [], []
    # the first launch fills the bytecode cache and names the engine
    for i in range(SETUP_LAUNCHES + 1):
        rc, out, err, wall = run_child(ctx, ["setup"])
        if rc != 0:
            raise BenchError(f"plantprop does not import and run:\n{err}")
        info = json.loads(out.strip().splitlines()[-1])
        if i == 0:
            ctx.engine = info["engine"]
            ctx.have_kernel = info["have_kernel"]
        else:
            raw.append(wall - info["probe_cost_s"])
            scaled.append(raw[-1] * speed.NOMINAL_S / info["probe_s"])
    return raw, scaled


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


# -- checks ------------------------------------------------------------------

def check_run(ctx: Context, where: str, name: str, n: int, record: dict,
              seed: int) -> float:
    """Check one RunResult record; return its best value."""
    best = float.fromhex(record["best_value"])
    point = [float.fromhex(v) for v in record["best_point"]]
    traj = [(i, float.fromhex(v)) for i, v in record["trajectory"]]
    if record["evaluations_used"] != BUDGET:
        ctx.problem(f"{where}: used {record['evaluations_used']} evaluations, "
                    f"budget {BUDGET}")
    if record["seed"] != seed:
        ctx.problem(f"{where}: ran seed {record['seed']}, asked for {seed}")
    box = oracle.bounds(name, n)
    if len(point) != n or not all(lo <= v <= hi for v, (lo, hi) in zip(point, box)):
        ctx.problem(f"{where}: best point outside the search box")
    elif not oracle.agrees(name, point, best):
        ctx.problem(f"{where}: best value {best!r} but the objective there is "
                    f"{oracle.evaluate(name, point)[0]!r}")
    if not best >= oracle.optimum(name) - oracle.OPTIMUM_TOL:
        ctx.problem(f"{where}: best value {best!r} below the known optimum")
    if not traj or traj[0][0] < 1 or traj[-1] != (BUDGET, best):
        ctx.problem(f"{where}: trajectory does not end at ({BUDGET}, best)")
    indices = [i for i, _ in traj]
    values = [v for _, v in traj]
    # the closing (budget, best) entry may repeat the last improvement's value
    if any(b <= a for a, b in zip(indices, indices[1:])) or \
            any(b >= a for a, b in zip(values, values[1:-1])) or \
            (len(values) > 1 and values[-1] > values[-2]):
        ctx.problem(f"{where}: trajectory does not improve strictly")
    return best


def grid_spec(base_seed: int) -> dict:
    return {
        "functions": list(oracle.FUNCTIONS),
        "factors": list(GRID_FACTORS),
        "repeats": GRID_REPEATS,
        "budget": BUDGET,
        "pop_size": POP_SIZE,
        "n_max": N_MAX,
        "base_seed": base_seed,
        "dimension": 2,
    }


def factor_token(factor) -> str:
    return "inf" if factor == "vanilla" else format(float(factor), ".17g")


def check_csv(ctx: Context, path: Path, grid: dict) -> dict:
    """Parse results.csv independently; return {(function, factor): finals}."""
    where = path.name
    lines = path.read_text(encoding="utf-8").split("\n")
    if lines[-1] != "":
        ctx.problem(f"{where}: no final newline")
    lines = lines[:-1]
    header = ["function", "factor", "median"] + [
        f"run_final_{i + 1}" for i in range(grid["repeats"])]
    if not lines or lines[0] != ",".join(header):
        ctx.problem(f"{where}: unexpected header")
        return {}
    order = [(f, factor_token(x)) for f in sorted(grid["functions"])
             for x in grid["factors"]]
    cells: dict = {}
    seen = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        key = tuple(parts[:2])
        seen.append(key)
        if key in cells:
            ctx.problem(f"{where}:{lineno}: cell {key} repeated")
        if len(parts) != len(header):
            ctx.problem(f"{where}:{lineno}: {len(parts)} columns")
            continue
        try:
            values = [float(v) for v in parts[2:]]
        except ValueError:
            ctx.problem(f"{where}:{lineno}: not a number")
            continue
        if any(format(v, ".17g") != tok for v, tok in zip(values, parts[2:])):
            ctx.problem(f"{where}:{lineno}: a number is not in 17-digit form")
        median, finals = values[0], values[1:]
        if median != oracle.median(finals):
            ctx.problem(f"{where}:{lineno}: median {median!r} is not the "
                        f"median of {finals}")
        floor = oracle.optimum(key[0]) - oracle.OPTIMUM_TOL if key[0] in \
            oracle.FUNCTIONS else math.inf
        if not all(math.isfinite(v) and v >= floor for v in finals):
            ctx.problem(f"{where}:{lineno}: a final is below the optimum of {key[0]}")
        cells[key] = (median, finals)
    if seen != order:
        ctx.problem(f"{where}: cells missing, repeated or out of order")
    return cells


def check_manifest(ctx: Context, path: Path, grid: dict, cells: dict) -> dict:
    """Check seeds against the oracle; return {(function, factor): seeds}."""
    try:
        return _check_manifest(ctx, json.loads(path.read_text(encoding="utf-8")),
                               grid, cells)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        ctx.problem(f"{path.name}: malformed: {exc!r}")
        return {}


def _check_manifest(ctx: Context, doc, grid: dict, cells: dict) -> dict:
    seeds = {}
    if doc.get("backend") != ctx.engine:
        ctx.problem(f"manifest names backend {doc.get('backend')!r}, "
                    f"the engine is {ctx.engine!r}")
    if doc.get("spec", {}).get("base_seed") != grid["base_seed"]:
        ctx.problem("manifest base seed differs from the one passed")
    for cell in doc.get("cells", []):
        fn, factor = cell["function"], cell["factor"]
        fidx = grid["functions"].index(fn)
        facidx = [factor_token(x) for x in grid["factors"]].index(factor_token(factor))
        want = [oracle.derive_subseed(grid["base_seed"], fidx, facidx, r)
                for r in range(grid["repeats"])]
        key = (fn, factor_token(factor))
        if cell["seeds"] != want:
            ctx.problem(f"manifest seeds of {key} differ from the derivation")
        if key not in cells or cells[key][0] != cell["median"]:
            ctx.problem(f"manifest median of {key} differs from the CSV")
        seeds[key] = want
    if len(seeds) != len(cells):
        ctx.problem("manifest and CSV list different cells")
    return seeds


def check_svgs(ctx: Context, directory: Path, grid: dict) -> None:
    found = sorted(p.name for p in directory.glob("*.svg"))
    if found != sorted(f"{f}.svg" for f in grid["functions"]):
        ctx.problem(f"plot wrote {found}")
    for name in found:
        try:
            root = ET.parse(directory / name).getroot()
        except ET.ParseError as exc:
            ctx.problem(f"{name}: not well-formed: {exc}")
            continue
        rects = root.findall("{http://www.w3.org/2000/svg}rect")
        if root.tag != "{http://www.w3.org/2000/svg}svg" or \
                len(rects) != 1 + len(grid["factors"]):
            ctx.problem(f"{name}: not one heatmap row of {len(grid['factors'])} cells")


def run_specs(ctx: Context, name: str, runs: list, seconds: float,
              trace: bool) -> dict | None:
    """Run single plantprop.run calls in one fresh interpreter."""
    spec = {"budget": BUDGET, "pop_size": POP_SIZE, "n_max": N_MAX,
            "runs": runs, "seconds": seconds, "trace": trace}
    in_path = ctx.work / f"{name}.in.json"
    out_path = ctx.work / f"{name}.out.json"
    in_path.write_text(json.dumps(spec), encoding="utf-8")
    rc, _, err, _ = run_child(ctx, ["runs", in_path, out_path])
    if rc != 0:
        print(err, file=sys.stderr)
        return None
    doc = json.loads(out_path.read_text(encoding="utf-8"))
    if not doc["consistent"]:
        ctx.problem(f"{name}: repeated rounds gave different results")
    return doc


def rerun_cells(ctx: Context, grid: dict, cells: dict, seeds: dict) -> None:
    """Rerun sampled cells alone; their finals must match the CSV bit for bit."""
    keys = ctx.rng.sample(sorted(seeds), SAMPLED_CELLS)
    backends = ["auto"] + (["python"] if ctx.have_kernel else [])
    runs = []
    for fn, token in keys:
        factor = None if token == "inf" else float(token)
        for seed in seeds[(fn, token)]:
            for backend in backends:
                runs.append({"function": fn, "dimension": 2, "factor": factor,
                             "seed": seed, "backend": backend})
    doc = run_specs(ctx, "rerun", runs, 0, False)
    if doc is None:
        ctx.problem("sampled cell reruns failed")
        return
    finals: dict = {}
    for run, record in zip(runs, doc["results"]):
        key = (run["function"], factor_token(run["factor"] or "vanilla"))
        best = check_run(ctx, f"rerun {key}", run["function"], 2, record,
                         run["seed"])
        if run["backend"] == "auto":
            finals.setdefault(key, []).append(best)
    for i in range(0, len(runs), len(backends)):
        if len(backends) > 1 and doc["results"][i] != doc["results"][i + 1]:
            ctx.problem(f"kernel and python engine differ on {runs[i]}")
    for key, values in finals.items():
        if [v.hex() for v in values] != [v.hex() for v in cells[key][1]]:
            ctx.problem(f"cell {key} rerun alone gives {values}, "
                        f"the sweep gave {cells[key][1]}")


def steepened_wins(cells: dict) -> list[str] | None:
    """Multimodal functions on which a steepened factor's median beats
    vanilla: a reference figure for the paper's claim, not a check."""
    try:
        return [fn for fn in MULTIMODAL
                if min(cells[(fn, factor_token(x))][0] for x in GRID_FACTORS[:-1])
                < cells[(fn, "inf")][0]]
    except KeyError:
        return None


# -- workloads ---------------------------------------------------------------

def sweep_round(ctx: Context, jobs: int, label: str, traced: bool) -> dict:
    directory = ctx.work / label
    grid_path = ctx.work / "grid.json"
    extra = {"PERFBENCH_USAGE": str(ctx.work / f"{label}.sweep.usage.json")}
    if traced:
        extra["PERFBENCH_TRACE"] = str(ctx.work / f"{label}.trace")
    else:
        extra["PERFBENCH_PROBE"] = str(ctx.work / f"{label}.probe")
    rc_sweep, _, err, sweep_s = run_child(
        ctx, ["cli", "sweep", "--config", grid_path, "--out", directory,
              "--jobs", jobs, "--quiet"], extra)
    if rc_sweep != 0:
        print(err, file=sys.stderr)
    extra.pop("PERFBENCH_PROBE", None)
    extra["PERFBENCH_USAGE"] = str(ctx.work / f"{label}.plot.usage.json")
    rc_plot, _, err, plot_s = run_child(
        ctx, ["cli", "plot", directory / "results.csv"], extra)
    if rc_plot != 0:
        print(err, file=sys.stderr)
    rss_mb = 0.0
    scale = 1.0
    for part, workers in (("sweep", jobs if jobs > 1 else 0), ("plot", 0)):
        path = ctx.work / f"{label}.{part}.usage.json"
        if path.exists():
            usage = json.loads(path.read_text(encoding="utf-8"))
            # getrusage gives the largest worker only; the workers do equal work
            kb = usage["self_kb"] + workers * usage["children_kb"]
            rss_mb = max(rss_mb, kb / 1024)
    probes = [json.loads(p.read_text(encoding="utf-8"))
              for p in ctx.work.glob(f"{label}.probe.*.json")]
    usage_path = ctx.work / f"{label}.sweep.usage.json"
    if usage_path.exists():
        probes.append(json.loads(usage_path.read_text(encoding="utf-8"))["probe"])
    probes = [p for p in probes if p and p["runs"]]
    if probes:
        # the probes' own time out (each worker probed its share), and the
        # runs' speed factor applied
        sweep_s -= sum(p["cost_s"] for p in probes) / jobs
        scale = sum(p["scaled_s"] for p in probes) / sum(p["raw_s"] for p in probes)
    return {"label": label, "traced": traced, "sweep_s": sweep_s,
            "plot_s": plot_s, "wall_s": sweep_s + plot_s, "scale": scale,
            "scaled_sweep_s": sweep_s * scale,
            "scaled_wall_s": (sweep_s + plot_s) * scale, "rss_mb": rss_mb,
            "sweep_ok": rc_sweep == 0, "plot_ok": rc_plot == 0}


def run_sweep_workload(ctx: Context, jobs: int) -> tuple[dict, dict, dict]:
    base_seed = ctx.rng.getrandbits(63)
    grid = grid_spec(base_seed)
    (ctx.work / "grid.json").write_text(json.dumps(grid), encoding="utf-8")
    cells_per_round = len(grid["functions"]) * len(grid["factors"])
    runs_per_round = cells_per_round * GRID_REPEATS

    rounds = []
    started = time.perf_counter()
    while True:
        traced = ctx.trace and len(rounds) % 2 == 1
        r = sweep_round(ctx, jobs, f"r{len(rounds)}", traced)
        rounds.append(r)
        ctx.attempted += cells_per_round + 1
        ctx.failed += (0 if r["sweep_ok"] else cells_per_round) + \
            (0 if r["plot_ok"] else 1)
        if time.perf_counter() - started >= ctx.seconds and \
                (not ctx.trace or len(rounds) >= 2):
            break

    good = [r for r in rounds if r["sweep_ok"] and r["plot_ok"]]
    wins = None
    if good:
        first = ctx.work / good[0]["label"]
        cells = check_csv(ctx, first / "results.csv", grid)
        seeds = check_manifest(ctx, first / "manifest.json", grid, cells)
        check_svgs(ctx, first, grid)
        reference = (first / "results.csv").read_bytes()
        for r in good[1:]:
            if (ctx.work / r["label"] / "results.csv").read_bytes() != reference:
                ctx.problem(f"round {r['label']} wrote a different results.csv")
            check_svgs(ctx, ctx.work / r["label"], grid)
        if cells and seeds:
            rerun_cells(ctx, grid, cells, seeds)
        wins = steepened_wins(cells)
        if jobs > 1:
            serial = sweep_round(ctx, 1, "serial-reference", False)
            path = ctx.work / "serial-reference" / "results.csv"
            if not serial["sweep_ok"] or path.read_bytes() != reference:
                ctx.problem("parallel results.csv differs from the serial one")

    plain = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    details = {"rounds": rounds, "base_seed": base_seed,
               "runs_per_round": runs_per_round, "steepened_beats_vanilla": wins}
    metrics = layers = {}
    if plain:
        walls = [r["scaled_wall_s"] for r in plain]
        metrics = {
            "wall_s": statistics.median(walls),
            "evals_per_s": statistics.median(
                runs_per_round * BUDGET / w for w in walls),
            # single runs are not visible outside the CLI: per-run sweep time
            "run_ms_p50": statistics.median(
                1000 * r["scaled_sweep_s"] / runs_per_round for r in plain),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
        }
    if traced and plain:
        docs = [json.loads(p.read_text(encoding="utf-8"))
                for r in traced for p in ctx.work.glob(f"{r['label']}.trace.*.json")]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        layers = layer_metrics(ctx, spans.merge(docs), len(traced), jobs, overhead)
        details["spans_missing"] = sorted({m for d in docs for m in d["missing"]})
    return metrics, layers, details


def run_highdim_workload(ctx: Context) -> tuple[dict, dict, dict]:
    runs = [{"function": fn, "dimension": HIGHDIM_N, "factor": factor,
             "seed": ctx.rng.getrandbits(63), "backend": "auto"}
            for fn in oracle.SCALABLE for factor in (HIGHDIM_FACTOR, None)]
    doc = run_specs(ctx, "highdim", runs, ctx.seconds, ctx.trace)
    if doc is None:
        ctx.attempted += len(runs)
        ctx.failed += len(runs)
        return {}, {}, {}
    rounds = doc["rounds"]
    ctx.attempted += len(runs) * len(rounds)
    for r in rounds:
        r["wall_s"] = sum(r["run_s"])
        # each run at the nominal speed of the probe taken just before it
        r["scaled_run_s"] = [t * speed.NOMINAL_S / p
                             for t, p in zip(r["run_s"], r["probe_s"])]

    for run, record in zip(runs, doc["results"]):
        check_run(ctx, f"{run['function']} n={HIGHDIM_N} factor {run['factor']}",
                  run["function"], HIGHDIM_N, record, run["seed"])
    if ctx.have_kernel:
        sample = ctx.rng.sample(range(len(runs)), KERNEL_CROSSCHECK_RUNS)
        again = run_specs(ctx, "highdim-python",
                          [runs[i] | {"backend": "python"} for i in sample], 0, False)
        if again is None or [doc["results"][i] for i in sample] != again["results"]:
            ctx.problem("kernel and python engine differ on a high-dimension run")

    plain = [r for r in rounds if not r["traced"]]
    walls = [sum(r["scaled_run_s"]) for r in plain]
    metrics = {
        "wall_s": statistics.median(walls),
        "evals_per_s": len(runs) * BUDGET * len(walls) / sum(walls),
        "run_ms_p50": 1000 * statistics.median(
            t for r in plain for t in r["scaled_run_s"]),
        "peak_rss_mb": doc["usage"]["self_kb"] / 1024,
    }
    layers = {}
    details = {"rounds": rounds}
    traced = [r for r in rounds if r["traced"]]
    if traced:
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        layers = layer_metrics(ctx, spans.merge([doc["spans"]]), len(traced), 1,
                               overhead)
        details["spans_missing"] = doc["spans"]["missing"]
    return metrics, layers, details


def layer_metrics(ctx: Context, sp: dict, rounds: int, jobs: int,
                  overhead: float) -> dict:
    """Per-layer figures per traced round from merged span aggregates."""
    def field(name, key):
        return sp.get(name, {}).get(key, 0)

    def counter(name, key):
        return sp.get(name, {}).get("counters", {}).get(key, 0)

    def layer_self(prefix):
        return sum(e["self_s"] for n, e in sp.items() if n.startswith(prefix + "."))

    def per_ns(seconds, count):
        return 1e9 * seconds / count if count else 0.0

    draws = field("rng.next_uniform", "calls")
    evals = field("benchmarks.evaluate", "calls")
    engine_calls = field("engine.run", "calls")
    kernel_calls = field("kernel.run", "calls")
    kernel_evals = counter("kernel.run", "evals")
    if evals != BUDGET * (engine_calls - kernel_calls) or \
            kernel_evals != BUDGET * kernel_calls:
        ctx.problem(f"traced evaluations {evals} + {kernel_evals} in the kernel "
                    f"are not the budget times {engine_calls} runs")
    made = counter("core.select_survivors", "offspring_made")
    totals = {
        "rng.draws": draws,
        "rng.self_s": layer_self("rng"),
        "benchmarks.evals": evals,
        "benchmarks.self_s": layer_self("benchmarks"),
        "core.select_survivors.pool_items": counter("core.select_survivors", "pool_items"),
        "core.generations": field("core.select_survivors", "calls"),
        "engine.run.calls": engine_calls,
        "engine.run.s": field("engine.run", "total_s"),
        "kernel.run.s": field("kernel.run", "total_s"),
        # engine.run minus the engine it dispatched to
        "engine.marshal_s": field("engine.run", "self_s"),
        "experiment.cell_seeds.s": field("experiment.cell_seeds", "total_s"),
        "experiment.run_sweep.s": field("experiment.run_sweep", "total_s"),
        "experiment.pool_overhead_s": (field("experiment.run_sweep", "total_s")
                                       - field("engine.run", "total_s") / jobs)
        if field("experiment.run_sweep", "calls") else 0.0,
        "report.bytes_written": sum(counter(n, "bytes") for n in (
            "report.write_csv", "report.write_manifest", "report.render_heatmaps")),
        "cli.main.self_s": field("cli.main", "self_s"),
    }
    for fn in ("run_ppa", "mutate", "normalize", "fitness", "offspring_count",
               "select_survivors"):
        totals[f"core.{fn}.self_s"] = field(f"core.{fn}", "self_s")
    for fn in ("write_csv", "write_manifest", "parse_csv", "render_heatmaps"):
        totals[f"report.{fn}.s"] = field(f"report.{fn}", "total_s")
    m = {name: value / rounds for name, value in totals.items()}
    m.update({
        "rng.ns_per_draw": per_ns(field("rng.next_uniform", "self_s"), draws),
        "benchmarks.ns_per_eval": per_ns(field("benchmarks.evaluate", "self_s"), evals),
        "kernel.ns_per_eval": per_ns(field("kernel.run", "total_s"), kernel_evals),
        "core.select_survivors.offspring_kept_ratio":
            counter("core.select_survivors", "offspring_kept") / made if made else 0.0,
        "trace.overhead_s": overhead,
    })
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "plantprop" / "__init__.py").is_file():
        print(f"no plantprop source under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    oracle.self_test()

    ctx = Context(args)
    OUT.mkdir(exist_ok=True)
    shutil.rmtree(ctx.work, ignore_errors=True)
    (ctx.work / "tmp").mkdir(parents=True)
    load_start = os.getloadavg()
    try:
        build_s = build_checkout()
        setup_raw, setup_scaled = measure_setup(ctx)
        if args.workload == "highdim-runs":
            metrics, layers, details = run_highdim_workload(ctx)
        else:
            jobs = PARALLEL_JOBS if args.workload == "sweep-parallel" else 1
            metrics, layers, details = run_sweep_workload(ctx, jobs)
    except BenchError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "engine": ctx.engine, "have_kernel": ctx.have_kernel,
        "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
        "git_sha": git_sha(), "build_s": build_s, "setup_samples_s": setup_raw,
        "scaled_setup_samples_s": setup_scaled,
        "attempted": ctx.attempted, "failed": ctx.failed,
        "problems": ctx.problems, "details": details,
    }
    (ctx.work / "record.json").write_text(json.dumps(record, indent=1),
                                          encoding="utf-8")
    print(json.dumps({"record": record}))
    for text in ctx.problems:
        print(f"CHECK FAILED: {text}", file=sys.stderr)

    if args.trace:
        values = layers
        wanted = PER_LAYER
    else:
        values = metrics | {"setup_s": statistics.median(setup_scaled)}
        wanted = END_TO_END
    if set(values) != set(wanted):
        print(f"metrics missing: {sorted(set(wanted) - set(values))}",
              file=sys.stderr)
        return 1
    correct = not ctx.problems
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in wanted.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
