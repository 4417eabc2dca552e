#!/usr/bin/env python3
"""Time the pure-Python engine against the compiled kernel.

Both backends compute bit-identical results; this script measures the gap
and double-checks that equality on every timed run.

    python3 benchmarks/compare_backends.py
    python3 benchmarks/compare_backends.py --function ackley --budget 20000
"""

import argparse
import statistics
import sys
import time

from plantprop import engine
from plantprop.benchmarks import make_function
from plantprop.core import PpaConfig, SteepeningSchedule, run_ppa


def time_one(fn, config, seed, backend):
    started = time.perf_counter()
    if backend == "python":
        result = run_ppa(config, fn, seed)
    else:
        result = engine.run(config, fn, seed, backend="compiled")
    return time.perf_counter() - started, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--function", default="rastrigin")
    parser.add_argument("--dimension", type=int, default=2)
    parser.add_argument("--budget", type=int, default=10_000)
    parser.add_argument("--factor", type=float, default=900.0)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    if not engine.HAVE_KERNEL:
        print(
            f"compiled kernel unavailable ({engine.KERNEL_ERROR}); nothing to compare",
            file=sys.stderr,
        )
        return 1

    fn = make_function(args.function, args.dimension)
    config = PpaConfig(
        budget=args.budget, schedule=SteepeningSchedule.linear(args.factor)
    )
    seeds = [args.seed + i for i in range(args.repeats)]

    print(
        f"{fn.name} n={fn.dimension}, budget {args.budget}, "
        f"factor {args.factor:g}, {args.repeats} runs"
    )
    print(f"{'seed':>6}  {'python':>10}  {'compiled':>10}  {'speedup':>8}")
    py_times, cy_times = [], []
    for seed in seeds:
        py_t, py_r = time_one(fn, config, seed, "python")
        cy_t, cy_r = time_one(fn, config, seed, "compiled")
        if py_r != cy_r:
            print(f"MISMATCH at seed {seed}", file=sys.stderr)
            return 1
        py_times.append(py_t)
        cy_times.append(cy_t)
        print(f"{seed:>6}  {py_t:>9.4f}s  {cy_t:>9.4f}s  {py_t / cy_t:>7.1f}x")

    py_med = statistics.median(py_times)
    cy_med = statistics.median(cy_times)
    print(
        f"{'median':>6}  {py_med:>9.4f}s  {cy_med:>9.4f}s  "
        f"{py_med / cy_med:>7.1f}x"
    )
    print("all runs bit-identical across backends")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
