"""Command-line interface: single runs, factor sweeps, heatmap plotting.

Subcommands: run (one optimization), sweep (a full grid writing
results.csv + manifest.json), plot (SVG heatmaps from a results CSV),
list-functions. A sweep's spec comes from experiment.preset, a config file
or a manifest; its seed resolves as: --base-seed, then that spec's value.
`run --seed` defaults to the built-in seed. main prints each refusal, a
ValueError, OSError or MemoryError from the library or from here, as one
`error:` line and exits 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from . import __version__, report
from .benchmarks import DEFAULT_DIMENSION, SCALABLE_NAMES, list_functions, make_function
from .core import PpaConfig, SteepeningSchedule
from .experiment import (
    DEFAULT_BASE_SEED,
    PRESETS,
    SweepSpec,
    _median,
    preset,
    run_sweep,
)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plantprop",
        description="Plant propagation optimizer with a steepening-fitness "
        "schedule, plus a factor-sweep experiment harness.",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one optimization and print the result")
    p_run.add_argument("--function", required=True, help="benchmark function name")
    p_run.add_argument("--dimension", type=int, default=DEFAULT_DIMENSION,
                       help="dimensionality (default %(default)s)")
    p_run.add_argument(
        "--factor", type=float, default=SteepeningSchedule.factor,
        help="steepening factor: s = evals/factor + 1 "
        "(default %(default)s, vanilla PPA)",
    )
    p_run.add_argument("--budget", type=int, default=SweepSpec.budget,
                       help="objective evaluations (default %(default)s)")
    p_run.add_argument("--pop-size", type=int, default=PpaConfig.pop_size,
                       help="population size (default %(default)s)")
    p_run.add_argument("--n-max", type=int, default=PpaConfig.n_max,
                       help="most offspring per parent (default %(default)s)")
    p_run.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_BASE_SEED,
        help=f"run seed (default {DEFAULT_BASE_SEED})",
    )
    p_run.add_argument(
        "--trajectory",
        metavar="OUT.CSV",
        default=None,
        help="write (evaluation, best_so_far) pairs to this CSV",
    )

    p_sweep = sub.add_parser(
        "sweep", help="run a (function x factor) grid, write CSV + manifest"
    )
    source = p_sweep.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESETS, help="a built-in grid")
    source.add_argument("--config", metavar="SPEC.JSON", help="a sweep config file")
    source.add_argument(
        "--from-manifest",
        metavar="MANIFEST.JSON",
        help="re-run the sweep recorded in a manifest and exit 1 if a cell's "
        "seeds or median differ from it (not checked when the seed is "
        "overridden)",
    )
    p_sweep.add_argument(
        "--out", required=True, metavar="DIR", help="output directory"
    )
    p_sweep.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes (default: the CPUs this process may use)",
    )
    p_sweep.add_argument(
        "--base-seed",
        type=int,
        default=None,
        help="override the base seed",
    )
    p_sweep.add_argument(
        "--quiet", action="store_true", help="suppress per-cell progress lines"
    )

    p_plot = sub.add_parser("plot", help="render SVG heatmaps from a results CSV")
    p_plot.add_argument("csv", help="results.csv written by `sweep`")
    p_plot.add_argument(
        "--out", metavar="DIR", default=None,
        help="output directory (default: next to the CSV)",
    )
    p_plot.add_argument(
        "--combined", action="store_true",
        help="one grid with all functions instead of one file per function",
    )
    p_plot.add_argument(
        "--raw", action="store_true",
        help="linear scale on raw medians instead of log error vs optimum",
    )

    sub.add_parser("list-functions", help="list the built-in benchmark functions")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    function = make_function(args.function, args.dimension)
    schedule = SteepeningSchedule(args.factor)
    config = PpaConfig(
        budget=args.budget,
        pop_size=args.pop_size,
        n_max=args.n_max,
        schedule=schedule,
    )

    from . import engine  # loads the compiled kernel, which only runs need

    result = engine.run(config, function, args.seed)

    label = report.factor_label(schedule.factor)
    if label != "vanilla":
        label = f"linear, factor {label}"
    point = "(" + ", ".join(report.format_float(v) for v in result.best_point) + ")"
    print(f"function     {function.name} (n={function.dimension})")
    print(f"schedule     {label}")
    print(f"seed         {args.seed}")
    print(f"best value   {report.format_float(result.best_value)}")
    print(f"best point   {point}")
    print(f"evaluations  {result.evaluations_used}")
    # a registered function runs on the kernel whenever it loaded
    reason = f" ({engine.KERNEL_ERROR})" if engine.KERNEL_ERROR is not None else ""
    print(f"backend      {engine.DEFAULT_BACKEND}{reason}")

    if args.trajectory:
        lines = ["evaluation,best_value"]
        lines += [f"{i},{report.format_float(v)}" for i, v in result.trajectory]
        Path(args.trajectory).write_text("\n".join(lines) + "\n", encoding="utf-8")
        print(f"trajectory   {args.trajectory}")
    return 0


def _resolve_sweep_spec(
    args: argparse.Namespace,
) -> tuple[SweepSpec, report.ManifestCells | None]:
    """The spec to run, and with --from-manifest the manifest's cells to
    compare the rerun with (None when the seed was overridden)."""
    recorded = None
    if args.preset is not None:
        spec = preset(args.preset)
    elif args.config is not None:
        spec = report.read_config(args.config)
    else:
        spec, recorded = report.read_manifest(args.from_manifest)

    if args.base_seed is not None and args.base_seed != spec.base_seed:
        spec = spec.replace(base_seed=args.base_seed)
        recorded = None
    return spec, recorded


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec, recorded = _resolve_sweep_spec(args)
    jobs = args.jobs if args.jobs is not None else _usable_cpus()
    if jobs < 1:
        raise ValueError("--jobs must be >= 1")

    out_dir = Path(args.out)
    written = out_dir / "manifest.json"
    if args.from_manifest is not None and written.exists() and written.samefile(
        args.from_manifest
    ):
        raise ValueError(
            f"--out {out_dir} would overwrite {args.from_manifest}, the manifest "
            "this sweep reruns; choose another --out"
        )
    out_dir.mkdir(parents=True, exist_ok=True)

    total = spec.cell_count
    width = len(str(total))

    def progress(cell, finals, done: int, count: int, elapsed: float) -> None:
        function, factor = cell
        print(
            f"[{done:>{width}}/{count}] {function:<14} "
            f"factor {report.factor_label(factor):>7}  "
            f"median {_median(finals):.6e}  ({elapsed:.1f}s)",
            flush=True,
        )

    started = time.perf_counter()
    try:
        table = run_sweep(spec, jobs=jobs, progress=None if args.quiet else progress)
    except RuntimeError as exc:  # a sweep worker died or sub-seeds collided
        raise ValueError(str(exc)) from None
    elapsed = time.perf_counter() - started

    from . import engine

    csv_path = report.write_csv(table, out_dir / "results.csv")
    manifest_path = report.write_manifest(
        spec, table, out_dir / "manifest.json", elapsed, engine.DEFAULT_BACKEND
    )
    print(
        f"wrote {csv_path} ({len(table.finals)} cells) and {manifest_path.name} "
        f"in {elapsed:.1f}s"
    )
    if recorded is not None:
        mismatches = report.cell_mismatches(recorded, spec, table)
        if mismatches:
            raise ValueError(
                f"{len(mismatches)} cell(s) differ from {args.from_manifest}:\n  "
                + "\n  ".join(mismatches)
            )
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    csv_path = Path(args.csv)
    table = report.parse_csv(csv_path)
    out_dir = Path(args.out) if args.out is not None else csv_path.parent
    written = report.render_heatmaps(
        table, out_dir, combined=args.combined, raw=args.raw
    )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_list_functions(args: argparse.Namespace) -> int:
    print(f"{'name':<15} {'n':<5} {'domain':<22} optimum")
    for function in list_functions():
        low = function.bounds.lower
        high = function.bounds.upper
        scalable = function.name in SCALABLE_NAMES
        if all(a == low[0] for a in low) and all(b == high[0] for b in high):
            domain = f"[{low[0]:g}, {high[0]:g}]^{'n' if scalable else '2'}"
        else:
            domain = " x ".join(
                f"[{a:g}, {b:g}]" for a, b in zip(low, high)
            )
        arity = ">=2" if scalable else "2"
        print(
            f"{function.name:<15} {arity:<5} {domain:<22} "
            f"{function.known_optimum_value:g}"
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "plot": _cmd_plot,
        "list-functions": _cmd_list_functions,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:  # stdout's reader is gone; devnull keeps exit's flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
