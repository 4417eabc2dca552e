"""Sweep artifacts: CSV tables, reproducibility manifests, SVG heatmaps.

The CSV is the canonical result format: one row per (function, factor)
cell, every float printed with 17 significant digits so parsing it back
gives bit-identical doubles. The manifest records everything needed to
re-run a sweep (spec, base seed, per-cell sub-seeds, tool version). The
heatmaps are hand-assembled SVG strings, a pure function of the table, so
the same table always renders to the same bytes.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from pathlib import Path

from . import __version__
from ._record import Record
from .benchmarks import FUNCTION_NAMES, make_function
from .experiment import VANILLA, CellResult, SweepSpec, factor_from_json, factor_to_json

MANIFEST_FORMAT = "plantprop-manifest-1"

# colors below this error are indistinguishable from the optimum
LOG_FLOOR = 1.0e-12


class HeatmapTable(Record):
    """Complete (function x factor) grid of medians plus the raw finals."""

    functions: tuple[str, ...]
    factors: tuple[float, ...]
    medians: dict[tuple[str, float], float]
    finals: dict[tuple[str, float], tuple[float, ...]]

    def __post_init__(self):
        expected = {(f, fac) for f in self.functions for fac in self.factors}
        for name, mapping in (("medians", self.medians), ("finals", self.finals)):
            if set(mapping) != expected:
                raise ValueError(
                    f"{name} must cover every (function, factor) cell exactly once"
                )
        lengths = {len(v) for v in self.finals.values()}
        if len(lengths) > 1:
            raise ValueError("all cells must have the same number of run finals")

    @property
    def repeats(self) -> int:
        return len(next(iter(self.finals.values())))


def build_table(results: Sequence[CellResult]) -> HeatmapTable:
    """Arrange cell results into a table, functions alphabetical, factors
    ascending with vanilla last."""
    if not results:
        raise ValueError("no cell results to tabulate")
    functions = tuple(sorted({c.function for c in results}))
    factors = tuple(sorted({c.factor for c in results}))
    medians: dict[tuple[str, float], float] = {}
    finals: dict[tuple[str, float], tuple[float, ...]] = {}
    for cell in results:
        key = (cell.function, cell.factor)
        if key in medians:
            raise ValueError(f"duplicate cell {key}")
        medians[key] = cell.median
        finals[key] = tuple(cell.finals)
    return HeatmapTable(functions, factors, medians, finals)


def format_float(value: float) -> str:
    # 17 significant digits round-trip any double exactly
    return f"{value:.17g}"


def write_csv(table: HeatmapTable, path: str | Path) -> Path:
    """Write the table; row order is deterministic (see build_table)."""
    path = Path(path)
    repeats = table.repeats
    header = ["function", "factor", "median"]
    header += [f"run_final_{i + 1}" for i in range(repeats)]
    lines = [",".join(header)]
    for function in table.functions:
        for factor in table.factors:
            key = (function, factor)
            row = [function, format_float(factor), format_float(table.medians[key])]
            row += [format_float(v) for v in table.finals[key]]
            lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def parse_csv(path: str | Path) -> HeatmapTable:
    """Parse a results CSV back into a table.

    Malformed input fails with the offending row and column named; a
    missing or duplicated cell fails the completeness check.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}: empty file")
    header = lines[0].split(",")
    if header[:3] != ["function", "factor", "median"]:
        raise ValueError(
            f"{path}:1: expected header to start with "
            f"'function,factor,median', got {lines[0]!r}"
        )
    expected_finals = [f"run_final_{i + 1}" for i in range(len(header) - 3)]
    if header[3:] != expected_finals or len(header) < 4:
        raise ValueError(f"{path}:1: malformed run_final columns in header")

    cells: list[CellResult] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise ValueError(f"{path}:{lineno}: blank row")
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"got {len(parts)}"
            )
        function = parts[0]
        raw_factor = parts[1]
        if raw_factor == "inf":
            factor = VANILLA
        else:
            try:
                factor = float(raw_factor)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column 'factor': "
                    f"not a number: {raw_factor!r}"
                ) from None
            if not math.isfinite(factor) or factor <= 0:
                raise ValueError(
                    f"{path}:{lineno}: column 'factor': "
                    f"must be positive and finite, got {raw_factor!r}"
                )
        values = []
        for colname, raw in zip(header[2:], parts[2:]):
            try:
                values.append(float(raw))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column {colname!r}: "
                    f"not a number: {raw!r}"
                ) from None
        finals = tuple(values[1:])
        cells.append(
            CellResult(
                function=function,
                factor=factor,
                finals=finals,
                median=values[0],
                seeds=(),
            )
        )
    try:
        return build_table(cells)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_manifest(
    spec: SweepSpec,
    results: Sequence[CellResult],
    path: str | Path,
    elapsed_seconds: float,
    backend: str,
) -> Path:
    """Record everything needed to reproduce the sweep bit for bit."""
    path = Path(path)
    cells = []
    for cell in sorted(results, key=lambda c: (c.function, c.factor)):
        cells.append(
            {
                "function": cell.function,
                "factor": factor_to_json(cell.factor),
                "seeds": list(cell.seeds),
                "median": cell.median,
            }
        )
    doc = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_seconds": elapsed_seconds,
        "backend": backend,
        "spec": spec.to_config_dict(),
        "cells": cells,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


# a manifest's cells: {(function, factor): (seeds, median)}
ManifestCells = dict[tuple[str, float], tuple[tuple[int, ...], float]]


def read_manifest(path: str | Path) -> tuple[SweepSpec, ManifestCells]:
    """The sweep spec and the cells of a manifest written by write_manifest.

    A cell's factor is read as a float, with "vanilla" as VANILLA.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: unsupported manifest format {doc.get('format')!r}"
        )
    if "spec" not in doc:
        raise ValueError(f"{path}: manifest is missing its 'spec' entry")
    spec = SweepSpec.from_config_dict(doc["spec"])
    try:
        cells = {
            (cell["function"], factor_from_json(cell["factor"])): (
                tuple(int(seed) for seed in cell["seeds"]),
                float(cell["median"]),
            )
            for cell in doc.get("cells", ())
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed 'cells' entry: {exc!r}") from None
    return spec, cells


def cell_mismatches(recorded: ManifestCells, results: Sequence[CellResult]) -> list[str]:
    """One line per cell whose seeds or median differ between a manifest's
    cells (as read_manifest returns them) and `results`, or that only one
    of the two has."""
    lines = []
    left = dict(recorded)
    for cell in sorted(results, key=lambda c: (c.function, c.factor)):
        name = f"{cell.function} factor {factor_label(cell.factor)}"
        expected = left.pop((cell.function, cell.factor), None)
        if expected is None:
            lines.append(f"{name}: not in the manifest")
            continue
        seeds, median = expected
        if seeds != cell.seeds:
            lines.append(f"{name}: seeds differ from the manifest's")
        if median != cell.median:
            lines.append(
                f"{name}: median {format_float(cell.median)}, "
                f"manifest {format_float(median)}"
            )
    for function, factor in left:
        lines.append(f"{function} factor {factor_label(factor)}: missing from the rerun")
    return lines


# -- SVG rendering ----------------------------------------------------------

_CELL = 22
_TOP = 40
_LEFT = 130
_BOTTOM = 64
_RIGHT = 20
_DARK = 25
_LIGHT = 245


def _esc(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
    )


def factor_label(factor: float) -> str:
    """The column label of a factor: "vanilla", an integer's digits below
    2**53, or else repr, the shortest form that reads back as the same
    float, so distinct factors get distinct labels and 1e300 prints as
    1e+300, not as 301 digits."""
    if factor == VANILLA:
        return "vanilla"
    # false for nan and -inf, which int() rejects
    if factor.is_integer() and abs(factor) < 2**53:
        return str(int(factor))
    return repr(factor)


def _cell_values(
    table: HeatmapTable, function: str, raw: bool
) -> list[float]:
    if raw:
        return [table.medians[(function, f)] for f in table.factors]
    optimum = make_function(function, 2).known_optimum_value
    out = []
    for f in table.factors:
        err = table.medians[(function, f)] - optimum
        out.append(math.log10(max(err, LOG_FLOOR)))
    return out


def _shade(t: float) -> str:
    g = _DARK + int(round(t * (_LIGHT - _DARK)))
    return f"#{g:02x}{g:02x}{g:02x}"


def _render_rows(
    table: HeatmapTable, functions: Sequence[str], raw: bool
) -> str:
    """One SVG with one heatmap row per function, per-function color scale."""
    cols = len(table.factors)
    rows = len(functions)
    width = _LEFT + cols * _CELL + _RIGHT
    height = _TOP + rows * _CELL + _BOTTOM
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
        f'<text x="{_LEFT}" y="24" font-family="monospace" font-size="13" '
        f'fill="#000000">median {"value" if raw else "error (log10)"} '
        f'by steepening factor; darker is lower</text>',
    ]
    for r, function in enumerate(functions):
        values = _cell_values(table, function, raw)
        vmin = min(values)
        vmax = max(values)
        span = vmax - vmin
        y = _TOP + r * _CELL
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + _CELL - 7}" text-anchor="end" '
            f'font-family="monospace" font-size="11" fill="#000000">'
            f"{_esc(function)}</text>"
        )
        for c, value in enumerate(values):
            t = 0.0 if span == 0.0 else (value - vmin) / span
            x = _LEFT + c * _CELL
            parts.append(
                f'<rect x="{x}" y="{y}" width="{_CELL}" height="{_CELL}" '
                f'fill="{_shade(t)}"/>'
            )
    axis_y = _TOP + rows * _CELL
    for c, factor in enumerate(table.factors):
        x = _LEFT + c * _CELL + _CELL // 2
        parts.append(
            f'<text x="{x}" y="{axis_y + 8}" font-family="monospace" '
            f'font-size="9" fill="#000000" text-anchor="end" '
            f'transform="rotate(-60 {x} {axis_y + 8})">'
            f"{factor_label(factor)}</text>"
        )
    parts.append(
        f'<text x="{_LEFT}" y="{height - 10}" font-family="monospace" '
        f'font-size="10" fill="#000000">factor</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render_heatmaps(
    table: HeatmapTable,
    out_dir: str | Path,
    combined: bool = False,
    raw: bool = False,
) -> list[Path]:
    """Render the table to SVG files in out_dir and return their paths.

    Default: one file per function, named after it, so every name must be
    one plain path component. combined=True: a single grid with all
    functions. Error coloring (the default) needs every function name to be
    a registered benchmark; raw=True colors by the median value itself and
    works for any names.
    """
    for key, value in table.medians.items():
        if not math.isfinite(value):
            raise ValueError(f"cannot render non-finite median at {key}")
    if not raw:
        unknown = sorted(set(table.functions) - set(FUNCTION_NAMES))
        if unknown:
            raise ValueError(
                f"no known optimum for {', '.join(unknown)}; "
                f"use raw mode or one of: {', '.join(FUNCTION_NAMES)}"
            )
    if not combined:
        for function in table.functions:
            # Path(name).name drops any directory part and is "" for "."
            if function in ("", "..") or Path(function).name != function:
                raise ValueError(
                    f"function name {function!r} is not a plain file name; "
                    "use combined mode"
                )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    if combined:
        target = out_dir / "heatmap_combined.svg"
        target.write_text(
            _render_rows(table, table.functions, raw), encoding="utf-8"
        )
        written.append(target)
    else:
        for function in table.functions:
            target = out_dir / f"{function}.svg"
            target.write_text(
                _render_rows(table, (function,), raw), encoding="utf-8"
            )
            written.append(target)
    return written
