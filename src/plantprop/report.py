"""Sweep artifacts: CSV tables, reproducibility manifests, SVG heatmaps.

Every file format that the package reads or writes lives here, a spec's
config dict among them. The CSV is the canonical result format: one row
per (function, factor) cell, every float printed with 17 significant
digits so parsing it back gives bit-identical doubles. The manifest
records everything needed to re-run a sweep (spec, base seed, per-cell
sub-seeds, tool version). The heatmaps are hand-assembled SVG strings, a
pure function of the table, so the same table always renders to the same
bytes.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Sequence
from pathlib import Path

from . import __version__
from .benchmarks import FUNCTION_NAMES, make_function
from .core import SteepeningSchedule
from .experiment import VANILLA, HeatmapTable, SweepSpec, _median, cell_seeds

MANIFEST_FORMAT = "plantprop-manifest-1"

# colors below this error are indistinguishable from the optimum
LOG_FLOOR = 1.0e-12


def read_text(path: Path) -> str:
    """A UTF-8 file's text; any other bytes are a ValueError naming the file."""
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not valid UTF-8: {exc}") from None


def _read_json(path: Path):
    """A JSON file's document; bad bytes or text, nesting too deep for the
    parser or an integer too long to convert are a ValueError naming it."""
    text = read_text(path)
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _factor_to_json(factor: float) -> float | str:
    """A factor as written to config and manifest JSON: vanilla is "vanilla"."""
    return "vanilla" if factor == VANILLA else factor


def _factor_from_json(raw) -> float:
    """A factor as read from config and manifest JSON: "vanilla" is VANILLA."""
    if raw == "vanilla":
        return VANILLA
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:  # an integer that json read exactly
            raise ValueError("a factor lies beyond the float range") from None
    raise ValueError(f"factors must be numbers or the token \"vanilla\", got {raw!r}")


def spec_to_config(spec: SweepSpec) -> dict:
    """Every field of `spec`, in field order, JSON-ready: the lists are lists
    and the vanilla factor is "vanilla"."""
    config = {name: getattr(spec, name) for name in spec._fields}
    config["functions"] = list(spec.functions)
    config["factors"] = [_factor_to_json(f) for f in spec.factors]
    return config


def spec_from_config(data) -> SweepSpec:
    """The spec of a config dict, as spec_to_config writes one: unknown keys
    and a missing "functions" or "factors" are a ValueError, as is each
    value that SweepSpec refuses; a missing field takes its default."""
    if not isinstance(data, dict):
        raise ValueError("sweep config must be a JSON object")
    unknown = sorted(set(data) - set(SweepSpec._fields))
    if unknown:
        raise ValueError(f"unknown sweep config keys: {', '.join(unknown)}")
    for required in ("functions", "factors"):
        if required not in data:
            raise ValueError(f"sweep config is missing {required!r}")

    functions = data["functions"]
    if not isinstance(functions, list) or not all(
        isinstance(f, str) for f in functions
    ):
        raise ValueError("functions must be a list of identifier strings")

    factors = data["factors"]
    if not isinstance(factors, list):
        raise ValueError(f"factors must be a list, got {factors!r}")
    factors = tuple(_factor_from_json(raw) for raw in factors)
    return SweepSpec(**dict(data, functions=tuple(functions), factors=factors))


def _spec(path: Path, config) -> SweepSpec:
    """The spec of `config`, read from `path`; a fault is a ValueError, and a
    size too large for memory a MemoryError, naming it."""
    try:
        return spec_from_config(config)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    except MemoryError as exc:
        raise MemoryError(f"{path}: {exc}") from None


def read_config(path: str | Path) -> SweepSpec:
    """The sweep spec of a config file. A fault in the file is a ValueError
    naming it; one that cannot be read is an OSError, whose text names it."""
    path = Path(path)
    return _spec(path, _read_json(path))


def format_float(value: float) -> str:
    # 17 significant digits round-trip any double exactly
    return f"{value:.17g}"


def write_csv(table: HeatmapTable, path: str | Path) -> Path:
    """Write the table, one row per cell in the table's order. A function name
    with a comma or a break of str.splitlines is refused before the file opens."""
    for function in table.functions:
        if "," in function or "".join(function.splitlines()) != function:
            raise ValueError(f"function name {function!r} holds a comma or a line break")
    path = Path(path)
    repeats = table.repeats
    header = ["function", "factor", "median"]
    header += [f"run_final_{i + 1}" for i in range(repeats)]
    lines = [",".join(header)]
    for (function, factor), finals in table.finals.items():
        median = table.median(function, factor)
        row = [function, format_float(factor), format_float(median)]
        row += [format_float(v) for v in finals]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def parse_csv(path: str | Path) -> HeatmapTable:
    """Parse a results CSV back into a table.

    Malformed input fails with the offending row and column named, as
    does a factor that SteepeningSchedule refuses, a median that is not the
    median of its row's run finals or a cell that an earlier row already
    has; a missing cell fails the completeness check.
    """
    path = Path(path)
    lines = read_text(path).splitlines()
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

    finals: dict[tuple[str, float], tuple[float, ...]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            raise ValueError(f"{path}:{lineno}: blank row")
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(
                f"{path}:{lineno}: expected {len(header)} columns, "
                f"got {len(parts)}"
            )
        values = []
        for colname, raw in zip(header[1:], parts[1:]):
            try:
                values.append(float(raw))
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: column {colname!r}: "
                    f"not a number: {raw!r}"
                ) from None
        factor, median, *run_finals = values
        try:
            # as `run --factor` reads one: positive, any spelling of inf vanilla
            factor = SteepeningSchedule(factor).factor
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: column 'factor': {exc}") from None
        if median != _median(run_finals):
            raise ValueError(
                f"{path}:{lineno}: column 'median': {parts[2]!r} is not the "
                "median of the row's run finals"
            )
        key = (parts[0], factor)
        if key in finals:
            raise ValueError(f"{path}:{lineno}: duplicate cell {key}")
        finals[key] = tuple(run_finals)
    try:
        return HeatmapTable(finals)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# a manifest's cells: {(function, factor): (seeds, median)}
ManifestCells = dict[tuple[str, float], tuple[tuple[int, ...], float]]


def _manifest_cells(spec: SweepSpec, table: HeatmapTable) -> ManifestCells:
    """The cells of the sweep of `spec`, whose finals `table` holds, as
    read_manifest returns a manifest's."""
    seeds = cell_seeds(spec)
    return {cell: (seeds[cell], table.median(*cell)) for cell in table.finals}


def write_manifest(
    spec: SweepSpec,
    table: HeatmapTable,
    path: str | Path,
    elapsed_seconds: float,
    backend: str,
) -> Path:
    """Record everything needed to reproduce the sweep of `spec`, whose
    finals `table` holds, bit for bit."""
    path = Path(path)
    cells = [
        {"function": function, "factor": _factor_to_json(factor),
         "seeds": list(seeds), "median": median}
        for (function, factor), (seeds, median) in _manifest_cells(spec, table).items()
    ]
    doc = {
        "format": MANIFEST_FORMAT,
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "elapsed_seconds": elapsed_seconds,
        "backend": backend,
        "spec": spec_to_config(spec),
        "cells": cells,
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


def read_manifest(path: str | Path) -> tuple[SweepSpec, ManifestCells]:
    """The sweep spec and the cells of a manifest written by write_manifest.

    Every fault names the file, as in a manifest without its spec or its
    cells; the spec is read as read_config reads one. A cell's factor is
    read as a float, with "vanilla" as VANILLA. A cell whose function is not
    a string, whose seeds are not a list of integers or whose median is not
    a float fails with the cell named, as does a cell that an earlier entry
    already has.
    """
    path = Path(path)
    doc = _read_json(path)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: manifest must be a JSON object")
    if doc.get("format") != MANIFEST_FORMAT:
        raise ValueError(
            f"{path}: unsupported manifest format {doc.get('format')!r}"
        )
    for entry in ("spec", "cells"):
        if entry not in doc:
            raise ValueError(f"{path}: manifest is missing its {entry!r} entry")
    spec = _spec(path, doc["spec"])
    entries = doc["cells"]
    if not isinstance(entries, list):
        raise ValueError(f"{path}: 'cells' must be a list, got {entries!r}")
    cells: ManifestCells = {}
    for index, cell in enumerate(entries):
        try:
            function, factor = cell["function"], _factor_from_json(cell["factor"])
            seeds, median = cell["seeds"], cell["median"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(
                f"{path}: malformed 'cells' entry {index}: {exc!r}"
            ) from None
        if not isinstance(function, str):
            raise ValueError(
                f"{path}: 'cells' entry {index}: function must be a string, "
                f"got {function!r}"
            )
        name = f"{path}: cell {function} factor {factor_label(factor)}"
        # type(), as a bool is an int too
        if not isinstance(seeds, list) or not all(type(seed) is int for seed in seeds):
            raise ValueError(f"{name}: seeds must be a list of integers, got {seeds!r}")
        if not isinstance(median, float):  # write_manifest writes a float
            raise ValueError(f"{name}: median must be a float, got {median!r}")
        if (function, factor) in cells:
            raise ValueError(f"{name}: duplicate cell")
        cells[(function, factor)] = (tuple(seeds), median)
    return spec, cells


def cell_mismatches(
    recorded: ManifestCells, spec: SweepSpec, table: HeatmapTable
) -> list[str]:
    """One line per cell whose seeds or median differ between a manifest's
    cells (as read_manifest returns them) and the rerun of `spec` whose
    finals `table` holds, or that only one of the two has."""
    lines = []
    left = dict(recorded)
    for (function, factor), (seeds, median) in _manifest_cells(spec, table).items():
        name = f"{function} factor {factor_label(factor)}"
        expected = left.pop((function, factor), None)
        if expected is None:
            lines.append(f"{name}: not in the manifest")
            continue
        if expected[0] != seeds:
            lines.append(f"{name}: seeds differ from the manifest's")
        if expected[1] != median:
            lines.append(
                f"{name}: median {format_float(median)}, "
                f"manifest {format_float(expected[1])}"
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
    medians = [table.median(function, f) for f in table.factors]
    if raw:
        return medians
    optimum = make_function(function, 2).known_optimum_value
    return [math.log10(max(m - optimum, LOG_FLOOR)) for m in medians]


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
    for key in table.finals:
        if not math.isfinite(table.median(*key)):
            raise ValueError(f"cannot render non-finite median at {key}")
    if not raw:
        unknown = sorted(set(table.functions) - set(FUNCTION_NAMES))
        if unknown:
            raise ValueError(
                f"no known optimum for {', '.join(unknown)}; "
                f"use raw mode or one of: {', '.join(FUNCTION_NAMES)}"
            )
    if combined:
        files = {"heatmap_combined.svg": table.functions}
    else:
        files = {}
        for function in table.functions:
            # Path(name).name drops any directory part and is "" for "."
            if function in ("", "..") or Path(function).name != function:
                raise ValueError(
                    f"function name {function!r} is not a plain file name; "
                    "use combined mode"
                )
            files[f"{function}.svg"] = (function,)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, functions in files.items():
        target = out_dir / name
        target.write_text(_render_rows(table, functions, raw), encoding="utf-8")
        written.append(target)
    return written
