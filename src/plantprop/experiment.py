"""Factor-sweep grids: specs, execution, and the table of their results.

A sweep runs every (function, factor) cell for a fixed number of repeats,
each repeat with its own sub-seed derived from the base seed and the cell's
grid indices. Cells are independent, so they can execute in any order or in
parallel; the collected finals are keyed by cell in a table that orders
them itself, which makes the output identical no matter how the work was
scheduled. With `jobs` > 1 the calling process runs cells too, beside
`jobs - 1` child processes, and each takes the next cell from one shared
counter. The shipped grids are named in PRESETS and built by preset(name).
The file formats are report's: a spec's config dict, the results CSV and
the manifest.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Callable, Sequence

from ._record import Record, check_integer
from .benchmarks import DEFAULT_DIMENSION, FIXED_2D_NAMES, SCALABLE_NAMES, make_function
from .core import PpaConfig, SteepeningSchedule
from .rng import derive_subseed

# the factor of the vanilla baseline column: evals/inf + 1 is exactly 1, and
# inf sorts after every numeric factor, which is where the column belongs
VANILLA = math.inf

DEFAULT_FACTORS = tuple(float(f) for f in range(100, 4001, 100))

# chosen by scanning candidate seeds for clean low-error bands on every
# multimodal function under the default grids; see tests/test_acceptance.py
DEFAULT_BASE_SEED = 101


# (cell, its finals, cells done, cells in all, seconds since the start)
ProgressCallback = Callable[[tuple, tuple, int, int, float], None]


class SweepSpec(Record):
    """One experiment grid: functions x factors, `repeats` runs per cell.

    A factor is checked by SteepeningSchedule, the counts by PpaConfig
    (whose defaults these are), the dimension by make_function, and the
    rest here, including that a manifest's JSON can hold the base seed.
    report.spec_from_config and spec_to_config read and write a spec as
    the dict of a config file.
    """

    functions: tuple[str, ...]
    factors: tuple[float, ...]
    repeats: int = 10
    budget: int = 10_000
    pop_size: int = PpaConfig.pop_size
    n_max: int = PpaConfig.n_max
    base_seed: int = DEFAULT_BASE_SEED
    dimension: int = DEFAULT_DIMENSION

    def __post_init__(self):
        object.__setattr__(self, "functions", tuple(self.functions))
        if not self.functions:
            raise ValueError("a sweep needs at least one function")
        if len(set(self.functions)) != len(self.functions):
            raise ValueError("duplicate function identifiers in sweep")
        if not self.factors:
            raise ValueError("a sweep needs at least one factor")
        # each cell's config checks the counts, its factor, and the factor
        # against the budget, before any run; its schedule holds a float
        factors = tuple(self.cell_config(f).schedule.factor for f in self.factors)
        object.__setattr__(self, "factors", factors)
        # vanilla (inf) exceeds every numeric factor, so this one check
        # also allows at most one vanilla column and puts it last
        if any(b <= a for a, b in zip(factors, factors[1:])):
            raise ValueError(
                "factors must be strictly increasing, with at most one "
                "vanilla column, last"
            )
        check_integer("repeats", self.repeats)
        check_integer("base_seed", self.base_seed)
        try:
            str(self.base_seed)  # as json.dumps writes it into the manifest
        except ValueError:  # beyond sys.get_int_max_str_digits(), where set
            raise ValueError(
                f"base_seed has more than {sys.get_int_max_str_digits()} "
                "digits, which a manifest cannot hold"
            ) from None
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        for name in self.functions:
            make_function(name, self.dimension)

    def cell_config(self, factor: float) -> PpaConfig:
        """The run parameters of the spec's cells under `factor`."""
        return PpaConfig(
            self.budget, self.pop_size, self.n_max, SteepeningSchedule(factor)
        )

    @property
    def cell_count(self) -> int:
        return len(self.functions) * len(self.factors)


class HeatmapTable(Record):
    """A sweep's results: the run finals of every (function, factor) cell,
    keyed by (function, factor) with math.inf as the vanilla factor. A
    function name must be a str, and a factor must pass SteepeningSchedule
    and is held as the float it holds. A run final, like a factor, must be
    an int or a float but not a bool; it is held as a float, ±inf included,
    and must not be nan, which no CSV row can hold. The keys fix the axes:
    `functions` in alphabetical order and `factors` in ascending order,
    vanilla last. The cells must fill that grid, each with the same number
    of run finals, at least one, and the table puts them in its order too."""

    finals: dict[tuple[str, float], tuple[float, ...]]

    def __post_init__(self):
        given = {}
        for (function, factor), values in self.finals.items():
            if not isinstance(function, str):
                raise ValueError(f"a function name must be a str, got {function!r}")
            given[(function, SteepeningSchedule(factor).factor)] = tuple(
                map(_final, values)
            )
        functions = tuple(sorted({function for function, _ in given}))
        factors = tuple(sorted({factor for _, factor in given}))
        cells = [(f, fac) for f in functions for fac in factors]
        if not cells:
            raise ValueError("a table needs at least one cell")
        # `given` fills the grid if the counts agree; it is short of `finals`
        # when two keys name one float factor, as 2**53 + 1 and 2.0**53 do
        if not len(self.finals) == len(given) == len(cells):
            raise ValueError(
                "finals must cover every (function, factor) cell exactly once"
            )
        finals = {cell: given[cell] for cell in cells}
        if len({len(v) for v in finals.values()}) > 1:
            raise ValueError("all cells must have the same number of run finals")
        if not finals[cells[0]]:
            raise ValueError("a cell needs at least one run final")
        object.__setattr__(self, "functions", functions)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "finals", finals)

    @property
    def repeats(self) -> int:
        return len(next(iter(self.finals.values())))

    def median(self, function: str, factor: float) -> float:
        """The median of a cell's run finals."""
        return _median(self.finals[(function, factor)])


# the shipped grids: `sweep --preset` NAME -> the functions preset(NAME) runs
PRESETS = {"sweep-a": SCALABLE_NAMES, "sweep-b": FIXED_2D_NAMES}


def preset(name: str) -> SweepSpec:
    """The shipped grid `name`, its functions over the full factor grid and
    vanilla at the default dimension and seed; `.replace(base_seed=...)`
    gives it another seed. An unknown name is a ValueError."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {', '.join(PRESETS)}")
    return SweepSpec(functions=PRESETS[name], factors=DEFAULT_FACTORS + (VANILLA,))


def cell_seeds(spec: SweepSpec) -> dict[tuple[str, float], tuple[int, ...]]:
    """Sub-seeds for every (function, factor) cell, hard-checked for
    grid-wide uniqueness. The cells come in the spec's order, its functions
    as listed, each over its factors, and a sweep starts them in this order.
    This is the one place a cell becomes the grid indices that
    derive_subseed takes."""
    seeds: dict[tuple[str, float], tuple[int, ...]] = {}
    seen: dict[int, tuple[str, float, int]] = {}
    for fidx, function in enumerate(spec.functions):
        for facidx, factor in enumerate(spec.factors):
            row = []
            for ridx in range(spec.repeats):
                seed = derive_subseed(spec.base_seed, fidx, facidx, ridx)
                clash = seen.get(seed)
                if clash is not None:
                    raise RuntimeError(
                        f"sub-seed collision: runs {clash} and "
                        f"{(function, factor, ridx)} both derived {seed}"
                    )
                seen[seed] = (function, factor, ridx)
                row.append(seed)
            seeds[(function, factor)] = tuple(row)
    return seeds


def _run_cell(
    spec: SweepSpec, cell: tuple[str, float], seeds: tuple[int, ...]
) -> tuple[float, ...]:
    """The best value of each of a cell's runs, one per seed."""
    name, factor = cell
    function = make_function(name, spec.dimension)
    config = spec.cell_config(factor)
    # imported here, as engine loads the compiled kernel; engine.run is looked
    # up at each call, so a wrapper installed there (a per-run probe, a
    # counting test) sees every run. A cell's function is registered, so
    # engine.run picks the kernel whenever it loaded
    from . import engine

    return tuple(engine.run(config, function, seed).best_value for seed in seeds)


def _final(value) -> float:
    """A run final as the float a table holds it as; ValueError for a bool,
    a non-number, nan or an int beyond the float range."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if not math.isnan(final := float(value)):
                return final
        except OverflowError:
            pass
    raise ValueError(
        "a run final must be a float other than nan, or an int a float holds, "
        f"got {value!r}"
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


def _work(spec, cells, seeds, counter, conn) -> None:
    """A child's loop: run cells until the counter is used up, sending each
    cell and its finals. A cell's exception is sent in its place, and the
    child stops. Its exit closes the pipe, which is all the parent waits
    for. It returns normally, so its exit handlers run, and quietly on
    Ctrl-C, which the sweep process itself reports."""
    try:
        while (index := _take(counter, len(cells))) < len(cells):
            cell = cells[index]
            conn.send((cell, _run_cell(spec, cell, seeds[cell])))
    except KeyboardInterrupt:
        pass
    except Exception as exc:
        conn.send(exc)
    finally:
        conn.close()


def run_sweep(
    spec: SweepSpec,
    jobs: int = 1,
    progress: ProgressCallback | None = None,
) -> HeatmapTable:
    """Execute every cell of the grid and return the table of their finals.

    Cells start in cell_seeds order, but the table does not depend on that
    order, on `jobs` or on the engine, which engine.run picks. With
    `workers = min(jobs, cells)`, this process and `workers - 1` child
    processes each take the next cell from a shared counter until the grid
    is used up; `progress` fires once per cell as its result comes in. An
    exception in a child's cell is raised here, and a child that exits
    without finishing raises RuntimeError; either way every child is joined
    before this returns.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    seeds = cell_seeds(spec)
    cells = list(seeds)

    started = time.perf_counter()
    collected: dict[tuple[str, float], tuple[float, ...]] = {}
    total = len(cells)

    def collect(cell: tuple[str, float], finals: tuple[float, ...]) -> None:
        collected[cell] = finals
        if progress is not None:
            progress(cell, finals, len(collected), total, time.perf_counter() - started)

    # a child per job beyond this process, but none that would get no cell
    workers = min(jobs, total)
    if workers == 1:
        for cell in cells:
            collect(cell, _run_cell(spec, cell, seeds[cell]))
    else:
        _run_parallel(spec, cells, seeds, workers - 1, collect)
    if len(collected) < total:  # a child exited early with code 0
        raise RuntimeError(
            "a sweep worker exited before finishing its cells "
            f"({len(collected)} of {total} came back)"
        )
    return HeatmapTable(collected)


def _run_parallel(
    spec: SweepSpec,
    cells: list[tuple[str, float]],
    seeds: dict[tuple[str, float], tuple[int, ...]],
    children: int,
    collect: Callable[[tuple[str, float], tuple[float, ...]], None],
) -> None:
    """Run `cells` in this process and `children` child processes, which
    take cell indices from one shared counter, and collect every result."""
    # imported here: a serial sweep or a plot never needs multiprocessing
    import multiprocessing
    from multiprocessing.connection import wait

    # forked on Linux, whatever the default start method (forkserver from
    # Python 3.14): a fork is the cheap start and inherits this process's
    # modules, and is safe while the caller runs no other thread, as the CLI
    # runs none. macOS defaults to spawn for its own reasons; Windows has no fork
    context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    total = len(cells)
    counter = context.Value("q", 0)
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
            conn, child_end = context.Pipe(duplex=False)
            child = context.Process(
                target=_work, args=(spec, cells, seeds, counter, child_end)
            )
            child.start()
            pool.append((child, conn))
            running[conn] = child
            # closed here before the next fork, so only `child` holds it
            child_end.close()
        while (index := _take(counter, total)) < total:
            cell = cells[index]
            collect(cell, _run_cell(spec, cell, seeds[cell]))
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
