"""Plant propagation generational loop and its constituent operations.

The optimizer keeps a fixed-size population. Each generation the objective
values are normalized to [0, 1] (best -> 1), pushed through a tanh sigmoid
to get fitness, and every individual spawns offspring: fit individuals many
offspring with small mutations, unfit ones few offspring with large
mutations. The sigmoid's steepness s = evals/factor + 1 grows linearly with
the number of completed objective evaluations, which gradually sharpens the
transform toward a step function. Vanilla PPA is the limit factor = inf,
where s is exactly 1 for every evaluation count.

Everything here is scalar double arithmetic with a fixed draw order; the
C core in ``_ppa.c``, loaded by ``_kernel``, replicates it bit for bit.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Callable, Sequence

from ._record import Record, check_integer
from .benchmarks import BenchmarkFunction, Bounds
from .rng import Xoshiro256pp


class SteepeningSchedule(Record):
    """Steepness s = evals/factor + 1; the default factor inf is vanilla, s = 1.

    The factor, an int or a float but not a bool, is held as a float, so
    both engines divide by the same double.
    """

    factor: float = math.inf

    def __post_init__(self):
        factor = self.factor
        if isinstance(factor, bool) or not isinstance(factor, (int, float)):
            raise ValueError(f"factor must be a real number, got {factor!r}")
        try:
            factor = float(factor)
        except OverflowError:  # an int beyond the float range, of either sign
            raise ValueError("a factor lies beyond the float range") from None
        if not factor > 0:
            raise ValueError(f"linear schedule requires factor > 0, got {factor!r}")
        object.__setattr__(self, "factor", factor)

    @classmethod
    def vanilla(cls) -> "SteepeningSchedule":
        return cls()

    @classmethod
    def linear(cls, factor: float) -> "SteepeningSchedule":
        """The schedule of `factor`; ``linear(math.inf)`` is vanilla."""
        return cls(factor)


def steepness(evals: int, schedule: SteepeningSchedule) -> float:
    """Sigmoid steepness after `evals` completed objective evaluations."""
    if evals < 0:
        raise ValueError("evaluation count must be non-negative")
    return evals / schedule.factor + 1.0


class PpaConfig(Record):
    """Run parameters: population size, offspring cap, budget, schedule.

    That the counts are integers (a bool is not), their lower limits, an
    n_max that a float holds and the steepness are checked here, once, for
    both engines. No other size is capped here, and the Python engine
    checks none; see ``engine.run`` for what the compiled engine checks.
    The defaults here are the only ones: a sweep and the CLI read them.
    """

    budget: int
    pop_size: int = 30
    n_max: int = 5
    # immutable, so every config may share the one default
    schedule: SteepeningSchedule = SteepeningSchedule()

    def __post_init__(self):
        for name in ("budget", "pop_size", "n_max"):
            check_integer(name, getattr(self, name))
        if self.pop_size < 1:
            raise ValueError("pop_size must be >= 1")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        # the offspring count ceil(n_max * f * r) is computed in floats
        if self.n_max > sys.float_info.max:
            raise ValueError(f"n_max must be at most {sys.float_info.max!r}")
        if self.budget < self.pop_size:
            raise ValueError("budget must cover at least the initial population")
        # inf is vanilla, s = 1, and 10**400 / inf would raise OverflowError
        if math.isfinite(self.schedule.factor):
            # the fitness computes 4*s*z - 2*s; once 4*s overflows it is nan
            try:
                s = steepness(self.budget, self.schedule)
            except OverflowError:  # a budget beyond the float range
                s = math.inf
            if not math.isfinite(4.0 * s):
                raise ValueError(
                    f"factor {self.schedule.factor!r} is too small for budget "
                    f"{self.budget}: the steepness budget/factor + 1 = {s!r} "
                    "overflows the fitness"
                )


class Individual(Record):
    """A point in the search box with its cached objective value."""

    position: tuple[float, ...]
    objective: float


class RunResult(Record):
    best_value: float
    best_point: tuple[float, ...]
    trajectory: tuple[tuple[int, float], ...]  # (evaluation index, best so far)
    evaluations_used: int
    seed: int


def normalize(objectives: Sequence[float]) -> list[float]:
    """Map objective values to [0, 1]: lowest -> 1, highest -> 0.

    A degenerate population (all values equal) maps to 0.5 everywhere,
    which keeps the downstream sigmoid at its midpoint instead of dividing
    by zero. Values so far apart that max - min overflows are rejected:
    some of them would map to nan.
    """
    if len(objectives) == 0:
        raise ValueError("cannot normalize an empty objective vector")
    for f in objectives:
        if not math.isfinite(f):
            raise ValueError(f"objective produced a non-finite value: {f}")
    fmin = min(objectives)
    fmax = max(objectives)
    if fmax == fmin:
        return [0.5] * len(objectives)
    span = fmax - fmin
    if not math.isfinite(span):
        raise ValueError("objective values span more than the float range")
    return [(fmax - f) / span for f in objectives]


def fitness(z: float, s: float) -> float:
    """Sigmoid fitness 0.5*(tanh(4*s*z - 2*s) + 1), increasing in z.

    At z = 0.5 the value is exactly 0.5 for any steepness; as s grows the
    curve approaches a 0/1 step around that midpoint (and saturates to
    exactly 0.0/1.0 in double precision once |4sz - 2s| is large enough,
    which is the intended limit).
    """
    return 0.5 * (math.tanh(4.0 * s * z - 2.0 * s) + 1.0)


def offspring_count(f: float, r: float, n_max: int) -> int:
    """Number of offspring: ceil(n_max * f * r), floored at 1.

    The raw product can round down to zero (r = 0 or a fully unfit parent);
    the floor guarantees every survivor reproduces. The count never exceeds
    n_max since f <= 1 and r < 1.
    """
    n = int(math.ceil(n_max * f * r))
    if n < 1:
        return 1
    if n > n_max:
        return n_max
    return n


def mutate(
    parent: Individual,
    f: float,
    bounds: Bounds,
    rng: Xoshiro256pp,
) -> tuple[float, ...]:
    """Perturb every coordinate of the parent, clamping to the bounds.

    Dimension j moves by (b_j - a_j) * 2*(r - 0.5)*(1 - f) with a fresh
    uniform r per dimension, so fit parents (f near 1) step tiny distances
    and unfit ones roam the whole box. f = 1 reproduces the parent exactly.
    """
    lower = bounds.lower
    upper = bounds.upper
    position = parent.position
    out = []
    for j in range(len(position)):
        r = rng.next_uniform()
        d = 2.0 * (r - 0.5) * (1.0 - f)
        xj = position[j] + (upper[j] - lower[j]) * d
        if xj < lower[j]:
            xj = lower[j]
        elif xj > upper[j]:
            xj = upper[j]
        out.append(xj)
    return tuple(out)


def select_survivors(
    parents: Sequence[Individual],
    offspring: Sequence[Individual],
    pop_size: int,
) -> list[Individual]:
    """Keep the pop_size lowest-objective individuals from parents+offspring.

    Ties break toward earlier creation (parents before offspring, then
    insertion order), which makes selection fully deterministic. A nan
    objective ranks as +inf, so it never displaces a finite one.

    This plain sort of the whole pool is the reference; the header of
    _ppa.c says how the C core reaches the same survivors without it.
    """
    pool = list(parents) + list(offspring)
    if len(pool) < pop_size:
        raise ValueError(
            f"selection pool of {len(pool)} cannot fill a population of {pop_size}"
        )

    def rank(i: int) -> tuple[float, int]:
        value = pool[i].objective
        return (math.inf if math.isnan(value) else value, i)

    order = sorted(range(len(pool)), key=rank)
    return [pool[i] for i in order[:pop_size]]


def run_ppa(
    config: PpaConfig,
    objective: BenchmarkFunction,
    seed: int,
    observer: Callable[[int, list[Individual]], None] | None = None,
) -> RunResult:
    """Run the optimizer until the evaluation budget is exhausted.

    The loop: uniform initialization inside the bounds; then per generation
    compute the steepness from the completed-evaluation counter, normalize,
    assign fitness, let each parent produce offspring (stopping the moment
    the budget is hit, even mid-generation), and select survivors from the
    union of parents and offspring. Identical (config, objective, seed)
    inputs give identical results.

    `observer`, when given, is called after every selection with
    (evaluations_used, population); it exists for invariant checks and is
    not part of the hot path.
    """
    check_integer("seed", seed)
    bounds = objective.bounds
    lower = bounds.lower
    upper = bounds.upper
    dim = objective.dimension
    pop_size = config.pop_size
    n_max = config.n_max
    budget = config.budget

    rng = Xoshiro256pp.from_seed(seed)

    best_value = math.inf
    best_point: tuple[float, ...] = ()
    trajectory: list[tuple[int, float]] = []
    evals = 0

    population: list[Individual] = []
    for _ in range(pop_size):
        coords = []
        for j in range(dim):
            u = rng.next_uniform()
            coords.append(lower[j] + u * (upper[j] - lower[j]))
        position = tuple(coords)
        value = objective.evaluate(position)
        evals += 1
        if value < best_value:
            best_value = value
            best_point = position
            trajectory.append((evals, value))
        population.append(Individual(position, value))

    while evals < budget:
        s = steepness(evals, config.schedule)
        z = normalize([ind.objective for ind in population])
        fits = [fitness(zi, s) for zi in z]

        offspring: list[Individual] = []
        for i, parent in enumerate(population):
            if evals >= budget:
                break
            r = rng.next_uniform()
            count = offspring_count(fits[i], r, n_max)
            for _ in range(count):
                if evals >= budget:
                    break
                position = mutate(parent, fits[i], bounds, rng)
                value = objective.evaluate(position)
                evals += 1
                if value < best_value:
                    best_value = value
                    best_point = position
                    trajectory.append((evals, value))
                offspring.append(Individual(position, value))

        population = select_survivors(population, offspring, pop_size)
        if observer is not None:
            observer(evals, population)

    if not trajectory or trajectory[-1][0] != evals:
        trajectory.append((evals, best_value))

    return RunResult(
        best_value=best_value,
        best_point=best_point,
        trajectory=tuple(trajectory),
        evaluations_used=evals,
        seed=seed,
    )
