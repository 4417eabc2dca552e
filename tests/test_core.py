"""Unit tests for the optimizer's constituent operations and the run loop."""

import math
import random

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from plantprop import engine
from plantprop.benchmarks import FUNCTION_NAMES, SCALABLE_NAMES, Bounds, make_function
from plantprop.core import (
    Individual,
    PpaConfig,
    SteepeningSchedule,
    fitness,
    mutate,
    normalize,
    offspring_count,
    run_ppa,
    select_survivors,
    steepness,
)

# frozen from a 50-digit arbitrary-precision tanh evaluation
FITNESS_Z1_S1 = 0.98201379003790845
FITNESS_Z025_S2 = 0.017986209962091558
FITNESS_Z075_S3 = 0.9975273768433652


class ScriptedRng:
    """Feeds mutate() a fixed uniform sequence."""

    def __init__(self, values):
        self._values = list(values)

    def next_uniform(self):
        return self._values.pop(0)


# -- normalize ---------------------------------------------------------------


def test_normalize_basic():
    assert normalize([3.0, 1.0, 5.0]) == [0.5, 1.0, 0.0]


def test_normalize_degenerate_population():
    assert normalize([7.0, 7.0, 7.0]) == [0.5, 0.5, 0.5]


def test_normalize_two_points():
    assert normalize([0.0, 10.0]) == [1.0, 0.0]


def test_normalize_rejects_empty_and_non_finite():
    with pytest.raises(ValueError):
        normalize([])
    with pytest.raises(ValueError):
        normalize([1.0, math.inf])
    with pytest.raises(ValueError):
        normalize([math.nan])


def test_normalize_rejects_values_whose_range_overflows():
    # each value is finite, but 1e308 - (-1e308) is not: z would be nan
    with pytest.raises(ValueError, match="span more than the float range"):
        normalize([-1e308, 0.0, 1e308])
    assert normalize([-1e308, 0.0]) == [1.0, 0.0]


def test_normalize_range_exact_on_random_vectors():
    rnd = random.Random(5)
    for _ in range(200):
        values = [rnd.uniform(-1e6, 1e6) for _ in range(rnd.randint(2, 40))]
        if max(values) == min(values):
            continue
        z = normalize(values)
        assert min(z) == 0.0
        assert max(z) == 1.0
        assert z[values.index(min(values))] == 1.0


# -- steepness ---------------------------------------------------------------


def test_steepness_examples():
    linear = SteepeningSchedule.linear(1000.0)
    assert steepness(0, linear) == 1.0
    assert steepness(4000, linear) == 5.0
    assert steepness(10**9, SteepeningSchedule.vanilla()) == 1.0


def test_steepness_rejects_negative_evals():
    with pytest.raises(ValueError):
        steepness(-1, SteepeningSchedule.vanilla())


def test_schedule_validation():
    for bad in (0.0, -1.0, math.nan, -math.inf):
        with pytest.raises(ValueError, match="factor > 0"):
            SteepeningSchedule(bad)
        with pytest.raises(ValueError, match="factor > 0"):
            SteepeningSchedule.linear(bad)


def test_vanilla_is_the_infinite_factor():
    vanilla = SteepeningSchedule.vanilla()
    assert vanilla == SteepeningSchedule(math.inf) == SteepeningSchedule.linear(math.inf)
    for evals in (0, 1, 2**53, 2**63 - 1):
        assert steepness(evals, vanilla) == 1.0


# -- fitness -----------------------------------------------------------------


def test_fitness_midpoint_is_half_for_any_steepness():
    for s in (1.0, 2.0, 5.0, 41.0, 101.0, 1e6):
        assert fitness(0.5, s) == 0.5


def test_fitness_frozen_values():
    assert fitness(1.0, 1.0) == pytest.approx(FITNESS_Z1_S1, abs=1e-12)
    assert fitness(0.25, 2.0) == pytest.approx(FITNESS_Z025_S2, abs=1e-12)
    assert fitness(0.75, 3.0) == pytest.approx(FITNESS_Z075_S3, abs=1e-12)


def test_fitness_saturates_toward_one():
    # tanh(20) rounds to 1.0 in double precision; saturation is the
    # intended step-function limit
    assert fitness(1.0, 10.0) == pytest.approx(1.0, abs=1e-12)


def test_fitness_monotone_in_z():
    zs = [i / 50 for i in range(51)]
    for s in (1.0, 2.0, 4.0):
        values = [fitness(z, s) for z in zs]
        assert all(a < b for a, b in zip(values, values[1:])), s
    # past s~10 the tails saturate to exactly 0.0/1.0 in doubles, so
    # only non-strict ordering survives
    values = [fitness(z, 10.0) for z in zs]
    assert all(a <= b for a, b in zip(values, values[1:]))
    assert values[0] == 0.0 and values[-1] == 1.0


def test_fitness_steepening_approaches_step():
    for z in (0.1, 0.3, 0.49, 0.51, 0.8, 0.97):
        target = 0.0 if z < 0.5 else 1.0
        gaps = [abs(fitness(z, s) - target) for s in (1.0, 2.0, 4.0, 8.0, 16.0)]
        assert all(a > b for a, b in zip(gaps, gaps[1:])), z


def test_fitness_of_the_best_parent_is_exactly_one_from_s_9_2561():
    # 0.5 * (tanh(2s) + 1.0) rounds to 1.0 once tanh(2s) is 1 - 2**-53, which
    # comes before tanh(2s) itself is 1.0 (from s = 9.5308). These values are
    # the platform libm's, as the golden runs are.
    assert fitness(1.0, 9.26) == 1.0
    assert math.tanh(18.52) == 0.9999999999999999 == 1.0 - 2.0**-53
    assert fitness(1.0, 9.25) == 0.9999999999999999
    assert math.tanh(2 * 9.5307) < 1.0 == math.tanh(2 * 9.5308)


def test_fitness_vanilla_equivalence_of_huge_factor():
    schedule = SteepeningSchedule.linear(1e12)
    for evals in (0, 123, 10_000):
        s = steepness(evals, schedule)
        for z in (0.0, 0.2, 0.5, 0.8, 1.0):
            assert abs(fitness(z, s) - fitness(z, 1.0)) < 1e-6


# -- offspring_count ---------------------------------------------------------


def test_offspring_count_examples():
    assert offspring_count(0.999999, 0.999, 5) == 5
    assert offspring_count(0.2, 0.5, 5) == 1


def test_offspring_count_floor_overrides_raw_formula():
    # the raw ceiling formula yields zero children at r=0
    assert math.ceil(5 * 0.5 * 0.0) == 0
    assert offspring_count(0.5, 0.0, 5) == 1


def test_offspring_count_stays_in_range():
    rnd = random.Random(17)
    for _ in range(500):
        n_max = rnd.randint(1, 12)
        count = offspring_count(rnd.random(), rnd.random(), n_max)
        assert 1 <= count <= n_max


# -- mutate ------------------------------------------------------------------


def test_mutate_identity_at_full_fitness():
    bounds = Bounds((-3.0, -3.0), (3.0, 3.0))
    parent = Individual((1.25, -0.5), 0.0)
    rng = ScriptedRng([0.123, 0.987])
    assert mutate(parent, 1.0, bounds, rng) == parent.position


def test_mutate_clamps_to_upper_bound():
    bounds = Bounds((0.0,), (10.0,))
    parent = Individual((5.0,), 0.0)
    # F=0 and r near 1: raw step 5 + 10*2*(r-0.5) lands near 15
    rng = ScriptedRng([1.0 - 1e-9])
    assert mutate(parent, 0.0, bounds, rng) == (10.0,)


def test_mutate_clamps_to_lower_bound():
    bounds = Bounds((0.0,), (10.0,))
    parent = Individual((5.0,), 0.0)
    rng = ScriptedRng([0.0])
    assert mutate(parent, 0.0, bounds, rng) == (0.0,)


def test_mutate_direct_arithmetic():
    # perturbation = (b-a) * 2(r-0.5)(1-F); width 1, r=0.75, F=0.5 -> 0.25
    bounds = Bounds((-0.5, -0.5), (0.5, 0.5))
    parent = Individual((0.0, 0.0), 0.0)
    rng = ScriptedRng([0.75, 0.75])
    assert mutate(parent, 0.5, bounds, rng) == (0.25, 0.25)
    # doubling the bound width doubles the step: [-1,1] gives 0.5
    bounds = Bounds((-1.0, -1.0), (1.0, 1.0))
    rng = ScriptedRng([0.75, 0.75])
    assert mutate(parent, 0.5, bounds, rng) == (0.5, 0.5)


def test_mutate_draws_one_uniform_per_dimension():
    bounds = Bounds((0.0,) * 4, (1.0,) * 4)
    parent = Individual((0.5,) * 4, 0.0)
    rng = ScriptedRng([0.5, 0.25, 0.75, 0.5])
    got = mutate(parent, 0.5, bounds, rng)
    assert got == (0.5, 0.25, 0.75, 0.5)
    assert rng._values == []


def test_mutate_stays_in_bounds_randomized():
    rnd = random.Random(23)
    for _ in range(300):
        dim = rnd.randint(1, 6)
        lower = tuple(rnd.uniform(-5, 0) for _ in range(dim))
        upper = tuple(l + rnd.uniform(0.5, 5) for l in lower)
        bounds = Bounds(lower, upper)
        parent = Individual(
            tuple(rnd.uniform(a, b) for a, b in zip(lower, upper)), 0.0
        )
        rng = ScriptedRng([rnd.random() for _ in range(dim)])
        child = mutate(parent, rnd.random(), bounds, rng)
        assert bounds.contains(child)


# -- select_survivors --------------------------------------------------------


def _pop(values):
    return [Individual((float(i),), v) for i, v in enumerate(values)]


def test_select_takes_best_of_union():
    parents = _pop([1.0, 2.0, 3.0])
    offspring = _pop([0.0, 4.0])
    got = select_survivors(parents, offspring, 3)
    assert [ind.objective for ind in got] == [0.0, 1.0, 2.0]


def test_select_identity_without_offspring():
    parents = _pop([4.0, 2.0, 9.0])
    assert select_survivors(parents, [], 3) == sorted(
        parents, key=lambda i: i.objective
    )


def test_select_ties_prefer_parents_then_insertion_order():
    parents = [Individual((1.0,), 5.0), Individual((2.0,), 5.0)]
    offspring = [Individual((3.0,), 5.0)]
    got = select_survivors(parents, offspring, 2)
    assert got == parents


def test_select_rejects_undersized_pool():
    with pytest.raises(ValueError):
        select_survivors(_pop([1.0]), [], 2)


def test_select_ranks_nan_as_inf():
    parents = _pop([1.0, 2.0, 3.0])
    offspring = _pop([math.nan, 0.5, math.inf, math.nan, 2.5])
    got = select_survivors(parents, offspring, 5)
    assert [ind.objective for ind in got] == [0.5, 1.0, 2.0, 2.5, 3.0]
    # past the finite values: +inf and nan tie, so creation order decides
    got = select_survivors(parents, offspring, 8)
    assert got[5:] == [offspring[0], offspring[2], offspring[3]]


# -- run_ppa -----------------------------------------------------------------


def test_run_budget_equals_popsize_is_init_only():
    fn = make_function("sphere", 2)
    config = PpaConfig(budget=30, pop_size=30)
    result = run_ppa(config, fn, seed=7)
    assert result.evaluations_used == 30
    assert result.trajectory[-1][0] == 30
    assert result.best_value == min(v for _, v in result.trajectory)


def test_run_is_deterministic():
    fn = make_function("rastrigin", 2)
    config = PpaConfig(budget=500, schedule=SteepeningSchedule.linear(900.0))
    a = run_ppa(config, fn, seed=123)
    b = run_ppa(config, fn, seed=123)
    assert a == b


def test_run_sphere_descends_below_tolerance():
    fn = make_function("sphere", 2)
    config = PpaConfig(budget=10_000, pop_size=30, n_max=5)
    for seed in (1, 2, 3):
        result = run_ppa(config, fn, seed=seed)
        assert result.best_value < 1e-2, seed


def test_run_trajectory_is_monotone_and_budget_exact():
    fn = make_function("ackley", 2)
    config = PpaConfig(budget=777, schedule=SteepeningSchedule.linear(300.0))
    result = run_ppa(config, fn, seed=99)
    assert result.evaluations_used == 777
    indices = [i for i, _ in result.trajectory]
    values = [v for _, v in result.trajectory]
    assert indices == sorted(indices)
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert result.trajectory[-1][0] == 777
    assert result.best_value == values[-1]


def test_run_observer_sees_constant_population_in_bounds():
    fn = make_function("griewank", 2)
    config = PpaConfig(budget=400, pop_size=20)
    seen = []

    def observer(evals, population):
        seen.append(evals)
        assert len(population) == 20
        for ind in population:
            assert fn.bounds.contains(ind.position)

    run_ppa(config, fn, seed=5, observer=observer)
    assert seen
    assert seen[-1] == 400


def test_run_drops_nan_offspring():
    calls = 0

    def objective(x):
        nonlocal calls
        calls += 1
        if calls > 10 and calls % 3 == 0:  # some offspring, never a parent
            return math.nan
        return x[0] * x[0] + x[1] * x[1]

    fn = make_function("sphere", 2)
    custom = type(fn)("nan-sphere", 2, fn.bounds, 0.0, ((0.0, 0.0),), objective)
    seen = []

    def observer(evals, population):
        seen.append(evals)
        assert not any(math.isnan(ind.objective) for ind in population)

    result = run_ppa(PpaConfig(budget=600, pop_size=10), custom, 3, observer)
    assert seen[-1] == result.evaluations_used == 600
    assert math.isfinite(result.best_value)


def test_run_propagates_objective_errors():
    fn = make_function("sphere", 2)
    bad = type(fn)(
        name="bad",
        dimension=2,
        bounds=fn.bounds,
        known_optimum_value=0.0,
        known_optimum_points=((0.0, 0.0),),
        _fn=lambda x: math.nan,
    )
    config = PpaConfig(budget=100)
    with pytest.raises(ValueError):
        run_ppa(config, bad, seed=1)


def test_config_validation():
    with pytest.raises(ValueError):
        PpaConfig(budget=10, pop_size=30)
    with pytest.raises(ValueError):
        PpaConfig(budget=100, pop_size=0)
    with pytest.raises(ValueError):
        PpaConfig(budget=100, n_max=0)
    # a budget beyond the float range overflows the steepness too
    with pytest.raises(ValueError, match="too small"):
        PpaConfig(budget=10**400, schedule=SteepeningSchedule.linear(100.0))
    # but not vanilla's, which never divides the budget by inf
    assert PpaConfig(budget=10**400).schedule == SteepeningSchedule.vanilla()


def test_config_rejects_an_n_max_beyond_the_float_range():
    # the Python engine computes the offspring count ceil(n_max * f * r) in floats
    with pytest.raises(ValueError, match=r"^n_max must be at most 1\.7976931348623157e\+308$"):
        PpaConfig(budget=100, n_max=10**400)
    config = PpaConfig(budget=60, pop_size=10, n_max=2**1023)
    assert run_ppa(config, make_function("sphere", 2), seed=1).evaluations_used == 60


@pytest.mark.parametrize("factor", [1e-320, 1e-306, 3e-306])
def test_config_rejects_a_steepness_that_overflows_the_fitness(factor):
    with pytest.raises(ValueError, match="too small for budget 300"):
        PpaConfig(budget=300, schedule=SteepeningSchedule.linear(factor))


def test_config_accepts_the_smallest_factors_that_stay_finite():
    # 4 * (budget/factor + 1) is still finite; the C core relies on this
    # check alone and gives the Python engine's result
    for budget, factor in ((300, 1e-300), (600, 2e-300)):
        config = PpaConfig(budget=budget, schedule=SteepeningSchedule.linear(factor))
        python = run_ppa(config, make_function("sphere", 2), seed=1)
        assert python.evaluations_used == budget
        if engine.HAVE_KERNEL:
            compiled = engine.run(config, make_function("sphere", 2), 1, backend="compiled")
            assert compiled == python


# -- where steepening stops ----------------------------------------------------


def _improves_after(trajectory, evals):
    # the closing entry repeats the best value at the budget; only a drop counts
    return any(
        e > evals and v < before for (_, before), (e, v) in zip(trajectory, trajectory[1:])
    )


@pytest.mark.parametrize("backend", [
    "python",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not engine.HAVE_KERNEL, reason="needs the compiled kernel")),
])
def test_steepness_past_saturation_collapses_the_population(backend):
    # From s = 9.2561 on, the best parent's fitness is exactly 1.0, its
    # offspring are copies and the population becomes one point. A linear
    # schedule gets there after 8.256 * factor evaluations, so at budget 10000
    # factor 1000 makes copies from about 8260 evaluations on, while factor
    # 2000 ends at s = 6. Seeds 7401-7410 were not used to find this.
    fn = make_function("sphere", 2)
    seeds = range(7401, 7411)
    for factor, improves in ((1000.0, False), (2000.0, True)):
        config = PpaConfig(budget=10_000, schedule=SteepeningSchedule.linear(factor))
        for seed in seeds:
            if backend == "python":
                final = []
                result = run_ppa(
                    config, fn, seed, observer=lambda evals, pop: final.append(pop)
                )
                positions = {ind.position for ind in final[-1]}
                assert (len(positions) == 1) is not improves, (factor, seed)
            else:
                result = engine.run(config, fn, seed, backend=backend)
            assert _improves_after(result.trajectory, 8600) is improves, (factor, seed)


# -- a run at a smaller budget -------------------------------------------------


@st.composite
def prefix_cases(draw, max_budget):
    name = draw(st.sampled_from(FUNCTION_NAMES))
    dim = draw(st.integers(2, 10)) if name in SCALABLE_NAMES else 2
    factor = draw(st.sampled_from([100.0, 1000.0, math.inf]))
    long = draw(st.integers(31, max_budget))
    short = draw(st.integers(30, long - 1))
    return make_function(name, dim), factor, draw(st.integers(0, 2**64 - 1)), short, long


def _assert_budget_prefix(case, run):
    """Nothing in a run reads the budget but the stop, so a run at budget B
    is the run at any larger budget cut at B: the improvements up to B, then
    a closing (B, best) entry unless the last improvement came at B."""
    fn, factor, seed, short, long = case
    short_run, long_run = (
        run(PpaConfig(budget=b, schedule=SteepeningSchedule(factor)), fn, seed)
        for b in (short, long)
    )
    prefix = tuple(step for step in long_run.trajectory if step[0] <= short)
    closing = () if prefix[-1][0] == short else ((short, prefix[-1][1]),)
    assert short_run.evaluations_used == short
    assert short_run.best_value == prefix[-1][1]
    assert short_run.trajectory == prefix + closing


@seed(20261101)
@settings(max_examples=150, deadline=None, database=None)
@given(case=prefix_cases(3000))
# the short run's last evaluation is an improvement, so it has no closing entry
@example(case=(make_function("ackley", 10), 1000.0, 17, 2934, 3000))
@pytest.mark.skipif(not engine.HAVE_KERNEL, reason="needs the compiled kernel")
def test_a_compiled_run_is_a_prefix_of_the_run_at_a_larger_budget(case):
    _assert_budget_prefix(
        case, lambda config, fn, seed: engine.run(config, fn, seed, backend="compiled")
    )


@seed(20261102)
@settings(max_examples=12, deadline=None, database=None)
@given(case=prefix_cases(800))
@example(case=(make_function("rastrigin", 5), 100.0, 18, 629, 800))
def test_a_python_run_is_a_prefix_of_the_run_at_a_larger_budget(case):
    _assert_budget_prefix(case, run_ppa)
