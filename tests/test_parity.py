"""Bit-level agreement between the compiled kernel and the Python engine.

Every test asserts exact equality, not approximate: both sides compute every
value as the same IEEE-754 double, mostly by the same operations in the same
order, and where the C core takes another route its comment proves the
result the same.
"""

import ctypes
import math
import os
import random
import re
import shutil
import struct
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import plantprop
from plantprop import engine
from plantprop.benchmarks import (
    _BRANIN_B,
    _BRANIN_C,
    _BRANIN_T,
    FORMULAS,
    FUNCTION_IDS,
    FUNCTION_NAMES,
    SCALABLE_NAMES,
    BenchmarkFunction,
    Bounds,
    make_function,
)
from plantprop.core import PpaConfig, SteepeningSchedule, fitness, run_ppa

_kernel = pytest.importorskip("plantprop._kernel")

# for subprocesses: the directory this plantprop was imported from
SRC = str(Path(plantprop.__file__).resolve().parents[1])


def assert_same_run(compiled, python):
    """Equal results, and trajectories typed alike: 1 == 1.0 would hide a slip."""
    assert compiled == python
    for result in (compiled, python):
        assert {tuple(map(type, step)) for step in result.trajectory} == {(int, float)}


def with_examples(cases):
    """@example(case=...) for each case."""

    def decorate(test):
        for case in cases:
            test = example(case=case)(test)
        return test

    return decorate


# the C core's mutation step: the uniform's 53 bits k, centred in integers,
# times om = (1 - f) * 2^-52, in place of core.mutate's 2 * (r - 0.5) * (1 - f)
STEP_EXAMPLES = [
    (k, om)
    for k in (0, 1, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 1)
    for om in (0.0, 2.0**-53, 0.5, 1.0 - 2.0**-53, 1.0)
]
one_minus_fitness = st.builds(
    lambda z, s: 1.0 - fitness(z, s), st.floats(0.0, 1.0), st.floats(1.0, 1e6)
)


@settings(max_examples=2000, deadline=None, database=None)
@given(case=st.tuples(st.integers(0, 2**53 - 1), one_minus_fitness))
@with_examples(STEP_EXAMPLES)
def test_integer_centred_mutation_step_is_core_step(case):
    """Both steps round the same real number once, signed zeros included:
    struct bytes, since -0.0 == 0.0."""
    k, om = case
    core_step = 2.0 * (k * 2.0**-53 - 0.5) * om
    c_step = float(k - 2**52) * (om * 2.0**-52)
    assert struct.pack("<d", c_step) == struct.pack("<d", core_step)


@settings(max_examples=2000, deadline=None, database=None)
@given(om=one_minus_fitness)
def test_one_minus_fitness_is_zero_or_at_least_two_to_the_minus_53(om):
    """The premise of the step's exactness: om * 2^-52 is exact and normal."""
    assert om == 0.0 or om >= 2.0**-53


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_function_values_match_to_the_bit(name):
    rnd = random.Random(FUNCTION_IDS[name] + 1)
    dims = (2, 3, 7, 30) if name in SCALABLE_NAMES else (2,)
    for dim in dims:
        fn = make_function(name, dim)
        for _ in range(200):
            x = tuple(
                rnd.uniform(a, b)
                for a, b in zip(fn.bounds.lower, fn.bounds.upper)
            )
            py = fn.evaluate(x)
            cy = bounded_value(name, x, math.inf)
            assert math.isfinite(py)
            assert py == cy, (name, dim, x)


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_full_runs_are_bit_identical(name):
    fn = make_function(name, 2)
    schedules = (
        SteepeningSchedule.vanilla(),
        SteepeningSchedule.linear(700.0),
    )
    for schedule in schedules:
        for seed in (3, 777):
            config = PpaConfig(budget=2_000, schedule=schedule)
            py = run_ppa(config, fn, seed)
            cy = engine.run(config, fn, seed)
            assert_same_run(cy, py)


def test_longer_run_with_scalable_dimension():
    fn = make_function("rastrigin", 5)
    config = PpaConfig(budget=10_000, schedule=SteepeningSchedule.linear(1500.0))
    py = run_ppa(config, fn, seed=11)
    cy = engine.run(config, fn, seed=11)
    assert py == cy


@pytest.mark.parametrize("name", SCALABLE_NAMES)
def test_runs_at_thirty_dimensions_are_bit_identical(name):
    fn = make_function(name, 30)
    for schedule in (SteepeningSchedule.vanilla(), SteepeningSchedule.linear(150.0)):
        config = PpaConfig(budget=600, schedule=schedule)
        cy = engine.run(config, fn, 21)
        assert_same_run(cy, run_ppa(config, fn, 21))


BOWL_NAMES = ("sphere", "cigar", "tablet", "rosenbrock")
# the functions whose offspring the C core stops on a lower bound
BOUNDED_NAMES = ("griewank", "ackley", "rastrigin", "schwefel", "easom", "branin")


def dim_for(name, dim):
    """dim for a scalable function, 2 for a two-dimensional one."""
    return dim if name in SCALABLE_NAMES else 2


def narrow_box(name, dim):
    """`name` on [2, 3]^dim: the optimum lies outside, so clamping is common."""
    return make_function(name, dim).replace(bounds=Bounds((2.0,) * dim, (3.0,) * dim))


@pytest.mark.parametrize(
    "name, dim",
    [(name, dim) for name in BOWL_NAMES + BOUNDED_NAMES
     for dim in ((2, 3, 4, 30) if name in SCALABLE_NAMES else (2,))],
)
def test_runs_on_a_narrow_box_are_bit_identical(name, dim):
    """The functions whose offspring the C core stops early from n = 4 on,
    or on a lower bound.

    Clamping puts many offspring on the corner (2, ..., 2): 4-19% of a
    bowl's offspring tie the worst parent exactly at n = 2 and 3, and up to
    8 of 970 at n = 4. At n = 30 none do, but many coordinates are clamped
    before a stop. Rastrigin's cosines are exactly 1 on the corner.
    """
    fn = narrow_box(name, dim)
    for schedule in (SteepeningSchedule.vanilla(), SteepeningSchedule.linear(150.0)):
        config = PpaConfig(budget=1_000, schedule=schedule)
        cy = engine.run(config, fn, 5)
        assert_same_run(cy, run_ppa(config, fn, 5))


def bounded_value(name, x, fmax):
    """What the C core gives an offspring of `name` at x when the worst
    parent's value is fmax: the objective, or a value >= fmax if it stopped."""
    vector = ctypes.c_double * len(x)
    return _kernel._lib.ppa_eval(FUNCTION_IDS[name], len(x), vector(*x), fmax, vector())


# the C core's term-bound buckets: schwefel's split [-500, 500], the
# cosine's (ackley, rastrigin) split each period of frac(x)
SCHWEFEL_BUCKETS, COS_BUCKETS = 1024, 256


def around(x):
    """x and its two float neighbours."""
    return (math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf))


def bucket_edge_cases():
    """Points with one coordinate on a bucket edge or a float next to it,
    and the other where its entry is tight: 420.9687 for schwefel (the cap
    418.9829) and 0.0 for the cosine (the cap 1). Every 8th of schwefel's
    edges, and every 4th of the cosine's at the offsets 0, -3 and 7."""
    cases = []
    for k in range(0, SCHWEFEL_BUCKETS + 1, 8):
        for x in around(-500.0 + k * 1000.0 / SCHWEFEL_BUCKETS):
            if abs(x) <= 500.0:
                cases.append(("schwefel", [x, 420.9687], 1e300))
    for k in range(0, COS_BUCKETS, 4):
        for offset in (0, -3, 7):
            for x in around(offset + k / COS_BUCKETS):
                cases += [("ackley", [x, 0.0], -1e300), ("rastrigin", [0.0, x], 1e300)]
    return cases


@st.composite
def bound_points(draw):
    """A bounded function, a point in, at the edge of or far outside its box,
    and a far value for the worst parent."""
    name = draw(st.sampled_from(BOUNDED_NAMES))
    dim = dim_for(name, draw(st.one_of(st.sampled_from((2, 50)), st.integers(2, 50))))
    box = make_function(name, dim).bounds
    low, high = min(box.lower), max(box.upper)
    coordinate = st.one_of(
        st.floats(low, high),
        st.sampled_from((low, high, 0.0, -0.0)),
        st.integers(-10, 10).map(lambda k: k / 2),  # rastrigin's cos is +-1
        st.floats(1e150, 1e308),
        st.floats(-1e308, -1e150),
    )
    x = draw(st.lists(coordinate, min_size=dim, max_size=dim))
    return name, x, draw(st.floats(-1e308, 1e308))


@settings(max_examples=300, deadline=None, database=None)
@given(case=bound_points())
@example(case=("griewank", [0.0] * 2, 1.0))
@example(case=("griewank", [0.0] * 50, -1.0))
@example(case=("ackley", [0.0] * 2, 1.0))
@example(case=("ackley", [0.0] * 50, -1.0))
@example(case=("rastrigin", [0.0] * 2, 1.0))
@example(case=("rastrigin", [-0.0] * 50, -1.0))
@example(case=("rastrigin", [2.0, -3.0, 5.0], 1e3))
@example(case=("rastrigin", [0.5, -1.5, 4.5], 0.0))
@example(case=("rastrigin", [-5.12, 5.12], 1e308))
@example(case=("griewank", [600.0, -600.0] * 25, 1e3))
@example(case=("ackley", [32.768] * 50, 1e3))
@example(case=("griewank", [1e200, 0.0], -1e308))
@example(case=("ackley", [1e200] * 50, 1e308))
@example(case=("rastrigin", [-1e300, 1.0], 0.0))
@example(case=("ackley", [0.0, 2.9e307], 1.0))
@example(case=("schwefel", [420.9687] * 2, 1.0))
@example(case=("schwefel", [420.9687] * 50, -1.0))
@example(case=("schwefel", [-420.9687] * 50, 1e5))
@example(case=("schwefel", [500.0, -500.0] * 25, 1e4))
@example(case=("schwefel", [500.0, 420.9687, -500.0], 1e3))
@example(case=("schwefel", [1e300, 420.9687], -1e308))
@example(case=("easom", [math.pi, math.pi], 1.0))
@example(case=("easom", [math.pi, math.pi], -1.0))
# far out exp underflows, so values and parents sit at +-0.0
@example(case=("easom", [100.0, 100.0], 0.0))
@example(case=("easom", [100.0, 100.0], -0.0))
@example(case=("easom", [100.0, -97.0], 0.0))
@example(case=("easom", [100.0, -97.0], -0.0))
@example(case=("branin", [-math.pi, 12.275], 1.0))
@example(case=("branin", [math.pi, 2.275], 0.0))
@example(case=("branin", [9.42478, 2.475], 1e3))
@example(case=("branin", [-5.0, 0.0], 1e3))
@example(case=("branin", [-5.0, 15.0], 0.0))
@example(case=("branin", [10.0, 0.0], 1e308))
@example(case=("branin", [10.0, 15.0], -1e308))
# t * t and d1 * d1 overflow: the bound is inf, never nan
@example(case=("easom", [1e200, -1e200], 0.0))
@example(case=("easom", [-1e200, 1e200], -1.0))
@example(case=("branin", [1e200, -1e200], 1e308))
@example(case=("branin", [-1e200, 1e200], 0.0))
@with_examples(bucket_edge_cases())
def test_bounded_value_is_the_objective_or_no_survivor(case):
    """An offspring that stops on its lower bound keeps a value >= fmax, the
    worst parent's; it must be one whose objective is >= fmax too.

    fmax is the objective itself, its neighbours and a far value: a stop at
    fmax = nextafter(value, inf) would reject an offspring that survives.
    At the origin every cos is 1 and rastrigin's cos is +-1 at half
    integers; schwefel's terms are largest at +-420.9687, and beyond +-500
    it runs its plain loop. Easom is -1 at (pi, pi), and far from there its
    exp underflows to 0, so a value is +-0.0 whatever fmax's sign; branin
    has three optima. Beyond |x| ~ 1.3e154 a sum of squares is inf,
    and beyond |x| ~ 2.9e307 the cos argument 2 pi x is inf and the
    objective nan, which never survives either.
    """
    name, x, far = case
    value = bounded_value(name, x, math.inf)
    near = (value, math.nextafter(value, math.inf), math.nextafter(value, -math.inf))
    for fmax in (*near, far) if math.isfinite(value) else (far,):
        got = bounded_value(name, x, fmax)
        assert got.hex() == value.hex() or (got >= fmax and not value < fmax), fmax


@pytest.mark.parametrize("name", ["ackley", "schwefel"])
def test_bound_stops_only_up_to_its_dimension_cap(name):
    """Past n = 2**20 ackley and schwefel run their plain loops: the slack
    that covers reordered sums is proved only up to there."""
    fid = FUNCTION_IDS[name]
    for dim, stops in ((2**20, True), (2**20 + 1, False)):
        x, scratch = (ctypes.c_double * dim)(), (ctypes.c_double * dim)()
        value = _kernel._lib.ppa_eval(fid, dim, x, math.inf, scratch)
        got = _kernel._lib.ppa_eval(fid, dim, x, -1.0, scratch)
        assert got == (-1.0 if stops else value) and value > 0.0


@pytest.mark.parametrize(
    "name, x, gap",
    [("ackley", [0.0, 0.0], 1e-3), ("rastrigin", [0.0, 0.0], 1e-3),
     ("schwefel", [420.9687] * 2, 1e-3), ("schwefel", [420.9687, 2.9], 0.1)],
)
def test_term_bounds_are_capped(name, x, gap):
    """Where a term comes close to its entry's cap, the cap makes the bound
    tight: cos is 1 at integers, schwefel's largest term is 418.98288727 at
    420.9687 (cap 418.9829), and its term at 2.9 is 2.8755 (cap 2.9297,
    the largest |x| in its bucket). So an offspring `gap` above the worst
    parent stops; the uncapped entries would let it run. The capped term
    comes last, where no exact term summed before it can make up for it."""
    value = bounded_value(name, x, math.inf)
    assert bounded_value(name, x, value - gap) == value - gap


@pytest.mark.parametrize(
    "name, x",
    [("easom", [3.0, 2.0]), ("easom", [100.0, -97.0]), ("easom", [1e200, 3.0]),
     ("branin", [2.0, 3.0]), ("branin", [-5.0, 15.0])],
)
def test_easom_and_branin_stop_on_their_bound(name, x):
    """Easom's value is at least -exp(..), since |cos * cos| <= 1, and
    branin's at least its value with cos = -1. An offspring whose bound
    equals the worst parent's value stops with that value, also where its
    own value lies above the bound or, where exp underflows, is +0.0
    against a bound of -0.0."""
    if name == "easom":
        d1, d2 = x[0] - math.pi, x[1] - math.pi
        bound = -math.exp(-(d1 * d1 + d2 * d2))
    else:
        t = x[1] - _BRANIN_B * (x[0] * x[0]) + _BRANIN_C * x[0] - 6.0
        bound = t * t + 10.0 * (1.0 - _BRANIN_T) * (-1.0) + 10.0
    value = bounded_value(name, x, math.inf)
    assert value.hex() != bound.hex() and not value < bound
    for fmax in (bound, 0.0) if bound == 0.0 else (bound,):
        assert bounded_value(name, x, fmax).hex() == fmax.hex()


@pytest.mark.parametrize("name, edge", [("ackley", 2.0**16), ("rastrigin", 2.0**16),
                                        ("schwefel", 500.0)])
def test_bound_stops_only_inside_its_box(name, edge):
    """Beyond the box where its tables are proved (|x| <= 2**16 for the
    cosine's, |x| <= 500 for schwefel's), the plain loop runs."""
    beyond = math.nextafter(edge, math.inf)
    for x, stops in (([edge, -edge], True), ([beyond, 0.0], False), ([-1e6, 1e6], False)):
        value = bounded_value(name, x, math.inf)
        got = bounded_value(name, x, -1.0)
        assert got == (-1.0 if stops else value) and value > 0.0, x


@pytest.mark.parametrize(
    "lower, upper",
    [((-1.0, 2.0), (1.0, -2.0)), ((-1.0, math.nan), (1.0, 1.0))],
    ids=["reversed", "nan"],
)
def test_kernel_rejects_bounds_that_bounds_rejects(lower, upper):
    """The C core's clamp needs lower < upper. Bounds is the one check of
    it: _kernel.run takes a BenchmarkFunction, whose bounds are a Bounds."""
    with pytest.raises(ValueError, match="invalid bound pair"):
        Bounds(lower, upper)
    with pytest.raises(ValueError, match="invalid bound pair"):
        make_function("sphere", 2).replace(bounds=Bounds(lower, upper))


def test_kernel_rejects_a_dimension_its_formula_does_not_take():
    """A 3-D easom would have the C core read past x[1], and a 1-D sphere
    is not a formula the core knows. The record refuses both, so neither
    reaches an engine, which takes only a BenchmarkFunction."""
    for name, n, message in (("easom", 3, "easom is two-dimensional only"),
                             ("sphere", 1, "sphere requires dimension >= 2")):
        bounds = Bounds((-100.0,) * n, (100.0,) * n)
        with pytest.raises(ValueError, match=message):
            BenchmarkFunction(name, n, bounds, -1.0, (), FORMULAS[name])


@pytest.mark.parametrize("count", ["pop_size", "n_max", "budget"])
def test_kernel_rejects_counts_beyond_int64(count):
    """The C core holds each count in an int64_t; PpaConfig refuses a larger
    one for both engines, so no engine is reached."""
    # budget >= pop_size, so a pop_size of 2**63 comes with such a budget
    sizes = {"pop_size": 30, "n_max": 5, "budget": 2**63 if count == "pop_size" else 100}
    with pytest.raises(ValueError, match=rf"^{count} must be at most 2\*\*63 - 1, got {2**63}$"):
        PpaConfig(**{**sizes, count: 2**63})


@st.composite
def run_cases(draw):
    name = draw(st.sampled_from(FUNCTION_NAMES))
    dim = draw(st.integers(2, 50)) if name in SCALABLE_NAMES else 2
    pop_size = draw(st.integers(1, 40))
    schedule = draw(
        st.one_of(
            st.just(SteepeningSchedule.vanilla()),
            st.floats(0.5, 1e5).map(SteepeningSchedule.linear),
        )
    )
    config = PpaConfig(
        budget=draw(st.integers(pop_size, pop_size + 400)),
        pop_size=pop_size,
        n_max=draw(st.integers(1, 8)),
        schedule=schedule,
    )
    return make_function(name, dim), config, draw(st.integers(0, 2**64 - 1))


@settings(max_examples=200, deadline=None, database=None)
@given(case=run_cases())
@example(case=(make_function("rastrigin", 50), PpaConfig(budget=1, pop_size=1, n_max=1), 0))
@example(
    case=(
        make_function("easom"),
        PpaConfig(
            budget=300, pop_size=1, n_max=1, schedule=SteepeningSchedule.linear(20.0)
        ),
        2**64 - 1,
    )
)
@example(case=(make_function("ackley", 7), PpaConfig(budget=40, pop_size=40), 5))
# tie-heavy selection: on easom's default box most values underflow to +-0.0
@example(
    case=(
        make_function("easom"),
        PpaConfig(budget=3000, schedule=SteepeningSchedule.linear(300.0)),
        7,
    )
)
@example(case=(make_function("easom"), PpaConfig(budget=3000, pop_size=64, n_max=40), 8))
@example(case=(make_function("sphere", 3), PpaConfig(budget=500, pop_size=1, n_max=8), 9))
@example(
    case=(make_function("rastrigin", 4), PpaConfig(budget=5000, pop_size=6, n_max=1000), 3)
)
# the largest n_max PpaConfig admits: the first parent's offspring count
# ceil(n_max * f * r) is far beyond the budget
@example(
    case=(
        make_function("rastrigin", 5),
        PpaConfig(budget=300, n_max=2**63 - 1, schedule=SteepeningSchedule.linear(100.0)),
        11,
    )
)
@example(case=(make_function("easom"), PpaConfig(budget=300, n_max=2**63 - 1), 12))
# steep at n = 30: many offspring beat the worst parent, so selection sorts
# many candidates per generation
@example(
    case=(
        make_function("sphere", 30),
        PpaConfig(budget=3000, schedule=SteepeningSchedule.linear(1.0)),
        4,
    )
)
# default sizes at n = 30, where the C core stops most offspring early
@example(case=(make_function("cigar", 30), PpaConfig(budget=2000), 6))
@example(
    case=(
        make_function("tablet", 30),
        PpaConfig(budget=2000, schedule=SteepeningSchedule.linear(1000.0)),
        7,
    )
)
@example(case=(make_function("rosenbrock", 30), PpaConfig(budget=2000), 8))
@example(
    case=(
        narrow_box("sphere", 30),
        PpaConfig(budget=2000, schedule=SteepeningSchedule.linear(1000.0)),
        9,
    )
)
@example(
    case=(
        make_function("schwefel", 30),
        PpaConfig(budget=2000, schedule=SteepeningSchedule.linear(1000.0)),
        10,
    )
)
# the C core's stream is checked only through runs: with the first two
# examples, seeds 0, 1, 42, 0xDEADBEEF and 2**64 - 1 each seed one
@example(case=(make_function("rosenbrock"), PpaConfig(budget=2000), 1))
@example(
    case=(
        make_function("ellipse", 10),
        PpaConfig(budget=2000, schedule=SteepeningSchedule.linear(100.0)),
        42,
    )
)
@example(
    case=(
        make_function("griewank", 30),
        PpaConfig(budget=2000, schedule=SteepeningSchedule.linear(1000.0)),
        0xDEADBEEF,
    )
)
def test_random_runs_are_bit_identical(case):
    fn, config, seed = case
    compiled = engine.run(config, fn, seed)
    assert_same_run(compiled, run_ppa(config, fn, seed))


def test_concurrent_kernel_runs_match_serial_ones():
    """ctypes releases the GIL during ppa_run, so two threads run the C core
    at once; each run keeps its own buffers and tables."""
    cases = []
    for name in ("schwefel", "rastrigin", "ackley"):
        for factor, seed in ((1000.0, 1), (math.inf, 2)):
            config = PpaConfig(budget=10_000, schedule=SteepeningSchedule(factor))
            cases.append((config, make_function(name, 30), seed))
    serial = [_kernel.run(*case) for case in cases]
    results = [[None] * len(cases) for _ in range(2)]
    start = threading.Barrier(2)

    def work(slot):
        start.wait(timeout=60)
        order = range(len(cases)) if slot == 0 else reversed(range(len(cases)))
        for i in order:
            results[slot][i] = _kernel.run(*cases[i])

    threads = [threading.Thread(target=work, args=(slot,)) for slot in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert results == [serial, serial]


def test_non_finite_objective_fails_alike():
    huge = Bounds((-1e200, -1e200), (1e200, 1e200))
    fn = make_function("sphere", 2).replace(bounds=huge)
    config = PpaConfig(budget=100)
    with pytest.raises(ValueError, match="non-finite") as py:
        run_ppa(config, fn, 1)
    with pytest.raises(ValueError, match="non-finite") as cy:
        engine.run(config, fn, 1)
    assert str(cy.value) == str(py.value)


@pytest.mark.parametrize("budget", [31, 100])
def test_objectives_too_far_apart_fail_alike(budget):
    """Finite objectives whose max - min overflows would normalize some
    parents to nan. Both engines reject them when they normalize. At
    budget 31 the budget runs out before the offspring loop reaches a
    parent with a nan fitness, so nothing else would stop the run."""
    box = Bounds((-8e307, -8e307), (8e307, 8e307))
    fn = make_function("schwefel", 2).replace(bounds=box)
    config = PpaConfig(budget=budget)
    message = "objective values span more than the float range"
    with pytest.raises(ValueError, match=message):
        run_ppa(config, fn, 1)
    with pytest.raises(ValueError, match=message):
        engine.run(config, fn, 1)


def test_huge_offspring_cap_does_not_crash():
    """pop_size * n_max used to overflow the pool size and corrupt the heap.

    Runs in a subprocess so that a crash fails this test instead of
    killing pytest.
    """
    code = (
        "from plantprop import engine\n"
        "from plantprop.benchmarks import make_function\n"
        "from plantprop.core import PpaConfig\n"
        "config = PpaConfig(budget=65536, pop_size=65536, n_max=65535)\n"
        "print(repr(engine.run(config, make_function('sphere', 2), 1)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=SRC),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    config = PpaConfig(budget=65536, pop_size=65536, n_max=65535)
    assert proc.stdout.strip() == repr(run_ppa(config, make_function("sphere", 2), 1))


@pytest.mark.parametrize("factor", ["1e-320", "1e-306"])
def test_tiny_factor_fails_at_once_on_both_engines_and_the_cli(factor):
    """budget/factor + 1 overflows: the compiled engine used to loop forever.

    Every call runs in a subprocess with a timeout, so a hang fails the
    test instead of stalling pytest.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    code = (
        "from plantprop import engine\n"
        "from plantprop.benchmarks import make_function\n"
        "from plantprop.core import PpaConfig, SteepeningSchedule\n"
        "for backend in ('python', 'auto'):\n"
        "    try:\n"
        f"        schedule = SteepeningSchedule.linear({factor})\n"
        "        config = PpaConfig(budget=300, schedule=schedule)\n"
        "        engine.run(config, make_function('sphere', 2), 1, backend=backend)\n"
        "    except ValueError as exc:\n"
        "        print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    messages = proc.stdout.splitlines()
    cli = subprocess.run(
        [sys.executable, "-m", "plantprop", "run", "--function", "sphere",
         "--budget", "300", "--factor", factor],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert cli.returncode == 1, cli.stderr
    messages.append(cli.stderr.strip().removeprefix("error: "))
    assert len(messages) == 3 and len(set(messages)) == 1, messages
    assert f"factor {float(factor)!r} is too small for budget 300" in messages[0]


def test_unallocatable_run_raises_memory_error():
    config = PpaConfig(budget=2**62, pop_size=2**61, n_max=2)
    with pytest.raises(MemoryError):
        engine.run(config, make_function("sphere", 2), 1)


# -- loading the C core -------------------------------------------------------


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_kernel, "_CC", str(tmp_path / "no-such-cc"))
    with pytest.raises(ImportError, match="no-such-cc"):
        _kernel._load()
    assert list((tmp_path / "plantprop").iterdir()) == []


@pytest.mark.parametrize("value", ["relcache", "./relcache", ""])
def test_cache_dir_ignores_a_relative_xdg_cache_home(tmp_path, monkeypatch, value):
    monkeypatch.setenv("XDG_CACHE_HOME", value)
    monkeypatch.setenv("HOME", str(tmp_path))
    assert _kernel._cache_dir() == tmp_path / ".cache" / "plantprop"


def test_cache_dir_uses_an_absolute_xdg_cache_home(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _kernel._cache_dir() == tmp_path / "plantprop"


def test_c_core_compiles_without_warnings(tmp_path):
    if shutil.which(_kernel._CC) is None:
        pytest.skip(f"no {_kernel._CC} on PATH")
    command = [
        _kernel._CC, *_kernel._FLAGS, "-Wall", "-Wextra", "-pedantic", "-Werror",
        "-o", str(tmp_path / "ppa.so"), str(_kernel._SOURCE), *_kernel._LIBS,
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# ctypes type of each C return type that _ppa.c exports
_RESTYPES = {"int": ctypes.c_int, "double": ctypes.c_double, "void": None}


def test_every_export_is_declared():
    """Each non-static top-level ppa_* definition in _ppa.c has argtypes and
    the restype of its C return type on _kernel._lib, and _kernel declares
    no ppa_* name the source lacks. ctypes takes an undeclared return type
    as int, so a double would silently come back as an int."""
    source = _kernel._SOURCE.read_text(encoding="utf-8")
    exports = {
        name: ret.strip()
        for ret, name in re.findall(r"^([A-Za-z_][\w \t*]*?)\b(ppa_\w+)\(", source, re.M)
        if not ret.startswith("static")
    }
    binding = Path(_kernel.__file__).read_text(encoding="utf-8")
    declared = set(re.findall(r"\blib\.(ppa_\w+)\.(?:argtypes|restype)\b", binding))
    assert declared == set(exports)
    for name, ret in exports.items():
        function = getattr(_kernel._lib, name)
        assert function.argtypes is not None, name
        assert function.restype is _RESTYPES[ret], name


def test_every_status_is_handled():
    """_kernel.py names exactly the nonzero PPA_* codes of _ppa.c's enum,
    with their values, and run() tests the status against each of them, so
    an added or removed status cannot go unhandled."""
    source = _kernel._SOURCE.read_text(encoding="utf-8")
    enum = re.search(r"enum\s*\{([^}]*)\}", source).group(1)
    codes = {
        name: int(value)
        for name, value in re.findall(r"\bPPA_(\w+)\s*=\s*(\d+)", enum)
    }
    assert codes.pop("OK") == 0
    binding = Path(_kernel.__file__).read_text(encoding="utf-8")
    handled = set(re.findall(r"\bstatus == _(\w+)\b", binding))
    assert handled == set(codes)
    for name, value in codes.items():
        assert getattr(_kernel, f"_{name}") == value, name


def sanitizer_cases():
    """(fid, dim, lower, upper, pop_size, n_max, budget, factor, seed)."""
    cases = []
    for name in FUNCTION_NAMES:
        dims = (2, 30, 50) if name in SCALABLE_NAMES else (2,)
        for dim in dims:
            for factor in (math.inf, 150.0):
                cases.append((FUNCTION_IDS[name], dim, -5.0, 5.0, 30, 5, 600, factor, 7))
    for name in (*BOWL_NAMES, "ellipse", *BOUNDED_NAMES):
        fid = FUNCTION_IDS[name]
        cases += [
            (fid, dim_for(name, 30), 2.0, 3.0, 30, 5, 600, math.inf, 1),  # clamped box
            (fid, dim_for(name, 4), 2.0, 3.0, 30, 5, 600, 1.0, 2),
            (fid, 2, -5.0, 5.0, 1, 1, 200, 50.0, 3),  # pop_size 1, n_max 1
            (fid, dim_for(name, 30), -5.0, 5.0, 1, 8, 300, math.inf, 4),
            (fid, dim_for(name, 50), -5.0, 5.0, 30, 5, 30, 9.0, 5),  # budget == pop_size
            (fid, dim_for(name, 4), -5.0, 5.0, 64, 40, 2000, 100.0, 2**64 - 1),
        ]
    # beyond +-500 schwefel's terms exceed 418.9829, and beyond +-2**16 the
    # cosine table is not proved, so eval runs with check off; at +-2**16 they
    # stop
    cases.append((FUNCTION_IDS["schwefel"], 30, -1000.0, 1000.0, 30, 5, 600, 150.0, 6))
    for name in ("ackley", "rastrigin"):
        for edge in (2.0**16, 1e6):
            cases.append((FUNCTION_IDS[name], 30, -edge, edge, 30, 5, 600, 150.0, 6))
    # far out, the term tables' float-to-int casts would overflow; bound_applies
    # must keep the run on the objective alone
    for name in ("ackley", "schwefel"):
        cases.append((FUNCTION_IDS[name], 30, -1e300, 1e300, 30, 5, 600, 150.0, 6))
    # the smallest factors PpaConfig accepts at these budgets: 4 * s is
    # finite, but s is near 1e302, so the core's tanh saturates
    for name in ("sphere", "ackley", "easom"):
        fid = FUNCTION_IDS[name]
        cases += [(fid, 2, -5.0, 5.0, 30, 5, 300, 1e-300, 8),
                  (fid, 2, -5.0, 5.0, 30, 5, 600, 2e-300, 9)]
    # the largest n_max PpaConfig admits, at the edge of the offspring
    # count's (int64_t)ceil((double)n_max * f * r) cast
    for name, dim in (("sphere", 2), ("rastrigin", 5), ("easom", 2)):
        for factor in (100.0, math.inf):
            cases.append((FUNCTION_IDS[name], dim, -5.0, 5.0, 30, 2**63 - 1, 600, factor, 10))
    return cases


def build_runner(tmp_path, extra_flags):
    """tests/ppa_runner.c, which includes the C core, built under extra_flags.

    Skips when there is no compiler or it cannot build and run an empty
    program with those flags.
    """
    cc = shutil.which(_kernel._CC)
    if cc is None:
        pytest.skip(f"no {_kernel._CC} on PATH")
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run(
        [cc, *extra_flags, "-o", str(tmp_path / "probe"), str(probe)],
        capture_output=True, text=True, timeout=120,
    )
    if built.returncode != 0 or subprocess.run([tmp_path / "probe"]).returncode != 0:
        pytest.skip(f"{cc} cannot build with {' '.join(extra_flags)}: {built.stderr.strip()}")

    runner = tmp_path / "runner"
    flags = [f for f in _kernel._FLAGS if f not in ("-shared", "-fPIC")]
    command = [
        cc, *flags, *extra_flags, "-I", str(_kernel._SOURCE.parent), "-o", str(runner),
        str(Path(__file__).with_name("ppa_runner.c")), *_kernel._LIBS,
    ]
    built = subprocess.run(command, capture_output=True, text=True, timeout=300)
    assert built.returncode == 0, built.stderr
    return runner


def test_c_core_runs_clean_under_sanitizers(tmp_path):
    """Edge sizes under ASan and UBSan, with the same results as the kernel.

    GCC's -fsanitize=undefined leaves out float-cast-overflow, which checks
    the casts of the term tables' bucket indices, so it is asked for by name.
    """
    runner = build_runner(
        tmp_path,
        [
            "-fsanitize=address,undefined,float-cast-overflow",
            "-fno-sanitize-recover=all", "-g",
            "-Wall", "-Wextra", "-pedantic", "-Werror",
        ],
    )
    cases = sanitizer_cases()
    proc = subprocess.run(
        [runner], input="".join(" ".join(map(repr, case)) + "\n" for case in cases),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(cases)
    for case, line in zip(cases, lines):
        fid, dim, lower, upper, pop_size, n_max, budget, factor, seed = case
        function = make_function(FUNCTION_NAMES[fid], dim).replace(
            bounds=Bounds((lower,) * dim, (upper,) * dim),
        )
        config = PpaConfig(budget, pop_size, n_max, SteepeningSchedule(factor))
        best, _, trajectory, evals = _kernel.run(config, function, seed)
        status, got_evals, got_best, steps = line.split()
        assert (status, int(got_evals), int(steps)) == ("0", evals, len(trajectory)), case
        assert float.fromhex(got_best).hex() == best.hex(), case


def test_cache_hit_starts_no_compiler(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernel._load()
    assert [p.suffix for p in (tmp_path / "plantprop").iterdir()] == [".so"]

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran on a cache hit")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    lib = _kernel._load()
    vector = ctypes.c_double * 2
    assert lib.ppa_eval(0, 2, vector(3.0, 4.0), math.inf, vector()) == 25.0


def test_a_miss_keeps_only_the_newest_libraries(tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "plantprop"
    cache.mkdir()
    fakes = [cache / f"_ppa-{i}.so" for i in range(6)]
    building = cache / "_ppa-7.so.123.tmp"
    other = cache / "notes.txt"
    for age, path in enumerate([*fakes, building, other]):
        path.write_bytes(b"")
        os.utime(path, (1000 - age, 1000 - age))  # _ppa-0.so is the newest fake
    _kernel._load()
    left = {p.name for p in cache.iterdir()}
    built = left - {p.name for p in [*fakes, building, other]}
    assert len(built) == 1
    assert left == {"_ppa-0.so", "_ppa-1.so", "_ppa-2.so", *built, building.name, other.name}

    # a hit deletes nothing, however many libraries there are
    for path in fakes:
        path.write_bytes(b"")
    _kernel._load()
    assert len(list(cache.glob("_ppa-*.so"))) == 7


def test_concurrent_first_imports_share_the_cache(tmp_path):
    env = dict(os.environ, XDG_CACHE_HOME=str(tmp_path), PYTHONPATH=SRC)
    code = "from plantprop import engine; assert engine.KERNEL_ERROR is None"
    procs = [
        subprocess.Popen([sys.executable, "-c", code], env=env, stderr=subprocess.PIPE)
        for _ in range(4)
    ]
    errors = [proc.communicate(timeout=120)[1] for proc in procs]
    assert [proc.returncode for proc in procs] == [0] * 4, errors
    assert [p.suffix for p in (tmp_path / "plantprop").iterdir()] == [".so"]


# -- backend resolution -------------------------------------------------------


def test_unknown_backend_rejected():
    fn = make_function("sphere", 2)
    with pytest.raises(ValueError, match="unknown backend"):
        engine.run(PpaConfig(budget=50), fn, 1, backend="fortran")


def test_only_the_python_engine_can_be_forced():
    """`auto` runs the kernel whenever it can, so no value forces it."""
    assert plantprop.BACKENDS == ("auto", "python")
    message = "unknown backend 'compiled'; expected one of auto, python"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        engine.run(PpaConfig(budget=50), make_function("sphere", 2), 1, backend="compiled")


def test_registered_name_with_custom_callable_is_not_compiled():
    fn = make_function("sphere", 2).replace(_fn=lambda x: -sum(v * v for v in x))
    config = PpaConfig(budget=200)
    assert engine.run(config, fn, 1) == run_ppa(config, fn, 1)
    assert engine.run(config, fn, 1).best_value < 0.0


def test_auto_uses_python_engine_for_custom_functions(monkeypatch):
    base = make_function("sphere", 2)
    custom = type(base)(
        name="mystery",
        dimension=2,
        bounds=base.bounds,
        known_optimum_value=0.0,
        known_optimum_points=((0.0, 0.0),),
        _fn=lambda x: sum(v * v for v in x),
    )
    calls = []
    real = engine.core.run_ppa

    def spy(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine.core, "run_ppa", spy)
    engine.run(PpaConfig(budget=60), custom, 1)
    assert calls


def test_auto_skips_python_engine_for_registered_functions(monkeypatch):
    fn = make_function("sphere", 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("auto should have dispatched to the kernel")

    monkeypatch.setattr(engine.core, "run_ppa", forbidden)
    result = engine.run(PpaConfig(budget=60), fn, 1)
    assert result.evaluations_used == 60
    boxed = fn.replace(bounds=Bounds((-1.0, -1.0), (1.0, 1.0)))
    assert engine.run(PpaConfig(budget=60), boxed, 1).evaluations_used == 60


@pytest.mark.parametrize("backend", ["python", pytest.param("auto", id="compiled")])
@pytest.mark.parametrize("seed", [1.5, "7", True])
def test_a_seed_that_is_not_an_integer_is_refused(backend, seed):
    with pytest.raises(ValueError, match=re.escape(f"seed must be an integer, got {seed!r}")):
        engine.run(PpaConfig(budget=50), make_function("sphere", 2), seed, backend=backend)


def test_default_backend_reflects_build():
    assert engine.HAVE_KERNEL
    assert engine.KERNEL_ERROR is None
    assert engine.DEFAULT_BACKEND == "compiled"
