"""Benchmark registry: optima, frozen reference values, basic properties."""

import math
import random
import re

import pytest

from plantprop import engine
from plantprop.benchmarks import (
    FIXED_2D_NAMES,
    FORMULAS,
    FUNCTION_IDS,
    FUNCTION_NAMES,
    SCALABLE_NAMES,
    BenchmarkFunction,
    Bounds,
    list_functions,
    make_function,
)
from plantprop.core import PpaConfig, SteepeningSchedule

# values computed once with a 50-digit arbitrary-precision evaluator and
# frozen; each double evaluation must agree to ~1 ulp (rel 1e-10 is lax)
REFERENCE_VALUES = [
    ("sphere", (1.5, -2.25), 7.3125),
    ("sphere", (-4.1, 0.3), 16.9),
    ("cigar", (1.5, -2.25), 5062502.25),
    ("cigar", (-7.0, 0.25), 62549.0),
    ("ellipse", (1.5, -2.25), 5062502.25),
    ("ellipse", (-7.0, 0.25), 62549.0),
    ("tablet", (1.5, -2.25), 2250005.0625),
    ("tablet", (-7.0, 0.25), 49000000.0625),
    ("griewank", (150.0, -237.5), 20.822300441073246),
    ("griewank", (-512.75, 8.25), 67.45087570932691),
    ("rosenbrock", (1.5, -2.25), 2025.25),
    ("rosenbrock", (-3.0, 7.5), 241.0),
    ("ackley", (1.5, -2.25), 8.467670048401619),
    ("ackley", (-20.48, 11.52), 21.626652187527675),
    ("rastrigin", (1.5, -2.25), 37.3125),
    ("rastrigin", (-4.1, 0.3), 31.9),
    ("schwefel", (150.0, -237.5), 954.4860158223405),
    ("schwefel", (420.9687, -302.525), 118.43836007036673),
    ("easom", (1.5, -2.25), 7.124512978630638e-16),
    ("easom", (2.5, 3.5), -0.43715650215614704),
    ("sixhumpcamel", (1.5, -1.25), 3.80625),
    ("sixhumpcamel", (-2.5, 0.75), 21.489583333333332),
    ("branin", (1.5, 11.25), 64.65262505251366),
    ("branin", (-3.5, 2.25), 119.88199075397027),
    ("goldsteinprice", (1.5, -1.25), 55033.85975646973),
    ("goldsteinprice", (-0.5, 0.75), 28166.830947875977),
    ("martingaddy", (1.5, 8.75), 52.56944444444444),
    ("martingaddy", (9.5, 2.25), 52.90277777777778),
]

NON_NEGATIVE = (
    "sphere",
    "cigar",
    "ellipse",
    "tablet",
    "griewank",
    "rosenbrock",
    "ackley",
    "rastrigin",
)


def test_registry_has_fourteen_functions():
    assert len(FUNCTION_NAMES) == 14
    assert len(SCALABLE_NAMES) == 9
    assert len(FIXED_2D_NAMES) == 5
    assert len(list_functions()) == 14


def test_function_ids_are_stable_and_dense():
    assert FUNCTION_IDS == {name: i for i, name in enumerate(FUNCTION_NAMES)}


@pytest.mark.parametrize("name", FUNCTION_NAMES)
def test_optimum_invariant(name):
    tol = 1e-3 if name == "schwefel" else 1e-9
    fn = make_function(name, 2)
    assert fn.known_optimum_points, name
    for point in fn.known_optimum_points:
        assert fn.bounds.contains(point), (name, point)
        got = fn.evaluate(point)
        assert abs(got - fn.known_optimum_value) <= tol, (name, point, got)


@pytest.mark.parametrize("name", SCALABLE_NAMES)
def test_optimum_invariant_scales_with_dimension(name):
    tol = 1e-3 if name == "schwefel" else 1e-9
    for dim in (3, 5, 10):
        fn = make_function(name, dim)
        for point in fn.known_optimum_points:
            assert len(point) == dim
            # Schwefel's residual grows linearly with n
            scale = dim / 2 if name == "schwefel" else 1
            assert abs(fn.evaluate(point) - fn.known_optimum_value) <= tol * scale


def test_hand_checkable_optima():
    assert make_function("sphere").evaluate((0.0, 0.0)) == 0.0
    assert make_function("rastrigin").evaluate((0.0, 0.0)) == 0.0
    assert make_function("easom").evaluate((math.pi, math.pi)) == -1.0
    assert make_function("goldsteinprice").evaluate((0.0, -1.0)) == 3.0
    assert make_function("martingaddy").evaluate((5.0, 5.0)) == 0.0


def test_schwefel_rounded_optimum_residual():
    # the 418.9829n offset does not cancel exactly at the rounded optimum
    # coordinate 420.9687; the residual is ~2.5456e-5 per axis pair
    fn = make_function("schwefel", 2)
    got = fn.evaluate((420.9687, 420.9687))
    assert got == pytest.approx(2.54556749868e-5, rel=1e-9)
    assert 0.0 < got < 1e-3


@pytest.mark.parametrize("name,point,expected", REFERENCE_VALUES)
def test_frozen_reference_values(name, point, expected):
    fn = make_function(name, len(point))
    assert fn.evaluate(point) == pytest.approx(expected, rel=1e-10, abs=1e-12)


def test_evaluate_rejects_wrong_dimension():
    fn = make_function("sphere", 3)
    with pytest.raises(ValueError):
        fn.evaluate((1.0, 2.0))
    with pytest.raises(ValueError):
        make_function("easom").evaluate((1.0, 2.0, 3.0))


def test_make_function_rejects_unknown_name():
    with pytest.raises(ValueError) as exc:
        make_function("nosuch")
    assert "sphere" in str(exc.value)


def test_make_function_dimension_rules():
    with pytest.raises(ValueError):
        make_function("sphere", 1)
    # not a MemoryError: no tuple of that length is tried
    with pytest.raises(ValueError, match=r"^sphere requires dimension >= 2, got -\d+$"):
        make_function("sphere", -(2**64))
    with pytest.raises(ValueError):
        make_function("branin", 3)
    assert make_function("ellipse", 7).dimension == 7


def test_evaluate_is_pure():
    rnd = random.Random(11)
    for name in FUNCTION_NAMES:
        fn = make_function(name, 2)
        x = tuple(
            rnd.uniform(a, b) for a, b in zip(fn.bounds.lower, fn.bounds.upper)
        )
        assert fn.evaluate(x) == fn.evaluate(x)


@pytest.mark.parametrize("name", NON_NEGATIVE)
def test_non_negative_in_bounds(name):
    rnd = random.Random(FUNCTION_IDS[name])
    for dim in (2, 4):
        fn = make_function(name, dim)
        for _ in range(150):
            x = tuple(
                rnd.uniform(a, b)
                for a, b in zip(fn.bounds.lower, fn.bounds.upper)
            )
            assert fn.evaluate(x) >= 0.0, (name, x)


@pytest.mark.parametrize("name", ["sphere", "griewank"])
def test_even_symmetry(name):
    rnd = random.Random(99)
    fn = make_function(name, 3)
    for _ in range(100):
        x = tuple(
            rnd.uniform(a, b) for a, b in zip(fn.bounds.lower, fn.bounds.upper)
        )
        neg = tuple(-v for v in x)
        assert fn.evaluate(x) == fn.evaluate(neg), (name, x)


def test_bounds_validation():
    with pytest.raises(ValueError):
        Bounds((0.0, 0.0), (1.0,))
    with pytest.raises(ValueError):
        Bounds((1.0,), (1.0,))
    b = Bounds((-1.0, 0.0), (1.0, 5.0))
    assert len(b) == 2
    assert b.contains((0.0, 2.0))
    assert not b.contains((0.0, 6.0))
    assert not b.contains((0.0,))


@pytest.mark.parametrize(
    "lower, upper",
    [
        ((0.0, 0.0), (math.inf, math.inf)),
        ((-math.inf, 0.0), (1.0, 1.0)),
        ((0.0, 0.0), (1.0, math.inf)),
        ((-math.inf, -math.inf), (math.inf, math.inf)),
    ],
    ids=["upper", "lower", "one-upper", "both"],
)
def test_bounds_reject_infinite_entries(lower, upper):
    """A box of infinite width has no finite starting point: the Python
    engine failed in math.cos(inf), the compiled one on a nan objective."""
    with pytest.raises(ValueError, match="invalid bound pair .*must be finite"):
        Bounds(lower, upper)


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_infinite_box_fails_alike_before_either_engine_runs(backend):
    """One error, at construction, whichever engine the run would take."""
    griewank = make_function("griewank", 2)
    with pytest.raises(ValueError, match=r"invalid bound pair \[0.0, inf\]"):
        engine.run(
            PpaConfig(budget=100),
            griewank.replace(bounds=Bounds((0.0, 0.0), (math.inf, math.inf))),
            1,
            backend=backend,
        )


@pytest.mark.parametrize("name, n, message", [
    ("sphere", 1, "sphere requires dimension >= 2, got 1"),
    ("easom", 3, "easom is two-dimensional only, got dimension 3"),
])
def test_a_registered_formula_takes_only_its_dimensions(name, n, message):
    """The record states make_function's dimension rule for the registered
    formula of its name; a custom callable takes any dimension and runs on
    the Python engine, which `auto` falls back to."""
    box = Bounds((-1.0,) * n, (1.0,) * n)
    with pytest.raises(ValueError, match=f"^{message}$"):
        BenchmarkFunction(name, n, box, 0.0, (), FORMULAS[name])
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_function(name, n)
    custom = BenchmarkFunction(name, n, box, 0.0, (), lambda x: sum(v * v for v in x))
    config = PpaConfig(budget=60, pop_size=10)
    python = engine.run(config, custom, 1, backend="python")
    assert engine.run(config, custom, 1) == python
    assert python.evaluations_used == 60 and len(python.best_point) == n


@pytest.mark.parametrize("name", ["sphere", "easom", "nosuch"])
@pytest.mark.parametrize("dimension", [2.0, True, "2"])
def test_a_dimension_must_be_an_integer(name, dimension):
    message = rf"^dimension must be an integer, got {re.escape(repr(dimension))}$"
    with pytest.raises(ValueError, match=message):
        make_function(name, dimension)
    box = Bounds((-1.0,) * 2, (1.0,) * 2)
    with pytest.raises(ValueError, match=message):
        BenchmarkFunction(name, dimension, box, 0.0, (), lambda x: 0.0)


def test_function_bounds_must_match_its_dimension():
    box = Bounds((-1.0,) * 2, (1.0,) * 2)
    with pytest.raises(ValueError, match="dimension 3 but 2 bound pairs"):
        BenchmarkFunction("sphere", 3, box, 0.0, (), FORMULAS["sphere"])
    with pytest.raises(ValueError, match="dimension 2 but 3 bound pairs"):
        make_function("sphere", 3).replace(dimension=2)


@pytest.mark.parametrize(
    "backend",
    ["python",
     pytest.param("compiled", marks=pytest.mark.skipif(
         not engine.HAVE_KERNEL, reason=str(engine.KERNEL_ERROR)))],
)
@pytest.mark.parametrize("factor, seed", [(math.inf, 1), (700.0, 2)])
def test_cigar_and_ellipse_are_one_landscape_at_two_dimensions(backend, factor, seed):
    """At n = 2 cigar and ellipse are both x0**2 + 1e6 * x1**2, rounded the
    same way, so a seed gives the same run on either; tablet, 1e6 * x0**2 +
    x1**2, is the mirror image, and its run differs."""
    config = PpaConfig(budget=10_000, schedule=SteepeningSchedule(factor))
    cigar, ellipse, tablet = (
        engine.run(config, make_function(name, 2), seed, backend=backend)
        for name in ("cigar", "ellipse", "tablet")
    )
    assert cigar == ellipse
    assert tablet != cigar
