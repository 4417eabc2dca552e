"""Benchmark objective registry: 14 box-constrained minimization problems.

Nine scale to any dimension n >= 2 (sphere, cigar, ellipse, tablet,
griewank, rosenbrock, ackley, rastrigin, schwefel); five are inherently
two-dimensional (easom, sixhumpcamel, branin, goldsteinprice, martingaddy).
Formulas, domains and optima follow the standard literature definitions;
each registered function carries its known global optimum so results can be
reported as error-to-optimum.

Evaluation is pure scalar double arithmetic (no vectorization). The C core
in ``_ppa.c`` computes the same double for every formula: mostly by the
same operations in the same order, and where it takes another route (its
per-run tables and shortcuts), by one that the comment there proves gives
the same result.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence

from ._record import Record, check_integer

_TWO_PI = 2.0 * math.pi

_BRANIN_B = 5.1 / (4.0 * math.pi * math.pi)
_BRANIN_C = 5.0 / math.pi
_BRANIN_T = 1.0 / (8.0 * math.pi)

# Six-hump camel optimum, refined to double precision from the rounded
# literature coordinates (stationary-point solve at 50 digits).
_SHC_X1 = 0.08984201310031806
_SHC_X2 = -0.7126564030207396
_SHC_F = -1.0316284534898774

_BRANIN_F = 0.3978873577297383


class Bounds(Record):
    """Per-dimension box constraints: finite, lower strictly below upper.

    Both engines rely on lower[j] < upper[j] (a nan fails it): the C core's
    branchless clamp equals core.mutate's only then. An infinite bound
    makes the box width inf, so no run on it could draw a finite point.
    """

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        if len(self.lower) != len(self.upper):
            raise ValueError("bound vectors differ in length")
        for a, b in zip(self.lower, self.upper):
            if not -math.inf < a < b < math.inf:
                raise ValueError(
                    f"invalid bound pair [{a}, {b}]: bounds must be finite "
                    "with lower < upper"
                )

    def __len__(self) -> int:
        return len(self.lower)

    def contains(self, x: Sequence[float]) -> bool:
        return len(x) == len(self.lower) and all(
            a <= xi <= b for a, b, xi in zip(self.lower, self.upper, x)
        )


class BenchmarkFunction(Record):
    """A named objective with bounds and its known global optimum.

    `_fn` is the formula; it is left out of equality, hash and repr. The
    dimension is an integer (a bool is not). When `_fn` is the registered
    formula of `name`, the dimension must be one that formula takes: n >= 2
    for the nine scalable ones, n = 2 for the five fixed ones. A custom
    callable takes any dimension.
    """

    name: str
    dimension: int
    bounds: Bounds
    known_optimum_value: float
    known_optimum_points: tuple[tuple[float, ...], ...]
    _fn: Callable[[Sequence[float]], float]

    def __post_init__(self):
        name, n = self.name, self.dimension
        check_integer("dimension", n)
        if formula_id(self) is not None:
            if name in _SCALABLE and n < 2:
                raise ValueError(f"{name} requires dimension >= 2, got {n}")
            if name in _FIXED_2D and n != 2:
                raise ValueError(f"{name} is two-dimensional only, got dimension {n}")
        if len(self.bounds) != n:
            raise ValueError(
                f"{name} has dimension {n} but {len(self.bounds)} bound pairs"
            )

    def evaluate(self, x: Sequence[float]) -> float:
        """Objective value at x. Pure and deterministic."""
        if len(x) != self.dimension:
            raise ValueError(
                f"{self.name} expects {self.dimension} coordinates, got {len(x)}"
            )
        return self._fn(x)


def _sphere(x):
    s = 0.0
    for xi in x:
        s += xi * xi
    return s


def _cigar(x):
    s = 0.0
    for i in range(1, len(x)):
        s += x[i] * x[i]
    return x[0] * x[0] + 1.0e6 * s


def _ellipse(x):
    n = len(x)
    s = 0.0
    for i in range(n):
        s += 10.0 ** (6.0 * i / (n - 1)) * (x[i] * x[i])
    return s


def _tablet(x):
    s = 0.0
    for i in range(1, len(x)):
        s += x[i] * x[i]
    return 1.0e6 * (x[0] * x[0]) + s


def _griewank(x):
    s = 0.0
    p = 1.0
    for i in range(len(x)):
        xi = x[i]
        s += xi * xi
        p *= math.cos(xi / math.sqrt(i + 1.0))
    return s / 4000.0 - p + 1.0


def _rosenbrock(x):
    s = 0.0
    for i in range(len(x) - 1):
        t1 = x[i + 1] - x[i] * x[i]
        t2 = 1.0 - x[i]
        s += 100.0 * (t1 * t1) + t2 * t2
    return s


def _ackley(x):
    n = len(x)
    s1 = 0.0
    s2 = 0.0
    for xi in x:
        s1 += xi * xi
        s2 += math.cos(_TWO_PI * xi)
    return -20.0 * math.exp(-0.2 * math.sqrt(s1 / n)) - math.exp(s2 / n) + 20.0 + math.e


def _rastrigin(x):
    s = 0.0
    for xi in x:
        s += xi * xi - 10.0 * math.cos(_TWO_PI * xi)
    return 10.0 * len(x) + s


def _schwefel(x):
    s = 0.0
    for xi in x:
        s += xi * math.sin(math.sqrt(abs(xi)))
    return 418.9829 * len(x) - s


def _easom(x):
    d1 = x[0] - math.pi
    d2 = x[1] - math.pi
    return -math.cos(x[0]) * math.cos(x[1]) * math.exp(-(d1 * d1 + d2 * d2))


def _sixhumpcamel(x):
    x1 = x[0]
    x2 = x[1]
    a = x1 * x1
    b = x2 * x2
    return (4.0 - 2.1 * a + a * a / 3.0) * a + x1 * x2 + (-4.0 + 4.0 * b) * b


def _branin(x):
    x1 = x[0]
    x2 = x[1]
    t = x2 - _BRANIN_B * (x1 * x1) + _BRANIN_C * x1 - 6.0
    return t * t + 10.0 * (1.0 - _BRANIN_T) * math.cos(x1) + 10.0


def _goldsteinprice(x):
    x1 = x[0]
    x2 = x[1]
    u = x1 + x2 + 1.0
    a = 19.0 - 14.0 * x1 + 3.0 * (x1 * x1) - 14.0 * x2 + 6.0 * (x1 * x2) + 3.0 * (x2 * x2)
    v = 2.0 * x1 - 3.0 * x2
    b = 18.0 - 32.0 * x1 + 12.0 * (x1 * x1) + 48.0 * x2 - 36.0 * (x1 * x2) + 27.0 * (x2 * x2)
    return (1.0 + (u * u) * a) * (30.0 + (v * v) * b)


def _martingaddy(x):
    t1 = x[0] - x[1]
    t2 = (x[0] + x[1] - 10.0) / 3.0
    return t1 * t1 + t2 * t2


# (formula, symmetric domain half-width or (low, high), optimum builder)
# Scalable entries take a dimension n; fixed entries are 2-D only.
_SCALABLE = {
    # name: (fn, (low, high), optimum coordinate, optimum value)
    "sphere": (_sphere, (-5.12, 5.12), 0.0, 0.0),
    "cigar": (_cigar, (-10.0, 10.0), 0.0, 0.0),
    "ellipse": (_ellipse, (-10.0, 10.0), 0.0, 0.0),
    "tablet": (_tablet, (-10.0, 10.0), 0.0, 0.0),
    "griewank": (_griewank, (-600.0, 600.0), 0.0, 0.0),
    "rosenbrock": (_rosenbrock, (-5.0, 10.0), 1.0, 0.0),
    "ackley": (_ackley, (-32.768, 32.768), 0.0, 0.0),
    "rastrigin": (_rastrigin, (-5.12, 5.12), 0.0, 0.0),
    # The 418.9829 offset makes the minimum ~2.55e-5 rather than exactly 0;
    # optimum checks for schwefel therefore use a 1e-3 tolerance.
    "schwefel": (_schwefel, (-500.0, 500.0), 420.9687, 0.0),
}

_FIXED_2D = {
    # name: (fn, ((low, high), (low, high)), optimum points, optimum value)
    "easom": (
        _easom,
        ((-100.0, 100.0), (-100.0, 100.0)),
        ((math.pi, math.pi),),
        -1.0,
    ),
    "sixhumpcamel": (
        _sixhumpcamel,
        ((-3.0, 3.0), (-2.0, 2.0)),
        ((_SHC_X1, _SHC_X2), (-_SHC_X1, -_SHC_X2)),
        _SHC_F,
    ),
    "branin": (
        _branin,
        ((-5.0, 10.0), (0.0, 15.0)),
        ((-math.pi, 12.275), (math.pi, 2.275), (3.0 * math.pi, 2.475)),
        _BRANIN_F,
    ),
    "goldsteinprice": (
        _goldsteinprice,
        ((-2.0, 2.0), (-2.0, 2.0)),
        ((0.0, -1.0),),
        3.0,
    ),
    "martingaddy": (
        _martingaddy,
        ((0.0, 10.0), (0.0, 10.0)),
        ((5.0, 5.0),),
        0.0,
    ),
}

SCALABLE_NAMES = tuple(_SCALABLE)
FIXED_2D_NAMES = tuple(_FIXED_2D)

# Stable identifier order; doubles as the function id of the C core
# (_ppa.c), so never reorder.
FUNCTION_NAMES = SCALABLE_NAMES + FIXED_2D_NAMES

FUNCTION_IDS = {name: i for i, name in enumerate(FUNCTION_NAMES)}

# the dimension of make_function, list_functions, a sweep and `run`, unless given
DEFAULT_DIMENSION = 2

# name -> the registered formula's callable
FORMULAS = {name: entry[0] for name, entry in {**_SCALABLE, **_FIXED_2D}.items()}


def formula_id(function: BenchmarkFunction) -> int | None:
    """The C core's id for the function's formula; None for a custom callable.

    The name alone does not decide: a function built with a registered
    name and its own callable must not run the built-in formula.
    """
    func_id = FUNCTION_IDS.get(function.name)
    if func_id is None or function._fn is not FORMULAS[function.name]:
        return None
    return func_id


def make_function(name: str, dimension: int = DEFAULT_DIMENSION) -> BenchmarkFunction:
    """Build a registered benchmark function.

    Scalable functions accept any dimension >= 2, the five fixed 2-D ones
    only 2; the record makes both checks, after the integer rule here, as
    the bounds are built from the dimension. An unknown name is a ValueError.
    """
    check_integer("dimension", dimension)
    if name in _SCALABLE:
        fn, (low, high), opt_coord, opt_value = _SCALABLE[name]
        n = max(dimension, 0)  # the record refuses n < 2 with its own message
        try:
            bounds = Bounds((low,) * n, (high,) * n)
            points = ((opt_coord,) * n,)
        except (MemoryError, OverflowError):  # OverflowError: beyond a tuple's index
            raise MemoryError(
                f"{name} at dimension {dimension} does not fit in memory"
            ) from None
        return BenchmarkFunction(name, dimension, bounds, opt_value, points, fn)
    if name in _FIXED_2D:
        fn, dims, points, opt_value = _FIXED_2D[name]
        bounds = Bounds(tuple(d[0] for d in dims), tuple(d[1] for d in dims))
        return BenchmarkFunction(name, dimension, bounds, opt_value, tuple(points), fn)
    known = ", ".join(FUNCTION_NAMES)
    raise ValueError(f"unknown benchmark function {name!r}; known: {known}")


def list_functions() -> list[BenchmarkFunction]:
    """All 14 registered functions at the default dimension."""
    return [make_function(name) for name in FUNCTION_NAMES]
