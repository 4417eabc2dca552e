"""Reference computations the benchmark checks plantprop's outputs against.

Written from the published definitions, not imported from plantprop, so a
fault in the package cannot also hide in the check:

- the 14 objective functions with their search boxes and known optima
  (Jamil and Yang, "A literature survey of benchmark functions for global
  optimization problems", 2013; Hansen et al., the BBOB function definitions,
  for cigar, ellipse and tablet);
- splitmix64 (Steele, Lea and Flood, "Fast splittable pseudorandom number
  generators", 2014) and the sub-seed derivation plantprop documents on top
  of it: each grid index is absorbed by xor, plus the splitmix64 increment,
  then one splitmix64 finalizer round;
- the median of a sample.

`self_test()` checks the oracle itself; run.py calls it before every run.
"""

from __future__ import annotations

import math

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15

# Accepted slack below a known optimum: the literature rounds some optima
# (six-hump camel, branin), and a computed minimum can land an ulp below.
OPTIMUM_TOL = 1e-9


def mix64(z: int) -> int:
    """splitmix64's output function (variant 13 of Stafford's mixers)."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def splitmix64_outputs(seed: int, count: int) -> list[int]:
    state = seed & MASK64
    out = []
    for _ in range(count):
        state = (state + GAMMA) & MASK64
        out.append(mix64(state))
    return out


def derive_subseed(base: int, function_index: int, factor_index: int,
                   repeat_index: int) -> int:
    h = base & MASK64
    for word in (function_index, factor_index, repeat_index):
        h = mix64(((h ^ word) + GAMMA) & MASK64)
    return h


def median(values) -> float:
    data = sorted(values)
    n = len(data)
    if n == 0:
        raise ValueError("median of an empty sample")
    mid = n // 2
    if n % 2:
        return data[mid]
    return (data[mid - 1] + data[mid]) / 2


# -- objectives -------------------------------------------------------------
# Each returns (value, scale): scale bounds the magnitude of the terms summed,
# so a value computed in another order may differ from ours by a few ulps of
# scale, not of the (possibly tiny) value.

def _sphere(x):
    return sum(v * v for v in x), sum(v * v for v in x)


def _cigar(x):
    t = x[0] ** 2 + 1e6 * sum(v * v for v in x[1:])
    return t, t


def _ellipse(x):
    n = len(x)
    t = sum(10 ** (6 * i / (n - 1)) * x[i] ** 2 for i in range(n))
    return t, t


def _tablet(x):
    t = 1e6 * x[0] ** 2 + sum(v * v for v in x[1:])
    return t, t


def _griewank(x):
    s = sum(v * v for v in x) / 4000
    p = math.prod(math.cos(v / math.sqrt(i + 1)) for i, v in enumerate(x))
    return 1 + s - p, 2 + s


def _rosenbrock(x):
    terms = [100 * (x[i + 1] - x[i] ** 2) ** 2 + (1 - x[i]) ** 2
             for i in range(len(x) - 1)]
    scale = sum(100 * (abs(x[i + 1]) + x[i] ** 2) ** 2 + (1 + abs(x[i])) ** 2
                for i in range(len(x) - 1))
    return sum(terms), scale


def _ackley(x):
    n = len(x)
    a = -20 * math.exp(-0.2 * math.sqrt(sum(v * v for v in x) / n))
    b = -math.exp(sum(math.cos(2 * math.pi * v) for v in x) / n)
    return a + b + 20 + math.e, 20 + math.e + abs(a) + abs(b)


def _rastrigin(x):
    terms = [v * v - 10 * math.cos(2 * math.pi * v) for v in x]
    return 10 * len(x) + sum(terms), 20 * len(x) + sum(v * v for v in x)


def _schwefel(x):
    s = sum(v * math.sin(math.sqrt(abs(v))) for v in x)
    return 418.9829 * len(x) - s, 2 * 418.9829 * len(x)


def _easom(x):
    x1, x2 = x
    t = -math.cos(x1) * math.cos(x2) * math.exp(
        -((x1 - math.pi) ** 2 + (x2 - math.pi) ** 2))
    return t, 1.0


def _sixhumpcamel(x):
    x1, x2 = x
    t = ((4 - 2.1 * x1 ** 2 + x1 ** 4 / 3) * x1 ** 2 + x1 * x2
         + (-4 + 4 * x2 ** 2) * x2 ** 2)
    scale = ((4 + 2.1 * x1 ** 2 + x1 ** 4 / 3) * x1 ** 2 + abs(x1 * x2)
             + (4 + 4 * x2 ** 2) * x2 ** 2)
    return t, scale


def _branin(x):
    x1, x2 = x
    b = 5.1 / (4 * math.pi ** 2)
    c = 5 / math.pi
    t = 1 / (8 * math.pi)
    q = x2 - b * x1 ** 2 + c * x1 - 6
    scale = (abs(x2) + b * x1 ** 2 + c * abs(x1) + 6) ** 2 + 20
    return q * q + 10 * (1 - t) * math.cos(x1) + 10, scale


def _goldsteinprice(x):
    x1, x2 = x
    a = 1 + (x1 + x2 + 1) ** 2 * (
        19 - 14 * x1 + 3 * x1 ** 2 - 14 * x2 + 6 * x1 * x2 + 3 * x2 ** 2)
    b = 30 + (2 * x1 - 3 * x2) ** 2 * (
        18 - 32 * x1 + 12 * x1 ** 2 + 48 * x2 - 36 * x1 * x2 + 27 * x2 ** 2)
    m1, m2 = abs(x1), abs(x2)
    sa = 1 + (m1 + m2 + 1) ** 2 * (
        19 + 14 * m1 + 3 * m1 ** 2 + 14 * m2 + 6 * m1 * m2 + 3 * m2 ** 2)
    sb = 30 + (2 * m1 + 3 * m2) ** 2 * (
        18 + 32 * m1 + 12 * m1 ** 2 + 48 * m2 + 36 * m1 * m2 + 27 * m2 ** 2)
    return a * b, sa * sb


def _martingaddy(x):
    x1, x2 = x
    t = (x1 - x2) ** 2 + ((x1 + x2 - 10) / 3) ** 2
    return t, t + 1.0


# name: (formula, per-coordinate box or None for 2-D boxes given below,
#        known optimum value, optimum point builder)
SCALABLE = {
    "sphere": (_sphere, (-5.12, 5.12), 0.0, 0.0),
    "cigar": (_cigar, (-10.0, 10.0), 0.0, 0.0),
    "ellipse": (_ellipse, (-10.0, 10.0), 0.0, 0.0),
    "tablet": (_tablet, (-10.0, 10.0), 0.0, 0.0),
    "griewank": (_griewank, (-600.0, 600.0), 0.0, 0.0),
    "rosenbrock": (_rosenbrock, (-5.0, 10.0), 0.0, 1.0),
    "ackley": (_ackley, (-32.768, 32.768), 0.0, 0.0),
    "rastrigin": (_rastrigin, (-5.12, 5.12), 0.0, 0.0),
    # 418.9829 is the usual rounding of 418.98288727...; the minimum of the
    # formula as published is therefore about 1.3e-5 per coordinate above 0.
    "schwefel": (_schwefel, (-500.0, 500.0), 0.0, 420.9687),
}

FIXED_2D = {
    "easom": (_easom, ((-100.0, 100.0), (-100.0, 100.0)), -1.0,
              ((math.pi, math.pi),)),
    "sixhumpcamel": (_sixhumpcamel, ((-3.0, 3.0), (-2.0, 2.0)),
                     -1.031628453489877,
                     ((0.0898, -0.7126), (-0.0898, 0.7126))),
    "branin": (_branin, ((-5.0, 10.0), (0.0, 15.0)), 0.397887357729739,
               ((-math.pi, 12.275), (math.pi, 2.275), (9.42478, 2.475))),
    "goldsteinprice": (_goldsteinprice, ((-2.0, 2.0), (-2.0, 2.0)), 3.0,
                       ((0.0, -1.0),)),
    "martingaddy": (_martingaddy, ((0.0, 10.0), (0.0, 10.0)), 0.0,
                    ((5.0, 5.0),)),
}

FUNCTIONS = tuple(SCALABLE) + tuple(FIXED_2D)


def bounds(name: str, n: int) -> list[tuple[float, float]]:
    if name in SCALABLE:
        return [SCALABLE[name][1]] * n
    if n != 2:
        raise ValueError(f"{name} is two-dimensional")
    return list(FIXED_2D[name][1])


def optimum(name: str) -> float:
    entry = SCALABLE.get(name) or FIXED_2D[name]
    return entry[2]


def optimum_points(name: str, n: int) -> list[tuple[float, ...]]:
    if name in SCALABLE:
        return [(SCALABLE[name][3],) * n]
    return list(FIXED_2D[name][3])


def evaluate(name: str, x) -> tuple[float, float]:
    """(value, scale) of the named objective at x."""
    entry = SCALABLE.get(name) or FIXED_2D[name]
    return entry[0](list(x))


def agrees(name: str, x, value: float, ulps: int = 8) -> bool:
    """Whether `value` is the objective at x to within a few ulps of scale."""
    expected, scale = evaluate(name, x)
    return abs(value - expected) <= ulps * math.ulp(max(scale, abs(expected)))


def self_test() -> None:
    """Raise AssertionError if the oracle disagrees with its sources."""
    # splitmix64 reference outputs for seed 0 and for seed 1234567
    check = splitmix64_outputs(0, 3)
    if check != [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]:
        raise AssertionError(f"splitmix64(0) gives {[hex(v) for v in check]}")
    check = splitmix64_outputs(1234567, 3)
    if check != [6457827717110365317, 3203168211198807973, 9817491932198370423]:
        raise AssertionError(f"splitmix64(1234567) gives {check}")
    if derive_subseed(0, 0, 0, 0) != mix64(mix64(mix64(GAMMA) + GAMMA) + GAMMA):
        raise AssertionError("sub-seed derivation")
    seeds = {derive_subseed(7, f, c, r)
             for f in range(14) for c in range(5) for r in range(3)}
    if len(seeds) != 14 * 5 * 3:
        raise AssertionError("sub-seeds collide on a small grid")

    if median([3.0, 1.0, 2.0]) != 2.0 or median([4.0, 1.0, 3.0, 2.0]) != 2.5:
        raise AssertionError("median")
    try:
        median([])
    except ValueError:
        pass
    else:
        raise AssertionError("median of nothing must fail")

    spot = {
        "sphere": ((1.0, 2.0), 5.0),
        "rosenbrock": ((0.0, 0.0), 1.0),
        "rastrigin": ((1.0, 1.0), 2.0),
        "goldsteinprice": ((0.0, 0.0), 600.0),
        "martingaddy": ((0.0, 0.0), 100.0 / 9.0),
        "cigar": ((1.0, 1.0), 1e6 + 1.0),
        "tablet": ((1.0, 1.0), 1e6 + 1.0),
        "ellipse": ((1.0, 1.0), 1e6 + 1.0),
    }
    for name, (x, want) in spot.items():
        if not agrees(name, x, want):
            raise AssertionError(f"{name}{x} = {evaluate(name, x)[0]}, want {want}")
    for name in FUNCTIONS:
        for n in ((2, 30) if name in SCALABLE else (2,)):
            box = bounds(name, n)
            # rounded literature coordinates: allow their rounding error
            tol = {"schwefel": 1e-4 * n, "sixhumpcamel": 1e-4,
                   "branin": 1e-5}.get(name, 1e-12)
            for point in optimum_points(name, n):
                if not all(lo <= v <= hi for v, (lo, hi) in zip(point, box)):
                    raise AssertionError(f"{name} optimum outside its box")
                value = evaluate(name, point)[0]
                if abs(value - optimum(name)) > tol:
                    raise AssertionError(
                        f"{name} at its optimum gives {value}, "
                        f"want {optimum(name)}")
                if value < optimum(name) - OPTIMUM_TOL:
                    raise AssertionError(f"{name} optimum is not a lower bound")
