"""Acceptance suite: the eight numbered criteria the package must satisfy.

One criterion, one test, one PASS/FAIL line in the terminal summary (see
conftest.py). Thresholds, factor windows, and runtime ceilings are pinned
constants: editing them changes what this suite certifies.

Criteria 4 through 8 exercise the shipped preset sweeps end to end through
the command-line interface, under the package's default base seed. The
optimizer is deterministic for a fixed seed, so the factor windows asserted
below are exact reproducible facts for that seed, not statistical hopes.
"""

import math
import random
import time

import pytest

from plantprop.benchmarks import (
    FIXED_2D_NAMES,
    FUNCTION_NAMES,
    Bounds,
    make_function,
)
from plantprop.cli import main as cli_main
from plantprop.core import (
    Individual,
    PpaConfig,
    SteepeningSchedule,
    fitness,
    mutate,
    normalize,
    offspring_count,
    run_ppa,
    steepness,
)
from plantprop import engine
from plantprop.experiment import (
    DEFAULT_BASE_SEED,
    SweepSpec,
    default_sweep_a,
    default_sweep_b,
    run_sweep,
)
from plantprop.report import parse_csv, read_manifest

# every function whose landscape has competing basins; the unimodal bowls
# (sphere, cigar, ellipse, tablet, rosenbrock, martingaddy) place no
# meaningful constraint on where the best factor lands
MULTIMODAL = (
    "ackley",
    "branin",
    "easom",
    "goldsteinprice",
    "griewank",
    "rastrigin",
    "schwefel",
    "sixhumpcamel",
)


class _Scripted:
    def __init__(self, values):
        self._values = list(values)

    def next_uniform(self):
        return self._values.pop(0)


def _err(table, name, factor):
    optimum = make_function(name, 2).known_optimum_value
    return abs(table.medians[(name, factor)] - optimum)


def _best_factor(table, name):
    """Numeric factor with the lowest raw median, earliest on ties.

    Raw median, not |median - optimum|: near a minimum the computed value
    can round a hair below the documented optimum, and ranking by distance
    would then prefer an exactly-equal cell over a lower one.
    """
    finite = [f for f in table.factors if math.isfinite(f)]
    return min(finite, key=lambda f: (table.medians[(name, f)], f))


def _run_preset(preset, out_dir):
    mp = pytest.MonkeyPatch()
    mp.delenv("PPA_SEED", raising=False)
    try:
        started = time.perf_counter()
        code = cli_main(
            ["sweep", "--preset", preset, "--out", str(out_dir),
             "--jobs", "1", "--quiet"]
        )
        elapsed = time.perf_counter() - started
    finally:
        mp.undo()
    assert code == 0, f"{preset} exited with {code}"
    return elapsed


@pytest.fixture(scope="module")
def sweep_a(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_sweep_a")
    elapsed = _run_preset("sweep-a", out)
    return out, elapsed


@pytest.fixture(scope="module")
def sweep_b(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_sweep_b")
    elapsed = _run_preset("sweep-b", out)
    return out, elapsed


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("PPA_SEED", raising=False)


# -- C1 ------------------------------------------------------------------------


@pytest.mark.criterion("C1", "formula unit suite")
def test_c1_formula_examples():
    started = time.perf_counter()

    assert normalize([3.0, 1.0, 5.0]) == [0.5, 1.0, 0.0]
    assert normalize([7.0, 7.0, 7.0]) == [0.5, 0.5, 0.5]
    assert normalize([0.0, 10.0]) == [1.0, 0.0]

    linear = SteepeningSchedule.linear(1000.0)
    assert steepness(0, linear) == 1.0
    assert abs(steepness(4000, linear) - 5.0) <= 1e-12
    assert steepness(10**9, SteepeningSchedule.vanilla()) == 1.0

    assert fitness(0.5, 1.0) == 0.5
    assert abs(fitness(1.0, 1.0) - 0.98201379003790845) <= 1e-12
    assert abs(fitness(1.0, 10.0) - 1.0) <= 1e-12

    assert offspring_count(1.0 - 1e-9, 0.999, 5) == 5
    assert offspring_count(0.5, 0.0, 5) == 1
    assert offspring_count(0.2, 0.5, 5) == 1

    bounds = Bounds((-1.0, -1.0), (1.0, 1.0))
    parent = Individual((0.25, -0.75), 0.0)
    assert mutate(parent, 1.0, bounds, _Scripted([0.1, 0.9])) == parent.position

    clamped = mutate(
        Individual((5.0,), 0.0), 0.0, Bounds((0.0,), (10.0,)),
        _Scripted([1.0 - 1e-12]),
    )
    assert clamped == (10.0,)

    # unit-width bounds, r=0.75, F=0.5: step is exactly 2(0.75-0.5)(0.5)=0.25
    stepped = mutate(
        Individual((0.0, 0.0), 0.0),
        0.5,
        Bounds((-0.5, -0.5), (0.5, 0.5)),
        _Scripted([0.75, 0.75]),
    )
    assert all(abs(v - 0.25) <= 1e-12 for v in stepped)
    # the step scales with bound width: [-1,1] doubles it
    doubled = mutate(
        Individual((0.0, 0.0), 0.0),
        0.5,
        Bounds((-1.0, -1.0), (1.0, 1.0)),
        _Scripted([0.75, 0.75]),
    )
    assert all(abs(v - 0.5) <= 1e-12 for v in doubled)

    assert time.perf_counter() - started < 1.0


# -- C2 ------------------------------------------------------------------------


@pytest.mark.criterion("C2", "benchmark optimum oracle")
def test_c2_documented_optima():
    started = time.perf_counter()
    for name in FUNCTION_NAMES:
        fn = make_function(name, 2)
        # schwefel's canonical constant 418.9829 is a rounded value, so its
        # optimum only reproduces to ~2.5e-5 per dimension
        tol = 1e-3 if name == "schwefel" else 1e-9
        assert fn.known_optimum_points, name
        for point in fn.known_optimum_points:
            got = fn.evaluate(point)
            assert abs(got - fn.known_optimum_value) <= tol, (name, got)
    assert time.perf_counter() - started < 1.0


# -- C3 ------------------------------------------------------------------------


def _random_setup(rnd):
    name = rnd.choice(FUNCTION_NAMES)
    dim = 2 if name in FIXED_2D_NAMES else rnd.randint(2, 4)
    fn = make_function(name, dim)
    pop = rnd.randint(5, 20)
    if rnd.random() < 0.3:
        schedule = SteepeningSchedule.vanilla()
    else:
        schedule = SteepeningSchedule.linear(rnd.uniform(50.0, 3000.0))
    config = PpaConfig(
        budget=rnd.randint(pop, pop * 8),
        pop_size=pop,
        n_max=rnd.randint(1, 6),
        schedule=schedule,
    )
    return fn, config, rnd.getrandbits(63)


@pytest.mark.criterion("C3", "property suites")
def test_c3_randomized_properties():
    started = time.perf_counter()

    # elitist descent: generation bests and the trajectory never rise
    rnd = random.Random(31)
    for _ in range(100):
        fn, config, seed = _random_setup(rnd)
        gen_best = []

        def watch(evals, population):
            gen_best.append(min(ind.objective for ind in population))

        result = run_ppa(config, fn, seed, observer=watch)
        assert all(a >= b for a, b in zip(gen_best, gen_best[1:]))
        values = [v for _, v in result.trajectory]
        assert all(a >= b for a, b in zip(values, values[1:]))

    # bound safety: every individual of every generation stays in the box
    rnd = random.Random(32)
    for _ in range(100):
        fn, config, seed = _random_setup(rnd)

        def check_bounds(evals, population):
            for ind in population:
                assert fn.bounds.contains(ind.position)

        run_ppa(config, fn, seed, observer=check_bounds)

    # budget exactness: the run consumes its budget exactly, never more
    rnd = random.Random(33)
    for _ in range(100):
        fn, config, seed = _random_setup(rnd)
        result = engine.run(config, fn, seed)
        assert result.evaluations_used == config.budget
        assert result.trajectory[-1][0] == config.budget

    # population size: selection returns exactly pop_size survivors
    rnd = random.Random(34)
    for _ in range(100):
        fn, config, seed = _random_setup(rnd)

        def check_size(evals, population):
            assert len(population) == config.pop_size

        run_ppa(config, fn, seed, observer=check_size)

    # determinism: identical (config, function, seed) gives identical results
    rnd = random.Random(35)
    for _ in range(100):
        fn, config, seed = _random_setup(rnd)
        assert engine.run(config, fn, seed) == engine.run(config, fn, seed)

    # order-independent sweeps: execution order never changes the results
    rnd = random.Random(36)
    for _ in range(100):
        functions = tuple(rnd.sample(FUNCTION_NAMES, rnd.randint(1, 3)))
        numeric = sorted(rnd.sample([50.0 * i for i in range(1, 60)],
                                    rnd.randint(1, 3)))
        factors = tuple(numeric) + ((math.inf,) if rnd.random() < 0.4 else ())
        pop = rnd.randint(5, 12)
        spec = SweepSpec(
            functions=functions,
            factors=factors,
            repeats=rnd.randint(1, 3),
            budget=rnd.randint(pop, 150),
            pop_size=pop,
            n_max=rnd.randint(1, 4),
            base_seed=rnd.getrandbits(32),
        )
        cells = [
            (f, c)
            for f in range(len(spec.functions))
            for c in range(len(spec.factors))
        ]
        rnd.shuffle(cells)
        assert run_sweep(spec) == run_sweep(spec, _cell_order=cells)

    assert time.perf_counter() - started < 60.0


# -- C4 ------------------------------------------------------------------------


@pytest.mark.criterion("C4", "sphere steepening window")
def test_c4_sphere_window(sweep_a):
    out, _ = sweep_a
    table = parse_csv(out / "results.csv")
    mid = _err(table, "sphere", 900.0)
    assert mid < _err(table, "sphere", 100.0)
    assert mid < _err(table, "sphere", 4000.0)


# -- C5 ------------------------------------------------------------------------


@pytest.mark.criterion("C5", "deep-minimum factor window, schwefel/rastrigin")
def test_c5_black_hole_windows(sweep_a):
    out, elapsed = sweep_a
    assert elapsed < 120.0
    table = parse_csv(out / "results.csv")
    for name, threshold in (("schwefel", 1e-4), ("rastrigin", 1e-6)):
        vanilla_err = _err(table, name, math.inf)
        window = [
            f for f in table.factors
            if math.isfinite(f) and 700.0 <= f <= 2400.0
        ]
        assert len(window) == 18
        hits = [
            f for f in window
            if _err(table, name, f) <= threshold
            and _err(table, name, f) <= vanilla_err / 100.0
        ]
        assert hits, (name, vanilla_err)


# -- C6 ------------------------------------------------------------------------


@pytest.mark.criterion("C6", "low-error crevice on the fixed 2-D set")
def test_c6_crevice_window(sweep_b):
    out, elapsed = sweep_b
    assert elapsed < 300.0
    table = parse_csv(out / "results.csv")
    passing = []
    for name in ("easom", "sixhumpcamel", "branin", "goldsteinprice"):
        in_window = any(
            _err(table, name, f) <= 1e-6
            for f in table.factors
            if math.isfinite(f) and 600.0 <= f <= 2700.0
        )
        beats_vanilla = (
            table.medians[(name, _best_factor(table, name))]
            < table.medians[(name, math.inf)]
        )
        if in_window and beats_vanilla:
            passing.append(name)
    assert len(passing) >= 3, passing


# -- C7 ------------------------------------------------------------------------


@pytest.mark.criterion("C7", "full-sweep reproduction with a low-error band")
def test_c7_full_sweeps(sweep_a, sweep_b, tmp_path):
    (dir_a, elapsed_a), (dir_b, elapsed_b) = sweep_a, sweep_b
    assert elapsed_a + elapsed_b < 900.0

    table_a = parse_csv(dir_a / "results.csv")
    table_b = parse_csv(dir_b / "results.csv")

    for table, expected_functions, n_cells in (
        (table_a, 9, 360),
        (table_b, 5, 200),
    ):
        numeric = [f for f in table.factors if math.isfinite(f)]
        assert len(table.functions) == expected_functions
        assert len(numeric) == 40
        assert table.factors[-1] == math.inf
        assert len(table.functions) * len(numeric) == n_cells
        assert table.repeats == 10

    lines_a = (dir_a / "results.csv").read_text(encoding="utf-8").splitlines()
    lines_b = (dir_b / "results.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines_a) == 1 + 9 * 41
    assert len(lines_b) == 1 + 5 * 41

    assert read_manifest(dir_a / "manifest.json")[0] == default_sweep_a()
    assert read_manifest(dir_b / "manifest.json")[0] == default_sweep_b()
    assert default_sweep_a().base_seed == DEFAULT_BASE_SEED

    for src, count in ((dir_a, 9), (dir_b, 5)):
        plot_dir = tmp_path / f"{src.name}_plots"
        code = cli_main(
            ["plot", str(src / "results.csv"), "--out", str(plot_dir)]
        )
        assert code == 0
        svgs = sorted(plot_dir.glob("*.svg"))
        assert len(svgs) == count
        for svg in svgs:
            text = svg.read_text(encoding="utf-8")
            assert text.startswith("<svg") and text.rstrip().endswith("</svg>")

    best = {}
    for table in (table_a, table_b):
        for name in table.functions:
            best[name] = _best_factor(table, name)
    for name in MULTIMODAL:
        assert 400.0 <= best[name] <= 2700.0, (name, best[name])


# -- C8 ------------------------------------------------------------------------


@pytest.mark.criterion("C8", "byte-identical reruns from manifests")
def test_c8_manifest_reruns(sweep_a, sweep_b, tmp_path):
    for (src, _), label in ((sweep_a, "a"), (sweep_b, "b")):
        rerun = tmp_path / f"rerun_{label}"
        code = cli_main(
            ["sweep", "--from-manifest", str(src / "manifest.json"),
             "--out", str(rerun), "--jobs", "1", "--quiet"]
        )
        assert code == 0
        assert (rerun / "results.csv").read_bytes() == (
            src / "results.csv"
        ).read_bytes(), label
