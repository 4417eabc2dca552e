"""Sweep specification, seed derivation, and grid execution tests."""

import contextlib
import json
import math
import multiprocessing
import os
import random
import re
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import plantprop
from plantprop import engine, experiment
from plantprop.benchmarks import FIXED_2D_NAMES, FUNCTION_NAMES, SCALABLE_NAMES
from plantprop.core import PpaConfig, SteepeningSchedule
from plantprop.cli import main
from plantprop.experiment import (
    DEFAULT_BASE_SEED,
    DEFAULT_FACTORS,
    PRESETS,
    VANILLA,
    HeatmapTable,
    SweepSpec,
    cell_seeds,
    preset,
    run_sweep,
)
from plantprop.report import spec_from_config, spec_to_config
from plantprop.rng import derive_subseed

TINY = SweepSpec(
    functions=("sphere",),
    factors=(200.0, VANILLA),
    repeats=3,
    budget=150,
    pop_size=10,
    n_max=3,
    base_seed=9,
)


# -- SweepSpec validation -----------------------------------------------------


def test_spec_rejects_duplicates_and_empties():
    with pytest.raises(ValueError, match="duplicate"):
        SweepSpec(functions=("sphere", "sphere"), factors=(100.0,))
    with pytest.raises(ValueError, match="at least one function"):
        SweepSpec(functions=(), factors=(100.0,))
    with pytest.raises(ValueError, match="at least one factor"):
        SweepSpec(functions=("sphere",), factors=())


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan, -math.inf, "vanilla", True])
def test_spec_rejects_bad_factors(bad):
    with pytest.raises(ValueError):
        SweepSpec(functions=("sphere",), factors=(bad,))


def test_spec_factor_ordering_rules():
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(functions=("sphere",), factors=(200.0, 100.0))
    with pytest.raises(ValueError, match="strictly increasing"):
        SweepSpec(functions=("sphere",), factors=(100.0, 100.0))
    with pytest.raises(ValueError, match="last"):
        SweepSpec(functions=("sphere",), factors=(VANILLA, 100.0))
    with pytest.raises(ValueError, match="at most one vanilla"):
        SweepSpec(functions=("sphere",), factors=(100.0, VANILLA, VANILLA))


def test_spec_accepts_int_factors_and_coerces():
    spec = SweepSpec(functions=("sphere",), factors=(100, 250))
    assert spec.factors == (100.0, 250.0)
    assert all(isinstance(f, float) for f in spec.factors)


def test_spec_scalar_field_validation():
    with pytest.raises(ValueError, match="repeats"):
        SweepSpec(functions=("sphere",), factors=(100.0,), repeats=0)
    with pytest.raises(ValueError, match="dimension"):
        SweepSpec(functions=("sphere",), factors=(100.0,), dimension=0)
    with pytest.raises(ValueError):
        SweepSpec(functions=("sphere",), factors=(100.0,), budget=5, pop_size=30)
    with pytest.raises(ValueError, match="too small for budget 300"):
        SweepSpec(functions=("sphere",), factors=(1e-306, VANILLA), budget=300)


@pytest.mark.parametrize("field, value", [
    ("repeats", 2.5), ("base_seed", 1.5), ("repeats", True),  # the spec's own
    ("budget", 1e4), ("pop_size", 30.0), ("n_max", "5"),  # PpaConfig's
    ("dimension", 2.0),  # make_function's
])
def test_spec_refuses_a_count_that_is_not_an_integer(field, value):
    """Each field's rule is its owner's, so the spec's message is the one
    that the owner gives for the same value."""
    message = f"{field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        SweepSpec(functions=("sphere",), factors=(100.0,), **{field: value})


def test_spec_refuses_a_base_seed_that_its_manifest_cannot_hold():
    """Where the interpreter caps int-to-str conversion, a longer base seed
    is refused when the spec is made, not by json.dumps once the sweep has
    run; a seed at the cap, signed or not, is written as it is."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter converts integers of any length to str")
    for seed in (10**limit - 1, -(10**limit - 1)):
        spec = SweepSpec(functions=("sphere",), factors=(100.0,), base_seed=seed)
        assert json.loads(json.dumps(spec_to_config(spec)))["base_seed"] == seed
    for seed in (10**limit, -(10**limit), 10**5000):
        with pytest.raises(ValueError, match=f"^base_seed has more than {limit} digits"):
            SweepSpec(functions=("sphere",), factors=(100.0,), base_seed=seed)


def test_spec_refuses_a_factor_as_its_schedule_does():
    for bad in (True, "100"):
        with pytest.raises(ValueError, match="^factor must be a real number"):
            SweepSpec(functions=("sphere",), factors=(100.0, bad))


@pytest.mark.parametrize("make", [
    SteepeningSchedule,
    lambda factor: SweepSpec(functions=("sphere",), factors=(factor,)),
    lambda factor: HeatmapTable({("a", factor): (1.0,)}),
], ids=["schedule", "spec", "table"])
@pytest.mark.parametrize("factor", [10**400, -10**400, -10**5000],
                         ids=["10**400", "-10**400", "-10**5000"])
def test_a_factor_beyond_the_float_range_is_one_value_error(make, factor):
    """The int is converted before its sign is checked, and no message
    holds it: one beyond sys.get_int_max_str_digits() has no repr."""
    with pytest.raises(ValueError, match="^a factor lies beyond the float range$"):
        make(factor)


def test_spec_defaults_are_the_configs_and_one_method_makes_a_cells_config(
    monkeypatch,
):
    spec = SweepSpec(functions=("sphere",), factors=(100, VANILLA))
    assert (spec.pop_size, spec.n_max) == (PpaConfig.pop_size, PpaConfig.n_max)
    assert spec.cell_config(100.0) == PpaConfig(
        spec.budget, schedule=SteepeningSchedule(100.0)
    )
    made = []
    real = SweepSpec.cell_config
    monkeypatch.setattr(
        SweepSpec, "cell_config", lambda self, factor: made.append(factor) or real(self, factor)
    )
    run_sweep(TINY)
    assert made == [200.0, VANILLA]


def test_spec_rejects_unknown_function_listing_known_names():
    with pytest.raises(ValueError, match="nosuch") as exc:
        SweepSpec(functions=("sphere", "nosuch"), factors=(100.0,))
    assert all(name in str(exc.value) for name in FUNCTION_NAMES)


def test_spec_rejects_fixed_2d_function_at_other_dimension():
    with pytest.raises(ValueError, match="branin is two-dimensional only"):
        SweepSpec(functions=("branin",), factors=(100.0,), dimension=3)


def test_spec_cell_count():
    assert TINY.cell_count == 2
    assert preset("sweep-a").cell_count == 9 * 41


# -- config dict round-trip ---------------------------------------------------


def test_config_dict_round_trip():
    for spec in (TINY, preset("sweep-a"), preset("sweep-b").replace(base_seed=77)):
        data = spec_to_config(spec)
        assert spec_from_config(data) == spec


def test_config_dict_serializes_vanilla_token():
    data = spec_to_config(TINY)
    assert data["factors"] == [200.0, "vanilla"]


def test_from_config_takes_defaults_from_the_dataclass():
    spec = spec_from_config({"functions": ["sphere"], "factors": [100]})
    assert spec == SweepSpec(("sphere",), (100.0,))


def test_from_config_rejects_unknown_keys():
    data = spec_to_config(TINY)
    data["colour"] = "green"
    with pytest.raises(ValueError, match="colour"):
        spec_from_config(data)


def test_from_config_requires_functions_and_factors():
    with pytest.raises(ValueError, match="functions"):
        spec_from_config({"factors": [100]})
    with pytest.raises(ValueError, match="factors"):
        spec_from_config({"functions": ["sphere"]})


def test_from_config_type_errors():
    with pytest.raises(ValueError, match="identifier strings"):
        spec_from_config({"functions": "sphere", "factors": [100]})
    with pytest.raises(ValueError, match="vanilla"):
        spec_from_config({"functions": ["sphere"], "factors": ["inf"]})
    with pytest.raises(ValueError, match="repeats"):
        spec_from_config(
            {"functions": ["sphere"], "factors": [100], "repeats": 2.5}
        )


# -- default grids ---------------------------------------------------------------


def test_default_factor_grid():
    assert len(DEFAULT_FACTORS) == 40
    assert DEFAULT_FACTORS[0] == 100.0
    assert DEFAULT_FACTORS[-1] == 4000.0
    steps = {b - a for a, b in zip(DEFAULT_FACTORS, DEFAULT_FACTORS[1:])}
    assert steps == {100.0}


def test_default_sweeps():
    a = preset("sweep-a")
    b = preset("sweep-b")
    assert len(a.functions) == 9
    assert len(b.functions) == 5
    assert set(a.functions).isdisjoint(b.functions)
    for spec in (a, b):
        assert len(spec.factors) == 41
        assert spec.factors[-1] == VANILLA
        assert spec.repeats == 10
        assert spec.budget == 10_000
        assert spec.pop_size == 30
        assert spec.n_max == 5
        assert spec.dimension == 2
        assert spec.base_seed == DEFAULT_BASE_SEED
    assert PRESETS == {"sweep-a": SCALABLE_NAMES, "sweep-b": FIXED_2D_NAMES}
    assert b.functions == FIXED_2D_NAMES
    unknown = "^unknown preset 'sweep-c'; known: sweep-a, sweep-b$"
    with pytest.raises(ValueError, match=unknown):
        preset("sweep-c")


# -- seed derivation ---------------------------------------------------------


def test_cell_seeds_unique_across_default_grid():
    seeds = cell_seeds(preset("sweep-a"))
    flat = [s for row in seeds.values() for s in row]
    assert len(flat) == 9 * 41 * 10
    assert len(set(flat)) == len(flat)


def test_cell_seeds_change_with_base_seed():
    a = cell_seeds(preset("sweep-b").replace(base_seed=1))
    b = cell_seeds(preset("sweep-b").replace(base_seed=2))
    assert list(a) == list(b)
    assert all(a[cell] != b[cell] for cell in a)


def test_cell_seeds_key_cells_by_name_in_spec_order():
    spec = SweepSpec(functions=("sphere", "ackley"), factors=(200.0, VANILLA),
                     repeats=2, base_seed=5)
    seeds = cell_seeds(spec)
    assert list(seeds) == [
        ("sphere", 200.0), ("sphere", VANILLA), ("ackley", 200.0), ("ackley", VANILLA),
    ]
    # the grid indices of ackley (function 1) under vanilla (factor 1)
    assert seeds[("ackley", VANILLA)] == (
        derive_subseed(5, 1, 1, 0), derive_subseed(5, 1, 1, 1),
    )


def test_cell_seeds_refuse_a_collision_naming_both_runs(monkeypatch):
    monkeypatch.setattr(experiment, "derive_subseed", lambda *indices: 42)
    spec = SweepSpec(functions=("sphere", "ackley"), factors=(200.0, VANILLA), repeats=2)
    with pytest.raises(RuntimeError) as err:
        cell_seeds(spec)
    assert str(err.value) == (
        "sub-seed collision: runs ('sphere', 200.0, 0) and "
        "('sphere', 200.0, 1) both derived 42"
    )


# -- run_sweep -----------------------------------------------------------------


def test_run_sweep_shape_and_order():
    table = run_sweep(TINY)
    assert (table.functions, table.factors) == (("sphere",), (200.0, VANILLA))
    assert list(table.finals) == [
        ("sphere", 200.0),
        ("sphere", VANILLA),
    ]
    assert table.repeats == 3
    for (function, factor), finals in table.finals.items():
        assert len(finals) == 3
        assert table.median(function, factor) == statistics.median(finals)
        assert all(math.isfinite(v) for v in finals)
    # functions alphabetical, whatever order the spec lists them in
    assert run_sweep(TINY.replace(functions=("sphere", "ackley"))).functions == (
        "ackley", "sphere"
    )


def test_run_sweep_is_deterministic():
    assert run_sweep(TINY) == run_sweep(TINY)


def test_run_sweep_order_independent(monkeypatch):
    spec = SweepSpec(
        functions=("sphere", "rastrigin"),
        factors=(150.0, 900.0, VANILLA),
        repeats=2,
        budget=120,
        pop_size=12,
        base_seed=4,
    )
    baseline = run_sweep(spec)
    shuffled = list(cell_seeds(spec).items())
    random.Random(0).shuffle(shuffled)
    monkeypatch.setattr(experiment, "cell_seeds", lambda _spec: dict(shuffled))
    started = []
    assert run_sweep(spec, progress=lambda cell, *_: started.append(cell)) == baseline
    assert started == [cell for cell, _ in shuffled]
    assert run_sweep(spec, jobs=2) == baseline


def test_run_sweep_parallel_matches_serial():
    results = run_sweep(TINY, jobs=2)
    assert results == run_sweep(TINY, jobs=1)


def test_run_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(TINY, jobs=0)
    # TINY has two cells, so a count of two would start a child
    for jobs in (2.0, 2.5, True, "2"):
        with pytest.raises(ValueError, match=rf"^jobs must be an integer, got {re.escape(repr(jobs))}$"):
            run_sweep(TINY, jobs=jobs)


def test_run_sweep_caps_the_pool_at_the_cell_count(monkeypatch):
    """This process runs cells too, so min(jobs, cells) - 1 children start."""
    started = []
    context = multiprocessing.get_context("fork")

    class CountingProcess(context.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(context, "Process", CountingProcess)
    assert run_sweep(TINY, jobs=64) == run_sweep(TINY, jobs=1)
    assert len(started) == 1
    one_cell = SweepSpec(functions=("sphere",), factors=(100.0,), repeats=2,
                         budget=60, pop_size=10)
    run_sweep(one_cell, jobs=8)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


def test_run_sweep_forks_its_children_whatever_the_default():
    """With forkserver as the default start method, the children still run
    this process's patched _run_cell, as only a forked child can, and the
    table equals the serial one."""
    script = f"""
import multiprocessing, os
from plantprop import experiment
from plantprop.report import spec_from_config

multiprocessing.set_start_method("forkserver", force=True)
spec = spec_from_config({spec_to_config(TINY)!r})
here = os.getpid()
in_child = multiprocessing.get_context("fork").Event()
real = experiment._run_cell

def cell(*args):
    # this process holds its first cell until a child has run one
    if os.getpid() == here:
        in_child.wait(timeout=20)
    else:
        in_child.set()
    return real(*args)

experiment._run_cell = cell
table = experiment.run_sweep(spec, jobs=2)
print(multiprocessing.get_start_method(), in_child.is_set(),
      table == experiment.run_sweep(spec, jobs=1))
"""
    src = str(Path(plantprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["forkserver", "True", "True"]


# -- the sweep's child processes ------------------------------------------------

THREE_CELLS = TINY.replace(factors=(200.0, 500.0, VANILLA))


def test_run_sweep_spawns_its_children_where_fork_is_not_taken():
    """On macOS and Windows the pool takes the default start method, spawn
    there: each child imports the package afresh, takes cells from the
    shared counter, and the table equals the serial one; no child outlives
    the sweep."""
    script = f"""
import multiprocessing, sys, time
from plantprop import experiment
from plantprop.report import spec_from_config

multiprocessing.set_start_method("spawn", force=True)
sys.platform = "darwin"  # so the pool takes the default context
spec = spec_from_config({spec_to_config(THREE_CELLS)!r})
real = experiment._take
taken_by_a_child = []

def take(counter, total):
    # this process takes its first cell only once a child has taken one
    deadline = time.monotonic() + 20
    while not counter.value and time.monotonic() < deadline:
        time.sleep(0.01)
    taken_by_a_child.append(counter.value > 0)
    return real(counter, total)

experiment._take = take  # in this process only: a spawned child imports its own
spawned = []
start = multiprocessing.context.SpawnProcess.start
multiprocessing.context.SpawnProcess.start = lambda self: spawned.append(self) or start(self)
table = experiment.run_sweep(spec, jobs=3)
print(len(spawned), taken_by_a_child[0],
      table == experiment.run_sweep(spec, jobs=1),
      multiprocessing.active_children() == [])
"""
    src = str(Path(plantprop.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["2", "True", "True", "True"]


@contextlib.contextmanager
def deadline(seconds):
    """Fail, not hang, if the block runs longer than `seconds`."""
    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def fail_in_children(monkeypatch, fail):
    """Make each cell that a child process takes call `fail`. A cell in this
    process first waits until a child has, so some child takes a cell
    before this process can run the whole grid."""
    here = os.getpid()
    failing = multiprocessing.Event()
    real = experiment._run_cell

    def cell(*args):
        if os.getpid() == here:
            failing.wait(timeout=60)
            return real(*args)
        failing.set()
        fail()

    # forked children inherit the patched module
    monkeypatch.setattr(experiment, "_run_cell", cell)


def raise_value_error():
    raise ValueError("a cell failed in a child")


def exit_at_once():
    os._exit(3)


@pytest.mark.parametrize("spec, jobs", [(TINY, 2), (THREE_CELLS, 3)])
def test_a_childs_exception_reaches_the_caller(monkeypatch, spec, jobs):
    fail_in_children(monkeypatch, raise_value_error)
    with deadline(60), pytest.raises(ValueError, match="a cell failed in a child"):
        run_sweep(spec, jobs=jobs)
    assert multiprocessing.active_children() == []


def test_a_child_that_exits_early_raises_runtime_error(monkeypatch):
    fail_in_children(monkeypatch, exit_at_once)
    with deadline(60), pytest.raises(RuntimeError, match="exited with code 3"):
        run_sweep(THREE_CELLS, jobs=3)
    assert multiprocessing.active_children() == []


def exit_with_code_0():
    sys.exit(0)


def test_a_child_that_exits_with_code_0_early_raises_runtime_error(monkeypatch):
    fail_in_children(monkeypatch, exit_with_code_0)
    with deadline(60), pytest.raises(
        RuntimeError, match="exited before finishing its cells"
    ):
        run_sweep(THREE_CELLS, jobs=3)
    assert multiprocessing.active_children() == []


def test_sweep_cli_reports_a_child_that_exits_early(monkeypatch, tmp_path, capsys):
    fail_in_children(monkeypatch, exit_at_once)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_config(THREE_CELLS)), encoding="utf-8")
    with deadline(60):
        code = main(["sweep", "--config", str(config), "--out",
                     str(tmp_path / "out"), "--jobs", "3", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: a sweep worker exited")
    assert multiprocessing.active_children() == []


def test_an_exception_in_this_process_joins_every_child(monkeypatch):
    """Each child holds its first cell until this process has failed in its
    own, so the children are still running when the exception leaves."""
    here = os.getpid()
    failed = multiprocessing.Event()
    real = experiment._run_cell

    def cell(*args):
        if os.getpid() == here:
            failed.set()
            raise ValueError("a cell failed in the caller")
        failed.wait(timeout=60)
        return real(*args)

    monkeypatch.setattr(experiment, "_run_cell", cell)
    with deadline(60), pytest.raises(ValueError, match="in the caller"):
        run_sweep(THREE_CELLS, jobs=3)
    assert multiprocessing.active_children() == []


@pytest.mark.skipif(not engine.HAVE_KERNEL,
                    reason="needs the compiled kernel: the pure engine takes minutes a cell")
def test_ctrl_c_stops_every_worker_without_worker_tracebacks(tmp_path):
    """SIGINT to the sweep's process group, as Ctrl-C sends it, reaches the
    sweep process and each child while cells are running. Only the sweep
    process reports it, and no process outlives it."""
    spec = TINY.replace(functions=("sphere", "ackley", "rastrigin"),
                        factors=tuple(100.0 * k for k in range(1, 11)),
                        budget=3_000_000, dimension=30)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec_to_config(spec)), encoding="utf-8")
    src = str(Path(plantprop.__file__).resolve().parents[1])
    # on the compiled engine a cell of three runs at this budget and
    # dimension takes about a second, so the grid has seconds of work left
    # when its first line comes, more than a loaded machine can delay the
    # signal by
    proc = subprocess.Popen(
        [sys.executable, "-m", "plantprop", "sweep", "--config", str(config),
         "--out", str(tmp_path / "out"), "--jobs", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src), start_new_session=True,
    )
    try:
        with deadline(60):
            # the first cell is in; the other 29 are still to run
            assert proc.stdout.readline().startswith("[ 1/30]")
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate()
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # the group is empty
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == -signal.SIGINT
    assert "Process Process-" not in err
    assert err.count("Traceback") == 1
    assert err.rstrip().endswith("KeyboardInterrupt")
    assert not (tmp_path / "out" / "results.csv").exists()


@pytest.mark.parametrize("jobs", [2, 6])
def test_parallel_progress_counts_each_cell_once(jobs):
    """Six workers on two cores race for the counter: a lost update would
    run a cell twice and repeat a `done` count."""
    spec = TINY.replace(functions=("sphere", "ackley", "rastrigin"),
                        factors=(100.0, 200.0, 300.0, 400.0, 500.0, VANILLA))
    seen = []
    with deadline(60):
        table = run_sweep(
            spec, jobs=jobs,
            progress=lambda cell, finals, done, total, _: seen.append(
                (cell, finals, done, total)
            ),
        )
    assert [(done, total) for _, _, done, total in seen] == [
        (done, 18) for done in range(1, 19)
    ]
    assert sorted(cell for cell, _, _, _ in seen) == sorted(table.finals)
    assert {cell: finals for cell, finals, _, _ in seen} == table.finals
    assert table == run_sweep(spec, jobs=1)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("count", range(1, 12))
def test_cell_median_matches_statistics_median(count):
    values = tuple(random.Random(count).uniform(-1e3, 1e3) for _ in range(count))
    assert experiment._median(values).hex() == statistics.median(values).hex()


def test_run_sweep_calls_engine_run_once_per_repeat(monkeypatch):
    calls = []
    real = engine.run

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "run", counting)
    run_sweep(TINY)
    assert len(calls) == TINY.cell_count * TINY.repeats
    assert sorted(calls) == sorted(s for seeds in cell_seeds(TINY).values() for s in seeds)


def test_run_sweep_progress_reporting():
    seen = []
    finals_seen = {}

    def progress(cell, finals, done, total, elapsed):
        seen.append((*cell, done, total))
        finals_seen[cell] = finals
        assert elapsed >= 0.0

    assert run_sweep(TINY, progress=progress).finals == finals_seen
    assert [(d, t) for _, _, d, t in seen] == [(1, 2), (2, 2)]
    assert {(f, fac) for f, fac, _, _ in seen} == {
        ("sphere", 200.0),
        ("sphere", VANILLA),
    }
