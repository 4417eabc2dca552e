"""Sweep specification, seed derivation, and grid execution tests."""

import contextlib
import json
import math
import multiprocessing
import os
import random
import signal
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

import plantprop
from plantprop import engine, experiment
from plantprop.benchmarks import FUNCTION_NAMES
from plantprop.cli import main
from plantprop.experiment import (
    DEFAULT_BASE_SEED,
    DEFAULT_FACTORS,
    VANILLA,
    SweepSpec,
    cell_seeds,
    default_sweep_a,
    default_sweep_b,
    run_sweep,
)

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


def test_spec_rejects_unknown_function_listing_known_names():
    with pytest.raises(ValueError, match="nosuch") as exc:
        SweepSpec(functions=("sphere", "nosuch"), factors=(100.0,))
    assert all(name in str(exc.value) for name in FUNCTION_NAMES)


def test_spec_rejects_fixed_2d_function_at_other_dimension():
    with pytest.raises(ValueError, match="branin is two-dimensional only"):
        SweepSpec(functions=("branin",), factors=(100.0,), dimension=3)


def test_spec_cell_count():
    assert TINY.cell_count == 2
    assert default_sweep_a().cell_count == 9 * 41


# -- config dict round-trip ---------------------------------------------------


def test_config_dict_round_trip():
    for spec in (TINY, default_sweep_a(), default_sweep_b(base_seed=77)):
        data = spec.to_config_dict()
        assert SweepSpec.from_config_dict(data) == spec


def test_config_dict_serializes_vanilla_token():
    data = TINY.to_config_dict()
    assert data["factors"] == [200.0, "vanilla"]


def test_from_config_takes_defaults_from_the_dataclass():
    spec = SweepSpec.from_config_dict({"functions": ["sphere"], "factors": [100]})
    assert spec == SweepSpec(("sphere",), (100.0,))


def test_from_config_rejects_unknown_keys():
    data = TINY.to_config_dict()
    data["colour"] = "green"
    with pytest.raises(ValueError, match="colour"):
        SweepSpec.from_config_dict(data)


def test_from_config_requires_functions_and_factors():
    with pytest.raises(ValueError, match="functions"):
        SweepSpec.from_config_dict({"factors": [100]})
    with pytest.raises(ValueError, match="factors"):
        SweepSpec.from_config_dict({"functions": ["sphere"]})


def test_from_config_type_errors():
    with pytest.raises(ValueError, match="identifier strings"):
        SweepSpec.from_config_dict({"functions": "sphere", "factors": [100]})
    with pytest.raises(ValueError, match="vanilla"):
        SweepSpec.from_config_dict({"functions": ["sphere"], "factors": ["inf"]})
    with pytest.raises(ValueError, match="repeats"):
        SweepSpec.from_config_dict(
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
    a = default_sweep_a()
    b = default_sweep_b()
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
    assert default_sweep_a(include_vanilla=False).factors == DEFAULT_FACTORS


# -- seed derivation ---------------------------------------------------------


def test_cell_seeds_unique_across_default_grid():
    seeds = cell_seeds(default_sweep_a())
    flat = [s for row in seeds.values() for s in row]
    assert len(flat) == 9 * 41 * 10
    assert len(set(flat)) == len(flat)


def test_cell_seeds_change_with_base_seed():
    a = cell_seeds(default_sweep_b(base_seed=1))
    b = cell_seeds(default_sweep_b(base_seed=2))
    assert a[(0, 0)] != b[(0, 0)]


# -- run_sweep -----------------------------------------------------------------


def test_run_sweep_shape_and_order():
    results = run_sweep(TINY)
    assert [(c.function, c.factor) for c in results] == [
        ("sphere", 200.0),
        ("sphere", VANILLA),
    ]
    for cell in results:
        assert len(cell.finals) == 3
        assert len(cell.seeds) == 3
        assert cell.median == statistics.median(cell.finals)
        assert all(math.isfinite(v) for v in cell.finals)


def test_run_sweep_is_deterministic():
    assert run_sweep(TINY) == run_sweep(TINY)


def test_run_sweep_order_independent():
    spec = SweepSpec(
        functions=("sphere", "rastrigin"),
        factors=(150.0, 900.0, VANILLA),
        repeats=2,
        budget=120,
        pop_size=12,
        base_seed=4,
    )
    baseline = run_sweep(spec)
    grid = [(f, c) for f in range(2) for c in range(3)]
    shuffled = grid[:]
    random.Random(0).shuffle(shuffled)
    assert run_sweep(spec, _cell_order=shuffled) == baseline


def test_run_sweep_parallel_matches_serial():
    results = run_sweep(TINY, jobs=2)
    assert results == run_sweep(TINY, jobs=1)


def test_run_sweep_rejects_bad_cell_order():
    with pytest.raises(ValueError, match="permutation"):
        run_sweep(TINY, _cell_order=[(0, 0)])


def test_run_sweep_rejects_bad_jobs():
    with pytest.raises(ValueError, match="jobs"):
        run_sweep(TINY, jobs=0)


def test_run_sweep_caps_the_pool_at_the_cell_count(monkeypatch):
    """This process runs cells too, so min(jobs, cells) - 1 children start."""
    started = []

    class CountingProcess(multiprocessing.Process):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(multiprocessing, "Process", CountingProcess)
    assert run_sweep(TINY, jobs=64) == run_sweep(TINY, jobs=1)
    assert len(started) == 1
    one_cell = SweepSpec(functions=("sphere",), factors=(100.0,), repeats=2,
                         budget=60, pop_size=10)
    run_sweep(one_cell, jobs=8)
    assert len(started) == 1
    assert multiprocessing.active_children() == []


# -- the sweep's child processes ------------------------------------------------

THREE_CELLS = TINY.replace(factors=(200.0, 500.0, VANILLA))


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
    config.write_text(json.dumps(THREE_CELLS.to_config_dict()), encoding="utf-8")
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


def test_ctrl_c_stops_every_worker_without_worker_tracebacks(tmp_path):
    """SIGINT to the sweep's process group, as Ctrl-C sends it, reaches the
    sweep process and each child while cells are running. Only the sweep
    process reports it, and no process outlives it."""
    spec = TINY.replace(functions=("sphere", "ackley", "rastrigin"),
                        factors=tuple(100.0 * k for k in range(1, 11)),
                        budget=2000)
    config = tmp_path / "spec.json"
    config.write_text(json.dumps(spec.to_config_dict()), encoding="utf-8")
    src = str(Path(plantprop.__file__).resolve().parents[1])
    # the Python engine keeps every cell running long enough to interrupt
    proc = subprocess.Popen(
        [sys.executable, "-m", "plantprop", "sweep", "--config", str(config),
         "--out", str(tmp_path / "out"), "--jobs", "3", "--backend", "python"],
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
        results = run_sweep(
            spec, jobs=jobs,
            progress=lambda cell, done, total, _: seen.append((cell, done, total)),
        )
    assert [(done, total) for _, done, total in seen] == [
        (done, 18) for done in range(1, 19)
    ]

    def key(cell):
        return cell.function, cell.factor

    assert sorted((cell for cell, _, _ in seen), key=key) == results
    assert results == run_sweep(spec, jobs=1)
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
    results = run_sweep(TINY)
    assert len(calls) == TINY.cell_count * TINY.repeats
    assert sorted(calls) == sorted(s for cell in results for s in cell.seeds)


def test_run_sweep_progress_reporting():
    seen = []

    def progress(cell, done, total, elapsed):
        seen.append((cell.function, cell.factor, done, total))
        assert elapsed >= 0.0

    run_sweep(TINY, progress=progress)
    assert [(d, t) for _, _, d, t in seen] == [(1, 2), (2, 2)]
    assert {(f, fac) for f, fac, _, _ in seen} == {
        ("sphere", 200.0),
        ("sphere", VANILLA),
    }
