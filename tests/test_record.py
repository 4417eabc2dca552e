"""Record, the base of the immutable value types: construction, equality,
hash, repr, immutability, pickling and replace."""

import math
import pickle

import pytest

from plantprop.benchmarks import FORMULAS, Bounds, make_function
from plantprop.core import Individual, PpaConfig, RunResult, SteepeningSchedule
from plantprop.experiment import VANILLA, CellResult, SweepSpec


def test_reprs_read_like_the_dataclass_reprs():
    result = RunResult(0.5, (1.0, -2.0), ((1, 3.0), (30, 0.5)), 30, 7)
    assert repr(result) == (
        "RunResult(best_value=0.5, best_point=(1.0, -2.0), "
        "trajectory=((1, 3.0), (30, 0.5)), evaluations_used=30, seed=7)"
    )
    assert repr(make_function("sphere", 2)) == (
        "BenchmarkFunction(name='sphere', dimension=2, "
        "bounds=Bounds(lower=(-5.12, -5.12), upper=(5.12, 5.12)), "
        "known_optimum_value=0.0, known_optimum_points=((0.0, 0.0),))"
    )
    assert repr(PpaConfig(100)) == (
        "PpaConfig(budget=100, pop_size=30, n_max=5, "
        "schedule=SteepeningSchedule(factor=inf))"
    )


def test_positional_keyword_and_default_construction_agree():
    schedule = SteepeningSchedule(250.0)
    assert PpaConfig(400, 20, 4, schedule) == PpaConfig(
        budget=400, n_max=4, pop_size=20, schedule=schedule
    )
    assert PpaConfig(400).schedule == SteepeningSchedule.vanilla()
    assert PpaConfig._fields == ("budget", "pop_size", "n_max", "schedule")
    with pytest.raises(TypeError):
        PpaConfig()
    with pytest.raises(TypeError):
        PpaConfig(400, budget=400)
    with pytest.raises(TypeError):
        PpaConfig(400, steps=3)


def test_equality_and_hash_ignore_the_formula():
    sphere = make_function("sphere", 2)
    other = sphere.replace(_fn=FORMULAS["cigar"])
    assert other == sphere and hash(other) == hash(sphere)
    assert other._fn is FORMULAS["cigar"]
    assert sphere != sphere.replace(known_optimum_value=1.0)
    assert Individual((1.0,), 2.0) == Individual((1.0,), 2.0)


def test_equality_needs_the_same_class():
    class Schedule(SteepeningSchedule):
        pass

    assert Schedule(5.0) != SteepeningSchedule(5.0)
    assert SteepeningSchedule(5.0) != (5.0,)
    assert SteepeningSchedule(5.0) == SteepeningSchedule(5.0)


def test_fields_cannot_be_assigned_or_deleted():
    config = PpaConfig(100)
    with pytest.raises(AttributeError, match="budget"):
        config.budget = 200
    with pytest.raises(AttributeError, match="budget"):
        del config.budget
    with pytest.raises(AttributeError):
        config.extra = 1
    assert config.budget == 100


def test_pickle_round_trips_a_spec_and_a_cell():
    spec = SweepSpec(["sphere", "easom"], [100, 250.5, VANILLA], repeats=3, budget=300)
    cell = CellResult("sphere", VANILLA, (0.25, 0.5, 1.0), 0.5, (11, 12, 13))
    for value in (spec, cell):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and repr(back) == repr(value)
        assert hash(back) == hash(value)


def test_replace_runs_the_checks_again():
    box = Bounds((-1.0, 0.0), (1.0, 5.0))
    assert box.replace(upper=(2.0, 6.0)) == Bounds((-1.0, 0.0), (2.0, 6.0))
    with pytest.raises(ValueError, match="invalid bound pair"):
        box.replace(lower=box.upper, upper=box.lower)
    sphere = make_function("sphere", 2)
    with pytest.raises(ValueError, match="dimension 3 but 2 bound pairs"):
        sphere.replace(dimension=3)
    with pytest.raises(ValueError, match="repeats"):
        SweepSpec(["sphere"], [100.0]).replace(repeats=0)
    with pytest.raises(TypeError):
        sphere.replace(size=3)
    # __post_init__'s normalization runs on the copy too
    spec = SweepSpec(["sphere"], [100, math.inf]).replace(functions=["cigar"])
    assert (spec.functions, spec.factors) == (("cigar",), (100.0, math.inf))
