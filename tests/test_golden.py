"""Full runs against values recorded in tests/data/golden_runs.json.

The parity tests compare the two engines with each other on one machine;
this compares both with fixed numbers. Both engines take cos, exp, sin,
tanh and pow from the platform libm, so a libm that rounds differently, or
an edit that changes a formula in both engines at once, fails here by name.
"""

import json
from pathlib import Path

import pytest

from plantprop import engine
from plantprop.benchmarks import make_function
from plantprop.core import PpaConfig, SteepeningSchedule

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_runs.json").read_text())
CASES = GOLDEN["runs"]

BACKENDS = [
    "python",
    pytest.param(
        "compiled",
        marks=pytest.mark.skipif(not engine.HAVE_KERNEL, reason=str(engine.KERNEL_ERROR)),
    ),
]


def _case_id(case):
    return f"{case['function']}-{case['dimension']}-{case['factor']}-{case['seed']}"


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_run_matches_golden(case, backend):
    factor = case["factor"]
    schedule = (
        SteepeningSchedule.vanilla()
        if factor == "vanilla"
        else SteepeningSchedule.linear(factor)
    )
    config = PpaConfig(budget=case["budget"], schedule=schedule)
    fn = make_function(case["function"], case["dimension"])
    result = engine.run(config, fn, case["seed"], backend=backend)
    assert result.best_value.hex() == case["best_value"]
    assert result.evaluations_used == case["evaluations_used"]
