"""What perfbench uses of the program, pinned here.

perfbench wraps each (module, attribute path) of `perfbench/spans.py`'s
TARGETS and reports one it cannot find only under `spans_missing`, and its
child processes call a handful of public names. A change that deletes or
renames one of them fails here, in Tier-1, not only in the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import plantprop
from plantprop import engine

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _targets() -> dict:
    """spans.TARGETS, loaded by path: spans.py imports only the stdlib."""
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("target", list(TARGETS), ids=list(TARGETS.values()))
def test_every_traced_name_resolves(target):
    """Each target is found the way spans.Tracer.install looks it up: the
    attribute in the vars of its module, or of the class it names."""
    modname, path = target
    if modname == "plantprop._kernel" and not engine.HAVE_KERNEL:
        pytest.skip(f"the kernel did not load: {engine.KERNEL_ERROR}")
    owner = importlib.import_module(modname)
    owner_name, _, attr = path.rpartition(".")
    if owner_name:
        owner = getattr(owner, owner_name)
    assert attr in vars(owner)


def test_the_names_its_child_processes_call():
    """perfbench/child.py's setup reads HAVE_KERNEL and DEFAULT_BACKEND and
    finishes a tiny run; its single runs build each schedule with vanilla()
    or linear(f) and pass a backend to plantprop.run."""
    assert isinstance(engine.HAVE_KERNEL, bool)
    assert engine.DEFAULT_BACKEND == ("compiled" if engine.HAVE_KERNEL else "python")
    plantprop.run(plantprop.PpaConfig(budget=100), plantprop.make_function("sphere", 2), 1)
    if engine.HAVE_KERNEL:  # spans' kernel.run counter reads result[3], the evaluations
        from plantprop import _kernel

        config = plantprop.PpaConfig(budget=100)
        assert _kernel.run(config, plantprop.make_function("sphere", 2), 1)[3] == 100
    for schedule in (plantprop.SteepeningSchedule.vanilla(),
                     plantprop.SteepeningSchedule.linear(900.0)):
        config = plantprop.PpaConfig(budget=100, pop_size=10, n_max=5, schedule=schedule)
        function = plantprop.make_function("rastrigin", 30)
        result = plantprop.run(config, function, 7, backend="python")
        assert result.evaluations_used == 100
