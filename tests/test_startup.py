"""Which modules a CLI process loads at start-up.

Every `plantprop` command runs in a fresh interpreter, so each module the
package imports costs every command. These tests check which modules load,
not how long anything takes. They run `python -S`, so no site-packages
`.pth` file loads a module that the package itself does not import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plantprop
from plantprop.experiment import VANILLA, CellResult
from plantprop.report import build_table, write_csv

SRC = str(Path(plantprop.__file__).resolve().parents[1])

# dataclasses loads inspect, ast and dis; statistics loads fractions and
# decimal. No command needs any of these at start-up, plot and sweep never
# need statistics, and a parallel sweep starts its own child processes
# without concurrent.futures.
AVOIDED = ("dataclasses", "inspect", "datetime", "statistics", "typing",
           "concurrent.futures")

# the compiled kernel and its binding, which only `run` and `sweep` load; on
# a cold cache loading them compiles the C core
KERNEL = ("ctypes", "plantprop._kernel")


def loaded_after(code: str, modules=AVOIDED, env=None) -> list[str]:
    """The `modules` that `python -S` has loaded after running `code`."""
    script = (
        f"import sys\nsys.path.insert(0, {SRC!r})\n{code}\n"
        f"print(' '.join(m for m in {modules!r} if m in sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1].split() if proc.stdout.strip() else []


def test_importing_the_cli_loads_no_avoided_module():
    assert loaded_after("import plantprop.cli") == []


def test_plot_loads_no_avoided_module(tmp_path):
    cells = [
        CellResult(name, factor, (1.0, 2.0, 3.0), 2.0, (1, 2, 3))
        for name in ("sphere", "ackley")
        for factor in (100.0, VANILLA)
    ]
    csv = write_csv(build_table(cells), tmp_path / "results.csv")
    out = tmp_path / "plots"
    code = (
        "from plantprop import cli\n"
        f"assert cli.main(['plot', {str(csv)!r}, '--out', {str(out)!r}]) == 0"
    )
    cache = tmp_path / "cache"
    cache.mkdir()
    env = dict(os.environ, XDG_CACHE_HOME=str(cache))
    assert loaded_after(code, AVOIDED + KERNEL, env) == []
    assert sorted(p.name for p in out.iterdir()) == ["ackley.svg", "sphere.svg"]
    assert list(cache.iterdir()) == []


@pytest.mark.parametrize("argv", [["list-functions"], ["--version"]])
def test_commands_that_run_nothing_load_no_kernel(argv):
    code = (
        "from plantprop import cli\n"
        "try:\n"
        f"    assert cli.main({argv!r}) == 0\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0\n"
    )
    assert loaded_after(code, AVOIDED + KERNEL) == []


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_loads_no_avoided_module(tmp_path, jobs):
    config = tmp_path / "spec.json"
    config.write_text(json.dumps({
        "functions": ["sphere", "ackley"], "factors": [100, "vanilla"],
        "repeats": 2, "budget": 60, "pop_size": 10,
    }), encoding="utf-8")
    out = tmp_path / "out"
    code = (
        "from plantprop import cli\n"
        f"assert cli.main(['sweep', '--config', {str(config)!r}, '--out', "
        f"{str(out)!r}, '--jobs', {jobs!r}, '--quiet']) == 0"
    )
    assert loaded_after(code) == []
    assert len((out / "results.csv").read_text(encoding="utf-8").splitlines()) == 5
