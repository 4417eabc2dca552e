"""Property tests: no input the CLI accepts ends in a traceback.

`cli.main` runs on generated argument lists and on generated config,
manifest and results files. Whatever the input, the exit code is 0, 1 or
2, and a failure leaves one `error:` line with text on stderr and no
traceback. Every case stays cheap: budgets and repeats are drawn small,
dimensions too apart from sizes that fail before anything is allocated,
and `--jobs` is 1 or 2 (or a value rejected before any worker starts).
Each test runs in a fresh temporary directory, its working directory, so
every path an argument names lies inside it.
"""

import contextlib
import io
import json
import os
import tempfile

from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from plantprop import engine  # noqa: F401  (loaded before any chdir)
from plantprop.benchmarks import FUNCTION_NAMES
from plantprop.cli import main
from plantprop.report import MANIFEST_FORMAT

FUZZ = settings(
    max_examples=120,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

INT_EDGES = [
    -(2**63) - 1, -(2**63), -1, 0, 1, 2**31, 2**53 + 1,
    2**62, 2**63 - 1, 2**63, 2**64, 10**400,
]
# counts that fail before any allocation: negative, or too large for a
# tuple or for the C core's int64 and size_t checks
HUGE = [-(2**63), 2**62, 2**63 - 1, 2**63, 2**64, 10**400]
FLOAT_EDGES = [
    "nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-306", "1e308", "1e309",
    "1.7976931348623157e308", "150.5", "100", "1000",
]
FILES = ["config.json", "manifest.json", "results.csv", "latin1.bin", "missing.json", "."]

# junk never starts with "-", so it cannot abbreviate an option
junk = st.sampled_from(["", "x", " ", "1e3", "0x10", "2.5", "--nosuch", "-"]) | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=5
).filter(lambda t: not t.startswith("-"))
ints = st.sampled_from(INT_EDGES) | st.integers()
floats = st.sampled_from(FLOAT_EDGES) | st.floats().map(repr)
functions = st.sampled_from([*FUNCTION_NAMES, "nosuch", "SPHERE"])
budgets = st.integers(-2, 300) | st.sampled_from([-(2**63) - 1, -(2**63)])
dimensions = st.integers(-1, 4) | st.sampled_from(HUGE)
pop_sizes = st.integers(-1, 40) | st.sampled_from(INT_EDGES)
n_maxes = st.integers(-1, 6) | st.sampled_from(HUGE)
files = st.sampled_from(FILES)


def _opt(flag, values):
    return values.map(lambda v: [flag, str(v)])


def _flag(flag):
    return st.just([flag])


def _argv(head, required, optional):
    parts = st.tuples(*required, st.lists(st.one_of(*optional), max_size=5))
    return parts.map(lambda p: [*head, *(t for group in p[:-1] for t in group),
                                *(t for group in p[-1] for t in group)])


JUNK = junk.map(lambda t: [t])

run_argv = _argv(
    ["run"],
    [_opt("--function", functions | junk), _opt("--budget", budgets | junk)],
    [
        _opt("--dimension", dimensions | junk), _opt("--pop-size", pop_sizes | junk),
        _opt("--n-max", n_maxes | junk), _opt("--factor", floats | ints | junk),
        _opt("--seed", ints | junk),
        _opt("--trajectory", st.sampled_from(["traj.csv", ".", "no/such/dir.csv"])),
        JUNK,
    ],
)
sweep_argv = _argv(
    ["sweep"],
    [
        _opt("--config", files) | _opt("--from-manifest", files)
        | _opt("--preset", st.sampled_from(["sweep-c", ""])),
        _opt("--out", st.sampled_from(["out", ".", "results.csv"])),
        _opt("--jobs", st.sampled_from(["1", "2", "0", "-3", "x"])),
    ],
    [
        _opt("--base-seed", ints | junk), _flag("--quiet"),
        # a second source is a usage error, so a preset never runs
        _opt("--preset", st.sampled_from(["sweep-a", "sweep-b"])),
        _opt("--config", files), JUNK,
    ],
)
plot_argv = _argv(
    ["plot"],
    [files.map(lambda f: [f])],
    [_flag("--raw"), _flag("--combined"),
     _opt("--out", st.sampled_from(["plots", ".", "results.csv"])), JUNK],
)
other_argv = st.sampled_from(
    [[], ["list-functions"], ["--version"], ["run", "--help"], ["nosuch"], ["-x"]]
)

# JSON values of every type, apart from the integers of a capped count
json_scalars = st.none() | st.booleans() | st.floats() | st.text(max_size=4)
json_values = st.recursive(
    json_scalars | ints,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
not_ints = json_scalars | st.lists(json_scalars, max_size=2) | st.dictionaries(
    st.text(max_size=3), json_scalars, max_size=2
)
factor_values = (
    st.integers(-5, 5000) | st.sampled_from([0.0, -1.0, 1e-306, 1e308, 150.5, 10**400])
    | st.just("vanilla") | json_values
)
functions_values = st.lists(functions | json_values, max_size=3) | json_values


@st.composite
def configs(draw):
    """A sweep config: every key with right or wrong types, budget and
    repeats always present and small, so no grid runs long."""
    doc = {
        "budget": draw(budgets | not_ints),
        "repeats": draw(st.integers(-1, 3) | not_ints),
    }
    optional = {
        "functions": functions_values,
        "factors": st.lists(factor_values, max_size=3) | json_values,
        "pop_size": pop_sizes | not_ints,
        "n_max": n_maxes | not_ints,
        "dimension": dimensions | not_ints,
        "base_seed": ints | not_ints,
        "bogus": json_values,
    }
    for key, values in optional.items():
        if draw(st.integers(0, 5)):  # present five times in six
            doc[key] = draw(values)
    return doc


@st.composite
def manifests(draw):
    cells = st.lists(
        st.fixed_dictionaries({
            "function": functions | json_values,
            "factor": factor_values,
            "seeds": st.lists(ints, max_size=3) | json_values,
            "median": st.floats() | json_values,
        }) | json_values,
        max_size=4,
    )
    doc = {
        "format": draw(st.just(MANIFEST_FORMAT) | json_values),
        "spec": draw(configs() | json_values),
    }
    if draw(st.booleans()):
        doc["cells"] = draw(cells | json_values)
    return draw(st.just(doc) | json_values)


csv_tokens = st.sampled_from(
    [*FUNCTION_NAMES[:3], "inf", "vanilla", "100", "150.5", "nan", "-1", "1e308", "", "x"]
)
csv_texts = st.lists(
    st.lists(csv_tokens, min_size=1, max_size=5).map(",".join), max_size=4
).flatmap(lambda rows: st.sampled_from([
    "function,factor,median,run_final_1", "function,factor,median", "x",
]).map(lambda header: "\n".join([header, *rows]) + "\n"))


def _check(argv, config=None, manifest=None, csv=None):
    """Run main in a fresh directory holding the given files, and check its
    exit code and stderr."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {
            "config.json": json.dumps(config if config is not None else {"functions": []}),
            "manifest.json": json.dumps(manifest if manifest is not None else {}),
            "results.csv": csv if csv is not None else "",
        }
        for name, text in files.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8") as f:
                f.write(text)
        with open(os.path.join(tmp, "latin1.bin"), "wb") as f:
            f.write("café".encode("latin-1"))
        out, err = io.StringIO(), io.StringIO()
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
        finally:
            os.chdir(cwd)
    text = err.getvalue()
    assert code in (0, 1, 2), (argv, code, text)
    assert "Traceback" not in text, (argv, text)
    if code != 0:
        lines = [line for line in text.splitlines() if "error:" in line]
        assert len(lines) == 1, (argv, text)
        assert lines[0].split("error:", 1)[1].strip(), (argv, text)


@seed(20261019)
@settings(FUZZ, max_examples=300)
@given(run_argv)
@example(["run", "--function", "sphere", "--budget", "60", "--dimension", str(2**63)])
@example(["run", "--function", "sphere", "--budget", "60", "--n-max", str(10**400)])
def test_any_run_arguments_exit_cleanly(argv):
    _check(argv)


@seed(20261020)
@FUZZ
@given(sweep_argv, configs())
def test_any_sweep_arguments_exit_cleanly(argv, config):
    _check(argv, config=config)


@seed(20261021)
@FUZZ
@given(plot_argv | other_argv, csv_texts)
def test_any_plot_arguments_exit_cleanly(argv, csv):
    _check(argv, csv=csv)


@seed(20261022)
@FUZZ
@given(configs(), st.sampled_from(["1", "2"]))
def test_any_sweep_config_exits_cleanly(config, jobs):
    _check(["sweep", "--config", "config.json", "--out", "out", "--jobs", jobs,
            "--quiet"], config=config)


@seed(20261023)
@FUZZ
@given(manifests(), st.sampled_from(["1", "2"]))
def test_any_manifest_exits_cleanly(manifest, jobs):
    _check(["sweep", "--from-manifest", "manifest.json", "--out", "out", "--jobs", jobs,
            "--quiet"], manifest=manifest)
