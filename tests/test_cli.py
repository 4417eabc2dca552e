"""Command-line interface tests, driven through main() in-process."""

import json
import os
import re

import pytest

from plantprop import cli, engine, report
from plantprop.benchmarks import FUNCTION_NAMES
from plantprop.cli import main
from plantprop.core import PpaConfig, SteepeningSchedule
from plantprop.experiment import SweepSpec

TINY_CONFIG = {
    "functions": ["sphere"],
    "factors": [150, "vanilla"],
    "repeats": 2,
    "budget": 120,
    "pop_size": 10,
    "n_max": 3,
    "base_seed": 5,
}


def _config_file(tmp_path, **overrides):
    data = dict(TINY_CONFIG, **overrides)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


# -- run -----------------------------------------------------------------------


def test_run_output_shape(capsys):
    code = main(
        ["run", "--function", "sphere", "--budget", "200", "--pop-size", "10",
         "--factor", "100", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "function     sphere (n=2)" in out
    assert "schedule     linear, factor 100" in out
    assert "seed         3" in out
    assert "best value   " in out
    assert "evaluations  200" in out


def test_run_defaults_and_its_help_are_the_records(capsys):
    args = cli._build_parser().parse_args(["run", "--function", "sphere"])
    assert (args.budget, args.pop_size, args.n_max, args.factor) == (
        SweepSpec.budget, PpaConfig.pop_size, PpaConfig.n_max, SteepeningSchedule.factor
    )
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    for flag, default in (("--factor", "inf"), ("--budget", "10000"),
                          ("--pop-size", "30"), ("--n-max", "5")):
        assert re.search(rf"{flag} [A-Z_]+ [^(]*\(default {default}\b", help_text)


def test_run_is_deterministic(capsys):
    argv = ["run", "--function", "rastrigin", "--budget", "300",
            "--pop-size", "15", "--seed", "9"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    assert capsys.readouterr().out == first


def test_run_defaults_to_vanilla(capsys):
    main(["run", "--function", "sphere", "--budget", "60",
          "--pop-size", "10", "--seed", "1"])
    assert "schedule     vanilla" in capsys.readouterr().out


def test_run_unknown_function_fails_and_lists_names(capsys):
    code = main(["run", "--function", "nosuch", "--seed", "1"])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error:")
    assert "nosuch" in err
    assert "sphere" in err  # the message names the valid identifiers


def test_run_has_no_vanilla_flag(capsys):
    # vanilla is --factor inf, the default
    with pytest.raises(SystemExit) as exc:
        main(["run", "--function", "sphere", "--vanilla"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --vanilla" in capsys.readouterr().err


def test_run_budget_equal_to_popsize(capsys):
    code = main(["run", "--function", "sphere", "--budget", "30", "--seed", "2"])
    assert code == 0
    assert "evaluations  30" in capsys.readouterr().out


def test_run_rejects_undersized_budget(capsys):
    code = main(["run", "--function", "sphere", "--budget", "10", "--seed", "2"])
    assert code == 1
    assert "budget" in capsys.readouterr().err


def test_run_factor_inf_is_the_default_vanilla_run(capsys):
    argv = ["run", "--function", "sphere", "--budget", "60", "--pop-size", "10"]
    assert main(argv) == 0
    default = capsys.readouterr().out
    assert main([*argv, "--factor", "inf"]) == 0
    assert capsys.readouterr().out == default
    assert "schedule     vanilla" in default


def test_run_writes_trajectory(tmp_path, capsys):
    out_csv = tmp_path / "traj.csv"
    main(["run", "--function", "ackley", "--budget", "150", "--pop-size", "10",
          "--seed", "4", "--trajectory", str(out_csv)])
    lines = out_csv.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "evaluation,best_value"
    assert len(lines) >= 2
    assert lines[-1].startswith("150,")
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values, reverse=True) or all(
        a >= b for a, b in zip(values, values[1:])
    )


def test_run_compiled_backend_without_the_kernel_is_an_error(monkeypatch, capsys):
    monkeypatch.setattr(engine, "HAVE_KERNEL", False)
    monkeypatch.setattr(engine, "KERNEL_ERROR", "no C compiler")
    code = main(["run", "--function", "sphere", "--budget", "60", "--backend", "compiled"])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the compiled backend is unavailable (no C compiler); "
        "use backend='python' or 'auto'\n"
    )


def test_run_trajectory_into_a_directory_is_an_error(tmp_path, capsys):
    code = main(["run", "--function", "sphere", "--budget", "60",
                 "--pop-size", "10", "--trajectory", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.skipif(not engine.HAVE_KERNEL, reason="needs the compiled kernel")
def test_run_unallocatable_sizes_are_an_error(capsys):
    # the C core's size_t overflow check fails before any allocation
    code = main(["run", "--function", "sphere", "--budget", str(2**62),
                 "--pop-size", str(2**62), "--backend", "compiled"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cannot allocate")


@pytest.mark.skipif(not engine.HAVE_KERNEL, reason="needs the compiled kernel")
def test_run_budget_beyond_int64_is_an_error(capsys):
    code = main(["run", "--function", "sphere", "--budget", str(2**63),
                 "--backend", "compiled"])
    assert code == 1
    assert capsys.readouterr().err == "error: budget must be at most 2**63 - 1, got 9223372036854775808\n"


def test_run_dimension_beyond_memory_is_an_error_with_text(capsys):
    # a tuple of 2**62 entries is beyond what Python can ask for, so the
    # bounds fail at once, before anything is allocated
    code = main(["run", "--function", "sphere", "--dimension", str(2**62),
                 "--budget", "60"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: sphere at dimension {2**62} does not fit in memory\n"
    )


@pytest.mark.parametrize("dimension", [2**63, 10**400], ids=["2**63", "10**400"])
def test_run_dimension_beyond_an_index_is_an_error_with_text(capsys, dimension):
    # too large for a tuple's length: OverflowError, not MemoryError
    code = main(["run", "--function", "sphere", "--dimension", str(dimension),
                 "--budget", "60"])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: sphere at dimension {dimension} does not fit in memory\n"
    )


@pytest.mark.parametrize("backend", [
    "python",
    pytest.param("compiled", marks=pytest.mark.skipif(
        not engine.HAVE_KERNEL, reason="needs the compiled kernel")),
])
def test_run_seeds_are_reduced_mod_2_64(capsys, backend):
    outputs = []
    for seed in (-5, 2**64 - 5):
        main(["run", "--function", "rastrigin", "--budget", "300",
              "--pop-size", "15", "--seed", str(seed), "--backend", backend])
        out = capsys.readouterr().out.splitlines()
        assert f"seed         {seed}" in out
        outputs.append([line for line in out if not line.startswith("seed ")])
    assert outputs[0] == outputs[1]
    assert any(line.startswith("best point   (") for line in outputs[0])


def test_run_seed_defaults_to_101_whatever_the_environment(monkeypatch, capsys):
    monkeypatch.setenv("PPA_SEED", "5")
    code = main(["run", "--function", "sphere", "--budget", "60", "--pop-size", "10"])
    assert code == 0
    assert "seed         101" in capsys.readouterr().out.splitlines()


# -- sweep ---------------------------------------------------------------------


def test_sweep_config_writes_outputs(tmp_path, capsys):
    config = _config_file(tmp_path)
    out_dir = tmp_path / "out"
    code = main(["sweep", "--config", str(config), "--out", str(out_dir),
                 "--jobs", "1"])
    assert code == 0
    csv_text = (out_dir / "results.csv").read_text(encoding="utf-8")
    lines = csv_text.splitlines()
    assert lines[0] == "function,factor,median,run_final_1,run_final_2"
    assert len(lines) == 3
    assert lines[1].startswith("sphere,150,")
    assert lines[2].startswith("sphere,inf,")

    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["spec"]["base_seed"] == 5
    assert len(manifest["cells"]) == 2

    progress = capsys.readouterr().out
    assert "[1/2]" in progress and "[2/2]" in progress


def test_sweep_quiet_suppresses_progress(tmp_path, capsys):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
          "--jobs", "1", "--quiet"])
    out = capsys.readouterr().out
    assert "[1/2]" not in out
    assert "wrote" in out


def test_sweep_progress_labels_a_fractional_factor(tmp_path, capsys):
    config = _config_file(tmp_path, factors=[150.5])
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
          "--jobs", "1"])
    assert "] sphere         factor   150.5  median " in capsys.readouterr().out


def test_sweep_rejects_zero_jobs(tmp_path, capsys):
    config = _config_file(tmp_path)
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
                 "--jobs", "0"])
    assert code == 1
    assert capsys.readouterr().err == "error: --jobs must be >= 1\n"
    assert not (tmp_path / "o").exists()


def test_sweep_jobs_do_not_change_results(tmp_path):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "b"),
          "--jobs", "2", "--quiet"])
    assert (tmp_path / "a/results.csv").read_bytes() == (
        tmp_path / "b/results.csv"
    ).read_bytes()


def test_sweep_base_seed_flag_overrides_config(tmp_path):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"),
          "--jobs", "1", "--quiet", "--base-seed", "42"])
    manifest = json.loads(
        (tmp_path / "o/manifest.json").read_text(encoding="utf-8")
    )
    assert manifest["spec"]["base_seed"] == 42


@pytest.mark.parametrize(
    ("affinity", "cpu_count", "jobs"),
    [({0}, 8, 1), ({1, 3}, 8, 2), (None, 3, 3), (None, None, 1)],
)
def test_sweep_jobs_default_to_the_usable_cpus(
    tmp_path, monkeypatch, affinity, cpu_count, jobs
):
    # None: a platform without an affinity mask, where the CPU count decides
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    seen = []
    real = cli.run_sweep

    def run_sweep(spec, jobs, **kwargs):
        seen.append(jobs)
        return real(spec, jobs=1, **kwargs)

    monkeypatch.setattr(cli, "run_sweep", run_sweep)
    config = _config_file(tmp_path)
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o"), "--quiet"])
    assert code == 0
    assert seen == [jobs]


def test_sweep_rerun_from_manifest_is_identical(tmp_path):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    main(["sweep", "--from-manifest", str(tmp_path / "a/manifest.json"),
          "--out", str(tmp_path / "b"), "--jobs", "1", "--quiet"])
    assert (tmp_path / "a/results.csv").read_bytes() == (
        tmp_path / "b/results.csv"
    ).read_bytes()


def test_sweep_rerun_from_manifest_reports_a_changed_median(tmp_path, capsys):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    path = tmp_path / "a/manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    cell = manifest["cells"][1]
    assert cell["function"] == "sphere" and cell["factor"] == "vanilla"
    cell["median"] *= 2.0
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()

    code = main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "b"),
                 "--jobs", "1", "--quiet"])
    out, err = capsys.readouterr()
    assert code == 1
    assert "wrote" in out
    lines = err.splitlines()
    assert lines[0] == f"error: 1 cell(s) differ from {path}:"
    assert lines[1:] == [
        f"  sphere factor vanilla: median {report.format_float(cell['median'] / 2.0)}, "
        f"manifest {report.format_float(cell['median'])}"
    ]
    # the rerun's outputs are still written, for inspection
    assert (tmp_path / "a/results.csv").read_bytes() == (
        tmp_path / "b/results.csv"
    ).read_bytes()


def test_sweep_rerun_from_manifest_ignores_ppa_seed(tmp_path, monkeypatch, capsys):
    config = _config_file(tmp_path, base_seed=101)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    path = tmp_path / "a/manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["cells"][0]["median"] *= 2.0
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()

    monkeypatch.setenv("PPA_SEED", "5")
    code = main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "b"),
                 "--jobs", "1", "--quiet"])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0] == f"error: 1 cell(s) differ from {path}:"
    assert err[1].startswith("  sphere factor 150: median ")


@pytest.mark.parametrize("edit", [
    {"seeds": "123"}, {"seeds": [1.7]}, {"median": "0.25"}, None,
])
def test_sweep_rerun_from_a_lenient_manifest_cell_is_one_error(tmp_path, capsys, edit):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    path = tmp_path / "a/manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    if edit is None:  # the vanilla cell twice
        manifest["cells"].append(manifest["cells"][1])
    else:
        manifest["cells"][1].update(edit)
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()

    code = main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "b"),
                 "--jobs", "1", "--quiet"])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {path}: cell sphere factor vanilla: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "b").exists()


def test_sweep_rerun_from_manifest_reports_cells_that_do_not_pair(tmp_path, capsys):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    path = tmp_path / "a/manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    dropped, changed = manifest["cells"]
    assert (dropped["factor"], changed["factor"]) == (150, "vanilla")
    changed["seeds"][0] += 1
    manifest["cells"] = [
        changed, dict(changed, factor=300), dict(changed, factor=450.0),
        dict(changed, factor=12.5), dict(changed, factor=float("nan")),
    ]
    path.write_text(json.dumps(manifest), encoding="utf-8")
    capsys.readouterr()

    code = main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "b"),
                 "--jobs", "1", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: 6 cell(s) differ from {path}:",
        "  sphere factor 150: not in the manifest",
        "  sphere factor vanilla: seeds differ from the manifest's",
        "  sphere factor 300: missing from the rerun",
        "  sphere factor 450: missing from the rerun",
        "  sphere factor 12.5: missing from the rerun",
        "  sphere factor nan: missing from the rerun",
    ]


def test_sweep_rerun_from_manifest_is_silent_when_it_matches(tmp_path, capsys):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    capsys.readouterr()
    code = main(["sweep", "--from-manifest", str(tmp_path / "a/manifest.json"),
                 "--out", str(tmp_path / "c"), "--jobs", "1", "--quiet"])
    out, err = capsys.readouterr()
    assert code == 0 and err == ""
    assert out.startswith(f"wrote {tmp_path / 'c/results.csv'} (")

    # another base seed is another sweep: nothing to compare
    code = main(["sweep", "--from-manifest", str(tmp_path / "a/manifest.json"),
                 "--out", str(tmp_path / "b"), "--jobs", "1", "--quiet",
                 "--base-seed", "6"])
    assert code == 0 and capsys.readouterr().err == ""
    assert (tmp_path / "a/results.csv").read_bytes() != (
        tmp_path / "b/results.csv"
    ).read_bytes()


@pytest.mark.parametrize("base_seed", [[], ["--base-seed", "6"]])
def test_sweep_rerun_from_manifest_never_overwrites_it(tmp_path, capsys, base_seed):
    config = _config_file(tmp_path)
    main(["sweep", "--config", str(config), "--out", str(tmp_path / "a"),
          "--jobs", "1", "--quiet"])
    path = tmp_path / "a/manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest["cells"][1]["median"] *= 2.0
    path.write_text(json.dumps(manifest), encoding="utf-8")
    recorded = path.read_bytes()
    results = (tmp_path / "a/results.csv").read_bytes()
    capsys.readouterr()

    # the same directory, spelled another way
    code = main(["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "a/../a"),
                 "--jobs", "1", "--quiet", *base_seed])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: --out {tmp_path / 'a/../a'} would overwrite {path}")
    assert path.read_bytes() == recorded
    assert (tmp_path / "a/results.csv").read_bytes() == results


def test_sweep_bad_config_fails_with_diagnostic(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"functions": ["sphere"]}), encoding="utf-8")
    code = main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "factors" in err and "spec.json" in err


def test_sweep_factor_beyond_the_float_range_is_an_error(tmp_path, capsys):
    # json reads an integer literal of 401 digits as an int that float() rejects
    config = _config_file(tmp_path, factors=[10**400])
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "a factor lies beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("factors", [None, 5])
def test_sweep_factors_not_a_list_is_an_error(tmp_path, capsys, factors):
    config = _config_file(tmp_path, factors=factors)
    code = main(["sweep", "--config", str(config), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {config}: factors must be a list, got {factors!r}\n"
    )


def test_sweep_unknown_function_fails_before_creating_out(tmp_path, capsys):
    config = _config_file(tmp_path, functions=["sphere", "nosuch"])
    out_dir = tmp_path / "o"
    code = main(["sweep", "--config", str(config), "--out", str(out_dir)])
    assert code == 1
    err = capsys.readouterr().err
    assert "nosuch" in err and "rastrigin" in err
    assert not out_dir.exists()


def test_sweep_out_on_an_existing_file_is_an_error(tmp_path, capsys):
    config = _config_file(tmp_path)
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    code = main(["sweep", "--config", str(config), "--out", str(taken),
                 "--jobs", "1", "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_sweep_has_no_no_vanilla_flag(tmp_path, capsys):
    # a grid without the vanilla column is a --config
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--preset", "sweep-b", "--out", str(tmp_path / "o"),
              "--no-vanilla"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-vanilla" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("source", ["--config", "--from-manifest"])
def test_sweep_input_that_is_not_utf8_is_named(tmp_path, capsys, source):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff{}")
    code = main(["sweep", source, str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )
    assert not (tmp_path / "o").exists()


def test_sweep_requires_a_source(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--out", str(tmp_path / "o")])
    assert exc.value.code == 2


# -- plot ----------------------------------------------------------------------


def test_plot_writes_svgs(tmp_path, capsys):
    config = _config_file(tmp_path)
    out_dir = tmp_path / "out"
    main(["sweep", "--config", str(config), "--out", str(out_dir),
          "--jobs", "1", "--quiet"])
    capsys.readouterr()
    code = main(["plot", str(out_dir / "results.csv")])
    assert code == 0
    assert (out_dir / "sphere.svg").exists()
    assert "sphere.svg" in capsys.readouterr().out


def test_plot_combined_and_custom_out(tmp_path):
    config = _config_file(tmp_path)
    out_dir = tmp_path / "out"
    main(["sweep", "--config", str(config), "--out", str(out_dir),
          "--jobs", "1", "--quiet"])
    plots = tmp_path / "plots"
    main(["plot", str(out_dir / "results.csv"), "--out", str(plots),
          "--combined"])
    assert (plots / "heatmap_combined.svg").exists()
    assert not (plots / "sphere.svg").exists()


def test_plot_out_on_an_existing_file_is_an_error(tmp_path, capsys):
    config = _config_file(tmp_path)
    out_dir = tmp_path / "out"
    main(["sweep", "--config", str(config), "--out", str(out_dir),
          "--jobs", "1", "--quiet"])
    capsys.readouterr()
    code = main(["plot", str(out_dir / "results.csv"),
                 "--out", str(out_dir / "results.csv")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_plot_rejects_a_function_name_that_leaves_out(tmp_path, capsys):
    csv_dir = tmp_path / "csvdir"
    csv_dir.mkdir()
    csv = csv_dir / "results.csv"
    csv.write_text(
        "function,factor,median,run_final_1\n../escaped,100,1,1\n", encoding="utf-8"
    )
    code = main(["plot", str(csv), "--raw", "--out", str(csv_dir / "plots")])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["csvdir", "results.csv"]


def test_plot_malformed_csv_fails_with_location(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    bad.write_text(
        "function,factor,median,run_final_1\nsphere,oops,1,1\n",
        encoding="utf-8",
    )
    code = main(["plot", str(bad)])
    assert code == 1
    err = capsys.readouterr().err
    assert "results.csv:2" in err
    assert "factor" in err


def test_plot_csv_that_is_not_utf8_is_named(tmp_path, capsys):
    bad = tmp_path / "results.csv"
    bad.write_bytes(b"\xfffunction,factor,median,run_final_1\n")
    code = main(["plot", str(bad)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
        "in position 0: invalid start byte\n"
    )


def test_plot_missing_file(tmp_path, capsys):
    code = main(["plot", str(tmp_path / "absent.csv")])
    assert code == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize(
    "case", ["unknown function", "missing manifest", "manifest not JSON"]
)
def test_a_library_error_is_one_error_line(tmp_path, capsys, case):
    """main prints the library's own message, unwrapped, as one line."""
    path = tmp_path / "input"
    if case == "unknown function":
        path.write_text("function,factor,median,run_final_1\ncustom,100,1,1\n",
                        encoding="utf-8")
        argv = ["plot", str(path)]
        with pytest.raises(ValueError, match="no known optimum") as raised:
            report.render_heatmaps(report.parse_csv(path), tmp_path)
    else:
        if case == "manifest not JSON":
            path.write_text("{not json", encoding="utf-8")
        argv = ["sweep", "--from-manifest", str(path), "--out", str(tmp_path / "out")]
        expected = OSError if case == "missing manifest" else ValueError
        with pytest.raises(expected) as raised:
            report.read_manifest(path)
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {raised.value}\n")


# -- list-functions and help -----------------------------------------------------


def test_list_functions_table(capsys):
    code = main(["list-functions"])
    out = capsys.readouterr().out.splitlines()
    assert code == 0
    assert len(out) == 1 + 14
    assert out[0].startswith("name")
    names = [line.split()[0] for line in out[1:]]
    assert names == list(FUNCTION_NAMES)
    sphere_row = next(line for line in out if line.startswith("sphere"))
    assert ">=2" in sphere_row
    branin_row = next(line for line in out if line.startswith("branin"))
    assert " 2 " in branin_row


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["run", "--help"],
        ["sweep", "--help"],
        ["plot", "--help"],
        ["list-functions", "--help"],
    ],
)
def test_help_exits_zero(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "plantprop" in capsys.readouterr().out


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "plantprop", "list-functions"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "sphere" in proc.stdout


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_closed_stdout_pipe_exits_quietly(tmp_path, command, unbuffered):
    """With stdout's reader gone, as in `plantprop run ... | true`, the CLI
    exits 1 and writes nothing to stderr: no error line, no traceback."""
    import subprocess
    import sys

    if command == "run":
        argv = ["run", "--function", "sphere", "--budget", "60", "--pop-size", "10"]
    else:
        argv = ["sweep", "--config", str(_config_file(tmp_path)),
                "--out", str(tmp_path / "out"), "--jobs", "2"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "plantprop", *argv],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONUNBUFFERED=unbuffered),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, "")
