"""CSV, manifest, and SVG output tests."""

import json
import math
import statistics

import pytest

from plantprop.experiment import (
    VANILLA,
    CellResult,
    SweepSpec,
    default_sweep_b,
)
from plantprop.report import (
    MANIFEST_FORMAT,
    HeatmapTable,
    build_table,
    load_manifest,
    parse_csv,
    render_heatmaps,
    write_csv,
    write_manifest,
)


def _cell(function, factor, finals, seeds=(1, 2, 3)):
    return CellResult(
        function=function,
        factor=factor,
        finals=tuple(finals),
        median=statistics.median(finals),
        seeds=tuple(seeds),
    )


def _sample_results():
    # includes awkward doubles on purpose: denormal-ish, huge, 1/3
    return [
        _cell("ackley", 100.0, (4.5e-16, 0.3333333333333333, 2.0)),
        _cell("ackley", 700.0, (1.0e-300, 19.718281828459045, 0.1)),
        _cell("ackley", VANILLA, (3.3, 2.2, 1.1)),
        _cell("sphere", 100.0, (0.0, 1.0, 2.0)),
        _cell("sphere", 700.0, (9.99e99, 1e-12, 7.0)),
        _cell("sphere", VANILLA, (5.0, 5.0, 5.0)),
    ]


# -- build_table ---------------------------------------------------------------


def test_build_table_orders_axes():
    table = build_table(_sample_results())
    assert table.functions == ("ackley", "sphere")
    assert table.factors == (100.0, 700.0, VANILLA)
    assert table.repeats == 3
    assert table.medians[("sphere", 100.0)] == 1.0


def test_build_table_rejects_duplicates_and_holes():
    results = _sample_results()
    with pytest.raises(ValueError, match="duplicate"):
        build_table(results + [results[0]])
    with pytest.raises(ValueError, match="exactly once"):
        build_table(results[:-1])  # sphere/vanilla missing
    with pytest.raises(ValueError, match="no cell results"):
        build_table([])


def test_table_rejects_ragged_finals():
    with pytest.raises(ValueError, match="same number"):
        HeatmapTable(
            functions=("a",),
            factors=(1.0, 2.0),
            medians={("a", 1.0): 0.0, ("a", 2.0): 0.0},
            finals={("a", 1.0): (0.0,), ("a", 2.0): (0.0, 0.0)},
        )


# -- CSV -----------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    out = write_csv(build_table(_sample_results()), tmp_path / "r.csv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "function,factor,median,run_final_1,run_final_2,run_final_3"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("ackley,100,")
    assert lines[3].startswith("ackley,inf,")
    assert lines[6].startswith("sphere,inf,")
    assert out.read_text(encoding="utf-8").endswith("\n")


def test_csv_round_trip_is_exact(tmp_path):
    table = build_table(_sample_results())
    parsed = parse_csv(write_csv(table, tmp_path / "r.csv"))
    assert parsed.functions == table.functions
    assert parsed.factors == table.factors
    assert parsed.medians == table.medians  # float equality on purpose
    assert parsed.finals == table.finals


def test_csv_rewrite_is_byte_identical(tmp_path):
    table = build_table(_sample_results())
    first = write_csv(table, tmp_path / "a.csv").read_bytes()
    second = write_csv(parse_csv(tmp_path / "a.csv"), tmp_path / "b.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("sphere,abc,1,1,1,1", "column 'factor'"),
        ("sphere,-100,1,1,1,1", "positive"),
        ("sphere,100,xyz,1,1,1", "column 'median'"),
        ("sphere,100,1,1,oops,1", "column 'run_final_2'"),
        ("sphere,100,1,1", "columns"),
        ("", "blank"),
    ],
)
def test_parse_csv_diagnostics_name_row_and_column(tmp_path, row, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(
        "function,factor,median,run_final_1,run_final_2,run_final_3\n"
        + row
        + "\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as err:
        parse_csv(path)
    assert fragment in str(err.value)
    assert f"{path}:2" in str(err.value)


def test_parse_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,factor,median,run_final_1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        parse_csv(path)
    path.write_text("function,factor,median,run_1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="run_final"):
        parse_csv(path)


def test_parse_csv_rejects_missing_cell(tmp_path):
    table = build_table(_sample_results())
    path = write_csv(table, tmp_path / "r.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="exactly once"):
        parse_csv(path)


# -- manifest --------------------------------------------------------------------


def test_manifest_round_trip(tmp_path):
    spec = SweepSpec(
        functions=("ackley", "sphere"),
        factors=(100.0, 700.0, VANILLA),
        repeats=3,
        budget=500,
        pop_size=10,
        base_seed=55,
    )
    path = write_manifest(
        spec, _sample_results(), tmp_path / "m.json", 1.25, "compiled"
    )
    assert load_manifest(path) == spec

    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == MANIFEST_FORMAT
    assert doc["backend"] == "compiled"
    assert doc["elapsed_seconds"] == 1.25
    assert doc["spec"]["base_seed"] == 55
    assert len(doc["cells"]) == 6
    factors = [c["factor"] for c in doc["cells"]]
    assert factors == [100.0, 700.0, "vanilla", 100.0, 700.0, "vanilla"]
    assert all(c["seeds"] == [1, 2, 3] for c in doc["cells"])


def test_load_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON"):
        load_manifest(path)
    path.write_text(json.dumps({"format": "other", "spec": {}}), encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        load_manifest(path)
    path.write_text(json.dumps({"format": MANIFEST_FORMAT}), encoding="utf-8")
    with pytest.raises(ValueError, match="spec"):
        load_manifest(path)
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ValueError, match="object"):
        load_manifest(path)


def test_manifest_matches_default_spec_round_trip(tmp_path):
    spec = default_sweep_b()
    results = [
        _cell(f, fac, (0.5, 1.5, 2.5))
        for f in spec.functions
        for fac in spec.factors
    ]
    path = write_manifest(spec, results, tmp_path / "m.json", 0.0, "python")
    assert load_manifest(path) == spec


# -- SVG ---------------------------------------------------------------------------


def test_render_per_function_files(tmp_path):
    table = build_table(_sample_results())
    written = render_heatmaps(table, tmp_path)
    assert sorted(p.name for p in written) == ["ackley.svg", "sphere.svg"]
    for p in written:
        text = p.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "vanilla" in text  # the infinite column gets a label


def test_render_combined_single_file(tmp_path):
    table = build_table(_sample_results())
    written = render_heatmaps(table, tmp_path, combined=True)
    assert [p.name for p in written] == ["heatmap_combined.svg"]
    text = written[0].read_text(encoding="utf-8")
    assert "ackley" in text and "sphere" in text


def test_render_is_deterministic(tmp_path):
    table = build_table(_sample_results())
    a = render_heatmaps(table, tmp_path / "a", combined=True)[0].read_bytes()
    b = render_heatmaps(table, tmp_path / "b", combined=True)[0].read_bytes()
    assert a == b


def test_render_error_mode_needs_known_functions(tmp_path):
    results = [_cell("custom", 100.0, (1.0, 2.0, 3.0))]
    with pytest.raises(ValueError, match="raw"):
        render_heatmaps(build_table(results), tmp_path)
    written = render_heatmaps(build_table(results), tmp_path, raw=True)
    assert [p.name for p in written] == ["custom.svg"]


@pytest.mark.parametrize("name", ["../escaped", "a/b", "{tmp}/abs", "", ".", ".."])
def test_render_rejects_names_that_are_not_plain_file_names(tmp_path, name):
    # an absolute name inside tmp_path, so a faulty check writes nowhere else
    name = name.replace("{tmp}", str(tmp_path))
    results = [_cell("sphere", 100.0, (1.0, 2.0, 3.0)), _cell(name, 100.0, (1.0, 2.0, 3.0))]
    out_dir = tmp_path / "a" / "out"
    with pytest.raises(ValueError, match="not a plain file name"):
        render_heatmaps(build_table(results), out_dir, raw=True)
    assert list(tmp_path.rglob("*")) == []
    written = render_heatmaps(build_table(results), out_dir, combined=True, raw=True)
    assert [p.name for p in written] == ["heatmap_combined.svg"]


def test_render_rejects_non_finite_medians(tmp_path):
    results = [_cell("sphere", 100.0, (math.inf, math.inf, math.inf))]
    with pytest.raises(ValueError, match="non-finite"):
        render_heatmaps(build_table(results), tmp_path)


def test_render_shades_span_the_gray_ramp(tmp_path):
    # sphere optimum is 0, so median 0.0 clamps at the error floor and
    # must get the darkest shade; the worst cell gets the lightest
    results = [
        _cell("sphere", 100.0, (0.0, 0.0, 0.0)),
        _cell("sphere", 700.0, (1.0, 1.0, 1.0)),
        _cell("sphere", 2000.0, (100.0, 100.0, 100.0)),
    ]
    svg = render_heatmaps(build_table(results), tmp_path)[0].read_text(
        encoding="utf-8"
    )
    assert 'fill="#191919"' in svg  # darkest end of the ramp
    assert 'fill="#f5f5f5"' in svg  # lightest end


def test_render_flat_row_is_uniformly_dark(tmp_path):
    results = [
        _cell("sphere", 100.0, (2.0, 2.0, 2.0)),
        _cell("sphere", 700.0, (2.0, 2.0, 2.0)),
    ]
    svg = render_heatmaps(build_table(results), tmp_path)[0].read_text(
        encoding="utf-8"
    )
    assert 'fill="#191919"' in svg
    assert 'fill="#f5f5f5"' not in svg
