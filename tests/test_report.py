"""CSV, manifest, and SVG output tests."""

import json
import math
import re
import statistics

import pytest

from plantprop.experiment import (
    VANILLA,
    SweepSpec,
    cell_seeds,
    preset,
    run_sweep,
)
from plantprop.report import (
    MANIFEST_FORMAT,
    HeatmapTable,
    cell_mismatches,
    factor_label,
    parse_csv,
    read_manifest,
    render_heatmaps,
    write_csv,
    write_manifest,
)


def _sample_finals():
    # includes awkward doubles on purpose: denormal-ish, huge, 1/3
    return {
        ("ackley", 100.0): (4.5e-16, 0.3333333333333333, 2.0),
        ("ackley", 700.0): (1.0e-300, 19.718281828459045, 0.1),
        ("ackley", VANILLA): (3.3, 2.2, 1.1),
        ("sphere", 100.0): (0.0, 1.0, 2.0),
        ("sphere", 700.0): (9.99e99, 1e-12, 7.0),
        ("sphere", VANILLA): (5.0, 5.0, 5.0),
    }


# -- HeatmapTable ----------------------------------------------------------------


def test_table_orders_its_axes():
    finals = _sample_finals()
    shuffled = dict(reversed(list(finals.items())))
    table = HeatmapTable(shuffled)
    assert table.functions == ("ackley", "sphere")
    assert table.factors == (100.0, 700.0, VANILLA)
    assert list(table.finals) == list(finals)  # the cells in the axes' order
    assert table == HeatmapTable(finals)
    assert table.repeats == 3
    assert table.median("sphere", 100.0) == 1.0
    assert table.median("ackley", 700.0) == statistics.median(finals[("ackley", 700.0)])


def test_table_rejects_holes_and_empty_grids():
    finals = _sample_finals()
    del finals[("sphere", VANILLA)]
    with pytest.raises(ValueError, match="exactly once"):
        HeatmapTable(finals)
    with pytest.raises(ValueError, match="exactly once"):
        HeatmapTable({("sphere", 100.0): (1.0,), ("a", 1.0): (1.0,)})
    with pytest.raises(ValueError, match="at least one cell"):
        HeatmapTable({})
    # two keys, one float factor
    with pytest.raises(ValueError, match="exactly once"):
        HeatmapTable({("sphere", 2**53 + 1): (1.0,), ("sphere", 2.0**53): (1.0,)})


def test_table_rejects_ragged_finals():
    with pytest.raises(ValueError, match="same number"):
        HeatmapTable({("a", 1.0): (0.0,), ("a", 2.0): (0.0, 0.0)})


def test_table_rejects_cells_without_finals():
    with pytest.raises(ValueError, match="at least one run final"):
        HeatmapTable({("sphere", 100.0): ()})


def test_table_holds_factors_as_the_schedule_does(tmp_path):
    table = HeatmapTable({("sphere", 100): (1.0, 2.0), ("sphere", math.inf): (3.0, 4.0)})
    assert [type(f) for f in table.factors] == [float, float]
    assert table == HeatmapTable({("sphere", 100.0): (1.0, 2.0), ("sphere", VANILLA): (3.0, 4.0)})
    [svg] = render_heatmaps(table, tmp_path, raw=True)
    assert ">100</text>" in svg.read_text(encoding="utf-8")
    for factor in (0, -1.0, math.nan, True, "100"):
        with pytest.raises(ValueError, match="factor"):
            HeatmapTable({("sphere", factor): (1.0,)})


BEYOND_FLOATS = r"^a run final of \('a', 1\.0\) lies beyond the float range$"


@pytest.mark.parametrize(
    "finals, message",
    [
        ({(5, 1.0): (1.0,)}, "function name must be a str, got 5"),
        ({(5, 1.0): (1.0,), ("a", 1.0): (1.0,)}, "function name must be a str"),
        ({("a", 1.0): (1.0, "x")}, r"run final of \('a', 1\.0\) .* got 'x'"),
        ({("a", 1.0): (True,)}, r"run final of \('a', 1\.0\) .* got True"),
        ({("a", 1.0): (None,)}, r"run final of \('a', 1\.0\) .* got None"),
        # one message for either sign, without the int's digits: a repr of
        # 10**5000 would pass the int-to-str limit and raise in turn
        ({("a", 1.0): (10**400,)}, BEYOND_FLOATS),
        ({("a", 1.0): (-(10**400),)}, BEYOND_FLOATS),
        ({("a", 1.0): (2.0, 10**5000)}, BEYOND_FLOATS),
        ({("a", 1): (-(10**5000),)}, BEYOND_FLOATS),
        ({("a", 1.0): (math.nan,)}, r"run final of \('a', 1\.0\) .* got nan"),
        ({("a", 1.0): (1.0, math.nan, 2.0)}, r"run final of \('a', 1\.0\) .* got nan"),
    ],
    ids=["int name", "mixed names", "str final", "bool final", "None final",
         "huge int final", "huge negative int final", "int final past str",
         "negative int final past str", "nan final", "nan among finals"],
)
def test_table_refuses_what_it_cannot_write_or_read_back(finals, message):
    with pytest.raises(ValueError, match=message):
        HeatmapTable(finals)


@pytest.mark.parametrize(
    "finals, message",
    [
        ({("a", 1.0): 1.0}, r"the run finals of \('a', 1\.0\) must be a tuple or a list"),
        ({("a", 1.0): "1.0"}, r"the run finals of \('a', 1\.0\) must be a tuple or a list"),
        ({"a": (1.0,)}, r"key must be a \(function, factor\) pair, got 'a'"),
        ({("a", 1.0, 2): (1.0,)}, r"pair, got \('a', 1\.0, 2\)"),
        ({5: (1.0,)}, "pair, got 5"),
    ],
    ids=["float finals", "str finals", "str key", "triple key", "int key"],
)
def test_table_refuses_a_malformed_cell_naming_its_key(finals, message):
    with pytest.raises(ValueError, match=message):
        HeatmapTable(finals)


def test_table_holds_finals_as_floats_and_round_trips_inf(tmp_path):
    table = HeatmapTable({("a", 1.0): (1, math.inf, -math.inf), ("a", VANILLA): (2, 3, 4)})
    assert table.finals[("a", 1.0)] == (1.0, math.inf, -math.inf)
    assert {type(v) for row in table.finals.values() for v in row} == {float}
    assert table == HeatmapTable({("a", 1.0): (1.0, math.inf, -math.inf),
                                  ("a", VANILLA): (2.0, 3.0, 4.0)})
    assert parse_csv(write_csv(table, tmp_path / "r.csv")) == table
    # the median of -inf and inf is nan, which the CSV holds and reads back
    split = HeatmapTable({("sphere", 100.0): (math.inf, -math.inf)})
    assert math.isnan(split.median("sphere", 100.0))
    assert parse_csv(write_csv(split, tmp_path / "split.csv")) == split


# -- CSV -----------------------------------------------------------------------


def test_write_csv_layout(tmp_path):
    out = write_csv(HeatmapTable(_sample_finals()), tmp_path / "r.csv")
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "function,factor,median,run_final_1,run_final_2,run_final_3"
    assert len(lines) == 1 + 6
    assert lines[1].startswith("ackley,100,")
    assert lines[3].startswith("ackley,inf,")
    assert lines[6].startswith("sphere,inf,")
    assert out.read_text(encoding="utf-8").endswith("\n")


def test_csv_round_trip_is_exact(tmp_path):
    table = HeatmapTable(_sample_finals())
    parsed = parse_csv(write_csv(table, tmp_path / "r.csv"))
    assert parsed.functions == table.functions
    assert parsed.factors == table.factors
    assert parsed.finals == table.finals  # float equality on purpose
    assert parsed == table

    # a sweep's own table, serial and parallel, and its manifest's seeds
    spec = SweepSpec(functions=("sphere", "ackley"), factors=(150.0, VANILLA),
                     repeats=3, budget=120, pop_size=10, base_seed=77)
    for jobs in (1, 2):
        swept = run_sweep(spec, jobs=jobs)
        assert parse_csv(write_csv(swept, tmp_path / f"s{jobs}.csv")) == swept
        _, recorded = read_manifest(
            write_manifest(spec, swept, tmp_path / f"m{jobs}.json", 0.0, "python")
        )
        seeds = cell_seeds(spec)
        assert recorded == {
            cell: (seeds[cell], swept.median(*cell)) for cell in seeds
        }


@pytest.mark.parametrize("char", [",", "\r", "\n", "\x0b", "\u2028"])
def test_write_csv_refuses_a_name_that_cannot_be_one_cell(tmp_path, char):
    table = HeatmapTable({(f"my{char}func", 100.0): (1.0,)})
    with pytest.raises(ValueError, match=re.escape(repr(f"my{char}func"))):
        write_csv(table, tmp_path / "r.csv")
    assert list(tmp_path.iterdir()) == []
    plain = HeatmapTable({("my func", 100.0): (1.0,)})
    assert parse_csv(write_csv(plain, tmp_path / "r.csv")) == plain


def test_csv_rewrite_is_byte_identical(tmp_path):
    table = HeatmapTable(_sample_finals())
    first = write_csv(table, tmp_path / "a.csv").read_bytes()
    second = write_csv(parse_csv(tmp_path / "a.csv"), tmp_path / "b.csv").read_bytes()
    assert first == second


@pytest.mark.parametrize(
    "row,fragment",
    [
        ("sphere,abc,1,1,1,1", "column 'factor'"),
        ("sphere,-100,1,1,1,1", "factor > 0"),
        ("sphere,nan,1,1,1,1", "column 'factor': linear schedule requires factor > 0"),
        ("sphere,0,1,1,1,1", "column 'factor': linear schedule requires factor > 0"),
        ("sphere,-inf,1,1,1,1", "column 'factor': linear schedule requires factor > 0"),
        ("sphere,100,xyz,1,1,1", "column 'median'"),
        ("sphere,100,2,1,1,1", "column 'median'"),
        ("sphere,100,nan,1,1,1", "column 'median'"),
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


@pytest.mark.parametrize("spelling", ["inf", "Infinity", "1e999"])
def test_parse_csv_reads_any_spelling_of_inf_as_vanilla(tmp_path, spelling):
    """A factor is read as `run --factor` reads one, by the schedule's rule."""
    table = HeatmapTable(_sample_finals())
    path = write_csv(table, tmp_path / "r.csv")
    text = path.read_text(encoding="utf-8").replace(",inf,", f",{spelling},")
    path.write_text(text, encoding="utf-8")
    assert parse_csv(path) == table


def test_parse_csv_rejects_an_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        parse_csv(path)
    assert str(err.value) == f"{path}: empty file"


def test_parse_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("name,factor,median,run_final_1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="header"):
        parse_csv(path)
    path.write_text("function,factor,median,run_1\n", encoding="utf-8")
    with pytest.raises(ValueError, match="run_final"):
        parse_csv(path)


def test_parse_csv_rejects_a_repeated_cell(tmp_path):
    path = write_csv(HeatmapTable(_sample_finals()), tmp_path / "r.csv")
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(lines + [lines[2]]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError) as err:
        parse_csv(path)
    assert str(err.value).startswith(f"{path}:8: duplicate cell")


def test_parse_csv_rejects_missing_cell(tmp_path):
    table = HeatmapTable(_sample_finals())
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
        spec, HeatmapTable(_sample_finals()), tmp_path / "m.json", 1.25, "compiled"
    )
    assert read_manifest(path)[0] == spec

    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["format"] == MANIFEST_FORMAT
    assert doc["backend"] == "compiled"
    assert doc["elapsed_seconds"] == 1.25
    assert doc["spec"]["base_seed"] == 55
    assert len(doc["cells"]) == 6
    factors = [c["factor"] for c in doc["cells"]]
    assert factors == [100.0, 700.0, "vanilla", 100.0, 700.0, "vanilla"]
    assert [c["function"] for c in doc["cells"]] == ["ackley"] * 3 + ["sphere"] * 3
    seeds = cell_seeds(spec)
    assert [c["seeds"] for c in doc["cells"]] == [list(s) for s in seeds.values()]
    assert [c["median"] for c in doc["cells"]] == [
        statistics.median(finals) for finals in _sample_finals().values()
    ]


def test_read_manifest_rejects_garbage(tmp_path):
    path = tmp_path / "m.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ValueError, match="JSON"):
        read_manifest(path)
    path.write_text(json.dumps({"format": "other", "spec": {}}), encoding="utf-8")
    with pytest.raises(ValueError, match="format"):
        read_manifest(path)
    path.write_text(json.dumps({"format": MANIFEST_FORMAT}), encoding="utf-8")
    with pytest.raises(ValueError, match="spec"):
        read_manifest(path)
    path.write_text(json.dumps([1, 2]), encoding="utf-8")
    with pytest.raises(ValueError, match="object"):
        read_manifest(path)


def _edited_manifest(tmp_path, edit):
    """A manifest of a small sweep, with `edit` applied to its cells."""
    spec = SweepSpec(functions=("ackley", "sphere"), factors=(100.0, 700.0, VANILLA),
                     repeats=3, budget=500, pop_size=10, base_seed=55)
    path = write_manifest(
        spec, HeatmapTable(_sample_finals()), tmp_path / "m.json", 0.0, "python"
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    edit(doc["cells"])
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("field, value, message", [
    ("seeds", "123", "seeds must be a list of integers, got '123'"),
    ("seeds", [1, 1.7, 3], "seeds must be a list of integers, got [1, 1.7, 3]"),
    ("seeds", [True], "seeds must be a list of integers, got [True]"),
    ("median", "0.25", "median must be a float, got '0.25'"),
    ("median", None, "median must be a float, got None"),
    ("median", 10**400, f"median must be a float, got {10**400!r}"),
])
def test_read_manifest_rejects_a_cell_naming_it(tmp_path, field, value, message):
    path = _edited_manifest(tmp_path, lambda cells: cells[4].update({field: value}))
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: cell sphere factor 700: {message}"


def test_read_manifest_rejects_a_repeated_cell(tmp_path):
    path = _edited_manifest(tmp_path, lambda cells: cells.append(dict(cells[2])))
    with pytest.raises(ValueError) as err:
        read_manifest(path)
    assert str(err.value) == f"{path}: cell ackley factor vanilla: duplicate cell"


def test_read_manifest_rejects_cells_that_are_not_a_list_of_cells(tmp_path):
    cases = [
        (lambda cells: cells[0].update(function=5), "'cells' entry 0: function must be a string"),
        (lambda cells: cells[1].pop("seeds"), "malformed 'cells' entry 1: KeyError('seeds')"),
        (lambda cells: cells.insert(0, "sphere"), "malformed 'cells' entry 0: TypeError("),
    ]
    for edit, message in cases:
        path = _edited_manifest(tmp_path, edit)
        with pytest.raises(ValueError) as err:
            read_manifest(path)
        assert str(err.value).startswith(f"{path}: {message}")
    path = tmp_path / "m.json"
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc["cells"] = {"sphere": 1}
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError, match=r"'cells' must be a list, got \{'sphere': 1\}$"):
        read_manifest(path)


def test_manifest_matches_default_spec_round_trip(tmp_path):
    spec = preset("sweep-b")
    table = HeatmapTable({(f, fac): (0.5, 1.5, 2.5) for f in spec.functions for fac in spec.factors})
    path = write_manifest(spec, table, tmp_path / "m.json", 0.0, "python")
    assert read_manifest(path)[0] == spec


# -- SVG ---------------------------------------------------------------------------


def test_render_per_function_files(tmp_path):
    table = HeatmapTable(_sample_finals())
    written = render_heatmaps(table, tmp_path)
    assert sorted(p.name for p in written) == ["ackley.svg", "sphere.svg"]
    for p in written:
        text = p.read_text(encoding="utf-8")
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert "vanilla" in text  # the infinite column gets a label


def test_render_combined_single_file(tmp_path):
    table = HeatmapTable(_sample_finals())
    written = render_heatmaps(table, tmp_path, combined=True)
    assert [p.name for p in written] == ["heatmap_combined.svg"]
    text = written[0].read_text(encoding="utf-8")
    assert "ackley" in text and "sphere" in text


def test_render_is_deterministic(tmp_path):
    table = HeatmapTable(_sample_finals())
    a = render_heatmaps(table, tmp_path / "a", combined=True)[0].read_bytes()
    b = render_heatmaps(table, tmp_path / "b", combined=True)[0].read_bytes()
    assert a == b


def test_render_error_mode_needs_known_functions(tmp_path):
    table = HeatmapTable({("custom", 100.0): (1.0, 2.0, 3.0)})
    with pytest.raises(ValueError, match="raw"):
        render_heatmaps(table, tmp_path)
    written = render_heatmaps(table, tmp_path, raw=True)
    assert [p.name for p in written] == ["custom.svg"]


@pytest.mark.parametrize("name", ["../escaped", "a/b", "{tmp}/abs", "", ".", ".."])
def test_render_rejects_names_that_are_not_plain_file_names(tmp_path, name):
    # an absolute name inside tmp_path, so a faulty check writes nowhere else
    name = name.replace("{tmp}", str(tmp_path))
    table = HeatmapTable({("sphere", 100.0): (1.0, 2.0, 3.0), (name, 100.0): (1.0, 2.0, 3.0)})
    out_dir = tmp_path / "a" / "out"
    with pytest.raises(ValueError, match="not a plain file name"):
        render_heatmaps(table, out_dir, raw=True)
    assert list(tmp_path.rglob("*")) == []
    written = render_heatmaps(table, out_dir, combined=True, raw=True)
    assert [p.name for p in written] == ["heatmap_combined.svg"]


def test_render_rejects_non_finite_medians(tmp_path):
    table = HeatmapTable({("sphere", 100.0): (math.inf, math.inf, math.inf)})
    with pytest.raises(ValueError, match="non-finite"):
        render_heatmaps(table, tmp_path)


def test_render_shades_span_the_gray_ramp(tmp_path):
    # sphere optimum is 0, so median 0.0 clamps at the error floor and
    # must get the darkest shade; the worst cell gets the lightest
    table = HeatmapTable({
        ("sphere", 100.0): (0.0, 0.0, 0.0),
        ("sphere", 700.0): (1.0, 1.0, 1.0),
        ("sphere", 2000.0): (100.0, 100.0, 100.0),
    })
    svg = render_heatmaps(table, tmp_path)[0].read_text(
        encoding="utf-8"
    )
    assert 'fill="#191919"' in svg  # darkest end of the ramp
    assert 'fill="#f5f5f5"' in svg  # lightest end


def test_render_flat_row_is_uniformly_dark(tmp_path):
    table = HeatmapTable({("sphere", 100.0): (2.0, 2.0, 2.0), ("sphere", 700.0): (2.0, 2.0, 2.0)})
    svg = render_heatmaps(table, tmp_path)[0].read_text(
        encoding="utf-8"
    )
    assert 'fill="#191919"' in svg
    assert 'fill="#f5f5f5"' not in svg


# -- factor labels -------------------------------------------------------------


def test_factor_labels_keep_integers_and_the_vanilla_token():
    assert [factor_label(f) for f in (300.0, 4000.0, 12.5, VANILLA)] == [
        "300", "4000", "12.5", "vanilla"
    ]


def test_huge_integer_factors_get_their_repr():
    """Digits only where every integer is a float: below 2**53."""
    assert factor_label(2.0**53 - 1) == "9007199254740991"
    assert factor_label(2.0**53) == repr(2.0**53) == "9007199254740992.0"
    assert factor_label(1e300) == "1e+300"
    assert factor_label(1e16) == "1e+16"


def test_distinct_factors_get_distinct_labels(tmp_path):
    """Two factors that agree to six significant digits."""
    a, b = 1234.541, 1234.544
    assert (factor_label(a), factor_label(b)) == ("1234.541", "1234.544")
    table = HeatmapTable({("sphere", f): (1.0, 2.0, 3.0) for f in (a, b)})
    [svg] = render_heatmaps(table, tmp_path, raw=True)
    text = svg.read_text(encoding="utf-8")
    assert ">1234.541</text>" in text and ">1234.544</text>" in text
    # the rerun has factors 1.5 and a; the manifest has a and b
    spec = SweepSpec(functions=("sphere",), factors=(1.5, a), repeats=3)
    rerun = HeatmapTable({("sphere", 1.5): (1.0,) * 3, ("sphere", a): (1.0, 2.0, 3.0)})
    recorded = {("sphere", a): (cell_seeds(spec)[("sphere", a)], 2.5), ("sphere", b): ((1, 2, 3), 2.0)}
    assert cell_mismatches(recorded, spec, rerun) == [
        "sphere factor 1.5: not in the manifest",
        "sphere factor 1234.541: median 2, manifest 2.5",
        "sphere factor 1234.544: missing from the rerun",
    ]
