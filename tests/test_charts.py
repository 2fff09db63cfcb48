"""Chart parsing, validation, motivic lifting, and eta-localization."""

from __future__ import annotations

import importlib.util
import pickle
import random
import re
from pathlib import Path

import pytest

from motivic_stems.charts import (
    LOCALIZATION_STABLE,
    LOCALIZATION_UNRESOLVED,
    ChartParseError,
    ChartValidationError,
    ClassicalChart,
    ClassicalChartClass,
    LiftError,
    StemRangeError,
    ctau_homotopy,
    eta_localize_chart,
    lift_to_motivic,
    load_sample_chart,
    localization_guaranteed,
    parse_chart,
    parse_stems,
    serialize_chart,
    serialize_stems,
)
from motivic_stems.groups import TRIVIAL_GROUP, GroupDescriptor
from motivic_stems.resources import read_data_text

MINIMAL = "# provenance: test fixture\n# smax: 2\n0 0 1 Z\n2 2 x 2\n"


def test_parse_minimal_chart():
    chart = parse_chart(MINIMAL)
    assert chart.provenance == "test fixture"
    assert chart.s_max == 2
    assert [c.name for c in chart.classes] == ["1", "x"]
    assert chart.by_name("x") == ClassicalChartClass("x", 2, 2, 2)
    assert chart.by_name("ghost") is None
    assert chart.at(2, 2) == (chart.by_name("x"),)
    assert chart.at(7, 1) == ()
    assert chart.group_at(0, 0) == GroupDescriptor((0,))
    assert chart.group_at(7, 1) is TRIVIAL_GROUP  # an empty bidegree builds no descriptor


def test_parse_strips_blank_lines_and_trailing_comments():
    chart = parse_chart("0 0 1 Z   # the unit\n\n   \n# plain comment\n")
    assert len(chart.classes) == 1
    assert chart.s_max == 0


def test_smax_defaults_to_largest_stem():
    assert parse_chart("0 0 1 Z\n4 2 x 8\n").s_max == 4


@pytest.mark.parametrize(
    "text, lineno, fragment",
    [
        ("0 0 1 Z\n1 1 x\n", 2, "expected `s f name order"),
        ("0 0 1 Z\na 1 x 2\n", 2, "non-integer bidegree"),
        ("0 0 1 q\n", 1, "neither Z nor an integer"),
        ("0 0 1 3\n", 1, "not a power of 2"),
        ("0 0 1 1\n", 1, "not a power of 2"),
        ("0 0 1 Z\n1 1 x 2 nu:y\n", 2, "is not an eta: edge"),
        ("0 0 1 Z\n1 1 x 2 eta:\n", 2, "empty eta: target"),
        ("# smax: soon\n0 0 1 Z\n", 1, "bad smax directive"),
    ],
)
def test_parse_errors_carry_line_numbers(text, lineno, fragment):
    with pytest.raises(ChartParseError, match=fragment) as exc:
        parse_chart(text)
    assert exc.value.lineno == lineno
    assert f"line {lineno}:" in str(exc.value)


def test_duplicate_names_cite_both_lines():
    with pytest.raises(ChartParseError, match="already used on line 1") as exc:
        parse_chart("0 0 1 Z\n2 2 1 2\n")
    assert exc.value.lineno == 2


@pytest.mark.parametrize(
    "fixture, fragment",
    [
        ("fixtures/missing_unit.txt", "exactly one class of order 0"),
        ("fixtures/bad_eta_edge.txt", "expected (2,2)"),
        ("fixtures/filtration_zero.txt", "filtration 0 is only allowed at (0,0)"),
    ],
)
def test_corrupt_fixtures_fail_validation(fixture, fragment):
    text = read_data_text(fixture)
    with pytest.raises(ChartValidationError, match="structural invariants") as exc:
        parse_chart(text)
    assert any(fragment in v for v in exc.value.violations)


def test_validation_collects_multiple_violations():
    with pytest.raises(ChartValidationError) as exc:
        parse_chart("0 0 1 Z\n-1 -2 bad 2\n9 1 far 2\n# smax: 3\n")
    violations = exc.value.violations
    assert any("negative stem" in v for v in violations)
    assert any("negative filtration" in v for v in violations)
    assert any("stem exceeds declared range" in v for v in violations)


def test_chart_errors_survive_a_pickle_round_trip():
    # a verify suite that fails in a worker process sends its error back pickled
    for text in ("0 0 1 Z\n1 1 x 7\n", "0 0 1 Z\n-1 -2 bad 2\n9 1 far 2\n# smax: 3\n"):
        with pytest.raises((ChartParseError, ChartValidationError)) as exc:
            parse_chart(text)
        copy = pickle.loads(pickle.dumps(exc.value))
        assert type(copy) is type(exc.value) and str(copy) == str(exc.value)
        assert vars(copy) == vars(exc.value)
    assert copy.violations == exc.value.violations and len(copy.violations) == 3


def test_serialize_is_canonical_and_roundtrips(sample_chart):
    shuffled = "# smax: 2\n2 2 x 2\n0 0 1 Z\n"
    canonical = serialize_chart(parse_chart(shuffled))
    assert canonical == "# smax: 2\n0 0 1 Z\n2 2 x 2\n"
    assert serialize_chart(parse_chart(canonical)) == canonical
    assert serialize_chart(parse_chart(MINIMAL)) == MINIMAL
    classes = list(sample_chart.classes)
    random.Random(0).shuffle(classes)
    chart = ClassicalChart(classes=classes, s_max=sample_chart.s_max, provenance=sample_chart.provenance)
    assert chart == sample_chart
    assert parse_chart(serialize_chart(chart)) == chart


def test_chart_lookups_cannot_go_stale():
    # reassigned classes, or a list handed out by at and then changed, would
    # leave by_name, at and ctau_homotopy disagreeing with classes
    chart = load_sample_chart()
    assert isinstance(chart.classes, tuple)
    classes, at_3_1 = chart.classes, chart.at(3, 1)
    with pytest.raises(AttributeError):
        chart.classes = [c for c in chart.classes if (c.s, c.f) != (3, 1)]
    assert chart.classes is classes and chart.at(3, 1) == at_3_1 != ()
    assert isinstance(chart.at(3, 1), tuple)
    assert str(ctau_homotopy(chart, 3, 2)) == "Z/4"


def test_lift_rejects_odd_total_degree():
    chart = parse_chart("0 0 1 Z\n2 1 odd 2\n")
    with pytest.raises(LiftError, match="'odd' at \\(2,1\\)"):
        lift_to_motivic(chart)


def test_lift_places_classes_in_tau_towers(sample_chart):
    lift = lift_to_motivic(sample_chart)
    assert lift.chart is sample_chart
    assert lift.w_top["1"] == 0
    assert lift.w_top["alpha1"] == 1
    assert lift.w_top["alpha2/2"] == 2
    assert lift.w_top == {c.name: (c.s + c.f) // 2 for c in sample_chart.classes}


def test_ctau_homotopy_values(sample_chart):
    assert str(ctau_homotopy(sample_chart, 0, 0)) == "Z2"
    assert str(ctau_homotopy(sample_chart, 1, 1)) == "Z/2"
    assert str(ctau_homotopy(sample_chart, 3, 2)) == "Z/4"
    assert ctau_homotopy(sample_chart, 5, 2).is_trivial  # 2w-s < 0
    assert ctau_homotopy(sample_chart, 14, 7).is_trivial  # empty entry at f = 0
    # both zero cases hand out the one shared trivial descriptor
    assert ctau_homotopy(sample_chart, 5, 2) is TRIVIAL_GROUP
    assert ctau_homotopy(sample_chart, 14, 7) is TRIVIAL_GROUP
    with pytest.raises(StemRangeError):
        ctau_homotopy(sample_chart, -1, 0)
    with pytest.raises(StemRangeError):
        ctau_homotopy(sample_chart, sample_chart.s_max + 1, 8)


def test_localization_guaranteed_boundary():
    assert localization_guaranteed(4, 3)
    assert not localization_guaranteed(5, 3)
    assert not localization_guaranteed(0, 0)


def test_eta_localize_sample_chains(sample_chart):
    results = eta_localize_chart(sample_chart)
    assert list(results) == [c.name for c in sample_chart.classes]
    unit_res = results["1"]
    assert unit_res.status == LOCALIZATION_STABLE
    assert unit_res.value.name == "alpha1^3" and unit_res.steps == 3
    a22 = results["alpha2/2"]
    assert a22.status == LOCALIZATION_STABLE and a22.value is None and a22.steps == 0
    a3 = results["alpha3"]
    assert a3.value.name == "alpha1^3*alpha3" and a3.steps == 3


def test_eta_localize_max_steps_forces_unresolved(sample_chart):
    results = eta_localize_chart(sample_chart, max_steps=1)
    unit_res = results["1"]
    assert unit_res.status == LOCALIZATION_UNRESOLVED
    assert unit_res.value is None and unit_res.steps == 1


def _atlas_chart(seed: int) -> ClassicalChart:
    # the seeded 2,601-class chart of the atlas benchmark workload
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return parse_chart(workloads.setup_atlas(seed)["text"])


def test_eta_localize_default_has_no_cap(sample_chart):
    # every eta edge raises the stem by one and no class lies past s_max, so
    # no chain runs long enough for a cap to matter
    for chart, classes, unresolved in ((sample_chart, 26, 0), (_atlas_chart(29), 2601, 22)):
        results = eta_localize_chart(chart)
        assert results == eta_localize_chart(chart, max_steps=10**9)
        assert len(results) == classes
        assert sum(r.status == LOCALIZATION_UNRESOLVED for r in results.values()) == unresolved


def test_eta_localize_chain_leaving_range_is_unresolved():
    # x sits at the edge of the ingested range outside the guaranteed region,
    # so its missing successor stem is lack of data, not a zero.
    results = eta_localize_chart(parse_chart(MINIMAL))
    x_res = results["x"]
    assert x_res.status == LOCALIZATION_UNRESOLVED and x_res.value is None


# One chart for each way a chain ends. Only c and g, with f = 3 and 4, lie in
# the guaranteed range s < 5f - 10. The unit's chain 1 -> a -> b -> c enters
# it at c and would go on to g; p's chain ends at q, and z has no edge, both
# before the last charted stem 4; d's chain ends at e on stem 4.
LOCALIZE_CHART = """# smax: 4
0 0 1 Z eta:a
1 1 a 2 eta:b
1 1 p 2 eta:q
2 2 b 2 eta:c
2 2 q 2
3 1 d 2 eta:e
3 1 z 4
3 3 c 2 eta:g
4 2 e 2
4 4 g 2
"""


def _localize(max_steps: int | None = None) -> dict[str, tuple[str, str | None, int]]:
    results = eta_localize_chart(parse_chart(LOCALIZE_CHART), max_steps=max_steps)
    return {name: (r.status, r.value.name if r.value else None, r.steps) for name, r in results.items()}


def test_eta_localize_stops_where_the_value_is_guaranteed():
    # at c, not at g one edge further; g is stable though nothing past it is charted
    res = _localize()
    assert res["1"] == (LOCALIZATION_STABLE, "c", 3)
    assert res["c"] == (LOCALIZATION_STABLE, "c", 0) and res["g"] == (LOCALIZATION_STABLE, "g", 0)


def test_eta_localize_is_zero_where_a_chain_ends_before_the_charts_last_stem():
    res = _localize()
    assert res["p"] == (LOCALIZATION_STABLE, None, 1)
    assert res["z"] == (LOCALIZATION_STABLE, None, 0)


def test_eta_localize_is_unresolved_where_a_chain_ends_on_the_charts_last_stem():
    res = _localize()
    assert res["d"] == (LOCALIZATION_UNRESOLVED, None, 1)
    assert res["e"] == (LOCALIZATION_UNRESOLVED, None, 0)


def test_eta_localize_is_unresolved_once_the_cap_is_reached():
    assert _localize(max_steps=2)["1"] == (LOCALIZATION_UNRESOLVED, None, 2)
    assert _localize(max_steps=3)["1"] == (LOCALIZATION_STABLE, "c", 3)


def test_eta_localize_with_no_steps_classifies_each_class_where_it_stands():
    # a guaranteed class, or one with no edge, ends its chain before the cap does
    res = _localize(max_steps=0)
    assert res["1"] == res["p"] == res["d"] == (LOCALIZATION_UNRESOLVED, None, 0)
    assert res["c"] == (LOCALIZATION_STABLE, "c", 0)
    assert res["z"] == (LOCALIZATION_STABLE, None, 0) and res["e"] == (LOCALIZATION_UNRESOLVED, None, 0)


def test_eta_localize_with_a_negative_cap_stops_at_once():
    assert _localize(max_steps=-1) == _localize(max_steps=-2) == _localize(max_steps=0)


@pytest.mark.parametrize(
    "classes, fragment",
    [
        pytest.param([ClassicalChartClass("1", 0, 0, 0, eta_edge="ghost")], "ghost", id="dangling-eta-edge"),
        pytest.param(
            [ClassicalChartClass("1", 0, 0, 0), ClassicalChartClass("x", 1, 1, 2), ClassicalChartClass("x", 3, 1, 4)],
            re.escape("['x']"),
            id="repeated-name",
        ),
        pytest.param(
            [ClassicalChartClass("1", 0, 0, 0), ClassicalChartClass("x", 1, 1, 3), ClassicalChartClass("y", 3, 1, -4)],
            r"'x' at \(1,1\): order 3 is neither 0 .*'y' at \(3,1\): order -4 is neither 0 \(2-adics\) nor a power of 2",
            id="order-not-a-group-order",
        ),
    ],
)
def test_chart_constructor_rejects_invalid_data(classes, fragment):
    # a chart built directly, not only a parsed one, holds its invariants
    with pytest.raises(ChartValidationError, match=fragment):
        ClassicalChart(classes=classes, s_max=3)


def test_parse_stems_basic():
    table = parse_stems("# provenance: test\n0 Z\n\n2 2,2\n4 0\n")
    assert table.provenance == "test"
    assert str(table.groups.get(0)) == "Z2"
    assert str(table.groups.get(2)) == "Z/2+Z/2"
    assert table.groups.get(4).is_trivial
    assert table.groups.get(1) is None
    assert table.s_max == 4
    assert parse_stems("").s_max == -1


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("0 Z\n0 2\n", "listed twice"),
        ("-3 2\n", "negative stem"),
        ("0 Z extra\n", "expected `s order"),
        ("0 5\n", "not a power of 2"),
        ("x Z\n", "non-integer stem"),
    ],
)
def test_parse_stems_errors(text, fragment):
    with pytest.raises(ChartParseError, match=fragment):
        parse_stems(text)


def test_serialize_stems_roundtrip(sample_stems):
    out = serialize_stems(sample_stems)
    again = parse_stems(out)
    assert again.groups == sample_stems.groups
    assert serialize_stems(again) == out
    assert "4 0" in out.splitlines()


def test_serialize_stems_of_an_empty_table_is_one_empty_line():
    assert serialize_stems(parse_stems("")) == "\n"
    assert serialize_stems(parse_stems("# provenance: none listed\n")) == "# provenance: none listed\n"
