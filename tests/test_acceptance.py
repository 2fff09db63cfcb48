"""Acceptance gate: ten exact criteria, one test and one pass/fail line each.

Each test prints `criterion N (name): PASS|FAIL` and then asserts. Where a
criterion is a large scan, the test pins the scan parameters to the frozen
module constants and reads the corresponding suite's lines from the session's
one `verify` run; where it is small, the expected answer is re-derived
inline, independent of the library code under test.
"""

from __future__ import annotations

import itertools
import time
from fractions import Fraction

import pytest

from motivic_stems import verify
from motivic_stems.algebra import Window
from motivic_stems.charts import (
    ChartValidationError,
    ctau_homotopy,
    eta_localize_chart,
    load_sample_chart,
    load_sample_stems,
    parse_chart,
    parse_stems,
    serialize_chart,
    serialize_stems,
)
from motivic_stems.families import SPECULATIVE_W2_SLOPE, family_line, may_e1_generators, wn_slope
from motivic_stems.regions import RegionLabel, classify
from motivic_stems.render import bidegree_window, groups_tsv, region_chart_svg
from motivic_stems.resources import read_data_text
from motivic_stems.spectral import localized_motivic_anss, run_to_einfty


def _gate(n: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {n} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {n} ({name}) failed{': ' + detail if detail else ''}"


def _suite(verify_output, name: str) -> tuple[bool, str]:
    # the suite's PASS/FAIL lines from the session's one `verify` run
    _, out = verify_output
    lines = [line for line in out.splitlines() if line.startswith((f"PASS {name}.", f"FAIL {name}."))]
    failed = [line for line in lines if line.startswith("FAIL ")]
    return bool(lines) and not failed, "; ".join(failed)


def test_criterion_01_einfty_reproduction():
    # Expected survivors, written down directly: no tau, even alpha3 power.
    presentation, diffs = localized_motivic_anss()
    bounds = {"tau": (0, 8), "alpha1": (-12, 12), "alpha3": (0, 6), "alpha4": (0, 1)}
    assert verify.EINFTY_WINDOW == bounds
    window = Window.from_dict(presentation, bounds)
    start = time.monotonic()
    state = run_to_einfty(presentation, diffs, window)
    elapsed = time.monotonic() - start
    expected = set()
    for a, c, e in itertools.product(range(-12, 13), range(4), range(2)):
        m = presentation.monomial(alpha1=a, alpha3=2 * c, alpha4=e)
        expected.add((presentation.degree(m), frozenset((m,))))
    computed = {(t, cl) for t, cls in state.valid_classes().items() for cl in cls}
    _gate(
        1,
        "einfty reproduction",
        len(expected) == 200 and computed == expected and elapsed < 5.0,
        f"{len(computed)} computed vs {len(expected)} expected in {elapsed:.2f}s",
    )


def test_criterion_02_dd_zero_and_leibniz(verify_output):
    assert verify.LEIBNIZ_PAIR_SAMPLES == 10_000
    ok, detail = _suite(verify_output, "leibniz")
    _gate(2, "d.d = 0 and Leibniz", ok, detail)


def test_criterion_03_region_partition(verify_output):
    assert verify.PARTITION_RADIUS == 1000
    triple = (
        classify(20, 13) is RegionLabel.NOT_UNDERSTOOD
        and classify(20, 14) is RegionLabel.ETA_LOCAL
        and classify(10, 4) is RegionLabel.TAU_LOCAL
    )
    ok, detail = _suite(verify_output, "partition")
    _gate(3, "region partition", triple and ok, detail)


def test_criterion_04_eta_local_groups(verify_output):
    assert verify.ETA_SCAN_MAX_STEM == 10_000
    ok, detail = _suite(verify_output, "etalocal")
    _gate(4, "eta-local groups", ok, detail)


def test_criterion_05_vanishing(verify_output):
    assert verify.MAY_MAX_STEM == 1000 and verify.ZERO_SAMPLE_COUNT == 10_000
    census_ok = all(0 <= g.weight <= g.stem for g in may_e1_generators(1000))
    ok, detail = _suite(verify_output, "vanishing")
    _gate(5, "vanishing region", census_ok and ok, detail)


def test_criterion_06_ctau_vanishing_band(verify_output):
    chart = load_sample_chart()
    band_ok = str(ctau_homotopy(chart, 0, 0)) == "Z2"
    for s in range(1, chart.s_max + 1):
        for w in range(-5, s // 2 + 1):  # w <= s/2; below w = -5 the same f < 0 branch answers
            band_ok = band_ok and ctau_homotopy(chart, s, w).is_trivial
    ok, detail = _suite(verify_output, "ctau")
    _gate(6, "Ctau vanishing band", band_ok and ok, detail)


def test_criterion_07_localization_guarantee(verify_output):
    chart = load_sample_chart()
    results = eta_localize_chart(chart)
    guaranteed = [c for c in chart.classes if c.s < 5 * c.f - 10]
    stable_ok = bool(guaranteed)
    for cls in guaranteed:
        res = results[cls.name]
        stable_ok = stable_ok and res.cls is cls and res.status == "STABLE" and res.value is cls and res.steps == 0
    ok, detail = _suite(verify_output, "localization")
    _gate(7, "localization guarantee", stable_ok and ok, detail)


def test_criterion_08_family_lines(verify_output):
    line_ok = family_line("Pk_h1_4") == (Fraction(1, 2), Fraction(2)) and family_line(
        "w1_family"
    ) == (Fraction(3, 5), Fraction(3, 5))
    slopes = [wn_slope(n) for n in range(21)]
    wn_ok = (
        all(a > b for a, b in zip(slopes, slopes[1:]))
        and all(s > Fraction(1, 2) for s in slopes)
        and wn_slope(2) == SPECULATIVE_W2_SLOPE == Fraction(7, 13)
    )
    ok, detail = _suite(verify_output, "families")
    _gate(8, "family lines", line_ok and wn_ok and ok, detail)


def test_criterion_09_data_roundtrip(verify_output):
    chart_text = read_data_text("sample_chart.txt")
    stems_text = read_data_text("stems.txt")
    identity_ok = (
        serialize_chart(parse_chart(chart_text)) == chart_text
        and serialize_stems(parse_stems(stems_text)) == stems_text
    )
    rejected = 0
    for name in ("missing_unit", "bad_eta_edge", "filtration_zero"):
        with pytest.raises(ChartValidationError):
            parse_chart(read_data_text(f"fixtures/{name}.txt"))
        rejected += 1
    ok, detail = _suite(verify_output, "roundtrip")
    _gate(9, "data round-trip", identity_ok and rejected == 3 and ok, detail)


def test_criterion_10_deterministic_golden_output(verify_output):
    stems = load_sample_stems()
    svg = region_chart_svg(verify.GOLDEN_REGIONS_STYLE, stems_table=stems)
    tsv = groups_tsv(bidegree_window(*verify.GOLDEN_GROUPS_WINDOW), stems_table=stems)
    inline_ok = (
        svg == region_chart_svg(verify.GOLDEN_REGIONS_STYLE, stems_table=stems)
        and tsv == groups_tsv(bidegree_window(*verify.GOLDEN_GROUPS_WINDOW), stems_table=stems)
        and svg == read_data_text("golden/regions.svg")
        and tsv == read_data_text("golden/groups.tsv")
    )
    ok, detail = _suite(verify_output, "golden")
    _gate(10, "deterministic golden output", inline_ok and ok, detail)
