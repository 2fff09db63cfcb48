"""Deterministic SVG and TSV rendering."""

from __future__ import annotations

import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems.charts import lift_to_motivic, parse_chart
from motivic_stems import render
from motivic_stems.regions import resolve_group
from motivic_stems.render import (
    REGION_FILL,
    ChartStyle,
    RenderError,
    bidegree_window,
    fmt3,
    groups_tsv,
    motivic_chart_svg,
    region_chart_svg,
)


@pytest.mark.parametrize(
    "value, text",
    [
        (Fraction(1, 8), "0.125"),
        (Fraction(-7, 2), "-3.500"),
        (2, "2.000"),
        (0, "0.000"),
        (Fraction(1, 3), "0.333"),
        (Fraction(-1, 3), "-0.333"),
        (Fraction(1, 16), "0.062"),  # ties round to even, no float involved
    ],
)
def test_fmt3(value, text):
    assert fmt3(value) == text


def test_chart_style_validation():
    with pytest.raises(RenderError, match="empty chart range"):
        ChartStyle(s_min=5, s_max=4, w_min=0, w_max=1)
    with pytest.raises(RenderError, match="scale must be positive"):
        ChartStyle(scale=0)
    with pytest.raises(RenderError, match="unknown family overlays"):
        ChartStyle(family_overlays=("nope",))
    ChartStyle(family_overlays=("eta_powers", "tau_powers"))  # all builtin names pass


def test_region_chart_is_deterministic_and_well_formed(sample_stems):
    style = ChartStyle(s_min=-2, s_max=12, w_min=-4, w_max=13, group_dots=True, family_overlays=("eta_powers",))
    svg = region_chart_svg(style, stems_table=sample_stems)
    assert svg == region_chart_svg(style, stems_table=sample_stems)
    assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
    ET.fromstring(svg)  # well-formed XML
    for gid in ("regions", "axes", "boundaries", "groups", "families", "legend"):
        assert f'<g id="{gid}">' in svg
    for fill in REGION_FILL.values():
        assert fill in svg
    assert "eta_powers" in svg
    assert "w = 3s/5 + 1" in svg

    # an odd scale; by hand, x = 56 + (s + 1/2)*7, y = 36 + (15 + 1/2 - w)*7, r = 7*18/100
    odd = ChartStyle(s_min=0, s_max=22, w_min=0, w_max=15, scale=7, group_dots=True)
    svg = region_chart_svg(odd, stems_table=sample_stems)
    assert (  # (20, 13) is not understood; the ? sits 3 px below the lattice point
        '<text x="199.500" y="56.500" font-size="10.000" text-anchor="middle" fill="#7a3fd1">?</text>' in svg
    )
    assert (  # (21, 0) is tau-local past the sample table's last stem: an open circle
        '<circle cx="206.500" cy="144.500" r="1.260" fill="none" stroke="#222222" stroke-width="1.000"/>' in svg
    )
    assert '<circle cx="94.500" cy="109.500" r="1.260" fill="#222222"/>' in svg  # (5, 5), eta^5


def test_region_chart_layers_can_be_switched_off(sample_stems):
    # the dots layer is the one that switches; regions and boundaries are always drawn
    off = region_chart_svg(ChartStyle(s_min=0, s_max=4, w_min=0, w_max=4))
    on = region_chart_svg(ChartStyle(s_min=0, s_max=4, w_min=0, w_max=4, group_dots=True), stems_table=sample_stems)
    for svg in (off, on):
        assert '<g id="regions">' in svg
        assert '<g id="boundaries">' in svg
    assert '<g id="groups">' not in off  # dots default to off
    assert '<g id="groups">' in on


def test_bidegree_window():
    assert list(bidegree_window(0, 1, 0, 1)) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(RenderError, match="empty window"):
        list(bidegree_window(1, 0, 0, 0))


@given(st.integers(-5, 5), st.integers(0, 6), st.integers(-5, 5), st.integers(0, 6))
def test_bidegree_window_is_strictly_increasing(s_min, s_len, w_min, w_len):
    # groups_tsv writes rows in the window's order and does not sort or dedupe
    cells = list(bidegree_window(s_min, s_min + s_len, w_min, w_min + w_len))
    assert all(a < b for a, b in zip(cells, cells[1:]))
    assert len(cells) == (s_len + 1) * (w_len + 1)


def test_groups_tsv_rows(sample_stems):
    out = groups_tsv(bidegree_window(-1, 7, -1, 5), stems_table=sample_stems)
    lines = out.splitlines()
    assert lines[0] == "# s\tw\tregion\tgroup\tgenerator"
    assert "0\t0\tTauLocal\tZ2\t1" in lines
    assert "3\t1\tTauLocal\tZ/8\t-" in lines
    assert "7\t4\tTauLocal\tZ/16\t-" in lines
    assert "5\t5\tEtaLocal\tZ/2\teta^5" in lines
    assert "-1\t-1\tZero\t0\t-" in lines
    data = lines[1:]
    assert data == sorted(data, key=lambda row: (int(row.split("\t")[0]), int(row.split("\t")[1])))
    assert len(data) == 9 * 7


def test_groups_tsv_accepts_custom_resolver(sample_stems, monkeypatch):
    calls = []

    def counting(s, w, table):
        calls.append((s, w))
        return resolve_group(s, w, table)

    monkeypatch.setattr(render, "resolve_group", counting)  # the module global, as the bench tracer patches it
    out = groups_tsv([(2, 1), (0, 0)], stems_table=sample_stems)
    # one row per cell, in the order given
    assert out.splitlines()[1:] == ["2\t1\tTauLocal\tZ/2\t-", "0\t0\tTauLocal\tZ2\t1"]
    assert calls == [(2, 1), (0, 0)]


def test_motivic_chart_tooltips(sample_chart):
    lift = lift_to_motivic(sample_chart)
    style = ChartStyle(s_min=0, s_max=15, w_min=0, w_max=15, scale=24)
    svg = motivic_chart_svg(lift, style)
    assert svg == motivic_chart_svg(lift, style)
    ET.fromstring(svg)
    assert "<title>alpha1: w &lt;= 1 (Z/2)</title>" in svg
    assert "<title>1: w &lt;= 0 (Z2)</title>" in svg
    assert "<title>alpha2/2: w &lt;= 2 (Z/4)</title>" in svg
    assert svg.count("<line ") >= 13  # eta-edge segments along the alpha1 spine
    assert '<g id="eta-edges">' in svg and '<g id="classes">' in svg


def test_motivic_chart_spreads_classes_sharing_a_bidegree():
    chart = parse_chart(
        "# smax: 2\n"
        "0 0 1 Z\n"
        "2 2 c 2\n"
        "2 2 a 2\n"
        "2 2 b 4\n"
    )
    svg = motivic_chart_svg(lift_to_motivic(chart), ChartStyle(s_min=0, s_max=2, w_min=0, w_max=2, scale=24))
    cx = {
        circle.find("{http://www.w3.org/2000/svg}title").text.split(":")[0]: circle.get("cx")
        for circle in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}circle")
    }
    # 56 + (2 + 1/2 + 22*(2i - 2)/100)*24 for i = 0, 1, 2 in name order; a lone class is not shifted
    assert cx == {"1": "68.000", "a": "105.440", "b": "116.000", "c": "126.560"}


def test_motivic_chart_default_style(sample_chart):
    svg = motivic_chart_svg(lift_to_motivic(sample_chart))
    ET.fromstring(svg)
    assert "alpha1^9*alpha3" in svg
