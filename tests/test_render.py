"""Deterministic SVG and TSV rendering."""

from __future__ import annotations

import hashlib
import tracemalloc
import xml.etree.ElementTree as ET
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems.charts import lift_to_motivic, parse_chart
from motivic_stems import render
from motivic_stems.families import builtin_families
from motivic_stems.regions import RegionLabel, classify, resolve_group
from motivic_stems.render import (
    FAMILY_PALETTE,
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


@given(st.fractions())
def test_fmt3_is_the_nearest_thousandth(x):
    # exact: the printed value is within half a thousandth, and a tie goes to the even count
    n = Fraction(fmt3(x)) * 1000
    assert n.denominator == 1
    assert abs(n - 1000 * x) < Fraction(1, 2) or (abs(n - 1000 * x) == Fraction(1, 2) and n % 2 == 0)


def test_chart_style_validation():
    with pytest.raises(RenderError, match="empty chart range"):
        ChartStyle(s_min=5, s_max=4, w_min=0, w_max=1)
    with pytest.raises(RenderError, match="scale must be positive"):
        ChartStyle(scale=0)
    with pytest.raises(RenderError, match="scale must be at most 1,000,000"):
        ChartStyle(scale=render.MAX_SCALE + 1)
    ChartStyle(scale=render.MAX_SCALE)
    with pytest.raises(RenderError, match="unknown family overlays"):
        ChartStyle(family_overlays=("nope",))
    ChartStyle(family_overlays=("eta_powers", "tau_powers"))  # all builtin names pass
    # a fractional bound would fail later in range(), and the scale counts whole pixels per unit
    for field in ("s_min", "s_max", "w_min", "w_max", "scale"):
        for value in (0.5, 2.0, True, "3"):
            with pytest.raises(RenderError, match=f"must be ints, got {field}={value!r}"):
                ChartStyle(**{field: value})


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

    # a stem that comes back after another stem keeps its place
    calls.clear()
    out = groups_tsv([(2, 1), (0, 0), (2, 2)], stems_table=sample_stems)
    assert out.splitlines()[1:] == ["2\t1\tTauLocal\tZ/2\t-", "0\t0\tTauLocal\tZ2\t1", "2\t2\tTauLocal\tZ/2\t-"]
    assert calls == [(2, 1), (0, 0), (2, 2)]

    calls.clear()
    assert groups_tsv([], stems_table=sample_stems) == "# s\tw\tregion\tgroup\tgenerator\n"
    assert calls == []


# the atlas benchmark's window: the renders join their text once, from one
# piece per s-column, so the peak is about the pieces plus the joined text
# (2.0x); a list with one string per cell, or a copy after the join, reads
# 3.7x for the chart and 5.5x for the TSV
ATLAS_WINDOW = (-4, 200, -100, 200)


@pytest.mark.parametrize(
    "render_call",
    [
        lambda stems: region_chart_svg(ChartStyle(*ATLAS_WINDOW, group_dots=True), stems_table=stems),
        lambda stems: groups_tsv(bidegree_window(*ATLAS_WINDOW), stems_table=stems),
    ],
    ids=["regions", "groups"],
)
def test_renders_allocate_little_beyond_their_text(sample_stems, render_call):
    # the peak of what the call allocates above what is held when it starts
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        text = render_call(sample_stems)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), f"peak {peak} bytes for {len(text)} characters"


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


SVG = "{http://www.w3.org/2000/svg}"
ALL_OVERLAYS = ("Pk_h1_4", "w1_family", "Pk_h1", "eta_powers", "tau_powers")


def _layer(svg: str, layer_id: str) -> list:
    (group,) = [g for g in ET.fromstring(svg).iter(f"{SVG}g") if g.get("id") == layer_id]
    return list(group)


@given(
    st.integers(-30, 30),
    st.integers(0, 12),
    st.integers(-30, 30),
    st.integers(0, 12),
    st.integers(1, 41),
)
def test_region_chart_coordinates_match_an_exact_oracle(sample_stems, s_min, s_len, w_min, w_len, scale):
    # every position restated from the chart's definition in Fractions:
    # the lattice point (s, w) sits at x = 56 + (s - s_min + 1/2)*scale,
    # y = 36 + (w_max + 1/2 - w)*scale, and its cell spans scale/2 either side
    s_max, w_max = min(30, s_min + s_len), min(30, w_min + w_len)
    style = ChartStyle(
        s_min=s_min, s_max=s_max, w_min=w_min, w_max=w_max, scale=scale, group_dots=True, family_overlays=ALL_OVERLAYS
    )
    svg = region_chart_svg(style, stems_table=sample_stems)
    half = Fraction(1, 2)

    def x(s):
        return 56 + (s - s_min + half) * scale

    def y(w):
        return 36 + (w_max + half - w) * scale

    cells = []
    for w in range(w_max, w_min - 1, -1):
        s = s_min
        while s <= s_max:
            end = s
            while end + 1 <= s_max and classify(end + 1, w) is classify(s, w):
                end += 1
            edges = {"x": fmt3(x(s) - half * scale), "y": fmt3(y(w) - half * scale)}
            size = {"width": fmt3((end - s + 1) * scale), "height": fmt3(scale)}
            cells.append(("rect", {**edges, **size, "fill": REGION_FILL[classify(s, w)]}))
            s = end + 1
    assert [(e.tag[len(SVG):], e.attrib) for e in _layer(svg, "regions")] == cells

    # each boundary line w = m*s + b, s >= 0, from where it enters the plot to where it leaves it
    s_lo, s_hi, w_lo, w_hi = s_min - half, s_max + half, w_min - half, w_max + half
    lines = []
    for m, b in [(1, 0), (Fraction(3, 5), 1), (Fraction(1, 2), 1)]:
        lo, hi = max(s_lo, 0, (w_lo - b) / m), min(s_hi, (w_hi - b) / m)
        if lo <= hi:
            lines.append(tuple(map(fmt3, (x(lo), y(m * lo + b), x(hi), y(m * hi + b)))))
    if s_lo <= 0 <= s_hi and w_lo <= 0:  # the 0-stem ray
        lines.append(tuple(map(fmt3, (x(0), y(min(0, w_hi)), x(0), y(w_lo)))))
    ends = ("x1", "y1", "x2", "y2")
    assert [tuple(map(e.get, ends)) for e in _layer(svg, "boundaries") if e.tag == f"{SVG}line"] == lines

    r = fmt3(Fraction(18, 100) * scale)
    dots = []
    for s in range(s_min, s_max + 1):
        for w in range(w_min, w_max + 1):
            value = resolve_group(s, w, sample_stems)
            if value.region is RegionLabel.NOT_UNDERSTOOD:
                dots.append(("text", fmt3(x(s)), fmt3(y(w) + 3), None))
            elif value.descriptor is None or not value.descriptor.is_trivial:
                dots.append(("circle", fmt3(x(s)), fmt3(y(w)), r))
    seen = [
        ("text", e.get("x"), e.get("y"), None)
        if e.tag == f"{SVG}text"
        else ("circle", e.get("cx"), e.get("cy"), e.get("r"))
        for e in _layer(svg, "groups")
    ]
    assert seen == dots

    # each overlay's members in the window, in k order, the first one labelled;
    # no member past k = 63 is in a window within |s|, |w| <= 30, since each
    # step raises the stem or, on the tau tower, lowers the weight
    families = {f.name: f for f in builtin_families()}
    marks = []
    for color, name in zip(FAMILY_PALETTE, ALL_OVERLAYS):
        members = map(families[name].bidegree, range(64))
        shown = [p for p in members if s_min <= p.s <= s_max and w_min <= p.w <= w_max]
        marks += [("circle", fmt3(x(p.s)), fmt3(y(p.w)), fmt3(Fraction(3, 10) * scale), color) for p in shown]
        marks += [("text", fmt3(x(p.s) + 6), fmt3(y(p.w) - 6), name, color) for p in shown[:1]]
    seen = [
        ("text", e.get("x"), e.get("y"), e.text, e.get("fill"))
        if e.tag == f"{SVG}text"
        else ("circle", e.get("cx"), e.get("cy"), e.get("r"), e.get("stroke"))
        for e in _layer(svg, "families")
    ]
    assert seen == marks


@given(
    st.integers(1, 41),
    st.integers(-2, 3),
    st.integers(0, 6),
    st.integers(-2, 3),
    st.integers(0, 6),
    st.lists(st.integers(0, 6), min_size=6, max_size=6),
)
def test_motivic_chart_offsets_match_an_exact_oracle(scale, s_min, s_len, f_min, f_len, counts):
    # classes sharing (s, f) sit at s + 22*(2i - (n - 1))/100 in name order
    bidegrees = [(1, 1), (2, 2), (3, 1), (3, 3), (4, 2), (5, 1)]
    lines = ["# smax: 5", "0 0 1 Z"]
    for (s, f), n in zip(bidegrees, counts):
        lines += [f"{s} {f} c{s}_{f}_{i} 2" for i in range(n)]
    lift = lift_to_motivic(parse_chart("\n".join(lines) + "\n"))
    s_max, f_max = s_min + s_len, f_min + f_len
    svg = motivic_chart_svg(lift, ChartStyle(s_min=s_min, s_max=s_max, w_min=f_min, w_max=f_max, scale=scale))

    expected = {}
    for (s, f), n in [((0, 0), 1), *zip(bidegrees, counts)]:
        if not (s_min <= s <= s_max and f_min <= f <= f_max):
            continue
        names = sorted(c.name for c in lift.chart.classes if (c.s, c.f) == (s, f))
        for i, name in enumerate(names):
            offset = Fraction(22 * (2 * i - (n - 1)), 100)
            x = 56 + (s - s_min + Fraction(1, 2) + offset) * scale
            y = 36 + (f_max + Fraction(1, 2) - f) * scale
            expected[name] = (fmt3(x), fmt3(y), fmt3(Fraction(16, 100) * scale))
    seen = {
        e.find(f"{SVG}title").text.split(":")[0]: (e.get("cx"), e.get("cy"), e.get("r"))
        for e in _layer(svg, "classes")
    }
    assert seen == expected


# SHA-256 of renders beyond the golden files' two windows and scales: small and
# odd scales, every layer, a TSV window with every region
@pytest.mark.parametrize(
    "scale, digest",
    [
        (3, "3c178f01b69b54c0e309fc1501c36b3a3b6bc07862b15ea584a69fa66ae70a71"),
        (7, "7c286d517e6aaa4ccf908b8f4ce1dd4ae9c26b868cb48fa87dddb81caa251424"),
        (13, "d6c443df2dd7d5fef481d0aec8d3888588d5cc0a3873b328e14af006c3d4c946"),
    ],
)
def test_region_chart_bytes_are_pinned(sample_stems, scale, digest):
    style = ChartStyle(s_min=-7, s_max=31, w_min=-9, w_max=30, scale=scale, group_dots=True, family_overlays=ALL_OVERLAYS)
    svg = region_chart_svg(style, stems_table=sample_stems)
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "scale, digest",
    [
        (3, "7eeb120127f45bdb3776cf020ca9ac4567f32b948a802e7106ff6e41f11d7c52"),
        (7, "2fe43797f0c32482e6844f04d2f68b069a6004f9c3c6ca957184755d857e7074"),
    ],
)
def test_motivic_chart_bytes_are_pinned(sample_chart, scale, digest):
    svg = motivic_chart_svg(lift_to_motivic(sample_chart), ChartStyle(s_min=0, s_max=15, w_min=0, w_max=15, scale=scale))
    assert hashlib.sha256(svg.encode()).hexdigest() == digest


def test_groups_tsv_bytes_are_pinned(sample_stems):
    tsv = groups_tsv(bidegree_window(-4, 60, -30, 60), stems_table=sample_stems)
    assert hashlib.sha256(tsv.encode()).hexdigest() == "9f73f6d4e78537434879f122006bfec6285b2da769c330ee17708954fa98df79"
