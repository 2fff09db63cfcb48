"""Deterministic SVG and TSV renderings of the region picture.

Byte-identical output is a contract here: iteration orders are fixed, every
coordinate is an exact count of thousandths of a pixel, an int on the lattice
and a Fraction only at a boundary line's clip point, printed with exactly three
decimals (exact rounding, half to even), and the palette is hard coded.
Regenerating a chart from the same inputs must reproduce the committed golden
files bit for bit.

A document is joined once, from one piece per layer row or s-column, and the
join is returned as is: no per-cell line list stays alive until the join, and
no copy follows it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, groupby, product, repeat, takewhile
from operator import itemgetter
from typing import Iterable, Iterator

from .charts import MotivicLift, StemsTable
from .families import builtin_families
from .groups import summand_str
from .records import Record, _set
from .regions import RegionLabel, classify, resolve_group

REGION_FILL = {
    RegionLabel.ZERO: "#f2f2f2",
    RegionLabel.TAU_LOCAL: "#ffe8b3",
    RegionLabel.ETA_LOCAL: "#cfe3f7",
    RegionLabel.NOT_UNDERSTOOD: "#e3d1ee",
}

REGION_LEGEND = [
    (RegionLabel.TAU_LOCAL, "tau-local"),
    (RegionLabel.ETA_LOCAL, "eta-local"),
    (RegionLabel.NOT_UNDERSTOOD, "not understood"),
    (RegionLabel.ZERO, "zero"),
]

BOUNDARY_STYLE = [
    # (slope, intercept, stroke, label)
    (Fraction(1), Fraction(0), "#444444", "w = s"),
    (Fraction(3, 5), Fraction(1), "#b02e2e", "w = 3s/5 + 1"),
    (Fraction(1, 2), Fraction(1), "#1f7a3d", "w = s/2 + 1"),
]

FAMILY_PALETTE = ["#d42f2f", "#7a3fd1", "#1c8c4e", "#e08a00", "#0b66a8"]

MARGIN_LEFT = 56
MARGIN_TOP = 36
MARGIN_RIGHT = 20
MARGIN_BOTTOM = 44
LEGEND_HEIGHT = 30
REGION_SCALE = 20  # pixels per unit of a region chart unless a scale is given
MOTIVIC_SCALE = 24  # pixels per unit of a motivic chart unless a scale is given
# A coordinate in thousandths of a pixel is about 1000 * scale * (cells along its axis), so at this scale a
# chart within the CLI's 1,000,000-cell cap writes numbers of at most 16 digits, far below the 4,300-digit
# limit of Python's int-to-string conversion, which a larger scale could pass.
MAX_SCALE = 1_000_000


class RenderError(ValueError):
    pass


def _fmt_milli(n: Fraction | int) -> str:
    # n counts thousandths; round() of an int is the int, of a Fraction exact and half to even
    n = round(n)
    sign = "-" if n < 0 else ""
    n = abs(n)
    return f"{sign}{n // 1000}.{n % 1000:03d}"


def fmt3(x: Fraction | int) -> str:
    """Exactly three decimals, computed from the exact rational value."""
    return _fmt_milli(x * 1000)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;").replace('"', "&quot;")


class ChartStyle(Record):
    """Viewport and optional layers for the region chart, in chart units; ``scale`` is pixels per unit."""

    __slots__ = ("s_min", "s_max", "w_min", "w_max", "scale", "group_dots", "family_overlays")

    def __init__(
        self,
        s_min: int = -4,
        s_max: int = 24,
        w_min: int = -8,
        w_max: int = 26,
        scale: int = REGION_SCALE,
        group_dots: bool = False,
        family_overlays: tuple[str, ...] = (),
    ):
        bounds = {"s_min": s_min, "s_max": s_max, "w_min": w_min, "w_max": w_max, "scale": scale}
        odd = [f"{name}={value!r}" for name, value in bounds.items() if type(value) is not int]
        if odd:
            raise RenderError(f"chart bounds and scale must be ints, got {', '.join(odd)}")
        if s_min > s_max or w_min > w_max:
            raise RenderError(f"empty chart range: s in [{s_min},{s_max}], w in [{w_min},{w_max}]")
        if scale <= 0:
            raise RenderError(f"scale must be positive, got {scale}")
        if scale > MAX_SCALE:  # the message leaves out a value that may be too long to print
            raise RenderError(f"scale must be at most {MAX_SCALE:,} pixels per unit")
        known = {f.name for f in builtin_families()}
        unknown = [n for n in family_overlays if n not in known]
        if unknown:
            raise RenderError(f"unknown family overlays: {unknown}")
        for name, value in bounds.items():
            _set(self, name, value)
        _set(self, "group_dots", group_dots)
        _set(self, "family_overlays", family_overlays)


class _Canvas:
    """Pixel transforms for one style, in thousandths of a pixel: ints on the lattice, exact Fractions off it."""

    def __init__(self, style: ChartStyle):
        self.style = style
        self.plot_w = (style.s_max - style.s_min + 1) * style.scale
        self.plot_h = (style.w_max - style.w_min + 1) * style.scale
        self.width = MARGIN_LEFT + self.plot_w + MARGIN_RIGHT
        self.height = MARGIN_TOP + self.plot_h + MARGIN_BOTTOM + LEGEND_HEIGHT

    def x(self, s: Fraction | int) -> Fraction | int:
        # lattice point s sits in the middle of its unit cell
        return 1000 * MARGIN_LEFT + (1000 * (s - self.style.s_min) + 500) * self.style.scale

    def y(self, w: Fraction | int) -> Fraction | int:
        return 1000 * MARGIN_TOP + (1000 * (self.style.w_max - w) + 500) * self.style.scale

    def s_edges(self) -> tuple[Fraction, Fraction]:
        return Fraction(2 * self.style.s_min - 1, 2), Fraction(2 * self.style.s_max + 1, 2)

    def w_edges(self) -> tuple[Fraction, Fraction]:
        return Fraction(2 * self.style.w_min - 1, 2), Fraction(2 * self.style.w_max + 1, 2)


def _region_cells(canvas: _Canvas) -> list[str]:
    # one rect per horizontal run of equal region, top row first
    style = canvas.style
    out = []
    unit, half, height = 1000 * style.scale, 500 * style.scale, fmt3(style.scale)
    for w in range(style.w_max, style.w_min - 1, -1):
        x, y = canvas.x(style.s_min) - half, _fmt_milli(canvas.y(w) - half)  # the row's top left corner
        for label, run in groupby(map(classify, range(style.s_min, style.s_max + 1), repeat(w))):
            width = len(list(run)) * unit
            out.append(
                f'<rect x="{_fmt_milli(x)}" y="{y}" width="{_fmt_milli(width)}" height="{height}" '
                f'fill="{REGION_FILL[label]}"/>'
            )
            x += width
    return out


def _clip_line(
    slope: Fraction, intercept: Fraction, s_lo: Fraction, s_hi: Fraction, w_lo: Fraction, w_hi: Fraction
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]] | None:
    # segment of w = slope*s + intercept inside the rectangle, exact
    # arithmetic; every boundary line has a positive slope
    lo = max(s_lo, (w_lo - intercept) / slope)
    hi = min(s_hi, (w_hi - intercept) / slope)
    if lo > hi:
        return None
    return (lo, slope * lo + intercept), (hi, slope * hi + intercept)


def _boundary_layer(canvas: _Canvas) -> list[str]:
    out = []
    s_lo, s_hi = canvas.s_edges()
    w_lo, w_hi = canvas.w_edges()
    for slope, intercept, stroke, label in BOUNDARY_STYLE:
        seg = _clip_line(slope, intercept, max(s_lo, Fraction(0)), s_hi, w_lo, w_hi)
        if seg is None:
            continue
        (sa, wa), (sb, wb) = seg
        out.append(
            f'<line x1="{_fmt_milli(canvas.x(sa))}" y1="{_fmt_milli(canvas.y(wa))}" '
            f'x2="{_fmt_milli(canvas.x(sb))}" y2="{_fmt_milli(canvas.y(wb))}" '
            f'stroke="{stroke}" stroke-width="1.500"/>'
        )
        out.append(
            f'<text x="{_fmt_milli(canvas.x(sb) - 2000)}" y="{_fmt_milli(canvas.y(wb) - 6000)}" '
            f'font-size="11.000" text-anchor="end" fill="{stroke}">{_escape(label)}</text>'
        )
    # the vanishing boundary continues down the 0-stem ray
    if s_lo <= 0 <= s_hi and w_lo <= 0:
        top = min(Fraction(0), w_hi)
        out.append(
            f'<line x1="{_fmt_milli(canvas.x(0))}" y1="{_fmt_milli(canvas.y(top))}" '
            f'x2="{_fmt_milli(canvas.x(0))}" y2="{_fmt_milli(canvas.y(w_lo))}" '
            f'stroke="#444444" stroke-width="1.500"/>'
        )
    return out


def _axes_layer(canvas: _Canvas, vertical_label: str = "w") -> list[str]:
    style = canvas.style
    out = []
    x0, x1 = MARGIN_LEFT, MARGIN_LEFT + canvas.plot_w
    y0, y1 = MARGIN_TOP, MARGIN_TOP + canvas.plot_h
    out.append(
        f'<rect x="{fmt3(x0)}" y="{fmt3(y0)}" width="{fmt3(canvas.plot_w)}" '
        f'height="{fmt3(canvas.plot_h)}" fill="none" stroke="#888888" stroke-width="1.000"/>'
    )
    for s in range(style.s_min, style.s_max + 1):
        if s % 5 == 0:
            out.append(
                f'<text x="{_fmt_milli(canvas.x(s))}" y="{fmt3(y1 + 16)}" font-size="10.000" '
                f'text-anchor="middle" fill="#333333">{s}</text>'
            )
    for w in range(style.w_min, style.w_max + 1):
        if w % 5 == 0:
            out.append(
                f'<text x="{fmt3(x0 - 8)}" y="{_fmt_milli(canvas.y(w) + 3000)}" font-size="10.000" '
                f'text-anchor="end" fill="#333333">{w}</text>'
            )
    out.append(
        f'<text x="{fmt3(x1 + 4)}" y="{fmt3(y1 + 16)}" font-size="12.000" '
        f'text-anchor="start" fill="#000000">s</text>'
    )
    out.append(
        f'<text x="{fmt3(x0 - 8)}" y="{fmt3(y0 - 10)}" font-size="12.000" '
        f'text-anchor="end" fill="#000000">{_escape(vertical_label)}</text>'
    )
    return out


def _legend_layer(canvas: _Canvas) -> list[str]:
    out = []
    y = MARGIN_TOP + canvas.plot_h + MARGIN_BOTTOM
    x = MARGIN_LEFT
    for label, text in REGION_LEGEND:
        out.append(
            f'<rect x="{fmt3(x)}" y="{fmt3(y)}" width="14.000" height="14.000" '
            f'fill="{REGION_FILL[label]}" stroke="#888888" stroke-width="0.500"/>'
        )
        out.append(
            f'<text x="{fmt3(x + 19)}" y="{fmt3(y + 11)}" font-size="11.000" '
            f'text-anchor="start" fill="#333333">{_escape(text)}</text>'
        )
        x += 19 + 9 * len(text) + 18
    return out


def _dot_layer(canvas: _Canvas, stems_table: StemsTable | None) -> list[str]:
    # x depends only on s and y only on w: format each once, not once per cell.
    # One piece per nonempty s-column, so no dot's string outlives its column
    style = canvas.style
    out = []
    r = _fmt_milli(180 * style.scale)
    rows = [(w, _fmt_milli(canvas.y(w)), _fmt_milli(canvas.y(w) + 3000)) for w in range(style.w_min, style.w_max + 1)]
    not_understood = RegionLabel.NOT_UNDERSTOOD
    for s in range(style.s_min, style.s_max + 1):
        cx = _fmt_milli(canvas.x(s))
        column = []
        for w, cy, text_y in rows:
            value = resolve_group(s, w, stems_table)
            if value.region is not_understood:
                column.append(
                    f'<text x="{cx}" y="{text_y}" font-size="10.000" '
                    f'text-anchor="middle" fill="#7a3fd1">?</text>'
                )
            elif value.descriptor is None:
                column.append(
                    f'<circle cx="{cx}" cy="{cy}" r="{r}" '
                    f'fill="none" stroke="#222222" stroke-width="1.000"/>'
                )
            elif not value.descriptor.is_trivial:
                column.append(f'<circle cx="{cx}" cy="{cy}" r="{r}" fill="#222222"/>')
        if column:
            out.append("\n".join(column))
    return out


def _family_layer(canvas: _Canvas) -> list[str]:
    style = canvas.style
    out = []
    families = {f.name: f for f in builtin_families()}
    r = _fmt_milli(300 * style.scale)
    for idx, name in enumerate(style.family_overlays):
        fam = families[name]
        color = FAMILY_PALETTE[idx % len(FAMILY_PALETTE)]
        # a family advances the stem or is the tau tower, which descends in
        # weight, so its members end past s_max or, for the tau tower, below w_min
        members = takewhile(
            lambda p: p.s <= style.s_max and (fam.period.s != 0 or p.w >= style.w_min), map(fam.bidegree, count())
        )
        shown = [p for p in members if style.s_min <= p.s <= style.s_max and style.w_min <= p.w <= style.w_max]
        out.extend(
            f'<circle cx="{_fmt_milli(canvas.x(p.s))}" cy="{_fmt_milli(canvas.y(p.w))}" r="{r}" '
            f'fill="none" stroke="{color}" stroke-width="1.500"/>'
            for p in shown
        )
        if shown:
            out.append(
                f'<text x="{_fmt_milli(canvas.x(shown[0].s) + 6000)}" y="{_fmt_milli(canvas.y(shown[0].w) - 6000)}" '
                f'font-size="10.000" text-anchor="start" fill="{color}">{_escape(name)}</text>'
            )
    return out


def _document(canvas: _Canvas, title: str, layers: list[tuple[str, list[str]]]) -> str:
    """The SVG element, its title and white background, then one group per (id, pieces) layer."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{canvas.width}" height="{canvas.height}" '
        f'viewBox="0 0 {canvas.width} {canvas.height}">',
        f"<title>{title}</title>",
        f'<rect x="0.000" y="0.000" width="{fmt3(canvas.width)}" height="{fmt3(canvas.height)}" fill="#ffffff"/>',
    ]
    for layer_id, pieces in layers:
        parts.append(f'<g id="{layer_id}">')
        parts.extend(pieces)
        parts.append("</g>")
    parts += ["</svg>", ""]  # the empty last part ends the text with a newline
    return "\n".join(parts)


def region_chart_svg(style: ChartStyle | None = None, stems_table: StemsTable | None = None) -> str:
    """Region chart of the (s, w) plane, drawn to scale.

    Lattice cells are shaded by region, the three boundary lines are drawn
    from exactly computed endpoints, and an optional dot layer marks each
    lattice point with its resolved group (blank, dot, open dot, or ?).
    """
    style = style or ChartStyle()
    canvas = _Canvas(style)
    layers = [
        ("regions", _region_cells(canvas)),
        ("axes", _axes_layer(canvas)),
        ("boundaries", _boundary_layer(canvas)),
    ]
    if style.group_dots:
        layers.append(("groups", _dot_layer(canvas, stems_table)))
    if style.family_overlays:
        layers.append(("families", _family_layer(canvas)))
    layers.append(("legend", _legend_layer(canvas)))
    return _document(canvas, "Region structure of the motivic stable stems over C", layers)


def bidegree_window(s_min: int, s_max: int, w_min: int, w_max: int) -> Iterator[tuple[int, int]]:
    """Lattice rectangle, each cell once, in (s, w) order."""
    if s_min > s_max or w_min > w_max:
        raise RenderError(f"empty window: s in [{s_min},{s_max}], w in [{w_min},{w_max}]")
    return product(range(s_min, s_max + 1), range(w_min, w_max + 1))


def groups_tsv(window: Iterable[tuple[int, int]], stems_table: StemsTable | None = None) -> str:
    """One row per (s, w), in the window's order and unsorted: region, group, and generator."""
    pieces = ["# s\tw\tregion\tgroup\tgenerator"]
    # one piece per run of cells with the same s, so only one run's rows are
    # alive at a time. Runs of cells also share one value object (the zero and
    # not-understood constants, a stem's memoized tau-local value): format
    # each such run once
    last = tail = None
    for s, cells in groupby(window, itemgetter(0)):
        rows = []
        for _, w in cells:
            value = resolve_group(s, w, stems_table)
            if value is not last:
                last = value
                tail = f"{value.region.value}\t{value.group_str}\t{value.generator_str}"
            rows.append(f"{s}\t{w}\t{tail}")
        pieces.append("\n".join(rows))
    pieces.append("")  # ends the text with a newline
    return "\n".join(pieces)


def motivic_chart_style(lift: MotivicLift, scale: int = MOTIVIC_SCALE) -> ChartStyle:
    """The default window of a motivic chart: s and f both in 0..s_max+1 of the lift's chart."""
    n = lift.chart.s_max + 1
    return ChartStyle(s_min=0, s_max=n, w_min=0, w_max=n, scale=scale)


def motivic_chart_svg(lift: MotivicLift, style: ChartStyle | None = None) -> str:
    """Adams-style (s, f) chart of a motivic lift.

    The vertical axis reuses the style's w range as the filtration range, and
    the style defaults to ``motivic_chart_style(lift)``. Each class is a dot
    whose tooltip (an SVG title element) records its weight tower: the class
    exists in all weights w <= (s+f)/2. Eta edges are drawn as diagonal
    segments.
    """
    style = style or motivic_chart_style(lift)
    canvas = _Canvas(style)
    in_range = [
        c
        for c in lift.chart.classes
        if style.s_min <= c.s <= style.s_max and style.w_min <= c.f <= style.w_max
    ]
    # classes sharing (s, f) are spread by name; chart.at lists them in name order
    positions: dict[str, tuple[str, str]] = {}
    for s, f in dict.fromkeys((c.s, c.f) for c in in_range):
        siblings = lift.chart.at(s, f)
        y = _fmt_milli(canvas.y(f))
        for i, c in enumerate(siblings):
            positions[c.name] = (_fmt_milli(canvas.x(s) + 220 * (2 * i - (len(siblings) - 1)) * style.scale), y)
    edges = []
    for c in in_range:
        if c.eta_edge and c.eta_edge in positions:
            x1, y1 = positions[c.name]
            x2, y2 = positions[c.eta_edge]
            edges.append(
                f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
                f'stroke="#999999" stroke-width="1.000"/>'
            )
    dots = []
    r = _fmt_milli(160 * style.scale)
    for c in in_range:
        x, y = positions[c.name]
        top = lift.w_top[c.name]
        label = _escape(f"{c.name}: w <= {top}")
        dots.append(
            f'<circle cx="{x}" cy="{y}" r="{r}" fill="#1d3f8f">'
            f"<title>{label} ({_escape(summand_str(c.order))})</title></circle>"
        )
    layers = [("axes", _axes_layer(canvas, vertical_label="f")), ("eta-edges", edges), ("classes", dots)]
    return _document(canvas, "Motivic lift of a classical Adams-Novikov chart", layers)
