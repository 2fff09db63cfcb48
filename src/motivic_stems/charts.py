"""Classical Adams-Novikov chart data and its motivic consequences.

Chart files are line oriented: ``s f name order [eta:target]``, with ``#``
comments. The order token is ``Z`` for an order-zero class (a 2-adic summand)
or a power of 2; ``eta:target`` names the class at (s+1, f+1) hit by
multiplication by alpha1. Two magic comments carry metadata and survive a
round trip: ``# provenance: ...`` and ``# smax: N``.

Stems files are line oriented too: ``s order[,order...]`` where each order is
``Z`` or a power of 2, and a single ``0`` denotes the trivial group. The same
``# provenance:`` comment applies.

Everything downstream of a chart is mechanical: the motivic lift places a
classical class at (s, f) in all weights w <= (s+f)/2, the homotopy of the
cofiber of tau at (s, w) is the classical entry at (s, 2w-s), and
eta-localization follows eta-edge chains to a stable value where the data
suffices.
"""

from __future__ import annotations

import collections
from collections.abc import Iterable
from itertools import groupby
from typing import NamedTuple

from .groups import TRIVIAL_GROUP, GroupDescriptor, is_power_of_two
from .records import Record, _set
from .resources import SAMPLE_CHART_FILE, SAMPLE_STEMS_FILE, read_data_text


class ChartError(ValueError):
    pass


# These two keep their constructor's arguments as args, so that a pickle round
# trip (a verify suite that fails in a worker process) rebuilds them.
class ChartParseError(ChartError):
    def __init__(self, lineno: int, message: str):
        super().__init__(lineno, message)
        self.lineno = lineno

    def __str__(self) -> str:
        return f"line {self.lineno}: {self.args[1]}"


class ChartValidationError(ChartError):
    def __init__(self, violations: list[str]):
        super().__init__(violations)
        self.violations = violations

    def __str__(self) -> str:
        return "chart violates structural invariants: " + "; ".join(self.violations)


class StemRangeError(ChartError):
    """Stem outside the ingested range; distinct from a zero group."""


class LiftError(ChartError):
    """Classes with odd s+f admit no motivic lift of this shape."""


class ClassicalChartClass(Record):
    __slots__ = ("name", "s", "f", "order", "eta_edge")

    def __init__(self, name: str, s: int, f: int, order: int, eta_edge: str | None = None):
        _set(self, "name", name)
        _set(self, "s", s)
        _set(self, "f", f)
        _set(self, "order", order)  # 0 for a 2-adic summand, else a power of 2
        _set(self, "eta_edge", eta_edge)


class ClassicalChart(Record, compared=("classes", "s_max", "provenance")):
    """Classes of a classical Adams-Novikov E2 chart through stem s_max.

    ``classes`` is kept as a tuple in canonical (s, f, name) order, so
    equality does not depend on the order the classes were given in. The
    chart and its lookups are immutable, so they always match ``classes``.
    A chart that breaks a structural invariant is never built: the
    constructor raises ChartValidationError listing every violation.
    """

    __slots__ = ("classes", "s_max", "provenance", "_by_name", "_by_bidegree")

    def __init__(self, classes: Iterable[ClassicalChartClass], s_max: int, provenance: str = ""):
        classes = tuple(sorted(classes, key=lambda c: (c.s, c.f, c.name)))
        _set(self, "classes", classes)
        _set(self, "s_max", s_max)
        _set(self, "provenance", provenance)
        _set(self, "_by_name", {c.name: c for c in classes})
        _set(self, "_by_bidegree", {k: tuple(g) for k, g in groupby(classes, lambda c: (c.s, c.f))})
        violations = self._violations()
        if violations:
            raise ChartValidationError(violations)

    def _violations(self) -> list[str]:
        """Structural invariants; returns human-readable violations, empty if clean."""
        violations = []
        if len(self._by_name) < len(self.classes):
            repeated = sorted(name for name, n in collections.Counter(c.name for c in self.classes).items() if n > 1)
            violations.append(f"class names used more than once: {repeated}")
        unit_classes = [c for c in self.at(0, 0) if c.order == 0]
        if len(unit_classes) != 1 or len(self.at(0, 0)) != 1:
            violations.append("bidegree (0,0) must hold exactly one class of order 0 (the unit)")
        for c in self.classes:
            where = f"class {c.name!r} at ({c.s},{c.f})"
            if c.s < 0:
                violations.append(f"{where}: negative stem")
            if c.f < 0:
                violations.append(f"{where}: negative filtration")
            if c.f == 0 and (c.s, c.f) != (0, 0):
                violations.append(f"{where}: filtration 0 is only allowed at (0,0)")
            if c.s > self.s_max:
                violations.append(f"{where}: stem exceeds declared range s <= {self.s_max}")
            if c.order != 0 and not is_power_of_two(c.order):
                violations.append(f"{where}: order {c.order} is neither 0 (2-adics) nor a power of 2 >= 2")
            if c.eta_edge is not None:
                target = self.by_name(c.eta_edge)
                if target is None:
                    violations.append(f"{where}: eta-edge target {c.eta_edge!r} does not exist")
                elif (target.s, target.f) != (c.s + 1, c.f + 1):
                    violations.append(
                        f"{where}: eta-edge target {c.eta_edge!r} sits at ({target.s},{target.f}), "
                        f"expected ({c.s + 1},{c.f + 1})"
                    )
        return violations

    def by_name(self, name: str) -> ClassicalChartClass | None:
        return self._by_name.get(name)

    def at(self, s: int, f: int) -> tuple[ClassicalChartClass, ...]:
        return self._by_bidegree.get((s, f), ())

    def group_at(self, s: int, f: int) -> GroupDescriptor:
        # an empty bidegree shares the one trivial descriptor
        classes = self.at(s, f)
        return GroupDescriptor(tuple(c.order for c in classes)) if classes else TRIVIAL_GROUP


def _parse_order_token(token: str, lineno: int) -> int:
    if token == "Z":
        return 0
    try:
        n = int(token)
    except ValueError:
        raise ChartParseError(lineno, f"order token {token!r} is neither Z nor an integer") from None
    if not is_power_of_two(n):
        raise ChartParseError(lineno, f"order {n} is not a power of 2 >= 2")
    return n


def _order_token(n: int) -> str:
    return "Z" if n == 0 else str(n)


def parse_chart(text: str) -> ClassicalChart:
    """Parse a chart file; structural violations raise ChartValidationError."""
    classes: list[ClassicalChartClass] = []
    provenance = ""
    declared_smax: int | None = None
    seen_names: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("provenance:"):
                provenance = body[len("provenance:") :].strip()
            elif body.startswith("smax:"):
                try:
                    declared_smax = int(body[len("smax:") :].strip())
                except ValueError:
                    raise ChartParseError(lineno, f"bad smax directive {stripped!r}") from None
            continue
        line = stripped.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) not in (4, 5):
            raise ChartParseError(lineno, f"expected `s f name order [eta:target]`, got {raw!r}")
        try:
            s, f = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ChartParseError(lineno, f"non-integer bidegree in {raw!r}") from None
        name = tokens[2]
        order = _parse_order_token(tokens[3], lineno)
        eta_edge = None
        if len(tokens) == 5:
            if not tokens[4].startswith("eta:"):
                raise ChartParseError(lineno, f"trailing token {tokens[4]!r} is not an eta: edge")
            eta_edge = tokens[4][len("eta:") :]
            if not eta_edge:
                raise ChartParseError(lineno, "empty eta: target name")
        if name in seen_names:
            raise ChartParseError(lineno, f"class name {name!r} already used on line {seen_names[name]}")
        seen_names[name] = lineno
        classes.append(ClassicalChartClass(name=name, s=s, f=f, order=order, eta_edge=eta_edge))
    s_max = declared_smax if declared_smax is not None else max((c.s for c in classes), default=0)
    return ClassicalChart(classes=classes, s_max=s_max, provenance=provenance)


def serialize_chart(chart: ClassicalChart) -> str:
    """Canonical form: metadata comments, then classes in (s, f, name) order."""
    lines = []
    if chart.provenance:
        lines.append(f"# provenance: {chart.provenance}")
    lines.append(f"# smax: {chart.s_max}")
    for c in chart.classes:
        tail = f" eta:{c.eta_edge}" if c.eta_edge else ""
        lines.append(f"{c.s} {c.f} {c.name} {_order_token(c.order)}{tail}")
    lines.append("")  # ends the text with a newline
    return "\n".join(lines)


class MotivicLift(Record):
    """Motivic lift of a chart: each class spans the weights w <= (s+f)/2."""

    __slots__ = ("chart", "w_top")

    def __init__(self, chart: ClassicalChart, w_top: dict[str, int]):
        _set(self, "chart", chart)
        _set(self, "w_top", w_top)  # class name -> (s + f) / 2, the top of its tau tower


def lift_to_motivic(chart: ClassicalChart) -> MotivicLift:
    """Lift every classical class to its tau tower of motivic weights.

    A class at (s, f) appears at every weight w <= (s+f)/2. Classes with
    s + f odd have no weight to live in and are rejected.
    """
    odd = [c for c in chart.classes if (c.s + c.f) % 2]
    if odd:
        listing = ", ".join(f"{c.name!r} at ({c.s},{c.f})" for c in odd)
        raise LiftError(f"classes with odd s+f cannot be lifted: {listing}")
    return MotivicLift(chart=chart, w_top={c.name: (c.s + c.f) // 2 for c in chart.classes})


def ctau_homotopy(chart: ClassicalChart, s: int, w: int) -> GroupDescriptor:
    """Homotopy of the cofiber of tau at (s, w): the classical entry at (s, 2w-s).

    Zero when 2w-s < 0 or the entry is empty. Raises StemRangeError when the
    stem falls outside the ingested chart range; that is lack of data, not a
    zero group.
    """
    if s < 0 or s > chart.s_max:
        raise StemRangeError(f"stem {s} outside ingested range 0..{chart.s_max}")
    f = 2 * w - s
    if f < 0:
        return TRIVIAL_GROUP
    return chart.group_at(s, f)


LOCALIZATION_STABLE = "STABLE"
LOCALIZATION_UNRESOLVED = "UNRESOLVED"


def localization_guaranteed(s: int, f: int) -> bool:
    """Range where eta-localization changes nothing: s < 5f - 10."""
    return s < 5 * f - 10


class LocalizationResult(NamedTuple):
    cls: ClassicalChartClass
    status: str  # STABLE or UNRESOLVED
    value: ClassicalChartClass | None  # stabilized class; None means localizes to zero
    steps: int


def eta_localize_chart(chart: ClassicalChart, max_steps: int | None = None) -> dict[str, LocalizationResult]:
    """Follow eta-edge chains to compute the eta-localization of each class.

    Results are keyed by class name, in the chart's (s, f, name) order.

    A chain is STABLE once it enters the guaranteed range s < 5f - 10 (the
    entry there is the localized value) or once it hits a class with no
    outgoing edge whose successor bidegree is still inside the chart range
    (the localization is zero). A chain that leaves the ingested range or
    exceeds max_steps first is UNRESOLVED. None means no cap: each eta edge
    raises the stem by one, so a chain ends within s_max - s steps.
    """
    return {cls.name: _eta_localize(chart, cls, max_steps) for cls in chart.classes}


def _eta_localize(chart: ClassicalChart, cls: ClassicalChartClass, max_steps: int | None) -> LocalizationResult:
    cur, steps = cls, 0
    while not localization_guaranteed(cur.s, cur.f) and cur.eta_edge is not None and (max_steps is None or steps < max_steps):
        cur, steps = chart.by_name(cur.eta_edge), steps + 1
    if localization_guaranteed(cur.s, cur.f):
        return LocalizationResult(cls, LOCALIZATION_STABLE, cur, steps)
    if cur.eta_edge is None and cur.s < chart.s_max:
        return LocalizationResult(cls, LOCALIZATION_STABLE, None, steps)
    return LocalizationResult(cls, LOCALIZATION_UNRESOLVED, None, steps)


class StemsTable(Record):
    """2-primary classical stable stems: stem -> group, with provenance."""

    __slots__ = ("groups", "provenance")

    def __init__(self, groups: dict[int, GroupDescriptor], provenance: str = ""):
        _set(self, "groups", groups)
        _set(self, "provenance", provenance)

    @property
    def s_max(self) -> int:
        return max(self.groups, default=-1)


def parse_stems(text: str) -> StemsTable:
    groups: dict[int, GroupDescriptor] = {}
    provenance = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if stripped.startswith("#"):
            body = stripped[1:].strip()
            if body.startswith("provenance:"):
                provenance = body[len("provenance:") :].strip()
            continue
        line = stripped.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if len(tokens) != 2:
            raise ChartParseError(lineno, f"expected `s order[,order...]`, got {raw!r}")
        try:
            s = int(tokens[0])
        except ValueError:
            raise ChartParseError(lineno, f"non-integer stem in {raw!r}") from None
        if s < 0:
            raise ChartParseError(lineno, f"negative stem {s}")
        if s in groups:
            raise ChartParseError(lineno, f"stem {s} listed twice")
        order_tokens = tokens[1].split(",")
        if order_tokens == ["0"]:
            groups[s] = TRIVIAL_GROUP  # `0` is the trivial group
        else:
            groups[s] = GroupDescriptor(tuple(_parse_order_token(t, lineno) for t in order_tokens))
    return StemsTable(groups=groups, provenance=provenance)


def serialize_stems(table: StemsTable) -> str:
    lines = []
    if table.provenance:
        lines.append(f"# provenance: {table.provenance}")
    for s in sorted(table.groups):
        g = table.groups[s]
        if g.is_trivial:
            lines.append(f"{s} 0")
        else:
            lines.append(f"{s} " + ",".join(map(_order_token, g.summands)))
    lines.append("")  # ends the text with a newline; an empty table is one empty line
    return "\n".join(lines) or "\n"


def load_sample_chart() -> ClassicalChart:
    return parse_chart(read_data_text(SAMPLE_CHART_FILE))


def load_sample_stems() -> StemsTable:
    return parse_stems(read_data_text(SAMPLE_STEMS_FILE))
