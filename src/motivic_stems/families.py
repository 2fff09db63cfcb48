"""Named element families, periodicity operators, and the May E1 census.

These are data, not computations: each family is a base tridegree plus an
integer period, and the boundary lines they populate witness that the region
boundaries cannot be improved. Exact rational slopes and intercepts come from
fractions.Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .algebra import Bidegree, Tridegree, is_tridegree
from .charts import StemsTable
from .records import Record, _set


class FamilyError(ValueError):
    pass


class FamilySpec(Record):
    """Arithmetic progression of elements: member k sits at base + k * period.

    ``annihilated_by`` is "tau", "eta" or "none".
    """

    __slots__ = ("name", "base", "period", "annihilated_by", "note")

    def __init__(self, name: str, base: Tridegree, period: Tridegree, annihilated_by: str, note: str = ""):
        if annihilated_by not in ("tau", "eta", "none"):
            raise FamilyError(f"annihilated_by must be tau, eta, or none, got {annihilated_by!r}")
        if not (is_tridegree(base) and is_tridegree(period)):
            raise FamilyError(
                f"family {name!r}: base and period must be Tridegrees of three ints, got {base!r} and {period!r}"
            )
        if period.s <= 0 and period != (0, 0, -1):
            raise FamilyError(f"family {name!r}: period must advance the stem, or be the tau tower (0,0,-1)")
        _set(self, "name", name)
        _set(self, "base", base)
        _set(self, "period", period)
        _set(self, "annihilated_by", annihilated_by)
        _set(self, "note", note)

    def member(self, k: int) -> Tridegree:
        if k < 0:
            raise FamilyError(f"family index must be >= 0, got {k}")
        return self.base + k * self.period

    def bidegree(self, k: int) -> Bidegree:
        return self.member(k).bidegree()


def builtin_families() -> list[FamilySpec]:
    """The five families populating the boundary lines of the region picture."""
    return [
        FamilySpec(
            name="Pk_h1_4",
            base=Tridegree(4, 4, 4),
            period=Tridegree(8, 4, 4),
            annihilated_by="tau",
            note="tau-torsion family on the line w = s/2 + 2, one above the tau-local boundary",
        ),
        FamilySpec(
            name="w1_family",
            base=Tridegree(9, 3, 6),
            period=Tridegree(20, 4, 12),
            annihilated_by="eta",
            note="eta-torsion family on the line w = 3s/5 + 3/5, just below the eta-local boundary",
        ),
        FamilySpec(
            name="Pk_h1",
            base=Tridegree(1, 1, 1),
            period=Tridegree(8, 4, 4),
            annihilated_by="none",
            note="eta-local elements on the line w = s/2 + 1/2, below the eta-local region",
        ),
        FamilySpec(
            name="eta_powers",
            base=Tridegree(1, 1, 1),
            period=Tridegree(1, 1, 1),
            annihilated_by="none",
            note="powers of eta on the top line w = s; the upper vanishing boundary is sharp",
        ),
        FamilySpec(
            name="tau_powers",
            base=Tridegree(0, 0, -1),
            period=Tridegree(0, 0, -1),
            annihilated_by="none",
            note="powers of tau filling the 0-stem ray s = 0, w <= 0",
        ),
    ]


# A non-nilpotent element is known in this bidegree; it and all of its powers
# sit in the not-understood wedge, on a ray of slope 9/16 that matches no vn
# or wn periodicity line.
EXOTIC_NONNILPOTENT = Bidegree(32, 18)

# Conjectural: elements above a line of this slope through the origin region
# should all be eta- or w1-periodic. No classification here depends on it.
SPECULATIVE_W2_SLOPE = Fraction(7, 13)


def family_line(name: str) -> tuple[Fraction, Fraction]:
    """Exact (slope, intercept) of the family's line in the (s, w) plane.

    Derived from base and period, so every member lies on it; the tau tower
    is vertical and has no slope, which is an error here.
    """
    family = next((f for f in builtin_families() if f.name == name), None)
    if family is None:
        raise FamilyError(f"unknown family {name!r}")
    if family.period.s == 0:
        raise FamilyError(f"family {name!r} moves vertically; no slope in the (s, w) plane")
    slope = Fraction(family.period.w, family.period.s)
    intercept = Fraction(family.base.w) - slope * family.base.s
    return slope, intercept


def vn_bidegree(n: int, k: int) -> Bidegree:
    """Bidegree k * (2^(n+1) - 2, 2^n - 1) of vn-periodicity, slope 1/2 for all n >= 1."""
    if n < 1:
        raise FamilyError("v0 periodicity is degenerate in this indexing; need n >= 1")
    if k < 0:
        raise FamilyError(f"power must be >= 0, got {k}")
    return k * Bidegree(2 ** (n + 1) - 2, 2 ** n - 1)


def wn_bidegree(n: int, k: int) -> Bidegree:
    """Bidegree k * (2^(n+2) - 3, 2^(n+1) - 1) of wn-periodicity; w0 steps by (1, 1)."""
    if n < 0:
        raise FamilyError(f"need n >= 0, got {n}")
    if k < 0:
        raise FamilyError(f"power must be >= 0, got {k}")
    return k * Bidegree(2 ** (n + 2) - 3, 2 ** (n + 1) - 1)


def wn_slope(n: int) -> Fraction:
    """Slope of the wn line: strictly decreasing in n, always above 1/2."""
    step = wn_bidegree(n, 1)
    return Fraction(step.w, step.s)


class MayGenerator(NamedTuple):
    """Generator h_{i,j} of the motivic May E1 page, with its stem and weight."""

    i: int
    j: int
    stem: int
    weight: int

    @classmethod
    def make(cls, i: int, j: int) -> MayGenerator:
        if i < 1 or j < 0:
            raise FamilyError(f"need i >= 1 and j >= 0, got ({i},{j})")
        stem = 2 ** j * (2 ** i - 1) - 1
        return cls(i, j, stem, (stem + 1) // 2)

    @property
    def name(self) -> str:
        return f"h{self.i},{self.j}"


def may_e1_counts(max_stem: int) -> list[int]:
    """How many h_{i,j} have stem <= max_stem, for i = 1, 2, ... while any do, counted from bit lengths."""
    n = max(max_stem + 1, 0)
    return [(n // (2 ** i - 1)).bit_length() for i in range(1, (n + 1).bit_length())]


def may_e1_generators(max_stem: int) -> list[MayGenerator]:
    """All May E1 generators with stem <= max_stem, sorted by (stem, i, j).

    Every generator satisfies weight <= stem, which is what forces the motivic
    stable stems to vanish above the line w = s.
    """
    gens = [MayGenerator.make(i, j) for i, count in enumerate(may_e1_counts(max_stem), start=1) for j in range(count)]
    return sorted(gens, key=lambda g: (g.stem, g.i, g.j))


def sharpness_report(stems_table: StemsTable | None = None) -> str:
    """Text summary of which boundary each family witnesses as sharp."""
    lines = []
    boundary = {
        "Pk_h1_4": "sits distance 1 above the tau-local boundary w = s/2 + 1, so its slope 1/2 is sharp",
        "w1_family": "sits distance 2/5 below the eta-local boundary w = 3s/5 + 1, so its slope 3/5 is sharp",
        "Pk_h1": "stays eta-local in low weight, below the region where that is guaranteed",
        "eta_powers": "realizes the top line w = s, so the vanishing boundary cannot move down",
        "tau_powers": "fills the ray s = 0, w <= 0, so the vanishing boundary cannot move right",
    }
    for fam in builtin_families():
        slope_txt = ""
        if fam.period.s != 0:
            slope, intercept = family_line(fam.name)
            slope_txt = f" on w = {slope}*s {'+' if intercept >= 0 else '-'} {abs(intercept)}"
        extra = ""
        if stems_table is not None and fam.base.s in stems_table.groups:
            extra = f" (classical stem {fam.base.s}: {stems_table.groups[fam.base.s]})"
        lines.append(f"{fam.name}{slope_txt}: {boundary[fam.name]}{extra}")
    lines.append(
        f"exotic: a non-nilpotent element at {EXOTIC_NONNILPOTENT} whose powers all stay "
        f"in the not understood region, on a ray matching no periodicity line"
    )
    lines.append(
        f"speculative: slope {SPECULATIVE_W2_SLOPE} line (w2-periodic boundary), unproven; nothing here relies on it"
    )
    return "\n".join(lines)
