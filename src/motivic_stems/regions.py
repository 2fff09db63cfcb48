"""Four-region structure of the motivic stable stems pi_{s,w} over C, 2-complete.

Every integer bidegree (s, w) lands in exactly one region:

* Zero: s < 0 or w > s, where the groups vanish.
* TauLocal: the 0-stem ray (s = 0, w <= 0) and, for s > 0, all w <= s/2 + 1;
  there the group equals the classical 2-complete stem (tau acts invertibly).
* EtaLocal: s > 0 and 3s/5 + 1 < w <= s; there the group is read off from the
  eta-inverted homotopy ring F2[eta^(+-1), sigma, mu9] / sigma^2 with
  |eta| = (1,1), |sigma| = (7,4), |mu9| = (9,5).
* NotUnderstood: the wedge in between.

All boundary comparisons are exact; halves and fifths are cleared by cross
multiplication so no floating point is involved anywhere.
"""

from __future__ import annotations

import enum
import functools
from typing import NamedTuple

from .charts import StemsTable
from .groups import TRIVIAL_GROUP, Z2_ADIC, Z_MOD_2, GroupDescriptor


class RegionLabel(enum.Enum):
    ZERO = "Zero"
    TAU_LOCAL = "TauLocal"
    ETA_LOCAL = "EtaLocal"
    NOT_UNDERSTOOD = "NotUnderstood"

    def __str__(self) -> str:
        return self.value


# bound once: looking a member up on the Enum class is slow on Python 3.10 and 3.11
_ZERO = RegionLabel.ZERO
_TAU_LOCAL = RegionLabel.TAU_LOCAL
_ETA_LOCAL = RegionLabel.ETA_LOCAL
_NOT_UNDERSTOOD = RegionLabel.NOT_UNDERSTOOD


def classify(s: int, w: int) -> RegionLabel:
    """Region of the bidegree (s, w); total and single-valued by construction."""
    if s < 0 or w > s:
        return _ZERO
    if 2 * w <= s + 2:  # w <= s/2 + 1; at s = 0 this is the whole ray w <= 0
        return _TAU_LOCAL
    if 5 * w > 3 * s + 5:  # w > 3s/5 + 1
        return _ETA_LOCAL
    return _NOT_UNDERSTOOD


def adams_weak_bound(s: int, w: int) -> bool:
    """Eta-locality bound w >= 3s/4 + 1 obtained from Adams filtration arguments.

    Strictly weaker than the 5w > 3s + 5 boundary actually used by classify:
    for s >= 0 every bidegree satisfying this bound already lies in the
    eta-local region (or above the vanishing line w = s).
    """
    return 4 * w >= 3 * s + 4


class GroupValue(NamedTuple):
    """Resolved value of pi_{s,w}, carrying the region that decided it.

    ``descriptor`` is the group where it is known: everywhere in the zero and
    eta-local regions, and in the tau-local region on the 0-stem ray and where
    the stems table lists the stem. A tau-local value without one holds the
    classical ``stem`` it reduces to; a not-understood value holds neither.
    """

    region: RegionLabel
    descriptor: GroupDescriptor | None = None
    generator: str = ""
    stem: int | None = None

    @property
    def group_str(self) -> str:
        if self.descriptor is not None:
            return str(self.descriptor)
        if self.stem is not None:
            return f"pi_{self.stem}"
        return "?"

    @property
    def generator_str(self) -> str:
        return self.generator if self.generator else "-"


_TRIVIAL_VALUE = GroupValue(_ZERO, TRIVIAL_GROUP)
_ETA_TRIVIAL_VALUE = GroupValue(_ETA_LOCAL, TRIVIAL_GROUP)
_UNKNOWN_VALUE = GroupValue(_NOT_UNDERSTOOD)


def _eta_generator(a: int, eps: int, b: int) -> str:
    parts = []
    if a != 0:
        parts.append("eta" if a == 1 else f"eta^{a}")
    if eps:
        parts.append("sigma")
    if b != 0:
        parts.append("mu9" if b == 1 else f"mu9^{b}")
    return "*".join(parts) if parts else "1"


def eta_local_group(s: int, w: int) -> GroupValue:
    """Group at (s, w) read off from F2[eta^(+-1), sigma, mu9] / sigma^2.

    A monomial eta^a sigma^eps mu9^b sits in bidegree (a + 7 eps + 9 b,
    a + 4 eps + 5 b), so it lands on (s, w) exactly when 3 eps + 4 b = s - w
    with eps in {0, 1} and b >= 0; a is then forced. Since s - w cannot be
    congruent to both 0 and 3 mod 4, at most one monomial fits and every
    nonzero group is Z/2.
    """
    d = s - w
    if d >= 0 and d % 4 == 0:
        b = d // 4
        return GroupValue(_ETA_LOCAL, Z_MOD_2, _eta_generator(s - 9 * b, 0, b))
    if d >= 3 and d % 4 == 3:
        b = (d - 3) // 4
        return GroupValue(_ETA_LOCAL, Z_MOD_2, _eta_generator(s - 7 - 9 * b, 1, b))
    return _ETA_TRIVIAL_VALUE


@functools.cache
def _tau_local_value(s: int, entry: GroupDescriptor | None) -> GroupValue:
    # memoized on every input, so a stems table edited in place cannot serve a stale value
    return GroupValue(_TAU_LOCAL, entry) if entry is not None else GroupValue(_TAU_LOCAL, stem=s)


def resolve_group(s: int, w: int, stems_table: StemsTable | None = None) -> GroupValue:
    """Resolve pi_{s,w} as far as the region structure determines it.

    The value carries its region, ``classify(s, w)``, so a caller that needs
    both classifies once. Zero region: the trivial group. The 0-stem ray: Z2 generated by the
    matching power of tau. Tau-local: the classical 2-complete stem, looked up
    verbatim in the table when present, otherwise reported as reducible to the
    classical stem. Eta-local: read off the eta-inverted ring. NotUnderstood:
    unknown.
    """
    label = classify(s, w)
    if label is _ZERO:
        return _TRIVIAL_VALUE
    if label is _TAU_LOCAL:
        if s == 0:
            k = -w
            generator = "1" if k == 0 else ("tau" if k == 1 else f"tau^{k}")
            return GroupValue(_TAU_LOCAL, Z2_ADIC, generator)
        return _tau_local_value(s, stems_table.groups.get(s) if stems_table is not None else None)
    if label is _ETA_LOCAL:
        return eta_local_group(s, w)
    return _UNKNOWN_VALUE
