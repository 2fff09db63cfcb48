"""Exact degree arithmetic and monomial bases for graded monomial algebras over F2.

An algebra is presented by a finite ordered list of generators, each carrying a
(stem, filtration, weight) tridegree and optional flags: ``invertible`` allows
negative exponents, ``square_zero`` caps the exponent at 1 and kills higher
powers. Coefficients always live in the two-element field, so a polynomial is
just a set of monomials and arithmetic is exact integer arithmetic throughout.
Degrees and monomials are named tuples: they order, hash and unpack as tuples,
while ``+``, ``-`` and integer ``*`` on degrees act coordinatewise.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass, field
from itertools import product
from typing import Any, NamedTuple


class PresentationError(ValueError):
    """Malformed presentation, window, or monomial data."""


class PresentationMismatchError(PresentationError):
    """Monomial or generator name does not belong to this presentation."""


class Tridegree(NamedTuple):
    """Degree triple (stem s, filtration f, motivic weight w)."""

    s: int
    f: int
    w: int

    def __add__(self, other: Tridegree) -> Tridegree:
        return Tridegree(self.s + other.s, self.f + other.f, self.w + other.w)

    def __sub__(self, other: Tridegree) -> Tridegree:
        return Tridegree(self.s - other.s, self.f - other.f, self.w - other.w)

    def __mul__(self, k: int) -> Tridegree:
        return Tridegree(self.s * k, self.f * k, self.w * k)

    __rmul__ = __mul__

    def bidegree(self) -> Bidegree:
        """The chart coordinate (s, w), dropping the filtration."""
        return Bidegree(self.s, self.w)

    def as_tuple(self) -> tuple[int, int, int]:
        """The plain (s, f, w) tuple."""
        return (self.s, self.f, self.w)

    def __str__(self) -> str:
        return f"({self.s},{self.f},{self.w})"


class Bidegree(NamedTuple):
    """Chart coordinate (stem s, motivic weight w)."""

    s: int
    w: int

    def __mul__(self, k: int) -> Bidegree:
        return Bidegree(self.s * k, self.w * k)

    __rmul__ = __mul__

    def __str__(self) -> str:
        return f"({self.s},{self.w})"


@dataclass(frozen=True)
class GeneratorSpec:
    """One algebra generator: name, tridegree, and exponent discipline."""

    name: str
    degree: Tridegree
    invertible: bool = False
    square_zero: bool = False

    def __post_init__(self) -> None:
        if not self.name or any(ch.isspace() for ch in self.name):
            raise PresentationError(f"generator name {self.name!r} must be non-empty without spaces")
        if self.invertible and self.square_zero:
            raise PresentationError(f"generator {self.name!r} cannot be both invertible and square-zero")


class Monomial(NamedTuple):
    """Exponent vector over a presentation's generators, in declaration order."""

    exponents: tuple[int, ...]


@dataclass(frozen=True)
class MonomialAlgebraPresentation:
    """Ordered generator list defining a graded monomial algebra over F2."""

    generators: tuple[GeneratorSpec, ...]
    _index: dict = field(default=None, compare=False, repr=False, hash=False)

    def __init__(self, generators: Iterable[GeneratorSpec]):
        object.__setattr__(self, "generators", tuple(generators))
        names = [g.name for g in self.generators]
        dupes = {n for n in names if names.count(n) > 1}
        if dupes:
            raise PresentationError(f"duplicate generator names: {sorted(dupes)}")
        object.__setattr__(self, "_index", {g.name: i for i, g in enumerate(self.generators)})

    def index_of(self, name: str) -> int:
        """Position of the named generator; an unknown name raises ``PresentationMismatchError``."""
        try:
            return self._index[name]
        except KeyError:
            raise PresentationMismatchError(f"unknown generator name {name!r}") from None

    def monomial(self, **exponents: int) -> Monomial:
        """Build a monomial from keyword exponents; unnamed generators get 0."""
        exps = [0] * len(self.generators)
        for name, e in exponents.items():
            exps[self.index_of(name)] = e
        m = Monomial(tuple(exps))
        self.validate_monomial(m)
        return m

    def validate_monomial(self, m: Monomial) -> None:
        """Raise unless m has one exponent per generator, negative only if invertible, at most 1 if square-zero."""
        if len(m.exponents) != len(self.generators):
            raise PresentationMismatchError(
                f"monomial has {len(m.exponents)} exponents, presentation has {len(self.generators)} generators"
            )
        for g, e in zip(self.generators, m.exponents):
            if e < 0 and not g.invertible:
                raise PresentationError(f"negative exponent {e} on non-invertible generator {g.name!r}")
            if g.square_zero and e > 1:
                raise PresentationError(f"exponent {e} on square-zero generator {g.name!r}")

    def degree(self, m: Monomial) -> Tridegree:
        """Tridegree of a monomial: integer linear combination of generator degrees."""
        self.validate_monomial(m)
        s = f = w = 0
        for g, e in zip(self.generators, m.exponents):
            s += e * g.degree.s
            f += e * g.degree.f
            w += e * g.degree.w
        return Tridegree(s, f, w)

    def multiply(self, m1: Monomial, m2: Monomial) -> Monomial | None:
        """Product of two monomials, or None when a square-zero power vanishes."""
        self.validate_monomial(m1)
        self.validate_monomial(m2)
        exps = tuple(a + b for a, b in zip(m1.exponents, m2.exponents))
        # both factors are valid, so their sum can break only a square-zero cap
        return None if any(e > 1 and g.square_zero for g, e in zip(self.generators, exps)) else Monomial(exps)

    def monomial_str(self, m: Monomial) -> str:
        """The monomial as ``name^e`` factors joined by ``*``, or ``1`` for the unit."""
        parts = []
        for g, e in zip(self.generators, m.exponents):
            if e == 0:
                continue
            parts.append(g.name if e == 1 else f"{g.name}^{e}")
        return "*".join(parts) if parts else "1"

    def sum_str(self, terms: Iterable[Monomial]) -> str:
        """A formal sum as its sorted monomials joined by ``+``, or ``0`` when empty."""
        ordered = sorted(terms)
        return " + ".join(self.monomial_str(m) for m in ordered) if ordered else "0"

    @classmethod
    def parse(cls, text: str) -> MonomialAlgebraPresentation:
        """Parse a presentation config: one `name s f w [invertible] [square_zero]` per line."""
        gens = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 4:
                raise PresentationError(f"line {lineno}: expected `name s f w [flags]`, got {raw!r}")
            name = tokens[0]
            try:
                s, f, w = (int(t) for t in tokens[1:4])
            except ValueError:
                raise PresentationError(f"line {lineno}: non-integer degree in {raw!r}") from None
            flags = tokens[4:]
            unknown = [t for t in flags if t not in ("invertible", "square_zero")]
            if unknown:
                raise PresentationError(f"line {lineno}: unknown flags {unknown}")
            gens.append(
                GeneratorSpec(
                    name,
                    Tridegree(s, f, w),
                    invertible="invertible" in flags,
                    square_zero="square_zero" in flags,
                )
            )
        return cls(gens)


@dataclass(frozen=True)
class Window:
    """Inclusive per-generator exponent bounds, in generator declaration order.

    Bounds must be finite for every generator; the constraints of the
    presentation (non-negativity, square-zero caps) are intersected in on use,
    so a loose declared bound is harmless.
    """

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        pairs = isinstance(self.bounds, tuple) and all(
            isinstance(b, tuple) and len(b) == 2 and all(type(e) is int for e in b) for b in self.bounds
        )
        if not pairs:
            raise PresentationError(f"window bounds must be a tuple of (int, int) pairs, got {self.bounds!r}")

    @classmethod
    def from_dict(cls, presentation: MonomialAlgebraPresentation, bounds: dict[str, tuple[int, int]]) -> Window:
        """Bounds keyed by generator name, one for each generator and no other."""
        missing = [g.name for g in presentation.generators if g.name not in bounds]
        if missing:
            raise PresentationError(f"window missing bounds for generators: {missing}")
        extra = [n for n in bounds if n not in presentation._index]
        if extra:
            raise PresentationMismatchError(f"window bounds for unknown generators: {sorted(extra)}")
        return cls(tuple(tuple(bounds[g.name]) for g in presentation.generators))

    def effective_bounds(self, presentation: MonomialAlgebraPresentation) -> list[tuple[int, int]]:
        """The bounds cut to the presentation's floors and caps; an empty range raises."""
        if len(self.bounds) != len(presentation.generators):
            raise PresentationMismatchError(
                f"window has {len(self.bounds)} bounds, presentation has {len(presentation.generators)} generators"
            )
        eff = []
        for g, (lo, hi) in zip(presentation.generators, self.bounds):
            a = lo if g.invertible else max(lo, 0)
            b = min(hi, 1) if g.square_zero else hi
            if a > b:
                raise PresentationError(f"window holds no monomials: no exponent of {g.name!r} lies in {lo}:{hi}")
            eff.append((a, b))
        return eff

    def contains(self, presentation: MonomialAlgebraPresentation, m: Monomial) -> bool:
        """Whether every exponent of m lies in its effective bounds; a wrong length is outside."""
        if len(m.exponents) != len(self.bounds):
            return False
        return all(lo <= e <= hi for e, (lo, hi) in zip(m.exponents, self.effective_bounds(presentation)))


def iter_window_monomials(presentation: MonomialAlgebraPresentation, window: Window) -> Iterator[Monomial]:
    """Window monomials in lexicographic order on exponent vectors."""
    return map(Monomial, product(*(range(lo, hi + 1) for lo, hi in window.effective_bounds(presentation))))


def _pack(t: Tridegree, radices: tuple[int, int]) -> int:
    return (t[0] * radices[0] + t[1]) * radices[1] + t[2]


class TridegreeView(Mapping):
    """A read-only mapping keyed by ``Tridegree`` over a sequence in ``enumerate_basis``'s packed-key order.

    ``packed`` holds the packed ints sorted, so in (s, f, w) order, and every view of one grid shares it; a key's
    position in it is the position of its value. ``data[i]`` belongs to ``packed[i]``, and ``read`` turns a position
    into its value. ``tridegree`` decodes a key. A lookup packs its tridegree, finds the key by bisection, and misses,
    raising ``KeyError``, unless the key is the grid's and decodes back to it: so a tridegree whose f or w digit leaves
    the padded radix, where packing is not one to one, misses, and so does anything that is not a tridegree.
    Iteration decodes each key as it is read.
    """

    def __init__(self, origin: Tridegree, radices: tuple[int, int], packed: list[int], data, read=None):
        self.origin, self.radices, self.packed, self.data = origin, radices, packed, data
        self.read = read or data.__getitem__

    def pack(self, t: Tridegree) -> int:
        """The packed key of t in this grid's radices, linear in t."""
        return _pack(t, self.radices)

    def tridegree(self, key: int) -> Tridegree:
        """Decode a key: the tridegree that packs to it with f and w in the padded ranges above ``origin``."""
        (_, f0, w0), (rf, rw) = self.origin, self.radices
        sf, w = divmod(key - f0 * rw - w0, rw)
        return Tridegree(sf // rf, f0 + sf % rf, w0 + w)

    def over(self, data, read=None) -> TridegreeView:
        """A view of the same keys over another sequence in the same order."""
        return TridegreeView(self.origin, self.radices, self.packed, data, read)

    def __getitem__(self, t: Tridegree) -> Any:
        try:
            key = self.pack(t)
            i = bisect_left(self.packed, key)
            hit = self.packed[i] == key and self.tridegree(key) == t
        except (TypeError, IndexError):  # t is not a tridegree, or its key is past the last
            hit = False
        if not hit:
            raise KeyError(t)
        return self.read(i)

    def __iter__(self) -> Iterator[Tridegree]:
        return map(self.tridegree, self.packed)

    def __len__(self) -> int:
        return len(self.packed)

    def values(self) -> Iterator[Any]:
        """The values in key order, building no ``Tridegree``."""
        return map(self.read, range(len(self.packed)))

    def items(self) -> Iterator[tuple[Tridegree, Any]]:
        """The pairs in key order, with no lookup per key."""
        return zip(self, self.values())


def enumerate_basis(presentation: MonomialAlgebraPresentation, window: Window) -> TridegreeView:
    """Group the window's exponent tuples by tridegree.

    Keys are sorted by (s, f, w); each fiber is a tuple in the canonical
    lexicographic monomial order, which downstream linear algebra and
    ``turn_page``'s bisection rely on.
    Window monomials are valid by construction, so degrees come straight
    from the generator degrees without ``degree``'s validation.

    Over the window f lies in [f0, f0 + F) and w in [w0, w0 + W), and each
    tridegree has the key (s*(2F-1) + f)*(2W-1) + w. With radices padded
    to 2F-1 and 2W-1, key + pack(shift) is the key of t + shift for |df| < F
    and |dw| < W, and of no window tridegree when t + shift leaves the window;
    a shift with |df| >= F or |dw| >= W has no target fibre in the window. The
    packed int is linear: a sum of per-generator terms, read off a product of
    term lists in step with the window's exponent tuples.
    """
    gens = presentation.generators
    bounds = window.effective_bounds(presentation)
    lo = [sum(min(a * g.degree[c], b * g.degree[c]) for g, (a, b) in zip(gens, bounds)) for c in range(3)]
    hi = [sum(max(a * g.degree[c], b * g.degree[c]) for g, (a, b) in zip(gens, bounds)) for c in range(3)]
    radices = (2 * (hi[1] - lo[1]) + 1, 2 * (hi[2] - lo[2]) + 1)
    terms = product(*([e * _pack(g.degree, radices) for e in range(a, b + 1)] for g, (a, b) in zip(gens, bounds)))
    groups: dict[int, Any] = {}
    for key, e in zip(map(sum, terms), product(*(range(a, b + 1) for a, b in bounds))):
        fibre = groups.get(key)
        if fibre is None:  # most fibres hold one monomial, and get no list
            groups[key] = (e,)
        elif type(fibre) is tuple:
            groups[key] = [*fibre, e]
        else:
            fibre.append(e)
    packed = sorted(groups)
    return TridegreeView(Tridegree(*lo), radices, packed, [tuple(groups[key]) for key in packed])
