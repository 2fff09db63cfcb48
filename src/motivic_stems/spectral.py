"""Leibniz differentials and windowed page-turning for monomial DGAs over F2.

A differential is specified on generators only and extended to monomials by
the Leibniz rule; since coefficients live in F2, a generator slot contributes
a term exactly when its exponent is odd. Homology is computed one tridegree
fiber at a time inside a finite exponent window.

Windowed homology near the window boundary sees truncated differentials, so
every page-turn certifies each tridegree as VALID or INDETERMINATE. VALID
means the window contained every differential interaction of that fiber's
monomials: all nonzero Leibniz terms of its monomials stay inside the window,
every valid exponent vector that could map onto one of them lies inside the
window, the same forward condition holds one shift upstream, and a fiber
at the other end of a nonzero term was VALID on the previous page. When the
window's fiber equals the full fiber of the algebra (true for the built-in
instance, where each tridegree carries at most one monomial), a VALID answer
equals the answer in the infinite algebra.

Inputs are validated at the boundary. A ``DifferentialSpec`` checks its
images against its presentation once, when it is built, and carries them
prepared for the Leibniz rule; every consumer trusts it. ``turn_page`` only
checks that the differential and the page share a presentation, and
``d_sum`` and ``leibniz_extend`` check the monomials they are given. Inside
a page turn the window monomials and their Leibniz terms are valid by
construction and are not checked again.

A page keeps each tridegree's window monomials as exponent tuples and its
classes as bitmasks over them; ``PageState.classes`` builds formal sums per
lookup. A formal sum is a frozenset of monomials, and the empty set is zero.
A page is a set of sequences in the sorted order of ``enumerate_basis``'s
packed keys, with one key-to-position dict per grid. The key format, given
there, puts t + shift at key + pack(shift) or outside the window, so a page
turn finds each target with one lookup, and a Leibniz term's bit by
bisection in the target's sorted monomials.
A page starts at E2, and a page-r differential turns any page up to r, since
the pages in between are zero.

A target fiber's boundaries from earlier pages enter the one GF(2)
elimination ahead of the class columns, so the image echelon that comes
back is the target's new boundaries.

Two rank rules settle a fiber from dimensions alone, with no GF(2)
elimination, for every presentation and window. Reduced-echelon boundaries
with as many rows as the fiber has monomials span it, so no class survives.
A map out of a single class with a nonzero column, into a target with no
earlier boundaries, has an empty kernel, and that column is its own reduced
echelon. On the built-in instance these two rules settle every fiber that
d3 touches.

The built-in instance is the E2 page of the eta-localized motivic
Adams-Novikov spectral sequence for the 2-complete sphere over C, with its
single nonzero differential on the third page.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from itertools import compress
from operator import add, le
from types import MappingProxyType

from . import gf2
from .algebra import (
    GeneratorSpec,
    MonomialAlgebraPresentation,
    Monomial,
    PresentationError,
    PresentationMismatchError,
    Tridegree,
    TridegreeView,
    Window,
    enumerate_basis,
)


class DifferentialSpecError(PresentationError):
    """Differential data inconsistent with the presentation or the shift."""


class Certainty(enum.Enum):
    VALID = "VALID"
    INDETERMINATE = "INDETERMINATE"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DifferentialSpec:
    """Page-r differential given by generator images; zero off the listed names.

    ``images`` maps generator name to the monomials of its image; it is
    stored read-only, as formal sums. Building a spec checks it against the
    presentation: ``page`` is at least 2, every image is keyed by a known
    generator, and every term is a valid monomial sitting in
    degree(generator) + ``shift`` for one common ``shift``, and d^2 is zero
    on every generator. The shift is derived from the terms, or (-1, r, 0)
    when there are none. Consumers trust a built spec and do not check it
    again.

    ``offsets`` lists, per generator g with a nonzero image, its index and
    u - e_g for every image term u: the term (m / g) * u of a monomial m is
    m + (u - e_g). Each offset comes with the square-zero slots it raises,
    the only slots where a valid monomial's term can exceed exponent 1.
    """

    presentation: MonomialAlgebraPresentation
    page: int
    images: Mapping[str, frozenset[Monomial]]
    shift: Tridegree = field(init=False)
    offsets: tuple[tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        pres = self.presentation
        if self.page < 2:
            raise DifferentialSpecError(f"page must be at least 2, got {self.page}")
        images = MappingProxyType({name: frozenset(terms) for name, terms in self.images.items()})
        shift = None
        offsets = []
        square_zero = [j for j, g in enumerate(pres.generators) if g.square_zero]
        for name, image in images.items():
            i = pres.index_of(name)
            gdeg = pres.generators[i].degree
            offs = []
            for u in image:
                observed = pres.degree(u) - gdeg  # degree validates u
                if shift is None:
                    shift = observed
                elif observed != shift:
                    raise DifferentialSpecError(
                        f"image term {pres.monomial_str(u)} of {name!r} sits in shift "
                        f"{observed}, expected {shift}"
                    )
                off = list(u.exponents)
                off[i] -= 1
                offs.append((tuple(off), tuple(j for j in square_zero if off[j] > 0)))
            if offs:
                offsets.append((i, tuple(offs)))
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "shift", Tridegree(-1, self.page, 0) if shift is None else shift)
        object.__setattr__(self, "offsets", tuple(offsets))
        # over F2, d^2 is a derivation, so it vanishes once it does on generators
        for name, image in images.items():
            twice = d_sum(self, image)
            if twice:
                raise DifferentialSpecError(
                    f"d{self.page} squares to a nonzero map: d{self.page}(d{self.page}({name})) = "
                    f"{pres.sum_str(twice)}"
                )

    def terms(self, exps: tuple[int, ...]) -> set[tuple[int, ...]]:
        """Nonzero Leibniz terms of the monomial with exponents ``exps``, mod 2.

        Each generator slot with an odd exponent contributes (m / g) * d(g);
        terms erased by a square-zero relation are genuinely zero, and terms
        appearing twice cancel. ``exps`` must be valid, so only the slots an
        offset raises can pass exponent 1.
        """
        out: set[tuple[int, ...]] = set()
        for i, offsets in self.offsets:
            if exps[i] % 2:
                for off, raised in offsets:
                    p = tuple(map(add, exps, off))
                    if not raised or not any(p[j] > 1 for j in raised):
                        out.symmetric_difference_update((p,))
        return out


# the benchmark's wide workload (bench/workloads.py) builds its differential by this name
build_differential = DifferentialSpec


def leibniz_extend(diff: DifferentialSpec, m: Monomial) -> frozenset[Monomial]:
    """Differential of a monomial via the Leibniz rule, mod 2: ``d_sum`` of m alone."""
    return d_sum(diff, (m,))


def d_sum(diff: DifferentialSpec, s: Iterable[Monomial]) -> frozenset[Monomial]:
    """Linear extension of the differential to a formal sum.

    Each monomial is checked against the differential's presentation; the
    differential itself was checked when it was built.
    """
    acc: set[tuple[int, ...]] = set()
    for m in s:
        diff.presentation.validate_monomial(m)
        acc.symmetric_difference_update(diff.terms(m.exponents))
    return frozenset(map(Monomial, acc))


def sum_multiply(
    presentation: MonomialAlgebraPresentation, s: Iterable[Monomial], m: Monomial
) -> frozenset[Monomial]:
    """Formal sum times a monomial, dropping square-zero kills."""
    acc: set[Monomial] = set()
    for term in s:
        p = presentation.multiply(term, m)
        if p is not None:
            acc.symmetric_difference_update((p,))
    return frozenset(acc)


@dataclass
class PageState:
    """One page of a windowed spectral sequence.

    ``basis`` holds the fixed window monomial fibers as tuples of exponent
    tuples; ``vectors[t]`` holds the surviving classes at t as a tuple of
    canonical reduced-echelon bitmasks over ``basis[t]`` (bit i is
    ``basis[t][i]``), and ``classes`` reads them as formal sums; ``status``
    records the per-tridegree certification accumulated over all applied
    pages. All four are ``TridegreeView``s of one grid: sequences in the
    (s, f, w) order of ``enumerate_basis``'s sorted packed keys, ``basis`` and
    ``vectors`` over lists and ``status`` over a bytearray (1 for VALID), and
    the grid's one key-to-position dict serves every lookup; see
    ``enumerate_basis`` for the key format.
    ``boundaries[i]`` is the reduced-echelon span of every earlier page's
    image at the i-th tridegree, kept only where it still has classes.
    """

    presentation: MonomialAlgebraPresentation
    window: Window
    page: int
    basis: TridegreeView  # of tuple[tuple[int, ...], ...]
    vectors: TridegreeView  # of tuple[int, ...]
    status: TridegreeView  # of Certainty
    boundaries: dict[int, list[int]]

    @property
    def classes(self) -> Mapping[Tridegree, list[frozenset[Monomial]]]:
        fibres, vs = self.basis.data, self.vectors.data
        return self.vectors.over(
            vs, lambda i: [frozenset(Monomial(e) for b, e in enumerate(fibres[i]) if v >> b & 1) for v in vs[i]]
        )

    def valid_classes(self) -> dict[Tridegree, list[frozenset[Monomial]]]:
        classes, tridegree = self.classes.read, self.basis.tridegree
        return {tridegree(key): classes(i) for i, key in compress(enumerate(self.basis.packed), self.status.data)}


def _status(grid: TridegreeView, flags: bytearray) -> TridegreeView:
    """A view of per-tridegree flags as ``Certainty``: 1 is VALID, 0 INDETERMINATE."""
    certainty = (Certainty.INDETERMINATE, Certainty.VALID)
    return grid.over(flags, lambda i: certainty[flags[i]])


def initial_page(presentation: MonomialAlgebraPresentation, window: Window) -> PageState:
    """The E2 page: every window monomial is its own class, all VALID."""
    basis = enumerate_basis(presentation, window)
    units = [tuple(1 << i for i in range(n)) for n in range(max(map(len, basis.data), default=0) + 1)]
    return PageState(
        presentation=presentation,
        window=window,
        page=2,
        basis=basis,
        vectors=basis.over([units[len(mons)] for mons in basis.data]),
        status=_status(basis, bytearray(b"\x01") * len(basis)),
        boundaries={},
    )


def turn_page(state: PageState, diff: DifferentialSpec) -> PageState:
    """Homology at diff's page number, which must not precede the state's page.

    The pages in between are zero. The differential must be built on the
    state's presentation, which is the only check it gets here. Per
    tridegree, new classes are the kernel of the outgoing matrix modulo the
    image of the incoming one and the earlier boundaries, with
    reduced-echelon canonical representatives in the fixed monomial order.
    The matrices act on the current page's classes, each sent to the sum of
    its monomials' Leibniz images over the target fiber, zero where the
    target has no classes. The target's boundaries enter the elimination
    first, so each column is read modulo them.
    Certification shrinks to tridegrees whose differential interactions were
    fully visible inside the window and, where d_r has a nonzero term into or
    out of t, whose tridegree at the other end was certified on the previous
    page too. It trusts its caller that diff anticommutes with every earlier
    page's differential, as ``run_to_einfty`` checks.

    Two cases are decided by rank before any elimination. When the
    boundaries at t, reduced echelon and so independent, have as many rows
    as t has monomials, they span the fiber and t keeps no class. When t has
    one class, its column is nonzero and the target has no earlier
    boundaries, the kernel is empty and the image echelon is that column.

    The page's sequences share the sorted key order, so walking their
    positions in that order, or in reverse when the shift is negative,
    reaches t - shift before t, and its image echelon and flags are ready,
    and can be dropped, when t is reached.
    """
    if diff.page < state.page:
        raise ValueError(f"differential is for page {diff.page}, state is on page {state.page}")
    if diff.presentation != state.presentation:
        raise PresentationMismatchError("differential is built on a different presentation than the page")
    pres, grid, shift = state.presentation, state.basis, diff.shift
    basis, vectors, status, boundaries = grid.data, state.vectors.data, state.status.data, state.boundaries
    step, (rf, rw) = grid.pack(shift), grid.radices
    # radices 2F-1 and 2W-1: a shift with |df| >= F or |dw| >= W takes every t out of the window
    index = grid.index if 2 * abs(shift.f) < rf and 2 * abs(shift.w) < rw else {}
    bounds = state.window.effective_bounds(pres)
    lows, highs = [lo for lo, _ in bounds], [hi for _, hi in bounds]
    # A candidate n - off lies in the window exactly when n lies in the window
    # shifted by off. Once the parity test below passes, it is valid exactly
    # when n is at least the floor: max(lo, off[j]) on each generator j that
    # is not invertible, and lo, which every window monomial meets, elsewhere.
    # No square-zero cap can bind then: at a square-zero j other than g,
    # off[j] = u[j] >= 0, so n[j] - off[j] <= n[j] <= 1; at g the candidate
    # exponent is odd and at most n[g] + 1 <= 2, so it is 1.
    boxes = []
    for g, offs in diff.offsets:
        for off, _ in offs:
            floor = [lo if gen.invertible else max(lo, o) for gen, lo, o in zip(pres.generators, lows, off)]
            boxes.append((g, off, floor, [*map(add, lows, off)], [*map(add, highs, off)]))

    def reached_only_from_window(mons: tuple[tuple[int, ...], ...]) -> bool:
        # Every valid exponent vector whose differential can hit a fiber
        # monomial must lie in-window, otherwise the incoming image is
        # underestimated. A candidate n - (u - e_g) with an even g exponent
        # reaches n with an even coefficient.
        for n in mons:
            for g, off, floor, lo, hi in boxes:
                if (n[g] - off[g]) % 2 and not (all(map(le, lo, n)) and all(map(le, n, hi))):
                    if all(map(le, floor, n)):
                        return False
        return True

    order = reversed if step < 0 else iter  # packed order is (s, f, w) order
    walk = zip(order(range(len(basis))), order(grid.packed), order(basis), order(vectors), order(status))
    pending: dict[int, tuple[list[int], bool]] = {}
    new_vectors: list[tuple[int, ...]] = [()] * len(basis)
    new_status = bytearray(len(basis))
    new_boundaries: dict[int, list[int]] = {}
    nothing = ([], True)
    for i, key, mons, classes, previous in walk:
        j = index.get(key + step)
        target = () if j is None else basis[j]
        # Leibniz terms are valid and sit in t + shift, so a term lies in the
        # window exactly when it is in the target fiber, found by bisection in
        # its sorted monomials. Terms outside are dropped from the matrix, and
        # the tridegree is not forward-closed.
        forward = True
        images = []
        for e in mons:
            bits = 0
            for p in diff.terms(e):
                k = bisect_left(target, p)
                if k < len(target) and target[k] == p:
                    bits ^= 1 << k
                else:
                    forward = False
            images.append(bits)
        hits = any(images)  # with every term in the window, d_r is nonzero out of t exactly when this holds
        # a class goes to its image over the target fibre, zero where the target has no classes
        columns = []
        old = ()
        if hits and vectors[j]:
            old = boundaries.get(j, ())
            for v in classes:
                col = 0
                while v:
                    low = v & -v
                    col ^= images[low.bit_length() - 1]
                    v ^= low
                columns.append(col)
        if len(columns) == 1 and columns[0] and not old:
            # one class, a nonzero column, no earlier boundaries: the kernel is empty and the column is its own echelon
            kernel, image_echelon = [], columns
        elif any(columns):
            # independent boundaries first: none enters the kernel, and the echelon is the target's new boundaries
            kernel, image_echelon = gf2.kernel_and_image([*old, *columns], (0,) * len(old) + classes)
        else:
            kernel, image_echelon = classes, []
        if target:
            pending[j] = (image_echelon, forward and (previous or not hits))
        incoming, upstream_ok = pending.pop(i, nothing)
        # an incoming echelon already holds the earlier boundaries
        bounded = incoming or boundaries.get(i, incoming)
        if len(bounded) == len(mons):
            # bounded is reduced echelon, so with a row per monomial it spans the fibre: no class survives
            reps = ()
        elif kernel and (bounded or kernel is not classes):
            reps = tuple(gf2.quotient_representatives(kernel, bounded))
        else:
            # the classes are canonical already, so they stand when every column is
            # zero and nothing is bounded; an empty kernel leaves no classes
            reps = tuple(kernel)
        new_vectors[i] = reps
        if reps and bounded:
            new_boundaries[i] = bounded
        if previous and forward and upstream_ok and (not hits or status[j]):
            new_status[i] = reached_only_from_window(mons)
    return PageState(
        presentation=pres,
        window=state.window,
        page=diff.page + 1,
        basis=grid,
        vectors=grid.over(new_vectors),
        status=_status(grid, new_status),
        boundaries=new_boundaries,
    )


def run_to_einfty(
    presentation: MonomialAlgebraPresentation,
    diffspecs: list[DifferentialSpec],
    window: Window,
) -> PageState:
    """Apply the listed differentials in page order; pages not listed are zero.

    With all later differentials zero the result is the E-infinity page; the
    certification accumulated in ``status`` bounds where that claim was fully
    checked inside the window. Every input is checked before E2 is built: a
    differential on another presentation raises ``PresentationMismatchError``,
    pages out of order or differentials that do not anticommute raise
    ``DifferentialSpecError``.
    """
    pages = [d.page for d in diffspecs]
    if pages != sorted(pages) or len(set(pages)) != len(pages):
        raise DifferentialSpecError(f"differentials must be listed in strictly increasing page order, got {pages}")
    if any(d.presentation != presentation for d in diffspecs):
        raise PresentationMismatchError("differential is built on a different presentation than the page")
    # d_r d_s + d_s d_r is a derivation over F2, so checking generators is enough
    for i, ds in enumerate(diffspecs):
        for dr in diffspecs[:i]:
            for name in (g.name for g in ds.presentation.generators):
                mixed = d_sum(dr, ds.images.get(name, ())) ^ d_sum(ds, dr.images.get(name, ()))
                if mixed:
                    raise DifferentialSpecError(
                        f"d{dr.page} and d{ds.page} do not anticommute: "
                        f"(d{dr.page}d{ds.page} + d{ds.page}d{dr.page})({name}) = "
                        f"{dr.presentation.sum_str(mixed)}"
                    )
    state = initial_page(presentation, window)
    for d in diffspecs:
        state = turn_page(state, d)
    return state


def localized_motivic_anss() -> tuple[MonomialAlgebraPresentation, list[DifferentialSpec]]:
    """E2 page and differentials of the eta-localized motivic Adams-Novikov
    spectral sequence for the 2-complete sphere over C.

    E2 = F2[tau, alpha1^(+-1), alpha3, alpha4] / alpha4^2 with degrees
    tau (0,0,-1), alpha1 (1,1,1), alpha3 (5,1,3), alpha4 (7,1,4); the only
    nonzero differential is d3(alpha3) = tau * alpha1^4.
    """
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("tau", Tridegree(0, 0, -1)),
            GeneratorSpec("alpha1", Tridegree(1, 1, 1), invertible=True),
            GeneratorSpec("alpha3", Tridegree(5, 1, 3)),
            GeneratorSpec("alpha4", Tridegree(7, 1, 4), square_zero=True),
        ]
    )
    d3 = DifferentialSpec(presentation, page=3, images={"alpha3": [presentation.monomial(tau=1, alpha1=4)]})
    return presentation, [d3]
