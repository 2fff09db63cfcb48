"""Leibniz differentials and windowed page-turning for monomial DGAs over F2.

A differential is specified on generators only and extended to monomials by
the Leibniz rule; since coefficients live in F2, a generator slot contributes
a term exactly when its exponent is odd. A formal sum is a frozenset of
monomials, and the empty set is zero. Homology is computed one tridegree
fibre at a time inside a finite exponent window, from the E2 page on.

Windowed homology near the window boundary sees truncated differentials, so
every page turn certifies each tridegree as VALID or INDETERMINATE. VALID
at t means the window contained every differential interaction of t's
fibre: every Leibniz term out of it and out of its source fibre, and every
valid monomial that reaches t with an odd coefficient, which one key set
per page turn records. Where the window's fibre equals the full fibre of
the algebra, as it does on the built-in instance, a VALID answer equals the
answer in the infinite algebra.

``DifferentialSpec`` says when inputs are checked, ``PageState`` how a page
is stored, ``turn_page`` how a page turns and what it certifies, and
``localized_motivic_anss`` what the built-in instance is.
"""

from __future__ import annotations

import enum
from bisect import bisect_left
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field, replace
from itertools import compress, product
from operator import add, gt, lt
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
    """A tridegree's certificate: VALID when the window held every interaction ``turn_page`` checks."""

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
    generator, every term is a valid monomial sitting in degree(generator) +
    ``shift`` for one common ``shift``, and d^2 is zero on every generator.
    The shift is derived from the terms, or (-1, r, 0) when there are none.
    Every consumer trusts a built spec. ``turn_page`` checks only that it is
    on the page's presentation, and trusts that it anticommutes with every
    earlier page's differential, as ``run_to_einfty`` checks; ``d_sum`` and
    ``leibniz_extend`` check the monomials they are given. Inside a page turn
    the window monomials and their Leibniz terms are valid by construction.

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
    """Linear extension of the differential to a formal sum, each of whose monomials is checked."""
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

    ``basis[t]`` is the fixed window fibre at t, a tuple of exponent tuples;
    ``vectors[t]`` holds the surviving classes at t as a tuple of canonical
    reduced-echelon bitmasks over it (bit i is ``basis[t][i]``), and
    ``classes`` reads them as formal sums; ``status`` records the
    certification accumulated over all applied pages. All four are
    ``TridegreeView``s of one grid, ``basis`` and ``vectors`` over lists and
    ``status`` over a bytearray (1 for VALID). ``boundaries[i]`` is the
    reduced-echelon span of every earlier page's image at the i-th
    tridegree, kept only where it still has classes.
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
        """The surviving classes at each tridegree as formal sums, decoded on read."""
        fibres, vs = self.basis.data, self.vectors.data
        return self.vectors.over(
            vs, lambda i: [frozenset(Monomial(e) for b, e in enumerate(fibres[i]) if v >> b & 1) for v in vs[i]]
        )

    def valid_classes(self) -> dict[Tridegree, list[frozenset[Monomial]]]:
        """The classes at the VALID tridegrees only."""
        classes, tridegree = self.classes.read, self.basis.tridegree
        return {tridegree(key): classes(i) for i, key in compress(enumerate(self.basis.packed), self.status.data)}


def _status(grid: TridegreeView, flags: bytearray) -> TridegreeView:
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


def _reached_from_outside(diff: DifferentialSpec, window: Window, grid: TridegreeView) -> set[int]:
    """Keys of the window tridegrees that some valid monomial outside the window reaches with an odd coefficient.

    The coefficient of n = m + off in d(m) is the sum, mod 2, of m[g] over
    the generators g that have off among their offsets. For one offset and
    one pattern of those exponents' parities with an odd sum, the window
    monomials n reached from outside are a union over k of products of
    exponent ranges: n in the window; n - off not negative on each generator
    that is not invertible, at most 1 on each square-zero one, and of the
    pattern's parity; and n - off outside the window on generator k. The key
    of n in the grid is the sum of n[j] * pack(degree of generator j), as
    ``enumerate_basis`` packs it.
    """
    sources: dict[tuple[int, ...], list[int]] = {}
    for g, offs in diff.offsets:
        for off, _ in offs:
            sources.setdefault(off, []).append(g)
    gens = diff.presentation.generators
    bounds = window.effective_bounds(diff.presentation)
    weights = [grid.pack(gen.degree) for gen in gens]
    keys: set[int] = set()
    for off, gs in sources.items():
        valid = [
            (lo if gen.invertible else max(lo, o), min(hi, 1 + o) if gen.square_zero else hi)
            for gen, (lo, hi), o in zip(gens, bounds, off)
        ]
        for parities in product((0, 1), repeat=len(gs)):
            if sum(parities) % 2 == 0:
                continue
            spans = [range(a, b + 1) for a, b in valid]
            for g, p in zip(gs, parities):
                a, b = valid[g]
                spans[g] = range(a + (a - off[g] - p) % 2, b + 1, 2)
            terms = [[n * w for n in span] for span, w in zip(spans, weights)]
            for k, (lo, hi) in enumerate(bounds):
                outside = [n * weights[k] for n in spans[k] if not lo <= n - off[k] <= hi]
                keys.update(map(sum, product(*terms[:k], outside, *terms[k + 1 :])))
    return keys


def turn_page(state: PageState, diff: DifferentialSpec) -> PageState:
    """Homology at diff's page number, which must not precede the state's page; the pages between are zero.

    Per tridegree t, the new classes are the kernel of the outgoing matrix
    modulo the image of the incoming one and the earlier boundaries, with
    reduced-echelon canonical representatives in the fixed monomial order.
    A matrix sends each current class to the sum of its monomials' Leibniz
    images over the target fibre, zero where the target has no classes. The
    target's boundaries enter the one GF(2) elimination ahead of the class
    columns, so each column is read modulo them and the image echelon that
    comes back is the target's new boundaries.

    Two rank rules decide a fibre with no elimination. Boundaries at t,
    reduced echelon and so independent, with as many rows as t has
    monomials span the fibre, and no class survives. One class with a
    nonzero column, into a target with no earlier boundaries, has an empty
    kernel, and the column is its own image echelon.

    The walk takes positions in key order, or in reverse when the shift is
    negative. So t - shift comes before t, and its image echelon and flags
    are ready, and can be dropped, when t is reached; and the key of t +
    shift moves with the walk, so a second pointer finds it.

    t stays VALID when it was VALID on the previous page, every Leibniz term
    of the monomials at t and at t - shift lies in the window, every valid
    monomial that reaches t with an odd coefficient lies in the window, and,
    where d_r is nonzero into or out of t, the tridegree at the other end
    was VALID on the previous page. The window-reach check is one set of
    packed keys, built once per page turn by ``_reached_from_outside``, and
    one lookup per tridegree.
    """
    if diff.page < state.page:
        raise ValueError(f"differential is for page {diff.page}, state is on page {state.page}")
    if diff.presentation != state.presentation:
        raise PresentationMismatchError("differential is built on a different presentation than the page")
    grid, shift = state.basis, diff.shift
    basis, vectors, status, boundaries = grid.data, state.vectors.data, state.status.data, state.boundaries
    packed, step, (rf, rw) = grid.packed, grid.pack(shift), grid.radices
    reached = _reached_from_outside(diff, state.window, grid)
    order, behind = (reversed, gt) if step < 0 else (iter, lt)
    walk = zip(order(range(len(basis))), order(packed), order(basis), order(vectors), order(status))
    # past enumerate_basis's reach guard the shift has no target, and the pointer searches no key
    targets = order(range(len(packed) if 2 * abs(shift.f) < rf and 2 * abs(shift.w) < rw else 0))
    pending: dict[int, tuple[list[int], bool]] = {}
    new_vectors: list[tuple[int, ...]] = [()] * len(basis)
    new_status = bytearray(len(basis))
    new_boundaries: dict[int, list[int]] = {}
    nothing = ([], True)
    j = next(targets, None)
    for i, key, mons, classes, previous in walk:
        there = key + step  # the pointer stops at the first key not behind t + shift's
        while j is not None and behind(packed[j], there):
            j = next(targets, None)
        target = basis[j] if j is not None and packed[j] == there else ()
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
            kernel, image_echelon = [], columns
        elif any(columns):
            # the boundaries are independent, so none enters the kernel
            kernel, image_echelon = gf2.kernel_and_image([*old, *columns], (0,) * len(old) + classes)
        else:
            kernel, image_echelon = classes, []
        if target:
            pending[j] = (image_echelon, forward and (previous or not hits))
        incoming, upstream_ok = pending.pop(i, nothing)
        # an incoming echelon already holds the earlier boundaries
        bounded = incoming or boundaries.get(i, incoming)
        if len(bounded) == len(mons):
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
            new_status[i] = key not in reached  # a source outside the window would leave the incoming image short
    return replace(
        state,
        page=diff.page + 1,
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
    nonzero differential is d3(alpha3) = tau * alpha1^4. Each tridegree holds
    at most one monomial, so every fibre a window holds is whole, and the
    rank rules of ``turn_page`` settle every fibre that d3 touches.
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
