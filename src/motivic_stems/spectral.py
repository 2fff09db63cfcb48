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
window, and the same forward condition holds one shift upstream. When the
window's fiber equals the full fiber of the algebra (true for the built-in
instance, where each tridegree carries at most one monomial), a VALID answer
equals the answer in the infinite algebra.

The built-in instance is the E2 page of the eta-localized motivic
Adams-Novikov spectral sequence for the 2-complete sphere over C, with its
single nonzero differential on the third page.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import gf2
from .algebra import (
    F2VectorSpace,
    GeneratorSpec,
    MonomialAlgebraPresentation,
    Monomial,
    PresentationError,
    Tridegree,
    Window,
    enumerate_basis,
)

FormalSum = frozenset  # of Monomial; empty set is zero


class DifferentialSpecError(PresentationError):
    """Differential data inconsistent with the presentation or the shift."""


class OutOfWindowError(ValueError):
    """A requested tridegree falls outside the window."""


class Certainty(enum.Enum):
    VALID = "VALID"
    INDETERMINATE = "INDETERMINATE"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class DifferentialSpec:
    """Page-r differential given by generator images; zero off the listed names.

    ``images`` maps generator name to a formal sum of monomials. Every image
    term must sit in degree(generator) + shift; for the spectral sequences
    treated here the shift is (-1, r, 0).
    """

    page: int
    shift: Tridegree
    images: Mapping[str, FormalSum]


def build_differential(
    presentation: MonomialAlgebraPresentation,
    page: int,
    images: Mapping[str, Iterable[Monomial]],
    shift: Tridegree | None = None,
) -> DifferentialSpec:
    """Validate generator images against the presentation and fix the shift."""
    if page < 2:
        raise DifferentialSpecError(f"page must be at least 2, got {page}")
    frozen: dict[str, FormalSum] = {}
    for name, terms in images.items():
        gdeg = presentation.generator(name).degree
        fs = frozenset(terms)
        for u in fs:
            presentation.validate_monomial(u)
            observed = presentation.degree(u) - gdeg
            if shift is None:
                shift = observed
            elif observed != shift:
                raise DifferentialSpecError(
                    f"image term {presentation.monomial_str(u)} of {name!r} sits in shift "
                    f"{observed}, expected {shift}"
                )
        frozen[name] = fs
    if shift is None:
        shift = Tridegree(-1, page, 0)
    return DifferentialSpec(page=page, shift=shift, images=frozen)


def leibniz_extend(
    presentation: MonomialAlgebraPresentation, diff: DifferentialSpec, m: Monomial
) -> FormalSum:
    """Differential of a monomial via the Leibniz rule, mod 2.

    Each generator slot with an odd exponent contributes (m / g) * d(g); terms
    erased by a square-zero relation are genuinely zero, and terms appearing
    twice cancel.
    """
    presentation.validate_monomial(m)
    terms: set[Monomial] = set()
    for i, g in enumerate(presentation.generators):
        e = m.exponents[i]
        if e % 2 == 0:
            continue
        image = diff.images.get(g.name)
        if not image:
            continue
        reduced = Monomial(m.exponents[:i] + (e - 1,) + m.exponents[i + 1 :])
        for u in image:
            p = presentation.multiply(reduced, u)
            if p is not None:
                terms.symmetric_difference_update((p,))
    return frozenset(terms)


def d_sum(
    presentation: MonomialAlgebraPresentation, diff: DifferentialSpec, s: Iterable[Monomial]
) -> FormalSum:
    """Linear extension of the differential to a formal sum."""
    acc: set[Monomial] = set()
    for m in s:
        acc.symmetric_difference_update(leibniz_extend(presentation, diff, m))
    return frozenset(acc)


def sum_multiply(
    presentation: MonomialAlgebraPresentation, s: Iterable[Monomial], m: Monomial
) -> FormalSum:
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

    ``basis`` holds the fixed window monomial fibers; ``classes`` holds the
    surviving classes of the current page as canonical reduced-echelon formal
    sums of window monomials; ``status`` records the per-tridegree
    certification accumulated over all applied pages.
    """

    presentation: MonomialAlgebraPresentation
    window: Window
    page: int
    basis: dict[Tridegree, list[Monomial]]
    classes: dict[Tridegree, list[FormalSum]]
    status: dict[Tridegree, Certainty]

    def fiber(self, t: Tridegree) -> F2VectorSpace:
        if t not in self.basis:
            raise OutOfWindowError(f"tridegree {t} is not covered by the window")
        return F2VectorSpace(t, self.basis[t])

    def valid_classes(self) -> dict[Tridegree, list[FormalSum]]:
        return {t: cls for t, cls in self.classes.items() if self.status[t] is Certainty.VALID}


def initial_page(
    presentation: MonomialAlgebraPresentation, window: Window, page: int = 2
) -> PageState:
    """E2-style starting page: every window monomial is its own class, all VALID."""
    basis = enumerate_basis(presentation, window)
    return PageState(
        presentation=presentation,
        window=window,
        page=page,
        basis=basis,
        classes={t: [frozenset((m,)) for m in mons] for t, mons in basis.items()},
        status={t: Certainty.VALID for t in basis},
    )


def _forward_closed(
    presentation: MonomialAlgebraPresentation,
    window: Window,
    diff: DifferentialSpec,
    monomials: Iterable[Monomial],
) -> bool:
    # Every nonzero Leibniz term of every fiber monomial must stay in-window,
    # otherwise the outgoing matrix is truncated.
    for m in monomials:
        for term in leibniz_extend(presentation, diff, m):
            if not window.contains(presentation, term):
                return False
    return True


def _backward_closed(
    presentation: MonomialAlgebraPresentation,
    window: Window,
    diff: DifferentialSpec,
    monomials: Iterable[Monomial],
) -> bool:
    # Every valid exponent vector whose differential can hit a fiber monomial
    # must lie in-window, otherwise the incoming image is underestimated.
    n_gens = len(presentation.generators)
    for n in monomials:
        for name, image in diff.images.items():
            gi = presentation.index_of(name)
            for u in image:
                exps = list(n.exponents)
                exps[gi] += 1
                for j in range(n_gens):
                    exps[j] -= u.exponents[j]
                cand = tuple(exps)
                if not presentation.is_valid_exponents(cand):
                    continue
                if cand[gi] % 2 == 0:
                    continue  # the Leibniz term toward n carries an even coefficient
                if not window.contains(presentation, Monomial(cand)):
                    return False
    return True


def turn_page(state: PageState, diff: DifferentialSpec) -> PageState:
    """Homology of the current page at diff's page number.

    Per tridegree, new classes are the kernel of the outgoing matrix modulo the
    image of the incoming one, with reduced-echelon canonical representatives
    in the fixed monomial order. Certification shrinks to tridegrees whose
    differential interactions were fully visible inside the window.
    """
    if diff.page != state.page:
        raise ValueError(f"differential is for page {diff.page}, state is on page {state.page}")
    pres, window = state.presentation, state.window
    fibers = {t: F2VectorSpace(t, mons) for t, mons in state.basis.items()}

    # Outgoing image vectors per tridegree, in target fiber coordinates.
    out_vectors: dict[Tridegree, list[int]] = {}
    for t, class_list in state.classes.items():
        target = fibers.get(t + diff.shift)
        vecs = []
        for c in class_list:
            bits = 0
            for term in d_sum(pres, diff, c):
                pos = target.position(term) if target is not None else None
                if pos is not None:
                    bits ^= 1 << pos
                # terms outside the window are dropped; certification below
                # marks such tridegrees INDETERMINATE
            vecs.append(bits)
        out_vectors[t] = vecs

    forward_ok = {
        t: _forward_closed(pres, window, diff, mons) for t, mons in state.basis.items()
    }
    new_classes: dict[Tridegree, list[FormalSum]] = {}
    new_status: dict[Tridegree, Certainty] = {}
    for t, class_list in state.classes.items():
        fiber = fibers[t]
        kernel_coords, _ = gf2.kernel_and_image(out_vectors[t])
        class_vecs = [fiber.vector(c) for c in class_list]
        kernel_vecs = []
        for trk in kernel_coords:
            v = 0
            j = 0
            while trk:
                if trk & 1:
                    v ^= class_vecs[j]
                trk >>= 1
                j += 1
            kernel_vecs.append(v)
        incoming = out_vectors.get(t - diff.shift, [])
        survivors = gf2.quotient_representatives(kernel_vecs, list(incoming))
        new_classes[t] = [fiber.sum_from_vector(v) for v in survivors]
        upstream = t - diff.shift
        certified = (
            state.status[t] is Certainty.VALID
            and forward_ok[t]
            and forward_ok.get(upstream, True)
            and _backward_closed(pres, window, diff, state.basis[t])
        )
        new_status[t] = Certainty.VALID if certified else Certainty.INDETERMINATE
    return PageState(
        presentation=pres,
        window=window,
        page=diff.page + 1,
        basis=state.basis,
        classes=new_classes,
        status=new_status,
    )


def run_to_einfty(
    presentation: MonomialAlgebraPresentation,
    diffspecs: list[DifferentialSpec],
    window: Window,
) -> PageState:
    """Apply the listed differentials in page order; pages not listed are zero.

    With all later differentials zero the result is the E-infinity page; the
    certification accumulated in ``status`` bounds where that claim was fully
    checked inside the window.
    """
    pages = [d.page for d in diffspecs]
    if pages != sorted(pages) or len(set(pages)) != len(pages):
        raise DifferentialSpecError(f"differentials must be listed in strictly increasing page order, got {pages}")
    state = initial_page(presentation, window, page=pages[0] if pages else 2)
    for d in diffspecs:
        state.page = d.page  # pages with no listed differential are zero and skipped
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
    d3 = build_differential(
        presentation,
        page=3,
        images={"alpha3": [presentation.monomial(tau=1, alpha1=4)]},
    )
    return presentation, [d3]
