"""Differentials, page-turning, and window certification."""

from __future__ import annotations

import hashlib
import tracemalloc
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from motivic_stems import gf2, spectral, verify
from motivic_stems.algebra import (
    GeneratorSpec,
    Monomial,
    MonomialAlgebraPresentation,
    PresentationError,
    PresentationMismatchError,
    Tridegree,
    TridegreeView,
    Window,
    enumerate_basis,
)
from motivic_stems.spectral import (
    Certainty,
    DifferentialSpec,
    DifferentialSpecError,
    build_differential,
    d_sum,
    initial_page,
    leibniz_extend,
    localized_motivic_anss,
    run_to_einfty,
    sum_multiply,
    turn_page,
)


def _admits(presentation, exps) -> bool:
    """The exponent rules, stated apart from the library's own checks.

    One exponent per generator, none negative on a generator that is not
    invertible, and none above 1 on a square-zero one.
    """
    gens = presentation.generators
    return len(exps) == len(gens) and all(
        (e >= 0 or g.invertible) and (e <= 1 or not g.square_zero) for g, e in zip(gens, exps)
    )


def _reduce_mod(echelon: list[int], v: int) -> int:
    """Reduce v against rows already in reduced echelon form."""
    for b in echelon:
        if v & b & -b:
            v ^= b
    return v


def test_builtin_differential_shape(presentation_and_d3):
    presentation, d3 = presentation_and_d3
    assert build_differential is DifferentialSpec and type(d3) is DifferentialSpec
    assert d3.page == 3
    assert d3.shift == Tridegree(-1, 3, 0)
    assert d3.images["alpha3"] == frozenset((presentation.monomial(tau=1, alpha1=4),))


def test_leibniz_on_generator_product(presentation_and_d3):
    # d(tau^2 alpha1^-3 alpha3 alpha4): only the alpha3 slot is odd with a
    # nonzero image, so the result is tau^3 alpha1 alpha4.
    presentation, d3 = presentation_and_d3
    m = presentation.monomial(tau=2, alpha1=-3, alpha3=1, alpha4=1)
    expected = presentation.monomial(tau=3, alpha1=1, alpha4=1)
    assert leibniz_extend(d3, m) == frozenset((expected,))
    assert presentation.degree(expected) - presentation.degree(m) == d3.shift


def test_leibniz_even_exponent_is_zero(presentation_and_d3):
    presentation, d3 = presentation_and_d3
    assert leibniz_extend(d3, presentation.monomial(alpha3=2)) == frozenset()


def test_leibniz_square_zero_kill(presentation_and_d3):
    # A differential whose image lands on alpha4 gets erased by alpha4^2 = 0.
    presentation, _ = presentation_and_d3
    d = build_differential(presentation, page=2, images={"alpha3": [presentation.monomial(alpha4=1)]})
    assert d.shift == Tridegree(2, 0, 1)
    m = presentation.monomial(alpha3=1, alpha4=1)
    assert leibniz_extend(d, m) == frozenset()


def test_d_sum_cancellation(presentation_and_d3):
    presentation, d3 = presentation_and_d3
    m = presentation.monomial(alpha3=1)
    assert d_sum(d3, [m, m]) == frozenset()


def test_sum_multiply_drops_square_zero(presentation_and_d3):
    presentation, _ = presentation_and_d3
    a4 = presentation.monomial(alpha4=1)
    assert sum_multiply(presentation, [a4, presentation.monomial(alpha3=1)], a4) == frozenset(
        (presentation.monomial(alpha3=1, alpha4=1),)
    )


@st.composite
def _two_factors(draw):
    """A presentation of 1-6 generators of drawn kinds, and two monomials on it, valid or not."""
    kinds = draw(st.lists(_kinds, min_size=1, max_size=6))
    presentation = MonomialAlgebraPresentation(
        GeneratorSpec(f"g{i}", Tridegree(i, 1, 0), invertible=k == "invertible", square_zero=k == "square_zero")
        for i, k in enumerate(kinds)
    )
    factor = st.lists(st.integers(-1, 2), min_size=len(kinds), max_size=len(kinds)).map(tuple)
    return presentation, Monomial(draw(factor)), Monomial(draw(factor))


@given(_two_factors())
def test_multiply_drops_exactly_the_products_the_exponent_rules_reject(case):
    presentation, m1, m2 = case
    if not (_admits(presentation, m1.exponents) and _admits(presentation, m2.exponents)):
        with pytest.raises(PresentationError):
            presentation.multiply(m1, m2)
        return
    exps = tuple(a + b for a, b in zip(m1.exponents, m2.exponents))
    assert presentation.multiply(m1, m2) == (Monomial(exps) if _admits(presentation, exps) else None)


def _both_constructors_raise(presentation, page, images, error, message):
    # a bad differential cannot be built, directly or through build_differential
    with pytest.raises(error, match=message):
        DifferentialSpec(presentation, page, images)
    with pytest.raises(error, match=message):
        build_differential(presentation, page, images)


def test_build_differential_rejects_low_page(presentation_and_d3):
    presentation, _ = presentation_and_d3
    _both_constructors_raise(presentation, 1, {}, DifferentialSpecError, "page must be at least 2")


def test_build_differential_rejects_mixed_shift(presentation_and_d3):
    presentation, _ = presentation_and_d3
    images = {"alpha3": [presentation.monomial(tau=1, alpha1=4), presentation.monomial(alpha4=1)]}
    _both_constructors_raise(presentation, 3, images, DifferentialSpecError, "shift .* expected")


@pytest.mark.parametrize(
    "images, error, message",
    [
        ({"alpha3": [Monomial((1, 4))]}, PresentationMismatchError, "2 exponents"),
        ({"alpha3": [Monomial((-1, 4, 0, 0))]}, PresentationError, "negative exponent"),
        ({"ghost": [Monomial((1, 4, 0, 0))]}, PresentationMismatchError, "ghost"),
    ],
    ids=["short-term", "invalid-term", "unknown-generator"],
)
def test_bad_differential_is_rejected_at_the_boundary(presentation_and_d3, images, error, message):
    presentation, _ = presentation_and_d3
    _both_constructors_raise(presentation, 3, images, error, message)


def test_differential_images_are_read_only(presentation_and_d3):
    presentation, d3 = presentation_and_d3
    with pytest.raises(TypeError):
        d3.images["alpha3"] = frozenset()
    assert d3.images["alpha3"] == frozenset((presentation.monomial(tau=1, alpha1=4),))


def test_differential_on_another_presentation_is_rejected(presentation_and_d3, einfty_window, monkeypatch):
    # same generator names, alpha3 in another degree: the page turn refuses
    # it rather than reading its shift against the wrong degrees, and the
    # run refuses it before it builds E2
    presentation, _ = presentation_and_d3
    other = MonomialAlgebraPresentation(
        GeneratorSpec(g.name, Tridegree(5, 1, 2) if g.name == "alpha3" else g.degree, g.invertible, g.square_zero)
        for g in presentation.generators
    )
    d3 = build_differential(other, 3, {"alpha3": [other.monomial(tau=1, alpha1=4)]})
    built = []
    monkeypatch.setattr(spectral, "initial_page", lambda *args: built.append(args) or initial_page(*args))
    with pytest.raises(PresentationMismatchError, match="different presentation"):
        run_to_einfty(presentation, [d3], einfty_window)
    assert built == []
    with pytest.raises(PresentationMismatchError, match="different presentation"):
        turn_page(initial_page(presentation, einfty_window), d3)


def test_initial_page_is_monomial_basis(presentation_and_d3, einfty_window):
    presentation, _ = presentation_and_d3
    state = initial_page(presentation, einfty_window)
    assert state.page == 2
    assert all(status is Certainty.VALID for status in state.status.values())
    t = Tridegree(5, 1, 3)
    assert state.classes[t] == [frozenset((presentation.monomial(alpha3=1),))]


def test_turn_page_rejects_an_earlier_page_and_turns_a_later_one(presentation_and_d3, einfty_window):
    # E2 turns with d3 directly, since d2 is zero; E4 cannot take d3 again
    presentation, d3 = presentation_and_d3
    state = turn_page(initial_page(presentation, einfty_window), d3)
    assert state.page == 4
    with pytest.raises(ValueError, match="differential is for page 3, state is on page 4"):
        turn_page(state, d3)


def test_turn_page_kills_the_d3_image(presentation_and_d3, einfty_window):
    presentation, d3 = presentation_and_d3
    state = turn_page(initial_page(presentation, einfty_window), d3)
    assert state.page == 4
    hit = Tridegree(4, 4, 3)  # tau * alpha1^4, the image of alpha3
    assert state.classes[hit] == []
    assert state.status[hit] is Certainty.VALID
    source = Tridegree(5, 1, 3)
    assert state.classes[source] == []
    survivor = Tridegree(4, 4, 4)  # alpha1^4 carries no tau and survives
    assert state.classes[survivor] == [frozenset((presentation.monomial(alpha1=4),))]
    assert state.status[survivor] is Certainty.VALID
    assert survivor in state.valid_classes()
    assert Certainty.INDETERMINATE in set(state.status.values())


def test_truncated_window_is_flagged_indeterminate(presentation_and_d3):
    # In a window without tau the differential out of alpha3 escapes, so
    # alpha3 appears to survive; the page turn must not certify that fiber.
    presentation, d3 = presentation_and_d3
    window = Window.from_dict(
        presentation, {"tau": (0, 0), "alpha1": (-8, 8), "alpha3": (0, 2), "alpha4": (0, 1)}
    )
    state = turn_page(initial_page(presentation, window), d3)
    t = Tridegree(5, 1, 3)
    assert state.classes[t] == [frozenset((presentation.monomial(alpha3=1),))]
    assert state.status[t] is Certainty.INDETERMINATE
    assert t not in state.valid_classes()


def test_run_to_einfty_page_order(presentation_and_d3, einfty_window):
    presentation, d3 = presentation_and_d3
    d5 = build_differential(presentation, page=5, images={})
    with pytest.raises(DifferentialSpecError, match="increasing page order"):
        run_to_einfty(presentation, [d5, d3], einfty_window)
    with pytest.raises(DifferentialSpecError, match="increasing page order"):
        run_to_einfty(presentation, [d3, d3], einfty_window)


def test_run_to_einfty_skips_unlisted_pages(presentation_and_d3, einfty_window):
    presentation, d3 = presentation_and_d3
    d5 = build_differential(presentation, page=5, images={})
    once = run_to_einfty(presentation, [d3], einfty_window)
    twice = run_to_einfty(presentation, [d3, d5], einfty_window)
    assert twice.page == 6
    assert twice.classes == once.classes
    # A zero differential is forward- and backward-closed everywhere, so the
    # extra page turn keeps every certification.
    assert twice.status == once.status


exponents = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=1),
)


@given(exponents)
def test_d3_squares_to_zero(exps):
    presentation, diffs = localized_motivic_anss()
    d3 = diffs[0]
    m = presentation.monomial(tau=exps[0], alpha1=exps[1], alpha3=exps[2], alpha4=exps[3])
    assert d_sum(d3, leibniz_extend(d3, m)) == frozenset()


@given(exponents, exponents)
def test_d3_satisfies_leibniz(e1, e2):
    presentation, diffs = localized_motivic_anss()
    d3 = diffs[0]
    names = ("tau", "alpha1", "alpha3", "alpha4")
    m1 = presentation.monomial(**dict(zip(names, e1)))
    m2 = presentation.monomial(**dict(zip(names, e2)))
    product = presentation.multiply(m1, m2)
    lhs = leibniz_extend(d3, product) if product is not None else frozenset()
    rhs = sum_multiply(presentation, leibniz_extend(d3, m1), m2) ^ sum_multiply(
        presentation, leibniz_extend(d3, m2), m1
    )
    assert lhs == rhs


# --- random presentations against the definition ---------------------------

_kinds = st.sampled_from(["plain", "invertible", "square_zero"])
_generators = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), _kinds), min_size=2, max_size=4
)


def _exponent_range(g, even):
    if g.square_zero:
        return range(0, 1 if even else 2)
    return range(-2 if g.invertible else 0, 3, 2 if even else 1)


@st.composite
def presentations_with_differential(draw):
    """2-4 generators with random flags, one differential and a small window.

    The sources are g0 and up to two twins, square-zero generators of its
    tridegree with its image, so several sources can hit one target and a
    kernel can hold more than one class. With twins, g0 is square-zero too.
    Every image term carries an even exponent of each source, so a single
    source's image terms are cycles; the cross terms of square-zero sources
    lie in the window together or not at all, and cancel in pairs. So d
    squares to zero, also after truncation to any window. The image terms
    share a tridegree, drawn from the small exponent box around the unit.
    """
    specs = draw(_generators)
    twins = draw(st.integers(0, 2))
    if twins:
        specs[0] = (*specs[0][:3], "square_zero")
        specs += [specs[0]] * twins
    presentation = MonomialAlgebraPresentation(
        GeneratorSpec(
            f"g{i}", Tridegree(s, f, w), invertible=kind == "invertible", square_zero=kind == "square_zero"
        )
        for i, (s, f, w, kind) in enumerate(specs)
    )
    gens = presentation.generators
    sources = [0, *range(len(gens) - twins, len(gens))]
    by_degree: dict[Tridegree, list[Monomial]] = {}
    for exps in product(*(_exponent_range(g, i in sources) for i, g in enumerate(gens))):
        by_degree.setdefault(presentation.degree(Monomial(exps)), []).append(Monomial(exps))
    terms = draw(st.sampled_from(sorted(by_degree.values(), key=len)))
    image = draw(st.lists(st.sampled_from(terms), min_size=1, max_size=3, unique=True))
    images = {gens[i].name: image for i in sources}
    diff = build_differential(presentation, page=draw(st.integers(2, 4)), images=images)
    bounds = draw(st.lists(st.tuples(st.integers(-2, 0), st.integers(0, 2)), min_size=len(gens), max_size=len(gens)))
    return presentation, diff, Window(tuple(bounds))


def _three_sources_on_one_target():
    # d3 sends each of u, v, x to a: the kernel at (1,0,0) is spanned by
    # u + v and u + x, which is not in reduced echelon form, so a page turn
    # that keeps the raw kernel fails here whatever the random examples are
    presentation = MonomialAlgebraPresentation(
        [GeneratorSpec("a", Tridegree(0, 3, 0)), *(GeneratorSpec(g, Tridegree(1, 0, 0), square_zero=True) for g in "uvx")]
    )
    a = presentation.monomial(a=1)
    d3 = build_differential(presentation, page=3, images={"u": [a], "v": [a], "x": [a]})
    return presentation, d3, Window(((0, 2), (0, 1), (0, 1), (0, 1)))


def _two_sources_on_a_two_monomial_target(second):
    # d3 sends u to a and v to ``second``. With second = b the image spans
    # the target fibre {a, b} at (0,3,0), so no class is left there; with
    # second = a it is one short of that, and b survives.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            GeneratorSpec("b", Tridegree(0, 3, 0)),
            *(GeneratorSpec(g, Tridegree(1, 0, 0), square_zero=True) for g in "uv"),
        ]
    )
    images = {"u": [presentation.monomial(a=1)], "v": [presentation.monomial(**{second: 1})]}
    d3 = build_differential(presentation, page=3, images=images)
    return presentation, d3, Window(((0, 1), (0, 1), (0, 1), (0, 1)))


def _zero_shift():
    # d2(x) = y with x and y in one tridegree, so the shift is zero and each
    # tridegree is its own source and target: a walk that starts d_r only at
    # tridegrees with no source never starts. E3 keeps 1 at (0,0,0), nothing
    # at (1,1,1), and x*y and x^2 at (2,2,2), all VALID; (3,3,3) is
    # INDETERMINATE, since x^3, which reaches x^2*y, is outside the window.
    presentation = MonomialAlgebraPresentation(
        [GeneratorSpec("x", Tridegree(1, 1, 1)), GeneratorSpec("y", Tridegree(1, 1, 1), square_zero=True)]
    )
    d2 = build_differential(presentation, page=2, images={"x": [presentation.monomial(y=1)]})
    return presentation, d2, Window(((0, 2), (0, 1)))


def _positive_shift():
    # d2(x) = y with shift (1,2,0) > 0, so the page turn walks the keys
    # forward, and its pointer to t + shift skips keys between targets: of the
    # 18 tridegrees only (4,5,3), (4,6,3) and (4,7,3), where x^3 would reach
    # x^2*y, are INDETERMINATE. Every other built-in or drawn shift walks in
    # reverse or has step 0.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("x", Tridegree(1, 1, 1)),
            GeneratorSpec("y", Tridegree(2, 3, 1), square_zero=True),
            GeneratorSpec("z", Tridegree(0, 1, 0)),
        ]
    )
    d2 = build_differential(presentation, page=2, images={"x": [presentation.monomial(y=1)]})
    return presentation, d2, Window(((0, 2), (0, 1), (0, 2)))


def _shared_offset():
    # d2(u) = u*w and d2(v) = v*w share the offset w, so u*v, outside the
    # window where w is held at 1, reaches u*v*w at (1,2,0) twice and d2(u*v)
    # = 0: (1,2,0) is VALID. A check that tests each offset on its own reads
    # it INDETERMINATE, and no drawn presentation gives two sources one offset.
    degrees = {"u": Tridegree(1, 0, 0), "v": Tridegree(1, 0, 0), "w": Tridegree(-1, 2, 0)}
    presentation = MonomialAlgebraPresentation(GeneratorSpec(g, t, square_zero=True) for g, t in degrees.items())
    diff = build_differential(presentation, 2, {g: [presentation.monomial(**{g: 1, "w": 1})] for g in "uv"})
    return presentation, diff, Window(((0, 1), (0, 1), (1, 1)))


def _matches_the_definition(presentation, diff, window):
    """Run one differential and check every tridegree against the definition; return the page."""
    state = run_to_einfty(presentation, [diff], window)
    assert list(state.classes) == list(state.basis) == list(state.status)
    basis = {t: [Monomial(e) for e in mons] for t, mons in state.basis.items()}
    d = {m: leibniz_extend(diff, m) for mons in basis.values() for m in mons}

    def rows(source, target):
        position = {m: i for i, m in enumerate(target)}
        out = []
        for m in source:
            bits = 0
            for p in d[m]:
                if window.contains(presentation, p):
                    bits ^= 1 << position[p]
            out.append(bits)
        return out

    def forward(mons):
        return all(window.contains(presentation, p) for m in mons for p in d[m])

    def backward(mons):
        # every valid exponent vector whose differential hits n lies in the window
        for n in mons:
            for name, image in diff.images.items():
                i = presentation.index_of(name)
                for u in image:
                    cand = tuple(a + (j == i) - b for j, (a, b) in enumerate(zip(n.exponents, u.exponents)))
                    if not _admits(presentation, cand):
                        continue
                    c = Monomial(cand)
                    if n in leibniz_extend(diff, c) and not window.contains(presentation, c):
                        return False
        return True

    for t, fibre in basis.items():
        upstream = basis.get(t - diff.shift, [])
        dim_ker = len(fibre) - len(gf2.rref(rows(fibre, basis.get(t + diff.shift, []))))
        dim_im = len(gf2.rref(rows(upstream, fibre)))
        assert len(state.classes[t]) == dim_ker - dim_im
        assert list(state.vectors[t]) == gf2.rref(list(state.vectors[t]))
        certified = forward(fibre) and forward(upstream) and backward(fibre)
        assert state.status[t] is (Certainty.VALID if certified else Certainty.INDETERMINATE)
        for c in state.classes[t]:
            boundary = d_sum(diff, c)
            assert not any(window.contains(presentation, p) for p in boundary)
            assert not boundary or not certified
    return state


@given(presentations_with_differential())
@example(_three_sources_on_one_target())
@example(_two_sources_on_a_two_monomial_target("b"))
@example(_two_sources_on_a_two_monomial_target("a"))
@example(_zero_shift())
@example(_positive_shift())
@example(_shared_offset())
def test_page_turn_matches_the_definition(case):
    _matches_the_definition(*case)


@pytest.mark.parametrize("alpha1_shift", [0, -3, 3])
def test_the_builtin_run_matches_the_definition(alpha1_shift):
    # the einfty window, with alpha1's range shifted as the einfty_builtin
    # benchmark's seeds shift it: an invertible generator with negative
    # bounds beside a square-zero one, on the presentation verify runs
    presentation, [d3] = localized_motivic_anss()
    bounds = dict(verify.EINFTY_WINDOW)
    lo, hi = bounds["alpha1"]
    bounds["alpha1"] = (lo + alpha1_shift, hi + alpha1_shift)
    _matches_the_definition(presentation, d3, Window.from_dict(presentation, bounds))


def test_a_term_seen_twice_outside_the_window_cancels():
    # d2(u) = u*w and d2(v) = v*w, so d2(u*v) = u*v*w + u*v*w = 0: the term
    # lies outside the window, where w is held at 0, and cancels. So u*v has
    # no Leibniz term and stays a certified class; u and v each lose a term
    # to the window boundary.
    degrees = {"u": Tridegree(1, 0, 0), "v": Tridegree(1, 0, 0), "w": Tridegree(-1, 2, 0)}
    presentation = MonomialAlgebraPresentation(GeneratorSpec(g, t, square_zero=True) for g, t in degrees.items())
    diff = build_differential(presentation, 2, {g: [presentation.monomial(**{g: 1, "w": 1})] for g in "uv"})
    state = _matches_the_definition(presentation, diff, Window(((0, 1), (0, 1), (0, 0))))
    assert state.classes[Tridegree(2, 0, 0)] == [frozenset((presentation.monomial(u=1, v=1),))]
    assert state.status[Tridegree(2, 0, 0)] is Certainty.VALID
    assert state.status[Tridegree(1, 0, 0)] is Certainty.INDETERMINATE


@pytest.mark.parametrize(
    "g1_degree, shift",
    [((0, 1, 2), (-1, 1, -2)), ((-1, 0, 1), (0, 0, 1)), ((-1, 0, 0), (0, 1, 0)), ((-1, 0, 0), (0, 0, 1))],
    ids=["leaves-f-range", "leaves-w-range", "df-at-least-F", "dw-at-least-W"],
)
def test_a_target_outside_the_window_aliases_no_tridegree(g1_degree, shift):
    # d3(g1) = g0 with g0 held at exponent 0, so the window is {1, g1} and
    # d3(g1) leaves it. leaves-f-range: t + shift = (-1,2,0) has f outside
    # the window's f range 0..1; leaves-w-range: (-1,0,2) has w outside 0..1.
    # Packed with the unpadded radices F and W, each of them has the key of
    # the unit's (0,0,0), which would then take g1's truncated image as its
    # upstream and lose its certificate. df-at-least-F and dw-at-least-W:
    # the window has F = W = 1, so the shift has no target fibre anywhere,
    # though key + pack(shift) is the unit's key.
    g1 = Tridegree(*g1_degree)
    presentation = MonomialAlgebraPresentation(
        [GeneratorSpec("g0", g1 + Tridegree(*shift)), GeneratorSpec("g1", g1, square_zero=True)]
    )
    diff = build_differential(presentation, 3, {"g1": [presentation.monomial(g0=1)]})
    state = _matches_the_definition(presentation, diff, Window(((0, 0), (0, 1))))
    assert set(state.basis) == {Tridegree(0, 0, 0), g1}
    assert g1 + diff.shift not in state.basis
    assert state.status[Tridegree(0, 0, 0)] is Certainty.VALID
    assert state.status[g1] is Certainty.INDETERMINATE


def test_a_lookup_outside_the_padded_range_is_a_key_error(presentation_and_d3, einfty_window):
    # (s - 1, f + 2F - 1, w) and (s, f - 1, w + 2W - 1) pack to the key of
    # (s, f, w), but their f or w digit is outside the padded range, so no
    # view of the page finds them. Nor does any view find a key that is not
    # a triple of integers: like any Mapping, a miss raises KeyError, so `in`
    # reads False and .get gives the default.
    presentation, d3 = presentation_and_d3
    state = run_to_einfty(presentation, [d3], einfty_window)
    views = (state.basis, state.vectors, state.status, state.classes, enumerate_basis(presentation, einfty_window))
    rf, rw = state.basis.radices
    for view in views:
        assert list(view.values()) == [view[t] for t in view]
    # (-10**6, 0, 0) and (10**6, 0, 0) pack to keys before the first and after the last
    misses = [(0, 0), "x", None, (0, 0, 0, 0), ("a", "b", "c"), [0, 0, 0]]
    misses += [Tridegree(-(10**6), 0, 0), Tridegree(10**6, 0, 0)]
    for t in (next(iter(state.basis)), Tridegree(4, 4, 4)):
        for alias in (Tridegree(t.s - 1, t.f + rf, t.w), Tridegree(t.s, t.f - 1, t.w + rw)):
            assert state.basis.pack(alias) == state.basis.pack(t)
            assert all(t in view for view in views)
            misses.append(alias)
    for view in views:
        for probe in misses:
            assert probe not in view
            assert view.get(probe) is None and view.get(probe, "default") == "default"
            with pytest.raises(KeyError):
                view[probe]


def test_items_zips_keys_and_values_with_no_lookup(monkeypatch, presentation_and_d3, einfty_window):
    presentation, d3 = presentation_and_d3
    state = run_to_einfty(presentation, [d3], einfty_window)
    views = (state.basis, state.vectors, state.status, state.classes)
    expected = [list(zip(list(view), list(view.values()))) for view in views]
    assert expected[0] == [(t, state.basis[t]) for t in state.basis]

    def lookup(self, t):
        raise AssertionError(f"items() looked up {t}")

    monkeypatch.setattr(TridegreeView, "__getitem__", lookup)
    assert [list(view.items()) for view in views] == expected


@given(presentations_with_differential())
@example(_shared_offset())
@example(_positive_shift())
def test_the_window_reach_keys_are_the_tridegrees_reached_from_outside(case):
    # turn_page's one key set per page turn, against every candidate n - off
    # of every window monomial n, read with the library's Leibniz rule: t is
    # in it exactly when a valid monomial outside the window reaches a
    # monomial at t with an odd coefficient
    presentation, diff, window = case
    grid = enumerate_basis(presentation, window)
    keys = spectral._reached_from_outside(diff, window, grid)
    reached = set()
    for t, mons in grid.items():
        for n in mons:
            for _, offs in diff.offsets:
                for off, _ in offs:
                    m = Monomial(tuple(e - o for e, o in zip(n, off)))
                    if _admits(presentation, m.exponents) and not window.contains(presentation, m):
                        if Monomial(n) in leibniz_extend(diff, m):
                            reached.add(t)
    assert keys <= set(grid.packed)
    assert {grid.tridegree(key) for key in keys} == reached


@given(presentations_with_differential())
def test_one_page_turn_from_e2_is_the_run_to_einfty(case):
    # turn_page takes any later page's differential; the pages in between are zero
    presentation, diff, window = case
    turned = turn_page(initial_page(presentation, window), diff)
    run = run_to_einfty(presentation, [diff], window)
    assert turned.basis == run.basis
    assert dict(turned.classes) == dict(run.classes)
    assert turned.status == run.status
    assert turned.page == run.page == diff.page + 1


def test_second_page_turn_acts_on_classes_not_monomials():
    # d3 sends each of u, v, x to a, so E4 holds sums such as u + v; d4 sends
    # only u to b, so the second turn acts on classes that are not single
    # monomials and keeps v + x.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            GeneratorSpec("b", Tridegree(0, 4, 0)),
            *(GeneratorSpec(name, Tridegree(1, 0, 0), square_zero=True) for name in "uvx"),
        ]
    )
    a, b = presentation.monomial(a=1), presentation.monomial(b=1)
    d3 = build_differential(presentation, page=3, images={"u": [a], "v": [a], "x": [a]})
    d4 = build_differential(presentation, page=4, images={"u": [b]})
    window = Window.from_dict(presentation, {"a": (0, 3), "b": (0, 3), "u": (0, 1), "v": (0, 1), "x": (0, 1)})
    e4, e5 = _second_page_by_the_definition(presentation, d3, d4, window)
    v, x = presentation.monomial(v=1), presentation.monomial(x=1)
    assert e5.classes[Tridegree(1, 0, 0)] == [frozenset((v, x))]
    assert sum(len(c) > 1 for cls in e4.classes.values() for c in cls) > 1
    assert sum(len(c) > 1 for cls in e5.classes.values() for c in cls) > 1


def _second_page_by_the_definition(presentation, d3, d4, window):
    """E4 and E5 of d3 then d4, with E5 checked against the definition.

    turn_page's definition on the E4 representatives r, with every image
    read on E4, that is modulo the E4 boundaries B (the d3 images): the
    kernel K of d4 on their span, modulo B and the image I of d4 from one
    shift upstream. The rows (d4 r, r) and (0, i) for i in I + B combine to
    (0, y) exactly for y in K + I + B. An image need not lie in span(r): in
    ``test_second_page_turn_acts_on_classes_not_monomials``, a^3*u is on E4
    only because d3(a^3*u) = a^4 leaves the window, and d4(a^3*u) = a^3*b =
    d3(a^2*b*u) is zero on E4.
    """
    e4 = turn_page(initial_page(presentation, window), d3)
    e5 = turn_page(e4, d4)
    basis = {t: [Monomial(e) for e in mons] for t, mons in e4.basis.items()}

    def vector(t, formal_sum):
        # the in-window part of a formal sum at t, as a bitmask over basis[t]
        position = {m: i for i, m in enumerate(basis.get(t, []))}
        return sum(1 << position[m] for m in formal_sum if m in position)

    def boundaries(t):
        return gf2.rref([vector(t, leibniz_extend(d3, m)) for m in basis.get(t - d3.shift, [])])

    def on_e4(t, formal_sum):
        return _reduce_mod(boundaries(t), vector(t, formal_sum))

    for t, fibre in basis.items():
        reps = e4.classes[t]
        out_rows = [on_e4(t + d4.shift, d_sum(d4, c)) for c in reps]
        in_rows = [on_e4(t, d_sum(d4, c)) for c in e4.classes.get(t - d4.shift, [])] + boundaries(t)
        graph = gf2.rref([o << len(fibre) | vector(t, c) for o, c in zip(out_rows, reps)] + in_rows)
        dim_im = len(gf2.rref(in_rows))
        new = e5.classes[t]
        assert len(new) == len(graph) - len(gf2.rref(out_rows)) - dim_im
        assert len(gf2.rref(in_rows + [vector(t, c) for c in new])) == dim_im + len(new)
        for c in new:
            assert _reduce_mod(graph, vector(t, c)) == 0
            assert on_e4(t + d4.shift, d_sum(d4, c)) == 0
    return e4, e5


@pytest.mark.parametrize(
    "d4_image, with_c, at_0_4_0, at_1_0_0",
    [
        ([{"b": 1}, {"a": 1, "z": 1}], False, [], []),
        ([{"b": 1}, {"a": 1, "z": 1}], True, ["c"], []),
        ([{"a": 1, "z": 1}], False, ["b"], ["y"]),
    ],
    ids=["full-rank", "one-short", "zero-column"],
)
def test_a_later_page_quotients_by_earlier_boundaries(d4_image, with_c, at_0_4_0, at_1_0_0):
    # d3(u) = a, so E4 at (1,0,0), spanned by u and y, is y alone, and a*z =
    # d3(u*z) is a boundary at (0,4,0). The page turn decides both fibres by
    # rank alone. full-rank: d4(y) = b + a*z, so d4[y] = [b], a nonzero
    # column, and with a*z it spans {b, a*z}: E5 is zero at both. one-short:
    # a third monomial c at (0,4,0), so the same boundaries are one short of
    # spanning {b, c, a*z}, and c survives. zero-column: d4(y) = a*z is zero
    # on E4, so y survives, and so does b.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            GeneratorSpec("b", Tridegree(0, 4, 0)),
            *([GeneratorSpec("c", Tridegree(0, 4, 0))] if with_c else []),
            GeneratorSpec("z", Tridegree(0, 1, 0), square_zero=True),
            GeneratorSpec("u", Tridegree(1, 0, 0), square_zero=True),
            GeneratorSpec("y", Tridegree(1, 0, 0), square_zero=True),
        ]
    )
    d3 = build_differential(presentation, page=3, images={"u": [presentation.monomial(a=1)]})
    d4 = build_differential(presentation, page=4, images={"y": [presentation.monomial(**e) for e in d4_image]})
    bounds = {g.name: (0, 2 if g.name in "abc" else 1) for g in presentation.generators}
    e4, e5 = _second_page_by_the_definition(presentation, d3, d4, Window.from_dict(presentation, bounds))
    for t, names in ((Tridegree(0, 4, 0), at_0_4_0), (Tridegree(1, 0, 0), at_1_0_0)):
        assert len(e4.basis[t]) >= 2
        assert e5.classes[t] == [frozenset((presentation.monomial(**{g: 1}),)) for g in names]
        assert e5.status[t] is Certainty.VALID


def test_boundaries_accumulate_over_pages():
    # d3(u) = a, d4(y) = b and d5(x) = c + a*w + b*z. On E5, a*w = d3(u*w)
    # and b*z = d4(y*z) are both boundaries, so d5[x] = [c] and E6 at (0,5,0)
    # is zero.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            GeneratorSpec("b", Tridegree(0, 4, 0)),
            GeneratorSpec("c", Tridegree(0, 5, 0)),
            *(GeneratorSpec(name, Tridegree(0, f, 0), square_zero=True) for name, f in (("z", 1), ("w", 2))),
            *(GeneratorSpec(name, Tridegree(1, 0, 0), square_zero=True) for name in "uyx"),
        ]
    )
    a, b, c, z, w = (presentation.monomial(**{g: 1}) for g in "abczw")
    aw, bz = presentation.multiply(a, w), presentation.multiply(b, z)
    diffs = [
        build_differential(presentation, page=3, images={"u": [a]}),
        build_differential(presentation, page=4, images={"y": [b]}),
        build_differential(presentation, page=5, images={"x": [c, aw, bz]}),
    ]
    window = Window.from_dict(presentation, {g: (0, 1) for g in "abczwuyx"})
    e5 = run_to_einfty(presentation, diffs[:2], window)
    assert e5.classes[Tridegree(0, 5, 0)] == [frozenset((c,))]
    e6 = turn_page(e5, diffs[2])
    assert e6.classes[Tridegree(0, 5, 0)] == []
    assert e6.classes[Tridegree(1, 0, 0)] == []


def test_a_map_that_squares_to_nonzero_is_rejected():
    # d3 with x -> y -> z: d3(d3(x)) = z, so d3 is not a differential
    presentation = MonomialAlgebraPresentation(
        GeneratorSpec(name, Tridegree(2 - k, 3 * k, 0)) for k, name in enumerate("xyz")
    )
    y, z = presentation.monomial(y=1), presentation.monomial(z=1)
    with pytest.raises(DifferentialSpecError, match=r"d3\(d3\(x\)\) = z"):
        build_differential(presentation, page=3, images={"x": [y], "y": [z]})


def test_differentials_that_do_not_anticommute_are_rejected():
    # d3(u) = a and d4(a) = b: d4 does not vanish on the d3-boundary a
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("u", Tridegree(1, 0, 0)),
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            GeneratorSpec("b", Tridegree(-1, 7, 0)),
        ]
    )
    d3 = build_differential(presentation, page=3, images={"u": [presentation.monomial(a=1)]})
    d4 = build_differential(presentation, page=4, images={"a": [presentation.monomial(b=1)]})
    window = Window.from_dict(presentation, {g: (0, 1) for g in "uab"})
    with pytest.raises(DifferentialSpecError, match=r"\(d3d4 \+ d4d3\)\(u\) = b"):
        run_to_einfty(presentation, [d3, d4], window)


def test_a_neighbour_left_uncertified_by_an_earlier_page_is_not_trusted():
    # d2(g1) = g2; d3 sends g0 -> g0*g2, g1 -> g1*g2 and g2 -> g2^2. In the
    # window 0:5, g0*g1^2 survives to E4 at (1,4,0): d3(g0*g1^2) = g0*g1^2*g2
    # = d2(g0*g1^3) is zero on E3. In 0:2, g1^3 is outside the window, so E3
    # keeps a spurious class g0*g1^2*g2 at (0,7,0), where d2 was not
    # certified, and d3 kills the true class at (1,4,0) against it.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("g0", Tridegree(1, 2, 0)),
            GeneratorSpec("g1", Tridegree(0, 1, 0)),
            GeneratorSpec("g2", Tridegree(-1, 3, 0)),
        ]
    )
    names = ("g0", "g1", "g2")
    g0, g1, g2 = (presentation.monomial(**{g: 1}) for g in names)
    diffs = [
        build_differential(presentation, page=2, images={"g1": [g2]}),
        build_differential(
            presentation, page=3, images={g: [presentation.multiply(m, g2)] for g, m in zip(names, (g0, g1, g2))}
        ),
    ]
    t = Tridegree(1, 4, 0)
    small, large = (Window.from_dict(presentation, {g: (0, r) for g in names}) for r in (2, 5))
    inner = run_to_einfty(presentation, diffs, small)
    outer = run_to_einfty(presentation, diffs, large)
    assert inner.basis[t] == outer.basis[t]
    assert outer.classes[t] == [frozenset((presentation.monomial(g0=1, g1=2),))]
    assert outer.status[t] is Certainty.VALID
    assert inner.classes[t] == []
    assert inner.status[t] is Certainty.INDETERMINATE


def test_classes_are_the_reduced_echelon_form_of_the_kernel():
    # d3 sends each of u, v, x to a. The fibre at (1,0,0) is x, v, u in
    # monomial order (bits 0, 1, 2), so elimination in source order finds
    # the kernel x + v, x + u; the classes are its reduced echelon form,
    # x + u and v + u, though nothing at (1,0,0) is a boundary.
    presentation = MonomialAlgebraPresentation(
        [
            GeneratorSpec("a", Tridegree(0, 3, 0)),
            *(GeneratorSpec(name, Tridegree(1, 0, 0), square_zero=True) for name in "uvx"),
        ]
    )
    d3 = build_differential(presentation, page=3, images={name: [presentation.monomial(a=1)] for name in "uvx"})
    window = Window.from_dict(presentation, {"a": (0, 1), "u": (0, 1), "v": (0, 1), "x": (0, 1)})
    e4 = run_to_einfty(presentation, [d3], window)
    t = Tridegree(1, 0, 0)
    assert list(e4.basis[t]) == [(0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0)]
    assert list(e4.vectors[t]) == [0b101, 0b110]


# --- window independence with several differentials ------------------------

_degrees = st.lists(
    st.tuples(st.integers(-1, 1), st.integers(0, 3), st.integers(0, 1), _kinds), min_size=2, max_size=4
)


def _anticommute(dr, ds):
    return all(
        not d_sum(dr, ds.images.get(g.name, ())) ^ d_sum(ds, dr.images.get(g.name, ()))
        for g in dr.presentation.generators
    )


@st.composite
def presentations_with_differentials(draw):
    """2-4 generators, 1-3 differentials, and windows W inside W'.

    Each differential has the shift deg(u) - deg(g) of a drawn generator g
    and monomial u from the small exponent box. Generator images are drawn
    from that box in the right degree, nonempty for g, and one generator's
    image is kept
    only if d^2 stays zero and the differential still anticommutes with the
    earlier ones, so the listed maps form a spectral sequence.
    """
    specs = draw(_degrees)
    presentation = MonomialAlgebraPresentation(
        GeneratorSpec(
            f"g{i}", Tridegree(s, f, w), invertible=kind == "invertible", square_zero=kind == "square_zero"
        )
        for i, (s, f, w, kind) in enumerate(specs)
    )
    gens = presentation.generators
    box = [Monomial(e) for e in product(*(_exponent_range(g, False) for g in gens))]
    by_degree: dict[Tridegree, list[Monomial]] = {}
    for m in box:
        by_degree.setdefault(presentation.degree(m), []).append(m)
    diffs = []
    for page in sorted(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3, unique=True))):
        g = draw(st.sampled_from(gens))
        shift = presentation.degree(draw(st.sampled_from(box))) - g.degree
        images: dict[str, list[Monomial]] = {}
        for h in gens:
            candidates = by_degree.get(h.degree + shift)
            if not candidates:
                continue
            image = draw(st.lists(st.sampled_from(candidates), min_size=int(h is g), max_size=2, unique=True))
            if not image:
                continue
            try:
                diff = build_differential(presentation, page, {**images, h.name: image})
            except DifferentialSpecError:
                continue
            if all(_anticommute(earlier, diff) for earlier in diffs):
                images[h.name] = image
        diffs.append(build_differential(presentation, page, images))
    inner = draw(st.lists(st.tuples(st.integers(-1, 0), st.integers(0, 2)), min_size=len(gens), max_size=len(gens)))
    grow = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=len(gens), max_size=len(gens)))
    outer = tuple((lo - a, hi + b) for (lo, hi), (a, b) in zip(inner, grow))
    return presentation, diffs, Window(tuple(inner)), Window(outer)


@given(presentations_with_differentials())
def test_valid_classes_do_not_depend_on_the_window(case):
    # a VALID tridegree of W whose fibre is the same in W' has the same
    # classes there; a fibre that grows is the separate truncated-fibre gap
    presentation, diffs, small, large = case
    inner = run_to_einfty(presentation, diffs, small)
    outer = run_to_einfty(presentation, diffs, large)
    for t, status in inner.status.items():
        if status is Certainty.VALID and inner.basis[t] == outer.basis[t]:
            assert inner.vectors[t] == outer.vectors[t], t


def test_the_builtin_run_needs_no_elimination(monkeypatch, presentation_and_d3, einfty_window):
    # every fibre the built-in d3 touches holds one monomial, so the page
    # turn decides it by rank and never calls the GF(2) elimination
    calls = dict.fromkeys(("kernel_and_image", "quotient_representatives"), 0)
    for name in calls:

        def counted(*args, _name=name, _f=getattr(gf2, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(gf2, name, counted)
    presentation, d3 = presentation_and_d3
    state = run_to_einfty(presentation, [d3], einfty_window)
    assert any(not state.vectors[t] for t in state.basis)
    assert calls == {"kernel_and_image": 0, "quotient_representatives": 0}


def _wide_case(x_hi):
    text = "t 0 1 0\n" + "".join(f"x{i} 1 1 1\n" for i in range(4)) + "u 2 0 1\n"
    presentation = MonomialAlgebraPresentation.parse(text)
    hit = [presentation.monomial(t=2, x0=1), presentation.monomial(t=2, x1=1)]
    d3 = build_differential(presentation, 3, {"u": hit})
    bounds = {"t": (0, 4), **{f"x{i}": (0, x_hi) for i in range(4)}, "u": (0, 3)}
    return presentation, [d3], Window.from_dict(presentation, bounds)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_a_fibre_the_window_cuts_short_is_not_valid():
    # the full fibre at (3,3,3) is the 20 cubics in x0..x3, with no
    # differential into or out of it; the window, with x_i <= 2, holds 16
    presentation, diffs, _ = _wide_case(4)
    bounds = {"t": (0, 2), **{f"x{i}": (0, 2) for i in range(4)}, "u": (0, 1)}
    state = run_to_einfty(presentation, diffs, Window.from_dict(presentation, bounds))
    t = Tridegree(3, 3, 3)
    assert state.status[t] is Certainty.INDETERMINATE or len(state.classes[t]) == 20


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("r", [2, 5])
def test_an_infinite_fibre_is_not_valid(r):
    # g0^k * g1^(-2-2k) sits in (0,-2,-2) for every k >= 0
    presentation = MonomialAlgebraPresentation.parse("g0 0 2 2\ng1 0 1 1 invertible\ng2 1 1 -2\ng3 2 2 2\n")
    d3 = DifferentialSpec(presentation, 3, {"g3": [presentation.monomial(g0=1, g1=2, g2=1)]})
    bounds = {"g0": (0, r), "g1": (-r, r), "g2": (0, r), "g3": (0, r)}
    state = run_to_einfty(presentation, [d3], Window.from_dict(presentation, bounds))
    assert state.status[Tridegree(0, -2, -2)] is Certainty.INDETERMINATE


def _builtin_case(alpha1_shift):
    presentation, diffs = localized_motivic_anss()
    bounds = {name: (2 * lo, 2 * hi) for name, (lo, hi) in verify.EINFTY_WINDOW.items()}
    bounds["alpha4"] = verify.EINFTY_WINDOW["alpha4"]
    lo, hi = bounds["alpha1"]
    bounds["alpha1"] = (lo + alpha1_shift, hi + alpha1_shift)
    return presentation, diffs, Window.from_dict(presentation, bounds)


@pytest.mark.parametrize(
    "case, largest, digest",
    [
        (lambda: _wide_case(4), 85, "772f1193d57a2820efbc69f237ffbb4c8f64483eb2d0f0246ad7a725cfe8cf80"),
        (lambda: _wide_case(5), 146, "bee529bba47e418d57c7969fbf24158bbe1afbbd9b2a5dc1b9d196466ca7cc88"),
        (lambda: _builtin_case(-3), 1, "8c803b30c0194be8b7bd4b13c0c52ed4dc55e2b8bd8a1fbd40fbffc75208ccd0"),
        (lambda: _builtin_case(3), 1, "751892c93e4bc0d5353b070d8e810202a40f6f92d75fdba2ebe6f17c7d4295f9"),
    ],
    ids=["wide", "wide-bench-size", "builtin-alpha1-minus-3", "builtin-alpha1-plus-3"],
)
def test_fibres_of_many_monomials_are_pinned(case, largest, digest):
    # The pinned verify and --table digests cover only the built-in
    # presentation on small windows, whose fibres hold one monomial each.
    # wide: the einfty_wide benchmark's presentation in a smaller box, with
    # fibres of up to 85 monomials and 252 tridegrees with more than one
    # class. wide-bench-size: the same in the benchmark's box, x_i 0:5, with
    # fibres of up to 146 monomials. builtin: the einfty_builtin benchmark's
    # window, the einfty window doubled but for alpha4, at its extreme alpha1
    # shifts (21,658 monomials). Each digest is over ints and strings only.
    presentation, diffs, window = case()
    state = run_to_einfty(presentation, diffs, window)
    kept = repr([(tuple(t), mons, state.vectors[t], str(state.status[t])) for t, mons in state.basis.items()])
    assert max(map(len, state.basis.values())) == largest
    assert hashlib.sha256(kept.encode()).hexdigest() == digest


def test_a_run_holds_no_position_per_key():
    # the einfty_builtin benchmark's window, 21,658 tridegrees of one monomial
    # each. Positions come from the sorted keys alone: a key-to-position dict
    # and its position ints held 253 bytes per tridegree here at the peak, and
    # the grid without them holds 199.
    presentation, diffs, window = _builtin_case(0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        state = run_to_einfty(presentation, diffs, window)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak <= 225 * len(state.basis), f"peak {peak} bytes for {len(state.basis)} tridegrees"
