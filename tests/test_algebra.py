from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems import verify
from motivic_stems.algebra import (
    Bidegree,
    GeneratorSpec,
    Monomial,
    MonomialAlgebraPresentation,
    PresentationError,
    PresentationMismatchError,
    Tridegree,
    Window,
    enumerate_basis,
    iter_window_monomials,
)


def test_tridegree_arithmetic():
    a = Tridegree(1, 2, 3)
    b = Tridegree(5, 1, 3)
    # coordinatewise, not tuple concatenation or repetition
    for value, expected in ((a + b, (6, 3, 6)), (b - a, (4, -1, 0)), (3 * a, (3, 6, 9)), (a * 3, (3, 6, 9))):
        assert type(value) is Tridegree and value == Tridegree(*expected)
    assert a.bidegree() == Bidegree(1, 3)
    assert a.as_tuple() == (1, 2, 3)
    assert str(a) == "(1,2,3)"
    degrees = [Tridegree(s, f, w) for s in (1, -1, 0) for f in (2, 0) for w in (-3, 3)]
    assert sorted(degrees) == sorted(degrees, key=Tridegree.as_tuple)


def test_bidegree_arithmetic():
    for value in (2 * Bidegree(3, 5), Bidegree(3, 5) * 2):
        assert type(value) is Bidegree and value == Bidegree(6, 10)
    assert str(Bidegree(-1, 4)) == "(-1,4)"
    points = [Bidegree(s, w) for s in (2, -2, 0) for w in (1, -1)]
    assert sorted(points) == sorted(points, key=lambda p: (p.s, p.w))


def test_generator_spec_validation():
    with pytest.raises(PresentationError):
        GeneratorSpec("", Tridegree(0, 0, 0))
    with pytest.raises(PresentationError):
        GeneratorSpec("two words", Tridegree(0, 0, 0))
    with pytest.raises(PresentationError):
        GeneratorSpec("x", Tridegree(1, 1, 1), invertible=True, square_zero=True)


@pytest.mark.parametrize("degree", [Tridegree(1.5, 1, 1), Tridegree(1, True, 1), (1, 1, 1), Bidegree(1, 1)])
def test_a_generator_degree_must_be_a_tridegree_of_ints(degree):
    # a float degree would reach enumerate_basis's keys, and a plain tuple has no .s for degree()
    with pytest.raises(PresentationError, match="Tridegree of three ints"):
        GeneratorSpec("x", degree)


def test_presentation_rejects_duplicate_names():
    g = GeneratorSpec("x", Tridegree(1, 1, 1))
    with pytest.raises(PresentationError, match="duplicate"):
        MonomialAlgebraPresentation([g, g])


def test_degree_of_frozen_monomial(presentation_and_d3):
    presentation, _ = presentation_and_d3
    m = presentation.monomial(tau=1, alpha1=-1, alpha4=1)
    assert presentation.degree(m) == Tridegree(6, 0, 2)
    assert presentation.degree(presentation.monomial()) == Tridegree(0, 0, 0)


def test_multiply_kills_square_zero(presentation_and_d3):
    presentation, _ = presentation_and_d3
    a4 = presentation.monomial(alpha4=1)
    assert presentation.multiply(a4, a4) is None
    tau = presentation.monomial(tau=1)
    assert presentation.multiply(tau, tau) == presentation.monomial(tau=2)


def test_validate_monomial_errors(presentation_and_d3):
    presentation, _ = presentation_and_d3
    with pytest.raises(PresentationError, match="negative"):
        presentation.monomial(tau=-1)
    with pytest.raises(PresentationError, match="square-zero"):
        presentation.monomial(alpha4=2)
    with pytest.raises(PresentationMismatchError):
        presentation.validate_monomial(Monomial((1, 2)))
    with pytest.raises(PresentationMismatchError, match="unknown generator"):
        presentation.monomial(beta=1)


def test_monomial_and_sum_strings(presentation_and_d3):
    presentation, _ = presentation_and_d3
    assert presentation.monomial_str(presentation.monomial()) == "1"
    m = presentation.monomial(tau=2, alpha1=-3, alpha3=1)
    assert presentation.monomial_str(m) == "tau^2*alpha1^-3*alpha3"
    terms = [presentation.monomial(alpha1=4), presentation.monomial(tau=1)]
    assert presentation.sum_str(terms) == "alpha1^4 + tau"
    assert presentation.sum_str([]) == "0"


def test_parse_builds_the_builtin_presentation(presentation_and_d3):
    presentation, _ = presentation_and_d3
    text = "tau 0 0 -1\nalpha1 1 1 1 invertible\nalpha3 5 1 3\nalpha4 7 1 4 square_zero\n"
    assert MonomialAlgebraPresentation.parse(text) == presentation


def test_parse_rejects_malformed_lines():
    with pytest.raises(PresentationError, match="line 1"):
        MonomialAlgebraPresentation.parse("x 1 1\n")
    with pytest.raises(PresentationError, match="non-integer"):
        MonomialAlgebraPresentation.parse("x 1 one 1\n")
    with pytest.raises(PresentationError, match="unknown flags"):
        MonomialAlgebraPresentation.parse("x 1 1 1 bogus\n")
    parsed = MonomialAlgebraPresentation.parse("# comment\n\nx 1 2 3 invertible  # trailing\n")
    assert parsed.generators[parsed.index_of("x")].invertible


def test_window_requires_every_generator(presentation_and_d3):
    presentation, _ = presentation_and_d3
    with pytest.raises(PresentationError, match="missing bounds"):
        Window.from_dict(presentation, {"tau": (0, 1)})
    with pytest.raises(PresentationMismatchError, match="unknown"):
        Window.from_dict(
            presentation,
            {"tau": (0, 1), "alpha1": (0, 1), "alpha3": (0, 1), "alpha4": (0, 1), "beta": (0, 1)},
        )
    with pytest.raises(PresentationMismatchError, match="window has 3 bounds, presentation has 4 generators"):
        Window(((0, 1), (0, 1), (0, 1))).effective_bounds(presentation)


def test_window_built_directly_checks_its_bounds():
    # a dict, such as verify.EINFTY_WINDOW, or a str bound fails here with
    # one message, not later inside effective_bounds
    with pytest.raises(PresentationError, match=r"tuple of \(int, int\) pairs"):
        Window(verify.EINFTY_WINDOW)
    with pytest.raises(PresentationError, match=r"tuple of \(int, int\) pairs"):
        Window(((0, 8), ("-12", 12)))
    assert Window(((0, 8), (-12, 12))).bounds == ((0, 8), (-12, 12))


def test_wrong_length_exponents_are_not_valid_or_in_a_window(presentation_and_d3, einfty_window):
    presentation, _ = presentation_and_d3
    for exps in ((0, 0, 0), (0, 0, 0, 0, 0)):
        with pytest.raises(PresentationMismatchError, match="exponents, presentation has 4 generators"):
            presentation.validate_monomial(Monomial(exps))
        assert not einfty_window.contains(presentation, Monomial(exps))
    presentation.validate_monomial(Monomial((0, 0, 0, 0)))


def test_window_clamps_to_presentation(presentation_and_d3):
    presentation, _ = presentation_and_d3
    window = Window.from_dict(
        presentation, {"tau": (-5, 2), "alpha1": (-2, 2), "alpha3": (0, 1), "alpha4": (0, 9)}
    )
    eff = window.effective_bounds(presentation)
    assert eff[presentation.index_of("tau")] == (0, 2)
    assert eff[presentation.index_of("alpha1")] == (-2, 2)
    assert eff[presentation.index_of("alpha4")] == (0, 1)


def test_empty_window_raises(presentation_and_d3):
    presentation, _ = presentation_and_d3
    inverted = Window.from_dict(
        presentation, {"tau": (3, 1), "alpha1": (0, 0), "alpha3": (0, 0), "alpha4": (0, 0)}
    )
    capped = Window.from_dict(  # square-zero caps alpha4 at 1
        presentation, {"tau": (0, 1), "alpha1": (0, 0), "alpha3": (0, 0), "alpha4": (5, 9)}
    )
    for window, name in ((inverted, "'tau'"), (capped, "'alpha4'")):
        with pytest.raises(PresentationError, match=f"window holds no monomials: .*{name}"):
            window.effective_bounds(presentation)
        with pytest.raises(PresentationError, match="holds no monomials"):
            iter_window_monomials(presentation, window)
        with pytest.raises(PresentationError, match="holds no monomials"):
            enumerate_basis(presentation, window)


def test_enumerate_basis_sorted_and_grouped(presentation_and_d3, einfty_window):
    presentation, _ = presentation_and_d3
    basis = enumerate_basis(presentation, einfty_window)
    keys = list(basis)
    assert keys == sorted(keys, key=Tridegree.as_tuple)
    for t, fibre in basis.items():
        for m in map(Monomial, fibre):
            assert presentation.degree(m) == t
            assert einfty_window.contains(presentation, m)


def test_window_fibers_are_singletons(presentation_and_d3, einfty_window):
    # the degree map is injective on this algebra's monomials, a fact the
    # certification contract of the built-in instance relies on
    presentation, _ = presentation_and_d3
    for monomials in enumerate_basis(presentation, einfty_window).values():
        assert len(monomials) == 1


exponents_strategy = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=-8, max_value=8),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=1),
)


@given(exponents_strategy, exponents_strategy)
def test_degree_is_additive_under_multiplication(e1, e2):
    from motivic_stems.spectral import localized_motivic_anss

    presentation, _ = localized_motivic_anss()
    m1, m2 = Monomial(e1), Monomial(e2)
    product = presentation.multiply(m1, m2)
    if product is not None:
        assert presentation.degree(product) == presentation.degree(m1) + presentation.degree(m2)
    else:
        assert e1[3] + e2[3] > 1
