"""Element families, periodicity lines, and the May E1 generator census."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems.algebra import Bidegree, Tridegree
from motivic_stems.families import (
    EXOTIC_NONNILPOTENT,
    SPECULATIVE_W2_SLOPE,
    FamilyError,
    FamilySpec,
    MayGenerator,
    builtin_families,
    family_line,
    may_e1_counts,
    may_e1_generators,
    sharpness_report,
    vn_bidegree,
    wn_bidegree,
    wn_slope,
)
from motivic_stems.regions import RegionLabel, classify


def test_builtin_families_frozen():
    specs = {f.name: f for f in builtin_families()}
    assert set(specs) == {"Pk_h1_4", "w1_family", "Pk_h1", "eta_powers", "tau_powers"}
    assert specs["Pk_h1_4"].base == Tridegree(4, 4, 4)
    assert specs["Pk_h1_4"].period == Tridegree(8, 4, 4)
    assert specs["w1_family"].base == Tridegree(9, 3, 6)
    assert specs["w1_family"].period == Tridegree(20, 4, 12)
    assert specs["Pk_h1"].base == Tridegree(1, 1, 1)
    assert specs["eta_powers"].period == Tridegree(1, 1, 1)
    assert specs["tau_powers"].period == Tridegree(0, 0, -1)
    assert specs["Pk_h1_4"].annihilated_by == "tau"
    assert specs["w1_family"].annihilated_by == "eta"


def test_family_members_walk_the_period():
    fam = next(f for f in builtin_families() if f.name == "w1_family")
    assert fam.member(0) == Tridegree(9, 3, 6)
    assert fam.member(2) == Tridegree(49, 11, 30)
    assert fam.bidegree(2) == Bidegree(49, 30)
    with pytest.raises(FamilyError, match="index must be >= 0"):
        fam.member(-1)


def test_family_spec_validation():
    with pytest.raises(FamilyError, match="annihilated_by"):
        FamilySpec("q", Tridegree(0, 0, 0), Tridegree(1, 1, 1), annihilated_by="sigma")
    with pytest.raises(FamilyError, match="advance the stem"):
        FamilySpec("q", Tridegree(0, 0, 0), Tridegree(0, 0, 0), annihilated_by="none")
    with pytest.raises(FamilyError, match="advance the stem"):
        FamilySpec("q", Tridegree(0, 0, 0), Tridegree(-2, 0, 1), annihilated_by="none")


@pytest.mark.parametrize(
    "base, period",
    [
        ((1, 1, 1), Tridegree(2, 0, 1)),  # member(k) would concatenate tuples
        (Tridegree(0, 0, 0), (0, 0, -1)),  # the tau tower's period as a plain tuple
        (Tridegree(0.5, 0, 0), Tridegree(1, 1, 1)),
        (Tridegree(0, 0, 0), Tridegree(1, 1, False)),
    ],
)
def test_a_family_degree_must_be_a_tridegree_of_ints(base, period):
    with pytest.raises(FamilyError, match="Tridegrees of three ints"):
        FamilySpec("x", base, period, "tau")


def test_family_lines():
    assert family_line("Pk_h1_4") == (Fraction(1, 2), Fraction(2))
    assert family_line("w1_family") == (Fraction(3, 5), Fraction(3, 5))
    assert family_line("Pk_h1") == (Fraction(1, 2), Fraction(1, 2))
    assert family_line("eta_powers") == (Fraction(1), Fraction(0))
    with pytest.raises(FamilyError, match="unknown family"):
        family_line("v2_family")
    with pytest.raises(FamilyError, match="moves vertically"):
        family_line("tau_powers")


def test_families_flank_their_boundaries():
    specs = {f.name: f for f in builtin_families()}

    def region(name, k):
        p = specs[name].bidegree(k)
        return classify(p.s, p.w)

    for k in range(1, 30):
        assert region("Pk_h1_4", k) is RegionLabel.NOT_UNDERSTOOD
        assert region("w1_family", k) is RegionLabel.NOT_UNDERSTOOD
        assert region("Pk_h1", k) is RegionLabel.TAU_LOCAL
        assert region("tau_powers", k) is RegionLabel.TAU_LOCAL
    for k in range(2, 30):
        assert region("eta_powers", k) is RegionLabel.ETA_LOCAL


def test_vn_periodicity():
    assert vn_bidegree(1, 1) == Bidegree(2, 1)
    assert vn_bidegree(2, 1) == Bidegree(6, 3)
    assert vn_bidegree(2, 5) == Bidegree(30, 15)
    for n in range(1, 21):
        p = vn_bidegree(n, 1)
        assert Fraction(p.w, p.s) == Fraction(1, 2)
    with pytest.raises(FamilyError, match="n >= 1"):
        vn_bidegree(0, 1)
    with pytest.raises(FamilyError, match="power"):
        vn_bidegree(1, -1)


def test_wn_periodicity():
    assert wn_bidegree(0, 1) == Bidegree(1, 1)
    assert wn_bidegree(1, 1) == Bidegree(5, 3)
    assert wn_bidegree(2, 1) == Bidegree(13, 7)
    assert wn_slope(0) == Fraction(1)
    assert wn_slope(2) == SPECULATIVE_W2_SLOPE == Fraction(7, 13)
    slopes = [wn_slope(n) for n in range(21)]
    assert all(a > b for a, b in zip(slopes, slopes[1:]))
    assert all(s > Fraction(1, 2) for s in slopes)
    assert slopes[-1] - Fraction(1, 2) < Fraction(1, 1000)
    with pytest.raises(FamilyError, match="n >= 0"):
        wn_bidegree(-1, 1)
    with pytest.raises(FamilyError, match="power must be >= 0, got -1"):
        wn_bidegree(1, -1)
    for n in (-1, -2):
        with pytest.raises(FamilyError, match="n >= 0"):
            wn_slope(n)


def test_exotic_element_stays_not_understood():
    assert EXOTIC_NONNILPOTENT == Bidegree(32, 18)
    ray = Fraction(EXOTIC_NONNILPOTENT.w, EXOTIC_NONNILPOTENT.s)
    assert ray == Fraction(9, 16)
    assert ray != Fraction(1, 2)
    assert all(ray != wn_slope(n) for n in range(21))
    for k in range(1, 101):
        power = EXOTIC_NONNILPOTENT * k
        assert classify(power.s, power.w) is RegionLabel.NOT_UNDERSTOOD


def test_may_generator_formulas():
    h10 = MayGenerator.make(1, 0)
    assert (h10.stem, h10.weight, h10.name) == (0, 0, "h1,0")
    h11 = MayGenerator.make(1, 1)
    assert (h11.stem, h11.weight) == (1, 1)
    h20 = MayGenerator.make(2, 0)
    assert (h20.stem, h20.weight) == (2, 1)
    h21 = MayGenerator.make(2, 1)
    assert (h21.stem, h21.weight) == (5, 3)
    h12 = MayGenerator.make(1, 2)
    assert (h12.stem, h12.weight) == (3, 2)
    with pytest.raises(FamilyError):
        MayGenerator.make(0, 0)
    with pytest.raises(FamilyError):
        MayGenerator.make(1, -1)


def test_may_census():
    gens = may_e1_generators(7)
    assert [(g.name, g.stem, g.weight) for g in gens] == [
        ("h1,0", 0, 0),
        ("h1,1", 1, 1),
        ("h2,0", 2, 1),
        ("h1,2", 3, 2),
        ("h2,1", 5, 3),
        ("h3,0", 6, 3),
        ("h1,3", 7, 4),
    ]
    assert may_e1_generators(-1) == []
    assert may_e1_generators(0) == [MayGenerator.make(1, 0)]


@given(st.integers(min_value=0, max_value=2000))
def test_census_sits_on_or_below_diagonal(max_stem):
    gens = may_e1_generators(max_stem)
    stems = [(g.stem, g.i, g.j) for g in gens]
    assert stems == sorted(stems)
    for g in gens:
        assert 0 <= g.weight <= g.stem <= max_stem
        assert classify(g.stem, g.weight) is not RegionLabel.ZERO


@given(st.integers(min_value=-5, max_value=2000))
def test_census_counts_are_the_generators_per_i(max_stem):
    # one count for each i = 1, 2, ... that has a generator in range, checked
    # against the h_{i,j} with i, j <= 12, which include every generator below stem 8,190
    assert sum(may_e1_counts(max_stem)) == len(may_e1_generators(max_stem))
    in_range = [sum(MayGenerator.make(i, j).stem <= max_stem for j in range(13)) for i in range(1, 13)]
    assert may_e1_counts(max_stem) == [n for n in in_range if n]


def test_census_counts_at_the_cli_cap():
    # h_{320,127} sits in stem 2^127 (2^320 - 1) - 1 and is the 100,001st generator
    assert sum(may_e1_counts(2**127 * (2**320 - 1) - 2)) == 100_000
    assert sum(may_e1_counts(2**127 * (2**320 - 1) - 1)) == 100_001


def test_sharpness_report_mentions_everything(sample_stems):
    report = sharpness_report(sample_stems)
    for fam in builtin_families():
        assert fam.name in report
    assert "32" in report and "18" in report
    assert str(SPECULATIVE_W2_SLOPE) in report
    assert "classical stem 0" in report
    bare = sharpness_report()
    assert "classical stem" not in bare
