"""Region partition and group resolution for the motivic bidegree plane."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems import regions
from motivic_stems.charts import StemsTable, load_sample_stems
from motivic_stems.groups import TRIVIAL_GROUP, Z_MOD_2, GroupDescriptor
from motivic_stems.regions import (
    GroupValue,
    RegionLabel,
    adams_weak_bound,
    classify,
    eta_local_group,
    resolve_group,
)

ZERO = RegionLabel.ZERO
TAU = RegionLabel.TAU_LOCAL
ETA = RegionLabel.ETA_LOCAL
NU = RegionLabel.NOT_UNDERSTOOD


@pytest.mark.parametrize(
    "s, w, label",
    [
        (-1, -1, ZERO),
        (0, 1, ZERO),
        (7, 8, ZERO),
        (0, 0, TAU),
        (0, -5, TAU),
        (1, 1, TAU),
        (2, 2, TAU),  # w = s/2 + 1 is tau-local inclusive
        (10, 6, TAU),
        (10, 7, NU),  # 5w = 3s + 5 exactly: still not understood
        (5, 4, NU),
        (20, 13, NU),
        (10, 8, ETA),
        (5, 5, ETA),
        (20, 14, ETA),
        (10, 10, ETA),
    ],
)
def test_classify_spots(s, w, label):
    assert classify(s, w) is label


def test_region_labels_render():
    assert str(RegionLabel.NOT_UNDERSTOOD) == "NotUnderstood"
    assert {str(r) for r in RegionLabel} == {"Zero", "TauLocal", "EtaLocal", "NotUnderstood"}


def test_zero_stem_ray_is_tau_powers():
    for k, expected in ((0, "1"), (1, "tau"), (4, "tau^4")):
        value = resolve_group(0, -k)
        assert value.group_str == "Z2"
        assert value.generator_str == expected


def test_tau_local_values(sample_stems):
    with_table = resolve_group(6, 3, sample_stems)
    assert with_table.region is TAU and with_table.group_str == "Z/2"
    assert resolve_group(3, 1, sample_stems).group_str == "Z/8"
    assert resolve_group(8, 5, sample_stems).group_str == "Z/2+Z/2"
    bare = resolve_group(6, 3)
    assert bare.region is TAU and bare.descriptor is None and bare.stem == 6
    assert bare.group_str == "pi_6" and bare.generator_str == "-"


def test_tau_local_values_follow_the_table():
    table = StemsTable(groups={5: TRIVIAL_GROUP})
    assert resolve_group(5, 2, table).group_str == "0"
    table.groups[5] = Z_MOD_2
    assert resolve_group(5, 2, table).group_str == "Z/2"
    other = StemsTable(groups={5: GroupDescriptor((4,))})
    assert resolve_group(5, 2, other).group_str == "Z/4"
    assert resolve_group(5, 2, table).group_str == "Z/2"
    assert resolve_group(5, 2).group_str == "pi_5"


def test_the_tau_local_memo_is_bounded_and_one_stems_cells_share_a_value():
    memo = regions._tau_local_value
    bound = memo.cache_info().maxsize
    assert bound is not None
    for s in range(10**6, 10**6 + 2 * bound + 1):
        # w = 0 and w = 1 are both tau-local for s >= 1
        assert resolve_group(s, 0) is resolve_group(s, 1)
    assert memo.cache_info().currsize <= bound


@pytest.mark.parametrize(
    "s, w, group, generator",
    [
        (8, 8, "Z/2", "eta^8"),
        (9, 8, "0", "-"),
        (16, 13, "Z/2", "eta^9*sigma"),
        (7, 4, "Z/2", "sigma"),
        (9, 5, "Z/2", "mu9"),
        (3, 3, "Z/2", "eta^3"),
        (0, 0, "Z/2", "1"),
        (16, 9, "Z/2", "sigma*mu9"),
        (25, 13, "Z/2", "eta^-2*mu9^3"),
    ],
)
def test_eta_local_values(s, w, group, generator):
    value = eta_local_group(s, w)
    assert (value.group_str, value.generator_str) == (group, generator)


def test_resolve_routes_by_region(sample_stems):
    assert resolve_group(-5, 2).group_str == "0"
    assert resolve_group(20, 13).group_str == "?"
    assert resolve_group(20, 13) == GroupValue(NU)
    assert resolve_group(16, 13).generator_str == "eta^9*sigma"


def test_group_value_constructors():
    assert GroupValue(NU).group_str == "?"
    assert GroupValue(TAU, stem=11).group_str == "pi_11"


bidegrees = st.tuples(
    st.integers(min_value=-10_000, max_value=10_000),
    st.integers(min_value=-10_000, max_value=10_000),
)


@given(bidegrees)
def test_classify_zero_region_characterization(sw):
    s, w = sw
    assert (classify(s, w) is ZERO) == (s < 0 or w > s)


@given(bidegrees)
def test_zero_region_resolves_trivially(sw):
    s, w = sw
    if classify(s, w) is ZERO:
        assert resolve_group(s, w).descriptor.is_trivial


@given(bidegrees, st.sampled_from([None, load_sample_stems()]))
def test_resolved_value_carries_its_region(sw, table):
    s, w = sw
    assert resolve_group(s, w, table).region is classify(s, w)


def test_resolved_region_pins(sample_stems):
    for table in (None, sample_stems):
        # eta-local with the trivial group: not the zero region's value
        assert resolve_group(9, 8, table) == GroupValue(ETA, TRIVIAL_GROUP)
        assert resolve_group(20, 13, table) == GroupValue(NU)


@given(bidegrees)
def test_eta_group_depends_only_on_s_minus_w(sw):
    s, w = sw
    d = s - w
    value = eta_local_group(s, w)
    assert value.group_str == eta_local_group(s + 1, w + 1).group_str
    assert (value.group_str == "Z/2") == (d >= 0 and d % 4 in (0, 3))


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=-500, max_value=500))
def test_weak_bound_implies_eta_local(s, w):
    if adams_weak_bound(s, w) and w <= s:
        assert classify(s, w) is ETA
