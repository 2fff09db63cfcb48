"""Canonical form and order arithmetic for group descriptors."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from motivic_stems.groups import (
    TRIVIAL_GROUP,
    Z2_ADIC,
    Z_MOD_2,
    GroupDescriptor,
    GroupDescriptorError,
)


def test_canonical_order_adics_first_then_descending():
    g = GroupDescriptor((2, 0, 8))
    assert g.summands == (0, 8, 2)
    assert str(g) == "Z2+Z/8+Z/2"
    # the string is built once and kept out of repr, equality and hashing
    assert repr(g) == "GroupDescriptor(summands=(0, 8, 2))"
    assert hash(g) == hash((g.summands,))


def test_singletons():
    assert str(TRIVIAL_GROUP) == "0"
    assert TRIVIAL_GROUP.is_trivial
    assert str(Z2_ADIC) == "Z2"
    assert str(Z_MOD_2) == "Z/2"
    assert not Z_MOD_2.is_trivial


@pytest.mark.parametrize("bad", [3, 1, -2, 6])
def test_invalid_summands_rejected(bad):
    with pytest.raises(GroupDescriptorError):
        GroupDescriptor((bad,))


summand = st.one_of(st.just(0), st.integers(min_value=1, max_value=10).map(lambda k: 2**k))


@given(st.lists(summand, max_size=8), st.randoms(use_true_random=False))
def test_canonical_form_is_permutation_invariant(summands, rng):
    shuffled = list(summands)
    rng.shuffle(shuffled)
    assert GroupDescriptor(tuple(shuffled)) == GroupDescriptor(tuple(summands))
    assert str(GroupDescriptor(tuple(shuffled))) == str(GroupDescriptor(tuple(summands)))
