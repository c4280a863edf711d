"""Tests for ∩-closed knowledge families."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import GridSpace, HypercubeSpace, WorldSpace
from repro.core.events import is_up_set
from repro.exceptions import SpaceMismatchError
from repro.possibilistic import (
    ExplicitFamily,
    IntegerRectangleFamily,
    PowerSetFamily,
    SubcubeFamily,
    UpSetFamily,
)


class TestPowerSetFamily:
    def test_membership(self):
        space = WorldSpace(4)
        family = PowerSetFamily(space)
        assert space.property_set([1, 2]) in family
        assert space.empty not in family

    def test_interval_is_pair(self):
        space = WorldSpace(4)
        family = PowerSetFamily(space)
        assert family.interval_between(1, 3) == space.property_set([1, 3])
        assert family.interval_between(2, 2) == space.property_set([2])

    def test_closed(self):
        assert PowerSetFamily(WorldSpace(3)).is_intersection_closed()

    def test_enumeration_counts(self):
        family = PowerSetFamily(WorldSpace(3))
        assert len(list(family)) == 7

    def test_enumeration_guard(self):
        with pytest.raises(ValueError):
            list(PowerSetFamily(WorldSpace(20)))


class TestSubcubeFamily:
    def test_enumeration_counts(self):
        # Subcubes of {0,1}^n correspond to {0,1,*}^n patterns: 3^n of them.
        family = SubcubeFamily(HypercubeSpace(3))
        assert len(list(family)) == 27

    def test_membership(self):
        space = HypercubeSpace(3)
        family = SubcubeFamily(space)
        assert space.subcube("1*0") in family
        assert space.subcube("***") in family
        assert space.property_set(["000", "011"]) not in family
        assert space.empty not in family

    def test_interval_is_match_box(self):
        space = HypercubeSpace(4)
        family = SubcubeFamily(space)
        w1, w2 = space.world_id("0110"), space.world_id("0011")
        interval = family.interval_between(w1, w2)
        # Coordinates 1 and 3 agree (0 and 1); coordinates 2 and 4 differ.
        assert interval == space.subcube("0*1*")
        assert w1 in interval and w2 in interval
        assert len(interval) == 4

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_interval_is_smallest_subcube(self, w1, w2):
        space = HypercubeSpace(4)
        family = SubcubeFamily(space)
        interval = family.interval_between(w1, w2)
        assert interval in family
        # No strictly smaller subcube contains both worlds.
        for other in family:
            if w1 in other and w2 in other:
                assert interval <= other

    def test_requires_hypercube(self):
        with pytest.raises(SpaceMismatchError):
            SubcubeFamily(WorldSpace(8))  # type: ignore[arg-type]

    def test_closed(self):
        assert SubcubeFamily(HypercubeSpace(2)).is_intersection_closed()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_membership_matches_member_loop(self, n):
        """The stripe test against a loop over all 3^n members: every set
        at n ≤ 3; beyond, every subcube, each with one world flipped, the
        union of two subcubes, and random sets."""
        space = HypercubeSpace(n)
        family = SubcubeFamily(space)
        members = [member.mask for member in family]
        member_masks = set(members)
        rng = random.Random(n)
        if n <= 3:
            masks = set(range(1 << space.size))
        else:
            masks = set(members)
            masks.update(m ^ (1 << rng.randrange(space.size)) for m in members)
            masks.update(rng.choice(members) | rng.choice(members) for _ in range(300))
            masks.update(rng.getrandbits(space.size) for _ in range(300))
        hits = 0
        for mask in masks:
            expected = mask in member_masks
            assert (space.from_mask(mask) in family) is expected, (n, mask)
            hits += expected
        assert hits == len(member_masks)


class TestIntegerRectangleFamily:
    def test_enumeration_counts(self):
        # Rectangles of a w×h grid: C(w+1,2)·C(h+1,2).
        family = IntegerRectangleFamily(GridSpace(3, 2))
        assert len(list(family)) == 6 * 3

    def test_membership(self):
        grid = GridSpace(4, 4)
        family = IntegerRectangleFamily(grid)
        assert grid.rectangle(1, 1, 2, 3) in family
        l_shape = grid.rectangle(0, 0, 1, 1) | grid.rectangle(0, 2, 0, 2)
        assert l_shape not in family

    def test_interval_is_bounding_box(self):
        grid = GridSpace(10, 10)
        family = IntegerRectangleFamily(grid)
        w1, w2 = grid.world_id((2, 7)), grid.world_id((5, 3))
        assert family.interval_between(w1, w2) == grid.rectangle(2, 3, 5, 7)

    def test_closed(self):
        assert IntegerRectangleFamily(GridSpace(3, 3)).is_intersection_closed()

    def test_generic_interval_agrees_with_analytic(self):
        grid = GridSpace(4, 3)
        family = IntegerRectangleFamily(grid)
        generic = ExplicitFamily(grid, list(family))
        for w1, w2 in [(0, 11), (5, 6), (2, 2)]:
            assert family.interval_between(w1, w2) == generic.interval_between(w1, w2)


class TestUpSetFamily:
    def test_membership(self):
        space = HypercubeSpace(3)
        family = UpSetFamily(space)
        assert space.property_set(["111", "110"]) in family
        assert space.property_set(["001"]) not in family

    def test_interval_is_up_closure(self):
        space = HypercubeSpace(3)
        family = UpSetFamily(space)
        interval = family.interval_between(
            space.world_id("001"), space.world_id("010")
        )
        assert interval is not None
        assert is_up_set(interval)
        assert len(interval) == 6  # everything above 001 or 010

    def test_enumeration_counts_dedekind(self):
        # Non-empty up-sets of {0,1}^2: the Dedekind number M(2) = 6 minus ∅ = 5.
        family = UpSetFamily(HypercubeSpace(2))
        assert len(list(family)) == 5

    def test_closed(self):
        assert UpSetFamily(HypercubeSpace(2)).is_intersection_closed()


class TestExplicitFamily:
    def test_dedup_and_validation(self):
        space = WorldSpace(4)
        family = ExplicitFamily(
            space, [space.property_set([0, 1]), space.property_set([1, 0])]
        )
        assert len(family) == 1
        with pytest.raises(ValueError):
            ExplicitFamily(space, [space.empty])
        with pytest.raises(ValueError):
            ExplicitFamily(space, [])

    def test_closure_detection(self):
        space = WorldSpace(4)
        open_family = ExplicitFamily(
            space, [space.property_set([0, 1]), space.property_set([1, 2])]
        )
        assert not open_family.is_intersection_closed()
        closed = open_family.intersection_closure()
        assert closed.is_intersection_closed()
        assert space.property_set([1]) in closed

    def test_disjoint_members_do_not_block_closure(self):
        space = WorldSpace(4)
        family = ExplicitFamily(
            space, [space.property_set([0]), space.property_set([1])]
        )
        assert family.is_intersection_closed()  # empty meets are exempt

    @settings(max_examples=30)
    @given(
        st.lists(
            st.sets(st.integers(0, 5), min_size=1),
            min_size=1,
            max_size=6,
        )
    )
    def test_closure_is_idempotent_and_minimal_superset(self, raw_sets):
        space = WorldSpace(6)
        family = ExplicitFamily(space, [space.property_set(s) for s in raw_sets])
        closed = family.intersection_closure()
        assert closed.is_intersection_closed()
        for member in family:
            assert member in closed
        again = closed.intersection_closure()
        assert len(again) == len(closed)
