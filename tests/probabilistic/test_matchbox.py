"""Tests for the Match/Box/Circ machinery (Definition 5.8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import _bitops
from repro.core import HypercubeSpace
from repro.probabilistic import (
    ProductDistribution,
    box,
    box_count,
    box_count_tensor,
    circ_count,
    circ_members,
    circ_pair_counter,
    match,
    match_string,
    monomial_weight,
)

subsets3 = st.sets(st.integers(0, 7))


@st.composite
def cube_events(draw, max_n: int):
    """A subset of ``{0,1}^n`` for a drawn ``n ≤ max_n``, as a packed mask."""
    n = draw(st.integers(0, max_n))
    space = HypercubeSpace(n)
    return space.from_mask(draw(st.integers(0, space.full_mask)))


class TestMatch:
    def test_paper_example(self):
        space = HypercubeSpace(5)
        key = match(space, "01011", "01101")
        assert match_string(space, key) == "01**1"

    def test_box_of_match(self):
        space = HypercubeSpace(5)
        key = match(space, "01011", "01101")
        members = box(space, key)
        assert len(members) == 4
        assert "01011" in members and "01101" in members


class TestBoxCounts:
    @settings(max_examples=60, deadline=None)
    @given(cube_events(max_n=7))
    def test_tensor_matches_brute_force(self, event):
        n = event.space.n
        tensor = box_count_tensor(event)
        assert tensor.shape == ((3,) * n if n else (1,))
        for star, agreed in _bitops.all_match_vectors(n):
            idx = tuple(
                2 if (star >> i) & 1 else ((agreed >> i) & 1) for i in range(n)
            ) or (0,)
            assert tensor[idx] == box_count(event, (star, agreed)), (star, agreed)

    def test_full_star_counts_everything(self):
        space = HypercubeSpace(3)
        event = space.property_set([1, 3, 5])
        tensor = box_count_tensor(event)
        assert tensor[(2, 2, 2)] == 3

    def test_zero_dimension(self):
        space = HypercubeSpace(0)
        tensor = box_count_tensor(space.full)
        assert tensor[0] == 1


class TestCircCounts:
    def test_remark_5_12_counts(self):
        """The paper's exact numbers: |AB̄×ĀB ∩ Circ(***)| = 0 and
        |AB×ĀB̄ ∩ Circ(***)| = 2."""
        space = HypercubeSpace(3)
        a = space.property_set(["011", "100", "110", "111"])
        b = space.property_set(["010", "101", "110", "111"])
        key = _bitops.parse_match_vector("***")
        assert circ_count(a & ~b, ~a & b, key) == 0
        assert circ_count(a & b, ~a & ~b, key) == 2

    @given(subsets3, subsets3)
    def test_counter_matches_brute_force(self, xs, ys):
        space = HypercubeSpace(3)
        x, y = space.property_set(xs), space.property_set(ys)
        counter = circ_pair_counter(x, y)
        assert sum(counter.values()) == len(x) * len(y)
        for star, agreed in _bitops.all_match_vectors(3):
            expected = circ_count(x, y, (star, agreed))
            assert counter.get((star, agreed), 0) == expected

    def test_circ_members_partition_pairs(self):
        space = HypercubeSpace(3)
        key = _bitops.parse_match_vector("0**")
        pairs = list(circ_members(space, key))
        assert len(pairs) == 4  # 2^(#stars) ordered pairs
        for u, v in pairs:
            assert _bitops.match_key(u, v) == key


class TestMonomialWeight:
    @given(
        st.integers(0, 7),
        st.integers(0, 7),
        st.lists(st.floats(0.01, 0.99), min_size=3, max_size=3),
    )
    def test_weight_equals_pair_mass(self, u, v, ps):
        """m(w) = P(u)·P(v) for every pair (u,v) ∈ Circ(w) under a product P."""
        space = HypercubeSpace(3)
        dist = ProductDistribution(space, ps)
        key = _bitops.match_key(u, v)
        weight = monomial_weight(space, key, ps)
        assert weight == pytest.approx(dist.mass(u) * dist.mass(v), rel=1e-9)

    def test_grouping_identity(self):
        """Σ_w m(w)·|(X×Y) ∩ Circ(w)| = P[X]·P[Y]: the expansion behind
        the cancellation criterion."""
        space = HypercubeSpace(3)
        ps = [0.3, 0.6, 0.8]
        dist = ProductDistribution(space, ps)
        x = space.property_set(["001", "011", "100"])
        y = space.property_set(["111", "010"])
        counter = circ_pair_counter(x, y)
        total = sum(
            monomial_weight(space, key, ps) * count for key, count in counter.items()
        )
        assert total == pytest.approx(dist.prob(x) * dist.prob(y), rel=1e-9)
