"""Proposition 4.1's two directions: margins, preservation, and the converse.

The forward direction (12) — margin condition ⇒ safety — holds for all B.
The converse (13) holds only for K-preserving B (Remark 4.2's counterexample
shows it fails otherwise).  These tests exercise both directions against
the literal definitions.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._bitops import iter_bits
from repro.core import (
    PossibilisticKnowledge,
    WorldSpace,
    is_preserving_possibilistic,
    safe_possibilistic,
)
from repro.possibilistic import (
    ExplicitFamily,
    ExplicitIntervalIndex,
    FamilyIntervalOracle,
    PowerSetFamily,
    SafetyMarginIndex,
    SubcubeFamily,
)
from tests.conftest import all_subsets


def closed_k(space, raw_sets):
    family = ExplicitFamily(
        space, [space.property_set(s) for s in raw_sets]
    ).intersection_closure()
    return PossibilisticKnowledge.product(space.full, list(family))


class TestProposition41Forward:
    """(12): margin condition ⇒ Safe_K(A, B), for arbitrary B."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.sets(st.integers(0, 4), min_size=1), min_size=1, max_size=4),
        st.sets(st.integers(0, 4)),
        st.sets(st.integers(0, 4), min_size=1),
    )
    def test_margin_implies_safe(self, raw_sets, a_members, b_members):
        space = WorldSpace(5)
        k = closed_k(space, raw_sets)
        oracle = ExplicitIntervalIndex(k)
        a = space.property_set(a_members)
        b = space.property_set(b_members)
        index = SafetyMarginIndex(oracle, a, require_tight=False)
        if index.test(b):
            assert safe_possibilistic(k, a, b)


class TestProposition41Converse:
    """(13): for K-preserving B, Safe_K(A, B) ⇒ margin condition."""

    def test_converse_on_preserving_disclosures(self):
        space = WorldSpace(4)
        # The subcube family over a tiny hypercube is ∩-closed and its
        # product with Ω is preserved by subcube-shaped disclosures.
        from repro.core import HypercubeSpace

        cube = HypercubeSpace(2)
        family = SubcubeFamily(cube)
        k = PossibilisticKnowledge.product(cube.full, list(family))
        oracle = FamilyIntervalOracle(cube.full, family)
        for a in all_subsets(cube):
            index = SafetyMarginIndex(oracle, a, require_tight=False)
            for b in all_subsets(cube):
                if not b or not is_preserving_possibilistic(k, b):
                    continue
                if safe_possibilistic(k, a, b):
                    assert index.test(b), (a, b)

    def test_converse_fails_without_preservation(self):
        """Remark 4.2: no β works for B₁, B₂ that are not K-preserving."""
        space = WorldSpace(3)
        family = ExplicitFamily(space, [space.full])
        k = PossibilisticKnowledge.product(space.full, [space.full])
        oracle = FamilyIntervalOracle(space.full, family)
        a = space.property_set([2])
        b1 = space.property_set([0, 2])
        b2 = space.property_set([1, 2])
        assert safe_possibilistic(k, a, b1)
        assert safe_possibilistic(k, a, b2)
        assert not is_preserving_possibilistic(k, b1)
        index = SafetyMarginIndex(oracle, a, require_tight=False)
        # The margin test must reject at least one of the two safe B's —
        # otherwise (12) would certify their (unsafe) intersection too.
        assert not (index.test(b1) and index.test(b2))


class TestPreservingFamilies:
    def test_power_set_product_preserved_by_everything(self):
        space = WorldSpace(4)
        k = PossibilisticKnowledge.product(
            space.full, list(PowerSetFamily(space))
        )
        for b in all_subsets(space):
            if b:
                assert is_preserving_possibilistic(k, b)

    def test_subcube_product_preserved_by_subcubes_only(self):
        from repro.core import HypercubeSpace

        cube = HypercubeSpace(2)
        family = SubcubeFamily(cube)
        k = PossibilisticKnowledge.product(cube.full, list(family))
        assert is_preserving_possibilistic(k, cube.subcube("1*"))
        non_subcube = cube.property_set(["00", "11"])
        assert not is_preserving_possibilistic(k, non_subcube)


class TestLazyMargins:
    """The per-origin margin memo: filled on demand, counted, verdict-inert."""

    def _index(self, space):
        k = closed_k(space, [[0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 2, 3]])
        oracle = ExplicitIntervalIndex(k)
        audited = space.property_set([0, 1])
        return SafetyMarginIndex(oracle, audited, require_tight=False)

    def test_construction_computes_nothing(self):
        index = self._index(WorldSpace(4))
        assert index.cache_stats().lookups == 0

    def test_first_test_fills_only_touched_origins(self):
        space = WorldSpace(4)
        index = self._index(space)
        # B contains origin 0 but not origin 1: only 0's margin is built.
        index.test(space.property_set([0, 2, 3]))
        assert index.cache_stats().misses == 1
        index.test(space.property_set([0, 2, 3]))
        assert index.cache_stats().hits >= 1
        assert index.cache_stats().misses == 1

    def test_lazy_margins_match_eager_walk(self):
        """Every origin queried directly agrees with what test() uses."""
        space = WorldSpace(4)
        index = self._index(space)
        lazy = {w: frozenset(index.margin(w)) for w in [0, 1]}
        fresh = self._index(space)
        for b in all_subsets(space):
            expected = all(
                lazy[w] <= set(b) for w in [0, 1] if w in b
            )
            assert fresh.test(b) == expected, b

    def test_margin_outside_candidates_is_empty_without_compute(self):
        space = WorldSpace(4)
        k = closed_k(space, [[0, 1, 2]])
        oracle = ExplicitIntervalIndex(k)
        audited = space.property_set([0, 3])  # 3 ∉ π₁(K)... unless it is
        index = SafetyMarginIndex(oracle, audited, require_tight=False)
        lookups = index.cache_stats().lookups
        if 3 not in oracle.candidate_worlds():
            assert not index.margin(3)
            assert index.cache_stats().lookups == lookups


def bigint_margin_test(index: SafetyMarginIndex, disclosed) -> bool:
    """The big-int reference of :meth:`SafetyMarginIndex.test`: one AND-NOT
    per origin, the oracle of the word-array sweep."""
    b_mask = disclosed.mask
    for w1 in iter_bits(index._origin_mask & b_mask):
        if index._margin_mask(w1) & ~b_mask != 0:
            return False
    return True


class TestWordSweepEquivalence:
    """The word-array margin sweep against its big-int reference."""

    def _index(self, space):
        k = closed_k(space, [[0, 1, 2], [1, 2, 3], [0, 3], [0, 1, 2, 3]])
        oracle = ExplicitIntervalIndex(k)
        audited = space.property_set([0, 1])
        return SafetyMarginIndex(oracle, audited, require_tight=False)

    def test_word_and_bigint_sweeps_agree_on_all_subsets(self):
        space = WorldSpace(4)
        word_index = self._index(space)
        bigint_index = self._index(space)
        for b in all_subsets(space):
            assert word_index.test(b) == bigint_margin_test(bigint_index, b), b

    def test_audit_offending_origin_matches_bigint_walk(self):
        """UNSAFE audits blame the first violating origin in increasing order."""
        space = WorldSpace(4)
        index = self._index(space)
        for b in all_subsets(space):
            if index.test(b):
                continue
            b_mask = b.mask
            expected = next(
                w
                for w in sorted(index._origin_index)
                if (b_mask >> w) & 1 and index._margin_mask(w) & ~b_mask != 0
            )
            verdict_index = self._index(space)
            verdict_index._tight = True  # skip the tightness scan; data is fixed
            verdict = verdict_index.audit(b)
            assert not verdict.is_safe
            assert verdict.details["origin"] == expected
