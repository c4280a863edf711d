"""Randomized cross-checks: the packed-mask backend vs a frozenset reference.

The bitmask representation inside :class:`PropertySet` is an internal
encoding choice; semantically every operation must agree with the naive
sets-of-ints formulation.  These tests drive both backends over seeded
random instances — Boolean operators, subset relations, and end-to-end
``Safe_K`` verdicts (Definition 3.1) — plus the margin/minimal-interval
pipeline against :mod:`tests.core.frozenset_reference`.
"""

from __future__ import annotations

import random

import pytest

from repro._bitops import mask_of
from repro.core import (
    HypercubeSpace,
    PossibilisticKnowledge,
    PropertySet,
    WorldSpace,
    safe_possibilistic,
)
from repro.possibilistic.families import SubcubeFamily
from repro.possibilistic.intervals import FamilyIntervalOracle
from repro.possibilistic.margins import SafetyMarginIndex
from repro.possibilistic.minimal import interval_partition, minimal_intervals_to
from tests.core import frozenset_reference as reference

N_INSTANCES = 200


def _random_subset(rnd, size, allow_empty=True):
    lo = 0 if allow_empty else 1
    return frozenset(rnd.sample(range(size), rnd.randint(lo, size)))


class TestBooleanAlgebraEquivalence:
    """All operators of the set algebra, mask backend vs ``frozenset``."""

    def test_operators_match_frozenset_semantics(self):
        rnd = random.Random(1729)
        space = WorldSpace(13)
        universe = frozenset(range(space.size))
        for _ in range(N_INSTANCES):
            ra = _random_subset(rnd, space.size)
            rb = _random_subset(rnd, space.size)
            a = space.property_set(ra)
            b = space.property_set(rb)

            assert (a & b).members == ra & rb
            assert (a | b).members == ra | rb
            assert (a - b).members == ra - rb
            assert (a ^ b).members == ra ^ rb
            assert (~a).members == universe - ra

    def test_relations_cardinality_and_membership(self):
        rnd = random.Random(4104)
        space = WorldSpace(13)
        for _ in range(N_INSTANCES):
            ra = _random_subset(rnd, space.size)
            rb = _random_subset(rnd, space.size)
            a = space.property_set(ra)
            b = space.property_set(rb)

            assert (a <= b) == (ra <= rb)
            assert (a < b) == (ra < rb)
            assert (a >= b) == (ra >= rb)
            assert (a > b) == (ra > rb)
            assert (a == b) == (ra == rb)
            assert a.isdisjoint(b) == ra.isdisjoint(rb)
            assert len(a) == len(ra)
            assert bool(a) == bool(ra)
            assert sorted(a) == sorted(ra)
            for w in range(space.size):
                assert (w in a) == (w in ra)

    def test_mask_round_trip(self):
        rnd = random.Random(2_718)
        space = WorldSpace(11)
        for _ in range(50):
            ra = _random_subset(rnd, space.size)
            a = space.from_mask(mask_of(ra, space.size))
            assert a.members == ra
            assert a.mask == mask_of(ra, space.size)


class TestSafeKEquivalence:
    """End-to-end Definition 3.1 verdicts on random ``(A, B, K)`` instances."""

    def test_safe_k_matches_reference(self):
        rnd = random.Random(31_008)
        space = WorldSpace(10)
        disagreements = 0
        safe_count = 0
        for _ in range(N_INSTANCES):
            ra = _random_subset(rnd, space.size)
            rb = _random_subset(rnd, space.size)
            pairs = []
            for _ in range(rnd.randint(1, 6)):
                s = _random_subset(rnd, space.size, allow_empty=False)
                pairs.append((rnd.choice(sorted(s)), s))
            knowledge = PossibilisticKnowledge.from_tuples(space, pairs)
            audited = space.property_set(ra)
            disclosed = space.property_set(rb)

            expected = reference.ref_safe_possibilistic(pairs, ra, rb)
            actual = safe_possibilistic(knowledge, audited, disclosed)
            disagreements += expected != actual
            safe_count += expected
        assert disagreements == 0
        # The workload must exercise both verdicts to mean anything.
        assert 0 < safe_count < N_INSTANCES


class TestMarginPipelineEquivalence:
    """Minimal intervals, partitions and margins vs the reference pipeline."""

    @pytest.mark.parametrize("seed", [3, 14, 159])
    def test_margin_sweep_matches_reference(self, seed):
        rnd = random.Random(seed)
        space = HypercubeSpace(5)
        candidates = sorted(rnd.sample(range(space.size), 4))
        ra = frozenset(rnd.sample(range(space.size), space.size // 2)) | {
            candidates[0]
        }
        audited = space.property_set(ra)

        oracle = FamilyIntervalOracle(
            space.property_set(candidates), SubcubeFamily(space)
        )
        index = SafetyMarginIndex(oracle, audited, require_tight=False)
        ref_oracle = reference.RefSubcubeOracle(space.n, candidates)
        ref_margins = reference.ref_margin_index(ref_oracle, ra)

        assert {
            w1: frozenset(index.margin(w1)) for w1 in ra & set(candidates)
        } == ref_margins

        for _ in range(40):
            rb = _random_subset(rnd, space.size)
            disclosed = space.property_set(rb)
            assert index.test(disclosed) == reference.ref_margin_test(
                ref_margins, ra, rb
            )

    def test_minimal_intervals_match_reference(self):
        rnd = random.Random(926)
        space = HypercubeSpace(4)
        candidates = sorted(rnd.sample(range(space.size), 3))
        oracle = FamilyIntervalOracle(
            space.property_set(candidates), SubcubeFamily(space)
        )
        ref_oracle = reference.RefSubcubeOracle(space.n, candidates)
        for _ in range(30):
            rt = _random_subset(rnd, space.size, allow_empty=False)
            target = space.property_set(rt)
            origin = rnd.choice(candidates)

            expected = reference.ref_minimal_intervals_to(ref_oracle, origin, rt)
            actual = minimal_intervals_to(oracle, origin, target)
            assert {frozenset(item.interval) for item in actual} == set(expected)

            ref_classes, ref_inf = reference.ref_interval_partition(
                ref_oracle, origin, rt
            )
            partition = interval_partition(oracle, origin, target)
            assert {frozenset(cls) for cls in partition.classes} == set(ref_classes)
            assert frozenset(partition.unreachable) == ref_inf
            assert partition.is_partition_of(target)
