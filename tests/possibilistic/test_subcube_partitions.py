"""The closed-form subcube partitions against the generic minimal-interval search.

``subcube_partitions`` builds ``Δ_K(Ā, ω₁)`` for ``K = C ⊗ subcubes`` from
mask shifts alone; ``interval_partition`` over a ``FamilyIntervalOracle`` is
the reference.  The auditor must give byte-identical verdicts either way,
and the generic search (still the only path for every other family) must
give the same minimal intervals and witnesses as before its memo.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import pytest

from repro import _bitops
from repro.audit import PriorAssumption, make_decider
from repro.core import (
    GridSpace,
    HypercubeSpace,
    PossibilisticKnowledge,
    WorldSpace,
)
from repro.core.worlds import PropertySet
from repro.possibilistic import (
    ExplicitFamily,
    ExplicitIntervalIndex,
    FamilyIntervalOracle,
    IntegerRectangleFamily,
    IntervalOracle,
    MinimalInterval,
    PossibilisticAuditor,
    PowerSetFamily,
    SubcubeFamily,
    UpSetFamily,
    brute_force_audit,
    interval_partition,
    minimal_intervals_to,
)
from repro.possibilistic.minimal import subcube_partitions


def random_set(rng: random.Random, space, density: float) -> PropertySet:
    return space.property_set(w for w in space.worlds() if rng.random() < density)


def generic_table(candidates: PropertySet, audited: PropertySet):
    oracle = FamilyIntervalOracle(candidates, SubcubeFamily(audited.space))
    active = audited.mask & candidates.mask
    return {
        w1: interval_partition(oracle, w1, ~audited)
        for w1 in _bitops.iter_bits(active)
    }


def assert_same_tables(got, want):
    assert list(got) == list(want)
    assert got == want  # same classes in the same order, same D_∞


class _GenericSubcubeOracle(IntervalOracle):
    """The subcube intervals behind an oracle the auditor does not special-case,
    so it builds its table with the per-origin ``interval_partition`` loop."""

    def __init__(self, candidates: PropertySet) -> None:
        super().__init__()
        family = SubcubeFamily(candidates.space)
        self._inner = FamilyIntervalOracle(candidates, family)

    @property
    def space(self):
        return self._inner.space

    def candidate_worlds(self) -> PropertySet:
        return self._inner.candidate_worlds()

    def _compute_interval(self, world1: int, world2: int):
        return self._inner.interval(world1, world2)


class TestClosedFormMatchesGeneric:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_random_audits_and_candidates(self, n):
        space = HypercubeSpace(n)
        rng = random.Random(1000 + n)
        for _ in range(12):
            audited = random_set(rng, space, rng.random())
            candidates = random_set(rng, space, rng.uniform(0.2, 1.0)) or space.full
            assert_same_tables(
                subcube_partitions(audited, candidates),
                generic_table(candidates, audited),
            )

    @pytest.mark.parametrize("n,seed", [(9, 1), (9, 2), (10, 1), (10, 2)])
    def test_large_n(self, n, seed):
        # Sparse C keeps the generic reference to a few dozen origins.
        space = HypercubeSpace(n)
        rng = random.Random(seed)
        audited = random_set(rng, space, 0.5)
        candidates = random_set(rng, space, 0.05)
        table = subcube_partitions(audited, candidates)
        assert table
        assert_same_tables(table, generic_table(candidates, audited))

    @pytest.mark.parametrize("n", [1, 3, 6])
    def test_edge_audits(self, n):
        space = HypercubeSpace(n)
        assert subcube_partitions(space.empty, space.full) == {}
        full = subcube_partitions(space.full, space.full)
        assert_same_tables(full, generic_table(space.full, space.full))
        assert all(not p.classes and not p.unreachable for p in full.values())

    @pytest.mark.parametrize("n", [1, 4, 7])
    def test_single_candidate(self, n):
        space = HypercubeSpace(n)
        rng = random.Random(n)
        for world in rng.sample(range(space.size), min(4, space.size)):
            candidates = space.singleton(world)
            audited = random_set(rng, space, 0.5) | candidates
            table = subcube_partitions(audited, candidates)
            assert list(table) == [world]
            assert_same_tables(table, generic_table(candidates, audited))

    def test_half_space_has_one_class_per_origin(self):
        # A = {ω : ω₁ = 1}: ω₁'s only minimal target is ω₁ with coordinate 1 cleared.
        space = HypercubeSpace(6)
        audited = space.coordinate_set(1)
        for w1, partition in subcube_partitions(audited, space.full).items():
            assert [cls.members for cls in partition.classes] == [frozenset({w1 ^ 1})]
            assert partition.is_partition_of(~audited)


class TestAuditorVerdicts:
    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_verdicts_match_generic_table(self, n):
        space = HypercubeSpace(n)
        rng = random.Random(7 * n)
        for _ in range(6):
            candidates = random_set(rng, space, rng.uniform(0.3, 1.0)) or space.full
            closed = PossibilisticAuditor.from_family(candidates, SubcubeFamily(space))
            pinned = PossibilisticAuditor(_GenericSubcubeOracle(candidates))
            audited = random_set(rng, space, rng.random())
            for _ in range(15):
                disclosed = random_set(rng, space, rng.uniform(0.3, 1.0))
                got = closed.audit(audited, disclosed)
                want = pinned.audit(audited, disclosed)
                assert got == want  # status, method, witness
                assert got.details == want.details  # origin, classes_checked
            assert closed.oracle.cache_stats().misses == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_decider_matches_definition_3_1(self, n):
        space = HypercubeSpace(n)
        decide = make_decider(space, PriorAssumption.POSSIBILISTIC_SUBCUBES)
        knowledge = PossibilisticKnowledge.product(
            space.full, list(SubcubeFamily(space))
        )
        rng = random.Random(n)
        for _ in range(40):
            audited = random_set(rng, space, rng.random())
            disclosed = random_set(rng, space, rng.uniform(0.2, 1.0))
            expected = brute_force_audit(knowledge, audited, disclosed)
            assert decide(audited, disclosed).status == expected.status


class TestCountGuards:
    def test_subcube_table_makes_no_interval_lookups(self):
        space = HypercubeSpace(10)
        auditor = PossibilisticAuditor.from_family(space.full, SubcubeFamily(space))
        audited = space.coordinate_set(1)
        auditor.prepare(audited)
        assert auditor.audit(audited, space.full).is_safe
        assert auditor.audit(audited, audited).is_unsafe
        stats = auditor.oracle.cache_stats()
        assert stats.hits + stats.misses == 0

    def test_ignorant_family_scans_each_interval_once(self):
        space = HypercubeSpace(6)
        auditor = PossibilisticAuditor.from_family(
            space.full, ExplicitFamily(space, [space.full])
        )
        audited = space.coordinate_set(1)
        auditor.prepare(audited)
        stats = auditor.oracle.cache_stats()
        assert stats.hits + stats.misses <= 2 * len(audited) * len(~audited)


def previous_minimal_intervals_to(
    oracle: IntervalOracle, origin: int, target: PropertySet
) -> List[MinimalInterval]:
    """Reference: the search without the memo, re-scanning every witness's interval."""
    target_mask = target.mask
    intervals: Dict[int, Tuple[int, PropertySet]] = {}
    for w2 in _bitops.iter_bits(target_mask):
        candidate = oracle.interval(origin, w2)
        if candidate is None:
            continue
        candidate_mask = candidate.mask
        minimal = True
        for w2_prime in _bitops.iter_bits(candidate_mask & target_mask):
            other = oracle.interval(origin, w2_prime)
            if other is None or other.mask != candidate_mask:
                minimal = False
                break
        if minimal and candidate_mask not in intervals:
            intervals[candidate_mask] = (w2, candidate)
    return [
        MinimalInterval(origin, witness, interval)
        for witness, interval in intervals.values()
    ]


def _explicit_oracles(rng: random.Random):
    for size in (4, 6, 8):
        space = WorldSpace(size)
        raw = [
            random_set(rng, space, 0.4) or space.full
            for _ in range(rng.randint(1, 6))
        ]
        family = ExplicitFamily(space, raw).intersection_closure()
        candidates = random_set(rng, space, 0.7) or space.full
        yield FamilyIntervalOracle(candidates, family)
        knowledge = PossibilisticKnowledge.product(candidates, list(family))
        yield ExplicitIntervalIndex(knowledge)


def _structured_oracles(rng: random.Random):
    grid = GridSpace(rng.randint(2, 6), rng.randint(2, 5))
    pixels = random_set(rng, grid, 0.6) or grid.full
    yield FamilyIntervalOracle(pixels, IntegerRectangleFamily(grid))
    cube = HypercubeSpace(4)
    yield FamilyIntervalOracle(cube.full, UpSetFamily(cube))
    yield FamilyIntervalOracle(cube.full, PowerSetFamily(cube))
    yield FamilyIntervalOracle(cube.full, ExplicitFamily(cube, [cube.full]))


class TestGenericSearchMemo:
    @pytest.mark.parametrize("seed", range(12))
    def test_same_intervals_and_witnesses(self, seed):
        rng = random.Random(seed)
        oracles = list(_explicit_oracles(rng)) + list(_structured_oracles(rng))
        for oracle in oracles:
            space = oracle.space
            for _ in range(4):
                target = random_set(rng, space, rng.random())
                for origin in oracle.candidate_worlds():
                    assert minimal_intervals_to(
                        oracle, origin, target
                    ) == previous_minimal_intervals_to(oracle, origin, target)
