"""Minimal intervals and interval-induced partitions (Defs 4.7/4.11, Prop 4.10).

For a fixed ``ω₁ ∈ A`` the minimal K-intervals from ``ω₁`` to ``Ā = Ω − A``
partition ``Ā`` into disjoint equivalence classes
``Ā = D₁ ∪ … ∪ D_m ∪ D_∞`` (Proposition 4.10): two worlds of ``Ā`` share a
class iff they belong to the same minimal interval, with ``D_∞`` collecting
the worlds on no minimal interval.  The collection
``Δ_K(Ā, ω₁) = {D₁, …, D_m}`` is the object Corollary 4.12 tests privacy
with, and Figure 1's hatched regions are exactly these classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .. import _bitops
from ..core.worlds import PropertySet
from .intervals import IntervalOracle


@dataclass(frozen=True)
class MinimalInterval:
    """A minimal K-interval from ``origin`` to the target set, with a witness.

    ``witness`` is one world ``ω₂`` of the target realising the interval
    (several may; Definition 4.7 calls the interval minimal when every
    target world inside it realises the same interval).
    """

    origin: int
    witness: int
    interval: PropertySet


def minimal_intervals_to(
    oracle: IntervalOracle, origin: int, target: PropertySet
) -> List[MinimalInterval]:
    """All minimal K-intervals from ``origin`` to ``target`` (Definition 4.7).

    ``I_K(ω₁, ω₂)`` with ``ω₂ ∈ X`` is minimal iff every
    ``ω₂' ∈ X ∩ I_K(ω₁, ω₂)`` satisfies ``I_K(ω₁, ω₂') = I_K(ω₁, ω₂)``.
    Duplicate intervals (realised by several witnesses) are reported once.

    Interval lookups go through the oracle's ``(origin, ω₂)`` memo, so
    partition computations across many origins (and repeated calls with the
    same oracle) reuse each interval instead of rebuilding a private cache
    per call.  Minimality depends only on the interval, so each distinct
    interval is scanned once.  Minimality checks compare packed masks:
    candidate ∩ target is one big-int AND and every interval comparison an
    int equality.
    """
    oracle.space.check_same(target.space)
    target_mask = target.mask
    intervals: Dict[int, Tuple[int, PropertySet]] = {}
    rejected: Set[int] = set()

    for w2 in _bitops.iter_bits(target_mask):
        candidate = oracle.interval(origin, w2)
        if candidate is None:
            continue
        candidate_mask = candidate.mask
        if candidate_mask in intervals or candidate_mask in rejected:
            continue
        for w2_prime in _bitops.iter_bits(candidate_mask & target_mask):
            other = oracle.interval(origin, w2_prime)
            if other is None or other.mask != candidate_mask:
                rejected.add(candidate_mask)
                break
        else:
            intervals[candidate_mask] = (w2, candidate)
    return [
        MinimalInterval(origin, witness, interval)
        for witness, interval in intervals.values()
    ]


@dataclass(frozen=True)
class IntervalPartition:
    """The Proposition 4.10 partition of ``Ā`` induced by minimal intervals.

    Attributes
    ----------
    origin:
        The world ``ω₁ ∈ A`` the intervals start from.
    classes:
        The collection ``Δ_K(Ā, ω₁) = {D₁, …, D_m}``: intersections of ``Ā``
        with the minimal intervals (Definition 4.11).
    unreachable:
        The class ``D_∞`` of worlds of ``Ā`` on no minimal interval.
    """

    origin: int
    classes: Tuple[PropertySet, ...]
    unreachable: PropertySet

    def is_partition_of(self, target: PropertySet) -> bool:
        """Sanity predicate: classes plus ``D_∞`` tile ``target`` disjointly."""
        union = self.unreachable.mask
        total = len(self.unreachable)
        for cls in self.classes:
            union |= cls.mask
            total += len(cls)
        return union == target.mask and total == len(target)


def interval_partition(
    oracle: IntervalOracle, origin: int, target: PropertySet
) -> IntervalPartition:
    """Compute ``Δ_K(Ā, ω₁)`` and ``D_∞`` for ``target = Ā`` (Prop 4.10).

    Proposition 4.10's dichotomy — two minimal intervals are either equal or
    disjoint inside ``Ā`` — guarantees the classes are disjoint; this is
    asserted (cheaply) as an internal consistency check.
    """
    minimal = minimal_intervals_to(oracle, origin, target)
    space = target.space
    classes: List[PropertySet] = []
    covered = 0
    for item in minimal:
        cls_mask = item.interval.mask & target.mask
        if cls_mask & covered:
            raise AssertionError(
                "Proposition 4.10 violated: overlapping minimal-interval classes "
                "(is the oracle really ∩-closed?)"
            )
        classes.append(PropertySet._from_mask(space, cls_mask))
        covered |= cls_mask
    return IntervalPartition(
        origin=origin,
        classes=tuple(classes),
        unreachable=PropertySet._from_mask(space, target.mask & ~covered),
    )


def subcube_partitions(
    audited: PropertySet, candidates: PropertySet
) -> Dict[int, IntervalPartition]:
    """``Δ_K(Ā, ω₁)`` for every ``ω₁ ∈ A ∩ C`` under ``K = C ⊗ subcubes``.

    ``I(ω₁, ω₂′) ⊆ I(ω₁, ω₂)`` exactly when ``ω₁ ⊕ ω₂′ ⊆ ω₁ ⊕ ω₂``, so the
    minimal intervals to ``Ā`` are the boxes of the ``ω₂ ∈ Ā`` whose
    difference from ``ω₁`` is ⊆-minimal, each meeting ``Ā`` in ``{ω₂}``
    alone.  Per origin, ``Ā`` is up-closed away from ``ω₁`` and one more
    pass marks every world above a closer member: ``2n`` stripe shifts and
    no interval lookup.  Same partitions as :func:`interval_partition`
    (classes ascending by world, same ``D_∞``).
    """
    space = audited.space
    space.check_same(candidates.space)
    target = space.full_mask & ~audited.mask
    bits = [1 << i for i in range(space.n)]
    stripes = [(bit, _bitops.stripe_mask(bit, space.size)) for bit in bits]
    table: Dict[int, IntervalPartition] = {}
    for w1 in _bitops.iter_bits(audited.mask & candidates.mask):
        # Coordinate i steps away from ω₁ᵢ: ``>> 2^i`` on its stripe when
        # ω₁ᵢ = 1, ``<< 2^i`` off it when ω₁ᵢ = 0.
        up = target
        for bit, stripe in stripes:
            up |= (up & stripe) >> bit if w1 & bit else (up & ~stripe) << bit
        strict = 0
        for bit, stripe in stripes:
            strict |= (up & stripe) >> bit if w1 & bit else (up & ~stripe) << bit
        minimal = target & ~strict
        table[w1] = IntervalPartition(
            origin=w1,
            classes=tuple(map(space.singleton, _bitops.iter_bits(minimal))),
            unreachable=PropertySet._from_mask(space, target & ~minimal),
        )
    return table
