"""Possibilistic privacy tests via intervals (Props 4.5, 4.8; Cor 4.12).

For an ∩-closed ``K`` the privacy predicate reduces from quantification over
all pairs of ``K`` to conditions on intervals:

* Proposition 4.5: ``Safe_K(A, B)`` iff every interval ``I_K(ω₁, ω₂)`` with
  ``ω₁ ∈ AB`` and ``ω₂ ∉ A`` meets ``B − A``.
* Proposition 4.8: it suffices to check the *minimal* intervals from
  ``ω₁ ∈ AB`` to ``Ω − A``.
* Corollary 4.12: equivalently, ``B`` must meet every class of
  ``Δ_K(Ā, ω₁)`` for every ``ω₁ ∈ AB``.

All three are implemented; they agree with each other and with the literal
Definition 3.1 (property-tested in the suite).
"""

from __future__ import annotations

from .. import _bitops
from ..core.verdict import AuditVerdict
from ..core.worlds import PropertySet
from .intervals import IntervalOracle
from .minimal import interval_partition, minimal_intervals_to


def safe_via_intervals(
    oracle: IntervalOracle, audited: PropertySet, disclosed: PropertySet
) -> bool:
    """Proposition 4.5: check every interval from ``AB`` to ``Ā``.

    ``Safe_K(A, B)`` iff for all intervals ``I_K(ω₁, ω₂)`` with
    ``ω₁ ∈ A ∩ B`` and ``ω₂ ∉ A``: ``I_K(ω₁, ω₂) ∩ (B − A) ≠ ∅``.

    The double loop runs over packed masks: origins and targets come
    straight from bit iteration and each disjointness test is one AND.
    """
    oracle.space.check_same(audited.space)
    oracle.space.check_same(disclosed.space)
    full = oracle.space.full_mask
    escape = disclosed.mask & ~audited.mask
    outside = full & ~audited.mask
    active = audited.mask & disclosed.mask & oracle.candidate_worlds().mask
    for w1 in _bitops.iter_bits(active):
        for w2 in _bitops.iter_bits(outside):
            interval = oracle.interval(w1, w2)
            if interval is not None and interval.mask & escape == 0:
                return False
    return True


def safe_via_minimal_intervals(
    oracle: IntervalOracle, audited: PropertySet, disclosed: PropertySet
) -> bool:
    """Proposition 4.8: check only minimal intervals from ``AB`` to ``Ω − A``."""
    oracle.space.check_same(audited.space)
    oracle.space.check_same(disclosed.space)
    escape = disclosed.mask & ~audited.mask
    outside = ~audited
    active = audited.mask & disclosed.mask & oracle.candidate_worlds().mask
    for w1 in _bitops.iter_bits(active):
        for item in minimal_intervals_to(oracle, w1, outside):
            if item.interval.mask & escape == 0:
                return False
    return True


def safe_via_partition(
    oracle: IntervalOracle, audited: PropertySet, disclosed: PropertySet
) -> bool:
    """Corollary 4.12: ``B`` must intersect every class ``Dᵢ ∈ Δ_K(Ā, ω₁)``.

    Note the corollary tests ``B ∩ Dᵢ ≠ ∅`` with ``Dᵢ ⊆ Ā``, so this matches
    Proposition 4.8 because a minimal interval meets ``B − A`` iff its
    ``Ā``-part meets ``B``.
    """
    oracle.space.check_same(audited.space)
    oracle.space.check_same(disclosed.space)
    b_mask = disclosed.mask
    outside = ~audited
    active = audited.mask & b_mask & oracle.candidate_worlds().mask
    for w1 in _bitops.iter_bits(active):
        partition = interval_partition(oracle, w1, outside)
        for cls in partition.classes:
            if cls.mask & b_mask == 0:
                return False
    return True


def audit_interval_based(
    oracle: IntervalOracle, audited: PropertySet, disclosed: PropertySet
) -> AuditVerdict:
    """A verdict-producing wrapper around Proposition 4.8.

    On UNSAFE, the witness is the offending minimal interval: a candidate
    prior knowledge set ``S`` under which the user learns ``A`` from ``B``.
    """
    oracle.space.check_same(audited.space)
    oracle.space.check_same(disclosed.space)
    escape = disclosed.mask & ~audited.mask
    outside = ~audited
    active = audited.mask & disclosed.mask & oracle.candidate_worlds().mask
    checked = 0
    for w1 in _bitops.iter_bits(active):
        for item in minimal_intervals_to(oracle, w1, outside):
            checked += 1
            if item.interval.mask & escape == 0:
                return AuditVerdict.unsafe(
                    "minimal-intervals",
                    witness=item,
                    origin=w1,
                    intervals_checked=checked,
                )
    return AuditVerdict.safe("minimal-intervals", intervals_checked=checked)
