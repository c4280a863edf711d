"""Reference ``frozenset`` implementations of the possibilistic kernels.

The production kernels (:mod:`~repro.possibilistic.minimal`,
:mod:`~repro.possibilistic.margins`, :mod:`~repro.core.privacy`) run on the
packed-bitmask representation of :class:`~repro.core.worlds.PropertySet`.
This module keeps the straightforward set-of-ints formulation of the same
algorithms — the shape the repo used before the mask backend landed — so
the randomized equivalence tests can cross-check every Boolean operator,
subset relation and end-to-end ``Safe_K`` verdict of the mask backend
against these functions.

Everything here works on plain ``int`` worlds and ``frozenset`` properties;
nothing imports :class:`PropertySet`, so the two backends share no code
beyond the pure world-encoding helpers of :mod:`repro._bitops`.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro import _bitops

WorldSet = FrozenSet[int]
KnowledgePair = Tuple[int, WorldSet]


def ref_safe_possibilistic(
    pairs: Iterable[KnowledgePair], audited: WorldSet, disclosed: WorldSet
) -> bool:
    """Definition 3.1 over explicit ``(ω, S)`` pairs, frozenset arithmetic.

    ``Safe_K(A, B)`` fails iff some pair with ``ω ∈ B`` has
    ``S ∩ B ⊆ A`` while ``S ⊄ A`` — the user learns ``A`` from ``B``
    without having known it already.
    """
    for world, knowledge in pairs:
        if world not in disclosed:
            continue
        posterior = knowledge & disclosed
        if posterior <= audited and not knowledge <= audited:
            return False
    return True


class RefSubcubeOracle:
    """Frozenset interval oracle for ``K = C ⊗ SubcubeFamily`` on ``{0,1}^n``.

    ``I_K(ω₁, ω₂) = Box(Match(ω₁, ω₂))`` when ``ω₁ ∈ C``; each box is
    materialised by enumerating its ``2^d`` members (the pre-mask
    construction) and memoised by ``(ω₁, ω₂)`` like the production oracle.
    """

    def __init__(self, n: int, candidates: Iterable[int]) -> None:
        self.n = n
        self.size = 1 << n
        self.candidates: WorldSet = frozenset(candidates)
        self._cache: Dict[Tuple[int, int], WorldSet] = {}

    def interval(self, world1: int, world2: int) -> Optional[WorldSet]:
        if world1 not in self.candidates:
            return None
        key = (world1, world2)
        try:
            return self._cache[key]
        except KeyError:
            star_mask, agreed = _bitops.match_key(world1, world2)
            value = frozenset(_bitops.box_members(star_mask, agreed, self.n))
            self._cache[key] = value
            return value


def ref_minimal_intervals_to(
    oracle: RefSubcubeOracle, origin: int, target: WorldSet
) -> List[WorldSet]:
    """Minimal K-intervals from ``origin`` to ``target`` (Definition 4.7)."""
    intervals: List[WorldSet] = []
    seen: set = set()
    for w2 in sorted(target):
        candidate = oracle.interval(origin, w2)
        if candidate is None:
            continue
        minimal = True
        for w2_prime in sorted(candidate & target):
            other = oracle.interval(origin, w2_prime)
            if other is None or other != candidate:
                minimal = False
                break
        if minimal and candidate not in seen:
            seen.add(candidate)
            intervals.append(candidate)
    return intervals


def ref_interval_partition(
    oracle: RefSubcubeOracle, origin: int, target: WorldSet
) -> Tuple[List[WorldSet], WorldSet]:
    """``(Δ_K(target, origin), D_∞)`` of Proposition 4.10, frozenset-built."""
    classes: List[WorldSet] = []
    covered: WorldSet = frozenset()
    for interval in ref_minimal_intervals_to(oracle, origin, target):
        cls = interval & target
        classes.append(cls)
        covered |= cls
    return classes, target - covered


def ref_margin_index(
    oracle: RefSubcubeOracle, audited: WorldSet
) -> Dict[int, WorldSet]:
    """The Corollary 4.14 margin map ``β(ω₁) = ∪ Δ_K(Ā, ω₁)`` per origin."""
    universe = frozenset(range(oracle.size))
    outside = universe - audited
    margins: Dict[int, WorldSet] = {}
    for w1 in sorted(audited & oracle.candidates):
        classes, _ = ref_interval_partition(oracle, w1, outside)
        margin: WorldSet = frozenset()
        for cls in classes:
            margin |= cls
        margins[w1] = margin
    return margins


def ref_margin_test(
    margins: Dict[int, WorldSet], audited: WorldSet, disclosed: WorldSet
) -> bool:
    """The margin condition ``∀ ω ∈ AB : β(ω) ⊆ B`` (Proposition 4.1)."""
    for w1 in sorted(audited & disclosed):
        margin = margins.get(w1)
        if margin is not None and not margin <= disclosed:
            return False
    return True
