"""The explicit-``K`` oracle of Definition 3.9 for the possibilistic families.

:func:`explicit_possibilistic_knowledge` materialises ``K = Ω ⊗ Σ``
(Definition 2.5) pair by pair, so
:func:`~repro.core.preserving.is_preserving_possibilistic` can check
preservation straight from the definition.  The incremental auditor
decides the same question as family membership (``B = ∅`` or ``B ∈ Σ``);
the suites hold it to this oracle wherever ``K`` is small enough to build.
"""

from __future__ import annotations

from typing import Optional

from repro.audit import PriorAssumption
from repro.core.knowledge import PossibilisticKnowledge
from repro.core.worlds import HypercubeSpace, WorldSpace
from repro.possibilistic.families import SubcubeFamily

#: Largest explicit ``K`` (in ``(ω, S)`` pairs) the oracle materialises.
MAX_EXPLICIT_PAIRS = 4096


def explicit_possibilistic_knowledge(
    space: WorldSpace,
    assumption: PriorAssumption,
    max_pairs: int = MAX_EXPLICIT_PAIRS,
) -> Optional[PossibilisticKnowledge]:
    """The explicit ``K`` matching a possibilistic prior family, if small.

    Materialises the product ``Ω ⊗ Σ`` the family-based deciders reason
    over.  Returns ``None`` whenever the product would exceed ``max_pairs``
    or the assumption is not possibilistic.
    """
    if assumption is PriorAssumption.POSSIBILISTIC_IGNORANT:
        if len(space.full) > max_pairs:
            return None
        return PossibilisticKnowledge.product(space.full, [space.full])
    if assumption is PriorAssumption.POSSIBILISTIC_SUBCUBES:
        if not isinstance(space, HypercubeSpace):
            return None
        # |Ω ⊗ subcubes| = Σ_S |S| = 4^n exactly; check before enumerating.
        if 4 ** space.n > max_pairs:
            return None
        return PossibilisticKnowledge.product(
            space.full, list(SubcubeFamily(space))
        )
    if assumption is PriorAssumption.POSSIBILISTIC_UNRESTRICTED:
        # |Ω ⊗ P(Ω)| = Σ_S |S| = |Ω| · 2^(|Ω|-1); gate before enumerating.
        size = len(space.full)
        if size > 32 or size * (1 << (size - 1)) > max_pairs:
            return None
        return PossibilisticKnowledge.full(space)
    return None
