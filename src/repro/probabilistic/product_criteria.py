"""Criteria for safety over the product family ``Π_m⁰`` (Section 5.1).

Sufficient criteria (each proves ``Safe_{Π_m⁰}(A, B)``):

* **Miklau–Suciu** (Theorem 5.7): ``A`` and ``B`` share no critical
  coordinates — the perfect-secrecy test, which even gives independence;
* **monotonicity**: some mask ``z`` makes ``z ⊕ A`` an up-set and ``z ⊕ B``
  a down-set (the generalisation of Corollary 5.5 stated after Thm 5.7);
* **cancellation** (Proposition 5.9): for every match-vector ``w``,
  ``|(AB̄ × ĀB) ∩ Circ(w)| ≥ |(AB × ĀB̄) ∩ Circ(w)|`` — term-wise
  domination in the expansion of the safety gap.  Theorem 5.11: it subsumes
  both criteria above.

Necessary criterion:

* **box criterion** (Proposition 5.10): for every ``w``,
  ``|AB̄ ∩ Box(w)| · |ĀB ∩ Box(w)| ≥ |AB ∩ Box(w)| · |ĀB̄ ∩ Box(w)|``.
  A violating box yields an explicit witness product distribution
  (``p_i = w_i`` on fixed coordinates, ``1/2`` on stars).

Both criteria the product stream runs hot work on packed world masks, and
the box criterion uses the two-count deficit ``|A|·|B| − |AB|·|Box|``; the
member-loop and four-quadrant statements are the test oracles in
``tests/probabilistic/product_oracles.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

from .. import _bitops
from ..core.events import monotone_mask
from ..core.worlds import HypercubeSpace, PropertySet, quadrants
from . import matchbox
from .criteria import CriterionKind, CriterionResult
from .distributions import ProductDistribution


def critical_coordinates(event: PropertySet) -> frozenset:
    """The coordinates (1-based) that ``X`` depends on.

    Coordinate ``i`` is critical when flipping it changes membership for
    some world — Miklau–Suciu's record-level criticality specialised to the
    Boolean-vector setting of Theorem 5.7.  With ``S`` the stripe of worlds
    whose bit ``i`` is set, that is ``(X ∖ S) << 2^i ≠ X ∩ S`` on the
    packed mask: the half without the bit, shifted onto the half with it,
    differs from that half.
    """
    space = event.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("critical coordinates are defined on hypercube spaces")
    mask = event.mask
    critical = set()
    for i in range(space.n):
        bit = 1 << i
        stripe = _bitops.stripe_mask(bit, space.size)
        if (mask & ~stripe) << bit != mask & stripe:
            critical.add(i + 1)
    return frozenset(critical)


def miklau_suciu_criterion(
    audited: PropertySet, disclosed: PropertySet
) -> CriterionResult:
    """Theorem 5.7: independence (hence safety) iff no shared critical coordinate."""
    shared = critical_coordinates(audited) & critical_coordinates(disclosed)
    return CriterionResult(
        name="miklau-suciu",
        kind=CriterionKind.SUFFICIENT,
        holds=not shared,
        details={"shared_critical_coordinates": sorted(shared)},
    )


def monotonicity_criterion(
    audited: PropertySet, disclosed: PropertySet
) -> CriterionResult:
    """The mask-search criterion: ``z ⊕ A`` up-set and ``z ⊕ B`` down-set.

    Soundness comes from Corollary 5.5 applied to the coordinate-flipped
    pair (flipping coordinates maps ``Π_m⁰`` onto itself).
    """
    mask = monotone_mask(audited, disclosed)
    return CriterionResult(
        name="monotonicity",
        kind=CriterionKind.SUFFICIENT,
        holds=mask is not None,
        details={"mask": mask},
    )


def cancellation_criterion(
    audited: PropertySet, disclosed: PropertySet
) -> CriterionResult:
    """Proposition 5.9, the paper's headline sufficient criterion.

    The safety gap expands, per the contingency identity, to
    ``Σ_w m(w) · (|(AB̄ × ĀB) ∩ Circ(w)| − |(AB × ĀB̄) ∩ Circ(w)|)``
    with every monomial ``m(w) ≥ 0`` on ``[0,1]^n``; term-wise domination
    therefore certifies ``g ≥ 0``.
    """
    ab, a_not_b, not_a_b, neither = quadrants(audited, disclosed)
    positive = matchbox.circ_pair_counter(a_not_b, not_a_b)  # AB̄ × ĀB
    negative = matchbox.circ_pair_counter(ab, neither)  # AB × ĀB̄
    space = audited.space
    for key, needed in negative.items():
        if positive.get(key, 0) < needed:
            return CriterionResult(
                name="cancellation",
                kind=CriterionKind.SUFFICIENT,
                holds=False,
                details={
                    "violated_match_vector": matchbox.match_string(space, key),
                    "positive_pairs": positive.get(key, 0),
                    "negative_pairs": needed,
                },
            )
    return CriterionResult(
        name="cancellation",
        kind=CriterionKind.SUFFICIENT,
        holds=True,
        details={"match_vectors_dominated": len(negative)},
    )


def _box_witness(
    space: HypercubeSpace, key: Tuple[int, int]
) -> ProductDistribution:
    """The witness distribution of a violated box: ``p_i ∈ {0, 1, 1/2}``.

    Uniform on ``Box(w)``, it concentrates the safety gap onto the violated
    box counts.  Star coordinates get ``1/2``, fixed coordinates their bit.
    """
    star_mask, agreed = key
    bernoulli = np.empty(space.n)
    for i in range(space.n):
        if (star_mask >> i) & 1:
            bernoulli[i] = 0.5
        else:
            bernoulli[i] = 1.0 if (agreed >> i) & 1 else 0.0
    return ProductDistribution(space, bernoulli)


@lru_cache(maxsize=4)
def _audited_box_counts(n: int, mask: int) -> np.ndarray:
    """``|A ∩ Box(w)|`` for the audited set, memoised per mask (read-only).

    A policy audits one ``A`` against a stream of disclosures, so this row
    is built once per audited set rather than once per decision.
    """
    counts = matchbox.box_counts(n, mask)[0]
    counts.flags.writeable = False
    return counts


def box_necessary_criterion(
    audited: PropertySet, disclosed: PropertySet
) -> CriterionResult:
    """Proposition 5.10: necessary box-count domination, for every ``w``.

    Evaluated for **all** ``3^n`` boxes at once.  Inside ``Box(w)`` write
    ``a = |AB̄|``, ``b = |ĀB|``, ``c = |AB|``, ``d = |ĀB̄|``; then
    ``|A|·|B| − |AB|·|Box| = (a+c)(b+c) − c(a+b+c+d) = ab − cd``, so the
    deficit needs the count tensors of ``A``, ``B`` and ``AB`` and the box
    sizes, of which only ``B``'s and ``AB``'s change per decision.  On
    failure the result carries a witness :class:`ProductDistribution` (the
    uniform distribution on the first most-violated box) whose safety gap
    is strictly negative.
    """
    space = audited.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("the box criterion is defined on hypercube spaces")
    space.check_same(disclosed.space)
    n = space.n
    t_b, t_ab = matchbox.box_counts(n, disclosed.mask, audited.mask & disclosed.mask)
    # In place over the two fresh rows: no 3^n temporaries per decision.
    deficit = np.multiply(t_b, _audited_box_counts(n, audited.mask), out=t_b)
    deficit -= np.multiply(t_ab, matchbox.box_sizes(n), out=t_ab)
    if deficit.min() >= 0:
        return CriterionResult(
            name="box-necessary",
            kind=CriterionKind.NECESSARY,
            holds=True,
            details={"boxes_checked": int(deficit.size)},
        )
    # Pick the most violated box for the witness.
    flat_index = int(np.argmin(deficit))
    star_mask = 0
    agreed = 0
    for i, digit in enumerate(np.unravel_index(flat_index, (3,) * n)):
        if digit == 2:
            star_mask |= 1 << i
        elif digit == 1:
            agreed |= 1 << i
    key = (star_mask, agreed)
    witness = _box_witness(space, key)
    return CriterionResult(
        name="box-necessary",
        kind=CriterionKind.NECESSARY,
        holds=False,
        witness=witness,
        details={
            "violated_match_vector": matchbox.match_string(space, key),
            "deficit": float(deficit[flat_index]),
        },
    )


def independence_holds(
    audited: PropertySet, disclosed: PropertySet
) -> bool:
    """``A ⊥_{Π_m⁰} B``: perfect secrecy under product priors.

    By Theorem 5.7 this is exactly the Miklau–Suciu criterion; exposed
    under its semantic name for the flexibility benchmarks.
    """
    return miklau_suciu_criterion(audited, disclosed).holds
