"""Member-loop formulations of the product criteria: test oracles.

Production runs Theorem 5.7's critical-coordinate scan and Proposition
5.10's box criterion on packed world masks
(:mod:`repro.probabilistic.product_criteria`), with the box deficit in its
two-count form ``|A|·|B| − |AB|·|Box|``.  This module keeps the direct
statements of both — a per-world flip test, a per-world scatter into the
``(3,)*n`` count tensor, and the four-quadrant deficit
``|AB̄|·|ĀB| − |AB|·|ĀB̄|`` — so the equivalence suites can check the mask
code against code that shares none of its bit tricks.
"""

from __future__ import annotations

import numpy as np

from repro.core.worlds import HypercubeSpace, PropertySet, quadrants
from repro.probabilistic import matchbox
from repro.probabilistic.criteria import CriterionKind, CriterionResult
from repro.probabilistic.product_criteria import _box_witness


def critical_coordinates(event: PropertySet) -> frozenset:
    """Coordinates (1-based) whose flip changes membership for some world."""
    space = event.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("critical coordinates are defined on hypercube spaces")
    members = event.members
    critical = set()
    for i in range(space.n):
        bit = 1 << i
        for w in members:
            if (w ^ bit) not in members:
                critical.add(i + 1)
                break
    return frozenset(critical)


def box_count_tensor(event: PropertySet) -> np.ndarray:
    """``|X ∩ Box(w)|`` by scattering each member, then summing star slices.

    Axis ``i`` is coordinate ``i+1`` with index 0 = fixed 0, 1 = fixed 1,
    2 = star; ``n = 0`` gives shape ``(1,)``.
    """
    n = event.space.n
    tensor = np.zeros((3,) * n if n else (1,))
    if n == 0:
        tensor[0] = float(len(event))
        return tensor
    for w in event:
        idx = tuple((w >> i) & 1 for i in range(n))
        tensor[idx] += 1.0
    for axis in range(n):
        star = [slice(None)] * n
        zero = [slice(None)] * n
        one = [slice(None)] * n
        star[axis], zero[axis], one[axis] = 2, 0, 1
        tensor[tuple(star)] = tensor[tuple(zero)] + tensor[tuple(one)]
    return tensor


def box_necessary_criterion(
    audited: PropertySet, disclosed: PropertySet
) -> CriterionResult:
    """Proposition 5.10 from the four quadrant count tensors."""
    space = audited.space
    ab, a_not_b, not_a_b, neither = quadrants(audited, disclosed)
    t_pos = box_count_tensor(a_not_b) * box_count_tensor(not_a_b)
    t_neg = box_count_tensor(ab) * box_count_tensor(neither)
    deficit = t_pos - t_neg
    if np.all(deficit >= 0):
        return CriterionResult(
            name="box-necessary",
            kind=CriterionKind.NECESSARY,
            holds=True,
            details={"boxes_checked": int(deficit.size)},
        )
    idx = np.unravel_index(int(np.argmin(deficit)), deficit.shape)
    star_mask = 0
    agreed = 0
    for i, digit in enumerate(idx):
        if digit == 2:
            star_mask |= 1 << i
        elif digit == 1:
            agreed |= 1 << i
    key = (star_mask, agreed)
    return CriterionResult(
        name="box-necessary",
        kind=CriterionKind.NECESSARY,
        holds=False,
        witness=_box_witness(space, key),
        details={
            "violated_match_vector": matchbox.match_string(space, key),
            "deficit": float(deficit[idx]),
        },
    )
