"""The scalar Bernstein branch-and-bound: the test oracle for the exact stage.

Production decides ``g ≥ −atol`` on ``[0,1]^n`` with the frontier-batched
kernel (:func:`repro.probabilistic.exact.decide_nonnegative_on_box_batched`)
and its optional compiled twin.  This module keeps the straightforward
formulation of the same decision — a best-first heap loop, one box per
Python iteration, with its own de Casteljau split, enclosure, corner
evaluation and worst-axis choice — so the equivalence suites can check the
fast kernels against code that shares none of their vectorised machinery.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Tuple

import numpy as np

from repro.probabilistic.exact import (
    DEFAULT_ATOL,
    BernsteinDecision,
    _BUDGET_CHECK_EVERY,
    _corner_picks,
    power_tensor_to_bernstein,
)
from repro.runtime.budget import Budget


def bernstein_split(coeffs: np.ndarray, axis: int) -> Tuple[np.ndarray, np.ndarray]:
    """De Casteljau subdivision of a degree-2 Bernstein tensor along one axis.

    Splits the unit interval of ``axis`` at its midpoint; both halves are
    reparametrised to ``[0,1]``.
    """
    b0 = np.take(coeffs, 0, axis=axis)
    b1 = np.take(coeffs, 1, axis=axis)
    b2 = np.take(coeffs, 2, axis=axis)
    m01 = 0.5 * (b0 + b1)
    m12 = 0.5 * (b1 + b2)
    mid = 0.5 * (m01 + m12)
    left = np.stack([b0, m01, mid], axis=axis)
    right = np.stack([mid, m12, b2], axis=axis)
    return left, right


def bernstein_range(coeffs: np.ndarray) -> Tuple[float, float]:
    """The enclosure ``[min coeff, max coeff] ⊇ range of the polynomial``."""
    return float(coeffs.min()), float(coeffs.max())


def corner_values(coeffs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Exact polynomial values at the box corners (corner Bernstein coefficients).

    Returns the value vector and the per-corner index rows (0 = low end of
    the axis, 2 = high end).
    """
    picks, gather = _corner_picks(coeffs.ndim)
    if coeffs.ndim == 0:
        return coeffs.reshape(1), picks
    return coeffs[gather], picks


def split_axis(coeffs: np.ndarray) -> int:
    """The axis with the largest adjacent-coefficient variation.

    All ``n`` axis views are stacked once so a single
    ``np.abs(np.diff(...))`` reduction replaces the former per-axis Python
    list comprehension.
    """
    n = coeffs.ndim
    views = np.stack([np.moveaxis(coeffs, axis, 0).reshape(3, -1) for axis in range(n)])
    variations = np.abs(np.diff(views, axis=1)).max(axis=(1, 2))
    return int(np.argmax(variations))


def decide_nonnegative_on_box(
    tensor: np.ndarray,
    atol: float = DEFAULT_ATOL,
    max_boxes: int = 200_000,
    budget: Optional[Budget] = None,
) -> BernsteinDecision:
    """Decide ``g ≥ −atol`` on ``[0,1]^n`` for a degree-≤2-per-variable ``g``.

    ``tensor`` holds power-basis coefficients with shape ``(3,)*n``.
    Best-first branch and bound on the Bernstein lower bound.  An expired
    ``budget`` (polled every :data:`_BUDGET_CHECK_EVERY` boxes) stops the
    search with an undecided result — sound, since undecided carries the
    best certified lower bound found so far.
    """
    n = tensor.ndim
    root = power_tensor_to_bernstein(tensor)
    # Each heap entry: (lower_bound, counter, coeffs, (lo, hi) per axis).
    counter = itertools.count()
    lo0 = np.zeros(n)
    hi0 = np.ones(n)
    heap: List[Tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    explored = 0

    def push(coeffs: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> Optional[np.ndarray]:
        """Queue a box unless it is certified; return a witness if one pops out."""
        lower, _ = bernstein_range(coeffs)
        if lower >= -atol:
            return None  # certified nonnegative on this box; prune
        corners, picks = corner_values(coeffs)
        worst = int(np.argmin(corners))
        if corners[worst] < -atol:
            # Corner coefficients are exact evaluations: immediate witness.
            return np.where(picks[worst] == 2, hi, lo)
        heapq.heappush(heap, (lower, next(counter), coeffs, lo, hi))
        return None

    witness = push(root, lo0, hi0)
    if witness is not None:
        return BernsteinDecision(False, float(root.min()), witness, 1)
    poller = None if budget is None else budget.poller(_BUDGET_CHECK_EVERY)
    while heap and explored < max_boxes:
        if poller is not None and poller.charge(1):
            break  # deadline passed: report undecided with the frontier bound
        lower, _, coeffs, lo, hi = heapq.heappop(heap)
        explored += 1
        # Split along the axis with the largest coefficient variation.
        axis = split_axis(coeffs)
        mid = 0.5 * (lo[axis] + hi[axis])
        for half, (new_lo_val, new_hi_val) in zip(
            bernstein_split(coeffs, axis), ((lo[axis], mid), (mid, hi[axis]))
        ):
            new_lo = lo.copy()
            new_hi = hi.copy()
            new_lo[axis], new_hi[axis] = new_lo_val, new_hi_val
            witness = push(half, new_lo, new_hi)
            if witness is not None:
                return BernsteinDecision(False, lower, witness, explored)
    if not heap:
        return BernsteinDecision(True, -atol, None, explored)
    return BernsteinDecision(None, heap[0][0], None, explored)
