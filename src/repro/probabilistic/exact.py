"""Exact decision of product-family safety via Bernstein branch-and-bound.

This is our substitute for the Basu–Pollack–Roy quantifier-elimination
black box of Theorem 6.3 (see DESIGN.md, "Substitutions").  Deciding
``Safe_{Π_m⁰}(A, B)`` means deciding whether the safety gap polynomial
``g(p) = P[A]P[B] − P[AB]`` — per-variable degree ≤ 2 — is nonnegative on
the box ``[0,1]^n``.

Bernstein enclosure gives rigorous two-sided bounds: writing ``g`` in the
tensor Bernstein basis of degree 2 per variable, the minimum coefficient
bounds ``min g`` from below, corner coefficients are exact values, and
subdividing the box (de Casteljau) shrinks the gap quadratically.  Branch
and bound over sub-boxes therefore terminates with either

* a certified ``g ≥ −atol`` on the whole box (**SAFE**), or
* an explicitly evaluated point with ``g < −atol`` (**UNSAFE** + witness), or
* ``UNKNOWN`` when the iteration budget runs out (boundary cases thinner
  than ``atol``).

The kernel is **frontier-batched** (:func:`decide_nonnegative_on_box_batched`):
the live frontier is one stacked ``(K, 3, …, 3)`` coefficient array plus
``(K, n)`` bounds, and each round runs *one* vectorised pass over the
best-``K`` slice: de Casteljau split along per-box worst axes, min/max
enclosure, corner witness check and prune, so the per-box Python overhead
amortises over the whole slice.  The one-box-per-iteration heap loop it
replaced lives on in the test suite as its oracle: verdicts agree up to
heap tie order (witness points and ``boxes_explored`` may differ where
several boxes share a lower bound).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from .. import _native
from ..algebraic.encode import safety_gap_tensor
from ..core.verdict import AuditVerdict
from ..core.worlds import HypercubeSpace, PropertySet
from ..runtime.budget import Budget
from .distributions import ProductDistribution

#: Default tolerance: minima in [−atol, 0) are treated as boundary-safe.
DEFAULT_ATOL = 1e-9

#: Boxes explored between deadline-budget polls in the branch and bound.
_BUDGET_CHECK_EVERY = 128

#: Frontier slice split per round by the batched kernel.  Large enough to
#: amortise the fixed numpy-call cost over many boxes, small enough that a
#: round stays close to strict best-first order (and to keep the witness
#: early-exit from overshooting a deep UNSAFE chain by much).
DEFAULT_FRONTIER_BATCH = 64

#: Conversion matrix: power basis (1, p, p²) → Bernstein degree-2 coefficients.
#: Row j gives the Bernstein coefficient at node j of each power monomial.
_POWER_TO_BERNSTEIN = np.array(
    [
        [1.0, 0.0, 0.0],
        [1.0, 0.5, 0.0],
        [1.0, 1.0, 1.0],
    ]
)


def power_tensor_to_bernstein(tensor: np.ndarray) -> np.ndarray:
    """Convert a per-variable-degree-≤2 coefficient tensor to Bernstein form.

    Applies the 3×3 basis change along every axis.
    """
    result = tensor
    n = tensor.ndim
    for axis in range(n):
        result = np.tensordot(_POWER_TO_BERNSTEIN, result, axes=([1], [axis]))
        result = np.moveaxis(result, 0, axis)
    return result


@lru_cache(maxsize=None)
def _corner_picks(n: int) -> Tuple[np.ndarray, Tuple[np.ndarray, ...]]:
    """The corner index table for ``(3,)*n`` Bernstein tensors, per dimension.

    Row ``k`` gives the per-axis node index of corner ``k`` (0 = low end of
    the axis, 2 = high end).  The table is identical for every box of the
    same dimension, yet the branch and bound used to re-enumerate it (and
    gather values through a Python loop) on *every* box push — exponential
    rebuild work per node.  Cached per ``n``, with the transposed advanced
    index precomputed for a single vectorised gather.  Treat as read-only.
    """
    picks = np.array(
        list(itertools.product((0, 2), repeat=n)), dtype=np.intp
    ).reshape(1 << n, n)
    gather = tuple(np.ascontiguousarray(col) for col in picks.T)
    return picks, gather


@lru_cache(maxsize=None)
def _corner_flat(n: int) -> Tuple[np.ndarray, np.ndarray]:
    """Corner positions of a C-order-flattened ``(3,)*n`` tensor, per dimension.

    Returns ``(flat, picks)``: ``flat[k]`` is the flat index of corner ``k``
    (so a ``(K, 3**n)`` frontier gathers all corners of all boxes in one
    fancy-index), and ``picks`` is the per-axis node table of
    :func:`_corner_picks`.  Treat both as read-only.
    """
    picks, _ = _corner_picks(n)
    weights = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return picks @ weights, picks


def _split_axes_batch(
    batch: np.ndarray,
    scratch: Optional[np.ndarray] = None,
    variations: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Per-box worst split axes of a stacked ``(K, 3, …, 3)`` frontier slice.

    One vectorised diff/max per axis over the whole slice — the Python loop
    runs ``n ≤ 12`` times per *round*, not per box.  ``scratch`` (room for
    one axis's adjacent differences) and ``variations`` optionally supply
    reusable buffers so the hot loop allocates nothing (see ``_Workspace``).
    """
    k = batch.shape[0]
    n = batch.ndim - 1
    out = np.empty((k, n)) if variations is None else variations[:k]
    for axis in range(n):
        view = np.moveaxis(batch, 1 + axis, 1)
        if scratch is None:
            delta = view[:, 1:] - view[:, :-1]
        else:
            delta = scratch[:k].reshape(view[:, 1:].shape)
            np.subtract(view[:, 1:], view[:, :-1], out=delta)
        np.abs(delta, out=delta)
        delta.reshape(k, -1).max(axis=1, out=out[:, axis])
    return np.argmax(out, axis=1)


#: Relative/absolute inflation applied to inherited variation bounds so a few
#: ulps of de Casteljau rounding can never make a stale bound under-estimate a
#: child's true variation (which would silently skip the argmax axis).  The
#: slack only costs an occasional extra axis evaluation near exact ties.
_UB_SLACK = 2.0**-40


def _axis_variation(
    block: np.ndarray, axis: int, n: int, scratch: np.ndarray, out: np.ndarray
) -> None:
    """``max |adjacent coefficient diff|`` along ``axis``, per row of ``block``.

    ``block`` holds ``(m, 3**n)`` C-order-flattened coefficient tensors.
    Uses ``max(max(d), -min(d))`` instead of an ``|d|`` pass — identical
    values, one fewer sweep over the differences.
    """
    m = block.shape[0]
    post = 3 ** (n - 1 - axis)
    view = block.reshape(m, -1, 3, post)
    delta = scratch[:m].reshape(m, -1, 2, post)
    np.subtract(view[:, :, 1:], view[:, :, :-1], out=delta)
    flat = delta.reshape(m, -1)
    flat.max(axis=1, out=out)
    np.maximum(out, -flat.min(axis=1), out=out)


def _seed_root_variations(
    flat_root: np.ndarray, n: int, scratch: np.ndarray, out: np.ndarray
) -> None:
    """Full per-axis variation scan of the root box (run once per decision)."""
    block = flat_root[None, :]
    value = np.empty(1)
    for axis in range(n):
        _axis_variation(block, axis, n, scratch, value)
        out[axis] = value[0]


def _lazy_split_axes(
    sel: np.ndarray, ubs: np.ndarray, ws: "_Workspace", n: int
) -> np.ndarray:
    """Exact per-box worst split axes, evaluating as few axes as possible.

    Equivalent to ``argmax`` over all ``n`` per-axis variations (first index
    wins ties), but gated by the inherited
    per-axis upper bounds in ``ubs``: an axis is only measured when its bound
    could still beat the best axis measured so far.  Since subdividing halves
    the split axis's bound and leaves the others, most boxes resolve after
    one or two measurements instead of ``n``.  ``ubs`` is tightened in place
    (measured axes drop to their true variation) for the children to inherit.
    """
    count = sel.shape[0]
    rows = ws.arange[:count]
    best = ws.best[:count]
    best.fill(-np.inf)
    best_axis = ws.best_axis[:count]
    best_axis.fill(n)  # sentinel: ties against it always trigger a measure
    masked = ws.masked[:count]
    np.copyto(masked, ubs)
    while True:
        cand = np.argmax(masked, axis=1)
        cand_ub = masked[rows, cand]
        need = (cand_ub > best) | ((cand_ub == best) & (cand < best_axis))
        boxes = np.flatnonzero(need)
        if boxes.shape[0] == 0:
            return best_axis
        order = boxes[np.argsort(cand[boxes], kind="stable")]
        axes = cand[order]
        start = 0
        while start < order.shape[0]:
            axis = int(axes[start])
            stop = int(np.searchsorted(axes, axis, side="right"))
            group = order[start:stop]
            block = np.take(sel, group, axis=0, out=ws.ordered[: stop - start], mode="clip")
            true = ws.true_var[: stop - start]
            _axis_variation(block, axis, n, ws.scratch, true)
            ubs[group, axis] = true
            masked[group, axis] = -np.inf
            better = (true > best[group]) | (
                (true == best[group]) & (axis < best_axis[group])
            )
            hit = group[better]
            best[hit] = true[better]
            best_axis[hit] = axis
            start = stop


@dataclass(frozen=True)
class BernsteinDecision:
    """Outcome of the branch-and-bound decision."""

    nonnegative: Optional[bool]  # None = undecided within budget
    lower_bound: float
    witness: Optional[np.ndarray]  # a point with g(point) < -atol, if any
    boxes_explored: int

    @property
    def decided(self) -> bool:
        return self.nonnegative is not None


class _Frontier:
    """Best-first store for the batched kernel's live boxes.

    Coefficient rows stay in the per-round survivor arrays they were born
    in; the frontier references them as row views, so a push costs one bulk
    copy (the survivor gather itself) and compaction moves Python pointers
    plus the small ``n``-wide bound pools — never the ``3**n`` payloads.
    Extracted rows are marked dead (``+inf`` lower bound, ``None`` view)
    and pruned lazily once headroom runs out; growth keeps post-compaction
    headroom at ≥ a quarter of capacity, making compaction amortised O(1)
    per box.
    """

    __slots__ = ("coeffs", "lo", "hi", "lowers", "ub", "scale", "_used", "_live")

    def __init__(self, n: int, capacity: int = 1024) -> None:
        self.coeffs: List[Optional[np.ndarray]] = []
        self.lo = np.empty((capacity, n))
        self.hi = np.empty((capacity, n))
        self.lowers = np.full(capacity, np.inf)
        self.ub = np.empty((capacity, n))  # per-axis variation upper bounds
        self.scale = np.empty(capacity)  # per-box max |coefficient| bound
        self._used = 0  # rows written so far (live + dead)
        self._live = 0

    def __len__(self) -> int:
        return self._live

    def best(self) -> float:
        """The least live lower bound (the frontier's certified global bound)."""
        return float(self.lowers[: self._used].min())

    def push(
        self,
        store: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        lowers: np.ndarray,
        ub: np.ndarray,
        scale: np.ndarray,
    ) -> None:
        """Append the rows of ``store`` (an array this frontier may keep views of)."""
        count = store.shape[0]
        if count == 0:
            return
        if self._used + count > self.lowers.shape[0]:
            self._compact(count)
        rows = slice(self._used, self._used + count)
        self.lo[rows] = lo
        self.hi[rows] = hi
        self.lowers[rows] = lowers
        self.ub[rows] = ub
        self.scale[rows] = scale
        self.coeffs.extend(store[i] for i in range(count))
        self._used += count
        self._live += count

    def take(
        self, count: int, out: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Move the ``count`` best boxes' coefficients into ``out``.

        Returns copies of (lo, hi, lowers, ub, scale), valid after mutation.
        """
        if count < self._live:
            rows = np.argpartition(self.lowers[: self._used], count - 1)[:count]
        else:
            rows = np.flatnonzero(np.isfinite(self.lowers[: self._used]))
        coeffs = self.coeffs
        for j, row in enumerate(rows):
            out[j] = coeffs[row]
            coeffs[row] = None
        bounds = (
            self.lo[rows],
            self.hi[rows],
            self.lowers[rows],
            self.ub[rows],
            self.scale[rows],
        )
        self.lowers[rows] = np.inf
        self._live -= rows.shape[0]
        return bounds

    def _compact(self, need: int) -> None:
        live = np.flatnonzero(np.isfinite(self.lowers[: self._used]))
        capacity = self.lowers.shape[0]
        while self._live + need > (3 * capacity) // 4:
            capacity *= 2
        coeffs = self.coeffs
        self.coeffs = [coeffs[row] for row in live]
        if capacity != self.lowers.shape[0]:
            n = self.lo.shape[1]
            lo, hi, lowers, ub, scale = self.lo, self.hi, self.lowers, self.ub, self.scale
            self.lo = np.empty((capacity, n))
            self.hi = np.empty((capacity, n))
            self.lowers = np.full(capacity, np.inf)
            self.ub = np.empty((capacity, n))
            self.scale = np.empty(capacity)
            self.lo[: live.shape[0]] = lo[live]
            self.hi[: live.shape[0]] = hi[live]
            self.lowers[: live.shape[0]] = lowers[live]
            self.ub[: live.shape[0]] = ub[live]
            self.scale[: live.shape[0]] = scale[live]
        else:
            self.lo[: live.shape[0]] = self.lo[live]
            self.hi[: live.shape[0]] = self.hi[live]
            self.lowers[: live.shape[0]] = self.lowers[live]
            self.ub[: live.shape[0]] = self.ub[live]
            self.scale[: live.shape[0]] = self.scale[live]
            self.lowers[live.shape[0] : self._used] = np.inf
        self._used = live.shape[0]


class _Workspace:
    """Preallocated per-round buffers for the batched kernel.

    Reused across rounds so the hot loop allocates nothing bigger than
    index arrays — fresh multi-megabyte temporaries every round would spend
    more time in the page allocator than in the arithmetic.
    """

    __slots__ = (
        "sel",
        "ordered",
        "children",
        "child_lo",
        "child_hi",
        "child_ub",
        "child_scale",
        "scratch",
        "masked",
        "best",
        "best_axis",
        "true_var",
        "child_lowers",
        "corners",
        "arange",
    )

    def __init__(self, batch: int, size: int, n: int, n_corners: int) -> None:
        self.sel = np.empty((batch, size))
        self.ordered = np.empty((batch, size))
        self.children = np.empty((2 * batch, size))
        self.child_lo = np.empty((2 * batch, n))
        self.child_hi = np.empty((2 * batch, n))
        self.child_ub = np.empty((2 * batch, n))
        self.child_scale = np.empty(2 * batch)
        self.scratch = np.empty((batch, (2 * size) // 3))
        self.masked = np.empty((batch, n))
        self.best = np.empty(batch)
        self.best_axis = np.empty(batch, dtype=np.int64)
        self.true_var = np.empty(batch)
        self.child_lowers = np.empty(2 * batch)
        self.corners = np.empty((2 * batch, n_corners))
        self.arange = np.arange(batch)


def decide_nonnegative_on_box_batched(
    tensor: np.ndarray,
    atol: float = DEFAULT_ATOL,
    max_boxes: int = 200_000,
    budget: Optional[Budget] = None,
    batch_size: int = DEFAULT_FRONTIER_BATCH,
) -> BernsteinDecision:
    """Decide ``g ≥ −atol`` on ``[0,1]^n`` for a degree-≤2-per-variable ``g``.

    ``tensor`` holds power-basis coefficients with shape ``(3,)*n``.
    Best-first order is preserved at round granularity: each round extracts
    the ``batch_size`` boxes with the least Bernstein lower bounds and
    processes the whole slice in stacked numpy passes — per-box worst-axis
    selection, de Casteljau split (grouped by axis), enclosure bounds,
    corner-witness scan, prune.  An expired ``budget`` (polled between rounds through a
    :class:`~repro.runtime.BudgetPoller`) soundly stops the search with the
    frontier's certified lower bound.
    """
    n = tensor.ndim
    root = power_tensor_to_bernstein(tensor)
    if n == 0:  # constant polynomial: decide by inspection
        value = float(root)
        if value >= -atol:
            return BernsteinDecision(True, -atol, None, 0)
        return BernsteinDecision(False, value, np.zeros(0), 1)
    size = 3**n
    flat_root = np.ascontiguousarray(root).reshape(size)
    lower = float(flat_root.min())
    if lower >= -atol:
        return BernsteinDecision(True, -atol, None, 0)
    corner_idx, picks = _corner_flat(n)
    corners = flat_root[corner_idx]
    worst = int(np.argmin(corners))
    if corners[worst] < -atol:
        witness = np.where(picks[worst] == 2, 1.0, 0.0)
        return BernsteinDecision(False, lower, witness, 1)

    shape3 = (3,) * n
    # Large tensors shrink the round so workspace buffers stay cache-sized.
    batch = max(1, min(int(batch_size), (1 << 22) // size))
    ws = _Workspace(batch, size, n, corner_idx.shape[0])
    frontier = _Frontier(n)
    root_ub = np.empty((1, n))
    _seed_root_variations(flat_root, n, ws.scratch, root_ub[0])
    frontier.push(
        flat_root[None, :],
        np.zeros((1, n)),
        np.ones((1, n)),
        np.array([lower]),
        root_ub,
        np.array([float(np.max(np.abs(flat_root)))]),
    )
    explored = 0
    poller = None if budget is None else budget.poller(_BUDGET_CHECK_EVERY)
    # Resolved once per decision: the compiled kernels, or None for the
    # pure-NumPy fallback path (REPRO_NATIVE=off, or the extension is absent).
    _backend = _native.backend()
    fused = _backend.fused_split
    select = _backend.select_axes

    while len(frontier) and explored < max_boxes:
        count = min(batch, len(frontier), max_boxes - explored)
        if poller is not None and poller.charge(count):
            break  # deadline passed: report undecided with the frontier bound
        sel = ws.sel[:count]
        sel_lo, sel_hi, sel_lowers, sel_ub, sel_scale = frontier.take(count, sel)
        explored += count

        if select is not None:
            # Compiled row-at-a-time lazy selection: same measurements, same
            # tie order, same in-place bound tightening as _lazy_split_axes.
            axes = ws.best_axis[:count]
            select(sel, sel_ub, axes, n)
        else:
            axes = _lazy_split_axes(sel, sel_ub, ws, n)
        if fused is not None:
            # The fused kernel walks each row at its own axis stride, so no
            # axis-run reorder is needed — the slice is processed in place.
            lo_s, hi_s, ub_s, scale_s = sel_lo, sel_hi, sel_ub, sel_scale
        else:
            # Reorder the slice so boxes sharing a split axis form contiguous
            # runs: the de Casteljau pass below then works purely on views.
            order = np.argsort(axes, kind="stable")
            axes = axes[order]
            np.take(sel, order, axis=0, out=ws.ordered[:count], mode="clip")
            ordered = ws.ordered[:count].reshape((count,) + shape3)
            lo_s = sel_lo[order]
            hi_s = sel_hi[order]
            ub_s = sel_ub[order]
            scale_s = sel_scale[order]

        children = ws.children[: 2 * count]
        child_lo = ws.child_lo[: 2 * count]
        child_hi = ws.child_hi[: 2 * count]
        child_lo[:count] = lo_s
        child_lo[count:] = lo_s
        child_hi[:count] = hi_s
        child_hi[count:] = hi_s
        rows = ws.arange[:count]
        mids = 0.5 * (lo_s[rows, axes] + hi_s[rows, axes])
        child_hi[rows, axes] = mids  # left halves
        child_lo[count + rows, axes] = mids  # right halves

        if fused is not None:
            # Fused native pass: split + per-child min enclosure + corner
            # gather in one sweep over the pools (see _native/_kernels.c).
            fused(
                sel,
                axes.astype(np.int64, copy=False),
                children[:count],
                children[count:],
                ws.child_lowers[: 2 * count],
                ws.corners[: 2 * count],
                corner_idx,
                n,
            )
        else:
            left = children[:count].reshape((count,) + shape3)
            right = children[count:].reshape((count,) + shape3)
            # De Casteljau per axis run, written straight into the child
            # buffer: m01 = (b0+b1)/2, m12 = (b1+b2)/2, mid = (m01+m12)/2.
            start = 0
            while start < count:
                axis = int(axes[start])
                stop = int(np.searchsorted(axes, axis, side="right"))
                src = np.moveaxis(ordered[start:stop], 1 + axis, 1)
                left_v = np.moveaxis(left[start:stop], 1 + axis, 1)
                right_v = np.moveaxis(right[start:stop], 1 + axis, 1)
                b0, b1, b2 = src[:, 0], src[:, 1], src[:, 2]
                left_v[:, 0] = b0
                np.add(b0, b1, out=left_v[:, 1])
                left_v[:, 1] *= 0.5
                np.add(b1, b2, out=right_v[:, 1])
                right_v[:, 1] *= 0.5
                np.add(left_v[:, 1], right_v[:, 1], out=left_v[:, 2])
                left_v[:, 2] *= 0.5
                right_v[:, 0] = left_v[:, 2]
                right_v[:, 2] = b2
                start = stop

        # Children inherit variation bounds: along any unsplit axis the child
        # coefficients are convex combinations of the parent's (bound kept),
        # and along the split axis the adjacent differences halve.  _UB_SLACK
        # absorbs de Casteljau rounding so the bounds stay conservative.
        child_ub = ws.child_ub[: 2 * count]
        child_ub[:count] = ub_s
        child_ub[count:] = ub_s
        half = 0.5 * ub_s[rows, axes]
        child_ub[rows, axes] = half
        child_ub[count + rows, axes] = half
        child_ub *= 1.0 + _UB_SLACK
        child_scale = ws.child_scale[: 2 * count]
        child_scale[:count] = scale_s
        child_scale[count:] = scale_s
        child_scale *= 1.0 + _UB_SLACK
        child_ub += _UB_SLACK * child_scale[:, None]

        if fused is not None:
            child_lowers = ws.child_lowers[: 2 * count]
            child_corners = ws.corners[: 2 * count]
        else:
            child_lowers = children.min(axis=1, out=ws.child_lowers[: 2 * count])
            # Corner coefficients are exact values: any < -atol is a witness.
            child_corners = np.take(
                children, corner_idx, axis=1, out=ws.corners[: 2 * count], mode="clip"
            )
        worst = int(child_corners.argmin())
        if child_corners.flat[worst] < -atol:
            box, corner = divmod(worst, corner_idx.shape[0])
            witness = np.where(picks[corner] == 2, child_hi[box], child_lo[box])
            return BernsteinDecision(
                False, float(sel_lowers.min()), witness, explored
            )

        survivors = np.flatnonzero(child_lowers < -atol)  # rest certified: prune
        frontier.push(
            children[survivors],  # fancy gather: a fresh array the frontier owns
            child_lo[survivors],
            child_hi[survivors],
            child_lowers[survivors],
            child_ub[survivors],
            child_scale[survivors],
        )
    if not len(frontier):
        return BernsteinDecision(True, -atol, None, explored)
    return BernsteinDecision(None, frontier.best(), None, explored)


def decide_product_safety(
    audited: PropertySet,
    disclosed: PropertySet,
    atol: float = DEFAULT_ATOL,
    max_boxes: int = 200_000,
    tensor: Optional[np.ndarray] = None,
    budget: Optional[Budget] = None,
) -> AuditVerdict:
    """Decide ``Safe_{Π_m⁰}(A, B)`` rigorously (up to ``atol``) for ``n ≤ 12``.

    SAFE verdicts certify ``g ≥ −atol`` over the entire Bernoulli box;
    UNSAFE verdicts carry an exactly-evaluated witness
    :class:`ProductDistribution`.

    ``tensor`` optionally supplies a precomputed :func:`safety_gap_tensor`
    of the pair, letting batch layers share one tensor across repeated
    decisions of the same ``(A, B)`` (e.g. assumption/tolerance ablations).
    """
    space = audited.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("product-family safety is defined on hypercube spaces")
    space.check_same(disclosed.space)
    if tensor is None:
        tensor = safety_gap_tensor(audited, disclosed)
    elif tensor.shape != (3,) * space.n:
        raise ValueError(
            f"precomputed tensor has shape {tensor.shape}; "
            f"expected {(3,) * space.n}"
        )
    decision = decide_nonnegative_on_box_batched(
        tensor, atol=atol, max_boxes=max_boxes, budget=budget
    )
    if decision.nonnegative is True:
        return AuditVerdict.safe(
            "bernstein-branch-and-bound",
            certificate={"atol": atol, "boxes_explored": decision.boxes_explored},
            boxes_explored=decision.boxes_explored,
        )
    if decision.nonnegative is False:
        witness = ProductDistribution(space, np.clip(decision.witness, 0.0, 1.0))
        gap = (
            witness.prob(audited) * witness.prob(disclosed)
            - witness.prob(audited & disclosed)
        )
        return AuditVerdict.unsafe(
            "bernstein-branch-and-bound",
            witness=witness,
            gap=gap,
            boxes_explored=decision.boxes_explored,
        )
    return AuditVerdict.unknown(
        "bernstein-branch-and-bound",
        lower_bound=decision.lower_bound,
        boxes_explored=decision.boxes_explored,
        budget_exhausted=budget is not None and budget.expired,
    )
