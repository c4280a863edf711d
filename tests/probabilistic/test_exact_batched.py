"""Equivalence and soundness tests for the frontier-batched Bernstein kernel.

The batched kernel must be decision-equivalent to the scalar kernel kept as
its oracle in :mod:`tests.probabilistic.scalar_bernstein`: same
verdict on every pair, witnesses that genuinely violate safety (witness
*points* may differ — subdivision tie order is the one permitted
divergence), and UNKNOWN lower bounds that agree to tolerance.  The lazy
split-axis scan must reproduce the full argmax exactly, first index winning
ties.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.algebraic.encode import safety_gap_tensor
from repro.core import HypercubeSpace
from repro.probabilistic import (
    ProductDistribution,
    decide_nonnegative_on_box_batched,
)
from repro.probabilistic.exact import (
    _lazy_split_axes,
    _split_axes_batch,
    _Workspace,
)
from repro.runtime import Budget
from tests.conftest import random_pairs
from tests.probabilistic.scalar_bernstein import decide_nonnegative_on_box, split_axis
from tests.workloads import quadratic_well_tensor

#: Pairs per dimension; totals 202 seeded (A, B) pairs over n ∈ {2..8}.
PAIR_COUNTS = {2: 40, 3: 40, 4: 40, 5: 30, 6: 25, 7: 15, 8: 12}

MAX_BOXES = 4096
ATOL = 1e-9


def exact_gap(space: HypercubeSpace, a, b, point: np.ndarray) -> float:
    dist = ProductDistribution(space, np.clip(point, 0.0, 1.0))
    return dist.prob(a) * dist.prob(b) - dist.prob(a & b)


class TestKernelEquivalence:
    @pytest.mark.parametrize("n", sorted(PAIR_COUNTS))
    def test_batched_equals_scalar_on_random_pairs(self, n):
        space = HypercubeSpace(n)
        pairs = random_pairs(space, PAIR_COUNTS[n], seed=700 + n, allow_empty=True)
        for a, b in pairs:
            tensor = safety_gap_tensor(a, b)
            scalar = decide_nonnegative_on_box(tensor, atol=ATOL, max_boxes=MAX_BOXES)
            batched = decide_nonnegative_on_box_batched(
                tensor, atol=ATOL, max_boxes=MAX_BOXES
            )
            assert batched.nonnegative == scalar.nonnegative, (n, a.mask, b.mask)
            if scalar.nonnegative is False:
                # Witness points may differ (tie order); both must violate.
                assert exact_gap(space, a, b, scalar.witness) < -ATOL
                assert exact_gap(space, a, b, batched.witness) < -ATOL
            elif scalar.nonnegative is None:
                assert batched.lower_bound == pytest.approx(
                    scalar.lower_bound, abs=1e-6
                )

    @pytest.mark.parametrize("n,seed", [(4, 0), (5, 1), (6, 2)])
    @pytest.mark.parametrize("eps", [1e-7, -1e-7])
    def test_deep_subdivision_wells_agree(self, n, seed, eps):
        tensor = quadratic_well_tensor(n, seed, eps)
        scalar = decide_nonnegative_on_box(tensor, atol=ATOL, max_boxes=3000)
        batched = decide_nonnegative_on_box_batched(tensor, atol=ATOL, max_boxes=3000)
        assert batched.nonnegative == scalar.nonnegative
        if scalar.nonnegative is None:
            # Both certified bounds must lie below the true minimum (= eps).
            assert scalar.lower_bound <= eps
            assert batched.lower_bound <= eps

    def test_boxes_explored_matches_on_shallow_decisions(self):
        # Root-level decisions (certified or witnessed without subdividing)
        # must report identical boxes_explored in both kernels.
        space = HypercubeSpace(3)
        for a, b in random_pairs(space, 30, seed=3, allow_empty=True):
            tensor = safety_gap_tensor(a, b)
            scalar = decide_nonnegative_on_box(tensor, atol=ATOL, max_boxes=2)
            batched = decide_nonnegative_on_box_batched(tensor, atol=ATOL, max_boxes=2)
            if scalar.boxes_explored <= 1:
                assert batched.boxes_explored == scalar.boxes_explored


class TestBudgetExpiry:
    def make_clock(self, step: float):
        ticks = itertools.count()
        return lambda: next(ticks) * step

    def test_batched_returns_sound_unknown_mid_round(self):
        tensor = quadratic_well_tensor(6, seed=5, eps=1e-7)
        # Each clock read advances 1s; a 10s budget expires after a handful
        # of frontier rounds, far from the 200k max_boxes ceiling.
        budget = Budget(10.0, clock=self.make_clock(1.0))
        decision = decide_nonnegative_on_box_batched(tensor, atol=ATOL, budget=budget)
        assert decision.nonnegative is None
        assert decision.witness is None
        assert 0 < decision.boxes_explored < 200_000
        # Sound: the reported bound never exceeds the true minimum (= eps).
        assert decision.lower_bound <= 1e-7

    def test_budget_dead_on_arrival_does_no_work(self):
        tensor = quadratic_well_tensor(5, seed=6, eps=1e-7)
        budget = Budget(0.5, clock=self.make_clock(1.0))  # expired at 1st poll
        decision = decide_nonnegative_on_box_batched(tensor, atol=ATOL, budget=budget)
        assert decision.nonnegative is None
        assert decision.boxes_explored == 0

    def test_unlimited_budget_never_stops_the_search(self):
        tensor = quadratic_well_tensor(4, seed=7, eps=1e-7)
        no_budget = decide_nonnegative_on_box_batched(tensor, atol=ATOL, max_boxes=800)
        unlimited = decide_nonnegative_on_box_batched(
            tensor, atol=ATOL, max_boxes=800, budget=Budget.unlimited()
        )
        assert unlimited.nonnegative == no_budget.nonnegative
        assert unlimited.boxes_explored == no_budget.boxes_explored


class TestLazySplitAxes:
    def run_lazy(self, sel: np.ndarray, ubs: np.ndarray, n: int) -> np.ndarray:
        count, size = sel.shape
        ws = _Workspace(count, size, n, 2**n)
        return np.array(_lazy_split_axes(sel, ubs, ws, n))

    def true_variations(self, sel: np.ndarray, n: int) -> np.ndarray:
        shaped = sel.reshape((sel.shape[0],) + (3,) * n)
        out = np.empty((sel.shape[0], n))
        for axis in range(n):
            view = np.moveaxis(shaped, 1 + axis, 1)
            out[:, axis] = (
                np.abs(view[:, 1:] - view[:, :-1]).reshape(sel.shape[0], -1).max(axis=1)
            )
        return out

    @pytest.mark.parametrize("n", [2, 4, 6])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_full_argmax_with_exact_bounds(self, n, seed):
        rng = np.random.default_rng(seed)
        sel = rng.normal(size=(17, 3**n))
        variations = self.true_variations(sel, n)
        expected = np.argmax(variations, axis=1)
        got = self.run_lazy(sel, variations.copy(), n)
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("n", [3, 5])
    def test_matches_full_argmax_with_inflated_bounds(self, n):
        rng = np.random.default_rng(42)
        sel = rng.normal(size=(23, 3**n))
        variations = self.true_variations(sel, n)
        expected = np.argmax(variations, axis=1)
        # Any per-entry inflation keeps the bounds valid; the scan must
        # still land on the exact argmax.
        ubs = variations * rng.uniform(1.0, 3.0, size=variations.shape)
        got = self.run_lazy(sel, ubs, n)
        np.testing.assert_array_equal(got, expected)

    def test_ties_resolve_to_first_axis(self):
        # T(x, y) = g(x) + g(y) has exactly equal variation on both axes;
        # np.argmax picks the first index, and so must the lazy scan.
        n = 2
        g = np.array([0.0, 1.0, -0.5])
        sel = (g[:, None] + g[None, :]).reshape(1, -1).repeat(5, axis=0)
        variations = self.true_variations(sel, n)
        assert variations[0, 0] == variations[0, 1]
        got = self.run_lazy(sel.copy(), variations.copy(), n)
        np.testing.assert_array_equal(got, np.zeros(5, dtype=got.dtype))

    def test_agrees_with_reference_batch_scan(self):
        rng = np.random.default_rng(9)
        n = 4
        sel = rng.normal(size=(11, 3**n))
        shaped = sel.reshape((11,) + (3,) * n)
        expected = _split_axes_batch(shaped)
        got = self.run_lazy(sel, self.true_variations(sel, n), n)
        np.testing.assert_array_equal(got, expected)

    def test_tightens_bounds_in_place(self):
        rng = np.random.default_rng(10)
        n = 3
        sel = rng.normal(size=(7, 3**n))
        variations = self.true_variations(sel, n)
        ubs = variations * 2.0
        self.run_lazy(sel, ubs, n)
        # Measured axes collapse to their true variation; none may ever
        # drop below it (that would be an unsound bound).
        assert np.all(ubs >= variations - 1e-12)
        assert np.any(ubs < variations * 2.0 - 1e-12)


class TestScalarSplitAxis:
    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize("seed", [0, 3])
    def test_matches_per_axis_reference(self, n, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=(3,) * n)
        reference = [
            float(np.abs(np.diff(coeffs, axis=axis)).max()) for axis in range(n)
        ]
        assert split_axis(coeffs) == int(np.argmax(reference))
