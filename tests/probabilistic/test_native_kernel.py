"""Three-way equivalence for the E20 native Bernstein kernel.

The compiled fused de Casteljau kernel, the pure-NumPy fallback and the
scalar reference must agree verdict-for-verdict: the backend is allowed to
change throughput and provenance, never a decision.  The suite pins each
backend explicitly via ``repro._native.configure`` and restores the
environment's selection afterwards, so test order cannot leak a backend.

Native-only tests skip (rather than fail) when the extension was not
built — ``REPRO_NATIVE=require`` CI legs prove the compiled path runs.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import _native
from repro.algebraic.encode import safety_gap_tensor
from repro.core import HypercubeSpace
from repro.exceptions import NativeBackendError
from repro.probabilistic import (
    ProductDistribution,
    decide_nonnegative_on_box_batched,
)
from repro.runtime import Budget
from tests.conftest import random_pairs
from tests.probabilistic.scalar_bernstein import decide_nonnegative_on_box
from tests.workloads import quadratic_well_tensor

ATOL = 1e-9
MAX_BOXES = 4096

#: Seeded (A, B) pairs per dimension for the randomized three-way sweep.
PAIR_COUNTS = {2: 25, 3: 25, 4: 20, 5: 15, 6: 12, 7: 8, 8: 6}

NATIVE_AVAILABLE = _native.configure("auto").fused_split is not None


@pytest.fixture(autouse=True)
def restore_backend():
    """Every test leaves the process on the environment's backend choice."""
    yield
    _native.configure(None)


def _decide_with_backend(mode: str, tensor: np.ndarray, **kwargs):
    _native.configure(mode)
    return decide_nonnegative_on_box_batched(tensor, **kwargs)


def exact_gap(space: HypercubeSpace, a, b, point: np.ndarray) -> float:
    dist = ProductDistribution(space, np.clip(point, 0.0, 1.0))
    return dist.prob(a) * dist.prob(b) - dist.prob(a & b)


class TestBackendSelection:
    def test_off_loads_no_native_code(self):
        backend = _native.configure("off")
        assert backend.name == "numpy-fallback"
        assert backend.mode == "off"
        assert backend.fused_split is None
        assert not _native.native_loaded()

    def test_auto_reports_a_known_backend(self):
        backend = _native.configure("auto")
        assert backend.name in ("native", "numpy-fallback")
        if backend.name == "numpy-fallback":
            assert backend.load_error is not None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="REPRO_NATIVE"):
            _native.configure("vectorised-harder")

    @pytest.mark.skipif(
        NATIVE_AVAILABLE, reason="extension built; require cannot fail here"
    )
    def test_require_raises_without_extension(self):
        with pytest.raises(NativeBackendError):
            _native.configure("require")

    @pytest.mark.skipif(not NATIVE_AVAILABLE, reason="extension not built")
    def test_require_selects_native_when_available(self):
        backend = _native.configure("require")
        assert backend.name == "native"
        assert backend.fused_split is not None

    def test_backend_name_matches_backend(self):
        _native.configure("off")
        assert _native.backend_name() == "numpy-fallback"

    def test_off_exposes_no_kernel_entry_points(self):
        backend = _native.configure("off")
        assert backend.fused_split is None
        assert backend.select_axes is None


@pytest.mark.skipif(not NATIVE_AVAILABLE, reason="extension not built")
class TestSelectAxes:
    """The compiled lazy axis selection is bit-identical to the NumPy one."""

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_lazy_split_axes(self, n):
        from repro.probabilistic.exact import (
            _Workspace,
            _lazy_split_axes,
            _seed_root_variations,
        )

        rng = np.random.default_rng(900 + n)
        size = 3**n
        count = 17
        sel = np.ascontiguousarray(rng.standard_normal((count, size)))
        ws = _Workspace(count, size, n, 2**n)
        # Mixed bound quality: exact per-axis variations for some rows
        # (nothing to measure), inflated ones for the rest (forces the
        # lazy loop through several measurements).
        ubs = np.empty((count, n))
        for i in range(count):
            _seed_root_variations(sel[i], n, ws.scratch, ubs[i])
            if i % 2:
                ubs[i] *= 1.0 + rng.random(n)
        ubs_native = ubs.copy()

        expected = _lazy_split_axes(sel, ubs, ws, n)
        axes = np.empty(count, dtype=np.int64)
        _native.configure("auto").select_axes(sel, ubs_native, axes, n)

        np.testing.assert_array_equal(axes, np.asarray(expected))
        # The tightened bounds the children inherit must match too.
        np.testing.assert_array_equal(ubs_native, ubs)

    def test_ties_resolve_to_first_axis(self):
        n = 3
        size = 3**n
        # A separable symmetric tensor: every axis has the same variation,
        # so the first axis must win, matching np.argmax semantics.
        line = np.array([0.0, 1.0, 0.0])
        tensor = (
            line[:, None, None] + line[None, :, None] + line[None, None, :]
        )
        sel = np.ascontiguousarray(tensor.reshape(1, size))
        ubs = np.full((1, n), 5.0)  # identical loose bounds everywhere
        axes = np.empty(1, dtype=np.int64)
        _native.configure("auto").select_axes(sel, ubs, axes, n)
        assert axes[0] == 0


class TestThreeWayEquivalence:
    """scalar == fallback == native on every seeded pair."""

    @pytest.mark.parametrize("n", sorted(PAIR_COUNTS))
    def test_random_pairs_agree(self, n):
        space = HypercubeSpace(n)
        pairs = random_pairs(space, PAIR_COUNTS[n], seed=2000 + n, allow_empty=True)
        modes = ["off"] + (["auto"] if NATIVE_AVAILABLE else [])
        for a, b in pairs:
            tensor = safety_gap_tensor(a, b)
            scalar = decide_nonnegative_on_box(tensor, atol=ATOL, max_boxes=MAX_BOXES)
            for mode in modes:
                got = _decide_with_backend(
                    mode, tensor, atol=ATOL, max_boxes=MAX_BOXES
                )
                assert got.nonnegative == scalar.nonnegative, (mode, n, a.mask, b.mask)
                if scalar.nonnegative is False:
                    # Witness points may differ (tie order); both must violate.
                    assert exact_gap(space, a, b, got.witness) < -ATOL
                elif scalar.nonnegative is None:
                    assert got.lower_bound == pytest.approx(
                        scalar.lower_bound, abs=1e-6
                    )

    @pytest.mark.skipif(not NATIVE_AVAILABLE, reason="extension not built")
    @pytest.mark.parametrize("n", [3, 5, 7])
    def test_native_explores_identical_boxes(self, n):
        # The native kernel walks each row at its own axis stride instead of
        # reordering; the exact midpoint arithmetic makes the search tree —
        # not just the verdict — bit-identical to the fallback's.
        space = HypercubeSpace(n)
        for a, b in random_pairs(space, 15, seed=3100 + n, allow_empty=True):
            tensor = safety_gap_tensor(a, b)
            fallback = _decide_with_backend(
                "off", tensor, atol=ATOL, max_boxes=MAX_BOXES
            )
            native = _decide_with_backend(
                "auto", tensor, atol=ATOL, max_boxes=MAX_BOXES
            )
            assert native.nonnegative == fallback.nonnegative
            assert native.boxes_explored == fallback.boxes_explored
            assert native.lower_bound == pytest.approx(
                fallback.lower_bound, abs=0.0
            )

    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 2)])
    @pytest.mark.parametrize("eps", [1e-7, -1e-7])
    def test_deep_subdivision_wells_agree(self, n, seed, eps):
        tensor = quadratic_well_tensor(n, seed, eps)
        scalar = decide_nonnegative_on_box(tensor, atol=ATOL, max_boxes=3000)
        modes = ["off"] + (["auto"] if NATIVE_AVAILABLE else [])
        for mode in modes:
            got = _decide_with_backend(mode, tensor, atol=ATOL, max_boxes=3000)
            assert got.nonnegative == scalar.nonnegative, mode
            if scalar.nonnegative is None:
                # Certified bounds stay below the true minimum (= eps).
                assert got.lower_bound <= eps


class TestBudgetExpiry:
    def make_clock(self, step: float):
        ticks = itertools.count()
        return lambda: next(ticks) * step

    @pytest.mark.parametrize(
        "mode",
        ["off"] + (["auto"] if NATIVE_AVAILABLE else []),
    )
    def test_expiry_mid_search_stays_sound(self, mode):
        tensor = quadratic_well_tensor(6, seed=5, eps=1e-7)
        budget = Budget(10.0, clock=self.make_clock(1.0))
        decision = _decide_with_backend(mode, tensor, atol=ATOL, budget=budget)
        assert decision.nonnegative is None
        assert decision.witness is None
        assert 0 < decision.boxes_explored < 200_000
        assert decision.lower_bound <= 1e-7
