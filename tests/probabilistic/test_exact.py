"""Tests for the Bernstein branch-and-bound exact decision and the encoding."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebraic.encode import (
    event_multilinear_coeffs,
    event_polynomial,
    polynomial_from_tensor,
    safety_gap_polynomial,
    safety_gap_tensor,
)
from repro.core import HypercubeSpace
from repro.probabilistic import (
    ProductDistribution,
    decide_product_safety,
    power_tensor_to_bernstein,
)
from tests.conftest import random_pairs
from tests.probabilistic.scalar_bernstein import bernstein_range, bernstein_split

subsets3 = st.sets(st.integers(0, 7))
points3 = st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3)


class TestEncoding:
    @given(subsets3, points3)
    def test_event_polynomial_matches_probability(self, xs, ps):
        space = HypercubeSpace(3)
        event = space.property_set(xs)
        poly = event_polynomial(event)
        dist = ProductDistribution(space, ps)
        assert poly(ps) == pytest.approx(dist.prob(event), abs=1e-9)

    def test_multilinear_coeffs_simple(self):
        space = HypercubeSpace(2)
        # X = {11}: P[X] = p1·p2, a single monomial.
        coeffs = event_multilinear_coeffs(space.property_set(["11"]))
        assert coeffs[0b11] == 1.0
        assert np.count_nonzero(coeffs) == 1
        # X = {00}: (1-p1)(1-p2) = 1 - p1 - p2 + p1 p2.
        coeffs = event_multilinear_coeffs(space.property_set(["00"]))
        assert list(coeffs) == [1.0, -1.0, -1.0, 1.0]

    def test_full_event_is_constant_one(self):
        space = HypercubeSpace(3)
        poly = event_polynomial(space.full)
        assert poly == 1

    @given(subsets3, subsets3, points3)
    def test_gap_polynomial_matches_direct(self, xs, ys, ps):
        space = HypercubeSpace(3)
        a, b = space.property_set(xs), space.property_set(ys)
        poly = safety_gap_polynomial(a, b)
        dist = ProductDistribution(space, ps)
        direct = dist.prob(a) * dist.prob(b) - dist.prob(a & b)
        assert poly(ps) == pytest.approx(direct, abs=1e-9)

    @given(subsets3, subsets3)
    def test_tensor_equals_polynomial(self, xs, ys):
        space = HypercubeSpace(3)
        a, b = space.property_set(xs), space.property_set(ys)
        tensor = safety_gap_tensor(a, b)
        assert polynomial_from_tensor(tensor).almost_equal(
            safety_gap_polynomial(a, b), tol=1e-9
        )

    def test_tensor_dimension_guard(self):
        space = HypercubeSpace(13)
        with pytest.raises(ValueError):
            safety_gap_tensor(space.full, space.full)


class TestBernsteinBasics:
    @given(subsets3, subsets3, points3)
    def test_enclosure_contains_values(self, xs, ys, ps):
        space = HypercubeSpace(3)
        a, b = space.property_set(xs), space.property_set(ys)
        tensor = safety_gap_tensor(a, b)
        coeffs = power_tensor_to_bernstein(tensor)
        low, high = bernstein_range(coeffs)
        value = safety_gap_polynomial(a, b)(ps)
        assert low - 1e-9 <= value <= high + 1e-9

    def test_corner_coefficients_are_exact(self):
        space = HypercubeSpace(2)
        a = space.property_set(["10", "11"])
        b = space.property_set(["01", "11"])
        tensor = safety_gap_tensor(a, b)
        coeffs = power_tensor_to_bernstein(tensor)
        poly = safety_gap_polynomial(a, b)
        for corner in itertools.product((0, 1), repeat=2):
            idx = tuple(2 * c for c in corner)
            assert coeffs[idx] == pytest.approx(poly(list(map(float, corner))))

    @given(subsets3, subsets3, points3, st.integers(0, 2))
    def test_split_preserves_values(self, xs, ys, ps, axis):
        """De Casteljau halves evaluate to the same polynomial, reparametrised."""
        space = HypercubeSpace(3)
        a, b = space.property_set(xs), space.property_set(ys)
        coeffs = power_tensor_to_bernstein(safety_gap_tensor(a, b))
        left, right = bernstein_split(coeffs, axis)
        poly = safety_gap_polynomial(a, b)

        def eval_bernstein(c, point):
            # Evaluate a degree-2 tensor Bernstein form at a point of [0,1]^n.
            value = 0.0
            n = c.ndim
            basis = []
            for t in point:
                basis.append(((1 - t) ** 2, 2 * t * (1 - t), t**2))
            for idx in itertools.product(range(3), repeat=n):
                weight = c[idx]
                for i, j in enumerate(idx):
                    weight *= basis[i][j]
                value += weight
            return value

        point = list(ps)
        left_point = list(point)
        left_point[axis] = point[axis] / 2.0
        right_point = list(point)
        right_point[axis] = 0.5 + point[axis] / 2.0
        assert eval_bernstein(left, point) == pytest.approx(
            poly(left_point), abs=1e-9
        )
        assert eval_bernstein(right, point) == pytest.approx(
            poly(right_point), abs=1e-9
        )


class TestDecisionProcedure:
    def test_disjoint_sets_safe(self):
        space = HypercubeSpace(3)
        a = space.property_set(["100"])
        b = space.property_set(["011", "010"])
        assert decide_product_safety(a, b).is_safe

    def test_subset_disclosure_unsafe_with_witness(self):
        space = HypercubeSpace(3)
        a = space.property_set(["100", "101", "110", "111"])
        b = space.property_set(["100"])
        verdict = decide_product_safety(a, b)
        assert verdict.is_unsafe
        witness = verdict.witness
        gap = witness.prob(a) * witness.prob(b) - witness.prob(a & b)
        assert gap < -1e-9

    def test_agrees_with_grid_search(self):
        """Exhaustive 11³ grid scan agrees with the decision on random pairs."""
        space = HypercubeSpace(3)
        grid = np.linspace(0.0, 1.0, 11)
        for a, b in random_pairs(space, 40, seed=9, allow_empty=True):
            verdict = decide_product_safety(a, b)
            assert verdict.is_decided
            poly = safety_gap_polynomial(a, b)
            grid_min = min(
                poly([x, y, z]) for x in grid for y in grid for z in grid
            )
            if verdict.is_safe:
                assert grid_min >= -1e-8, (a, b)
            else:
                witness = verdict.witness
                gap = witness.prob(a) * witness.prob(b) - witness.prob(a & b)
                assert gap < -1e-9, (a, b)

    def test_boundary_zero_minimum_is_safe(self):
        """Pairs with gap ≡ 0 (independent events) decide SAFE, not UNKNOWN."""
        space = HypercubeSpace(4)
        a = space.coordinate_set(1)
        b = space.coordinate_set(3)
        verdict = decide_product_safety(a, b)
        assert verdict.is_safe

    def test_remark_5_12_pair_is_safe(self):
        space = HypercubeSpace(3)
        a = space.property_set(["011", "100", "110", "111"])
        b = space.property_set(["010", "101", "110", "111"])
        assert decide_product_safety(a, b).is_safe

    def test_budget_exhaustion_reports_unknown(self):
        space = HypercubeSpace(3)
        a = space.property_set(["011", "100", "110", "111"])
        b = space.property_set(["010", "101", "110", "111"])
        verdict = decide_product_safety(a, b, max_boxes=1)
        assert not verdict.is_decided
