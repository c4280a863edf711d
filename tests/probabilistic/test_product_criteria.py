"""Tests for the Section 5.1 product-family criteria.

Soundness is cross-validated against the rigorous Bernstein decision
procedure; the implications of Theorem 5.11 are verified exhaustively for
n = 3 and on random pairs for n = 4.
"""

from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import HypercubeSpace, down_closure, safety_gap, up_closure
from repro.probabilistic import (
    box_necessary_criterion,
    cancellation_criterion,
    critical_coordinates,
    decide_product_safety,
    independence_holds,
    miklau_suciu_criterion,
    monotonicity_criterion,
)
from tests.conftest import random_pairs
from tests.probabilistic import product_oracles

subsets3 = st.sets(st.integers(0, 7))


@st.composite
def cube_events(draw, min_n: int, max_n: int):
    """A subset of ``{0,1}^n`` for a drawn ``n``, as a packed mask."""
    space = HypercubeSpace(draw(st.integers(min_n, max_n)))
    return space.from_mask(draw(st.integers(0, space.full_mask)))


def exact_safe(a, b) -> bool:
    verdict = decide_product_safety(a, b)
    assert verdict.is_decided
    return verdict.is_safe


class TestCriticalCoordinates:
    def test_examples(self):
        space = HypercubeSpace(3)
        x1 = space.coordinate_set(1)
        assert critical_coordinates(x1) == frozenset([1])
        assert critical_coordinates(space.full) == frozenset()
        assert critical_coordinates(space.empty) == frozenset()
        mixed = x1 & space.coordinate_set(3)
        assert critical_coordinates(mixed) == frozenset([1, 3])

    @given(subsets3)
    def test_membership_determined_by_critical_coords(self, xs):
        """Flipping a non-critical coordinate never changes membership."""
        space = HypercubeSpace(3)
        event = space.property_set(xs)
        critical = critical_coordinates(event)
        for w in space.worlds():
            for i in range(1, 4):
                if i not in critical:
                    flipped = w ^ (1 << (i - 1))
                    assert (w in event) == (flipped in event)

    @settings(max_examples=150, deadline=None)
    @given(cube_events(min_n=1, max_n=9), st.data())
    def test_matches_member_loop_oracle(self, event, data):
        """The stripe test equals the per-world flip test, also on events
        that ignore some coordinates (a cylinder over a random subset)."""
        space = event.space
        assert critical_coordinates(event) == product_oracles.critical_coordinates(
            event
        )
        kept = data.draw(st.integers(0, (1 << space.n) - 1), label="kept")
        cylinder = space.from_mask(
            sum(1 << w for w in space.worlds() if (w & kept) in event)
        )
        expected = product_oracles.critical_coordinates(cylinder)
        assert critical_coordinates(cylinder) == expected
        assert expected <= {i + 1 for i in range(space.n) if (kept >> i) & 1}


class TestMiklauSuciu:
    def test_disjoint_coordinates_independent(self):
        space = HypercubeSpace(4)
        a = space.coordinate_set(1) & space.coordinate_set(2)
        b = space.coordinate_set(3) | space.coordinate_set(4)
        assert miklau_suciu_criterion(a, b).holds
        assert independence_holds(a, b)

    def test_shared_coordinate_fails(self):
        space = HypercubeSpace(3)
        a = space.coordinate_set(1)
        b = space.coordinate_set(1) | space.coordinate_set(2)
        result = miklau_suciu_criterion(a, b)
        assert not result.holds
        assert result.details["shared_critical_coordinates"] == [1]

    def test_section_5_1_example(self):
        """Safe_{Π_m⁰}(X₁, X̄₁∪X₂) holds but X₁ ⊥ (X̄₁∪X₂) does not."""
        space = HypercubeSpace(2)
        x1, x2 = space.coordinate_set(1), space.coordinate_set(2)
        a = x1
        b = ~x1 | x2
        assert not independence_holds(a, b)
        assert exact_safe(a, b)

    def test_independence_semantics(self):
        """When the criterion holds, P[A]P[B] = P[AB] for random products."""
        from repro.probabilistic import ProductDistribution

        space = HypercubeSpace(4)
        a = space.coordinate_set(1)
        b = space.coordinate_set(3) & space.coordinate_set(4)
        assert miklau_suciu_criterion(a, b).holds
        rng = np.random.default_rng(0)
        for _ in range(20):
            dist = ProductDistribution.random(space, rng)
            gap = dist.prob(a) * dist.prob(b) - dist.prob(a & b)
            assert gap == pytest.approx(0.0, abs=1e-12)


class TestMonotonicityCriterion:
    def test_up_down_pair(self):
        from repro.core import down_closure, up_closure

        space = HypercubeSpace(3)
        a = up_closure(space.property_set(["110"]))
        b = down_closure(space.property_set(["001"]))
        result = monotonicity_criterion(a, b)
        assert result.holds and result.details["mask"] == 0

    def test_flipped_pair_found(self):
        from repro.core import down_closure, up_closure, xor_mask

        space = HypercubeSpace(3)
        a = xor_mask(0b011, up_closure(space.property_set(["110"])))
        b = xor_mask(0b011, down_closure(space.property_set(["001"])))
        assert monotonicity_criterion(a, b).holds

    def test_soundness_on_random_pairs(self):
        space = HypercubeSpace(3)
        for a, b in random_pairs(space, 120, seed=1, allow_empty=True):
            if monotonicity_criterion(a, b).holds:
                assert exact_safe(a, b), (a, b)


class TestCancellationCriterion:
    def test_remark_5_12_fails_criterion_but_safe(self):
        space = HypercubeSpace(3)
        a = space.property_set(["011", "100", "110", "111"])
        b = space.property_set(["010", "101", "110", "111"])
        result = cancellation_criterion(a, b)
        assert not result.holds
        assert result.details["violated_match_vector"] == "***"
        assert result.details["positive_pairs"] == 0
        assert result.details["negative_pairs"] == 2
        # ... and yet the pair is safe: the criterion is not necessary.
        assert exact_safe(a, b)

    def test_soundness_exhaustive_n2(self):
        space = HypercubeSpace(2)
        worlds = list(space.worlds())
        for a_bits in range(16):
            for b_bits in range(16):
                a = space.property_set([w for w in worlds if (a_bits >> w) & 1])
                b = space.property_set([w for w in worlds if (b_bits >> w) & 1])
                if cancellation_criterion(a, b).holds:
                    assert exact_safe(a, b), (a_bits, b_bits)

    def test_soundness_on_random_pairs_n4(self):
        space = HypercubeSpace(4)
        hits = 0
        for a, b in random_pairs(space, 80, seed=2, allow_empty=True):
            if cancellation_criterion(a, b).holds:
                hits += 1
                assert exact_safe(a, b), (a, b)
        assert hits > 0  # the check must not be vacuous


class TestTheorem511:
    """Miklau–Suciu or monotonicity ⇒ cancellation."""

    def test_exhaustive_n3_implications(self):
        space = HypercubeSpace(3)
        worlds = list(space.worlds())
        checked = 0
        for a_bits, b_bits in itertools.product(range(256), repeat=2):
            if a_bits % 17 or b_bits % 13:
                continue  # systematic subsample to keep runtime sane
            a = space.property_set([w for w in worlds if (a_bits >> w) & 1])
            b = space.property_set([w for w in worlds if (b_bits >> w) & 1])
            ms = miklau_suciu_criterion(a, b).holds
            mono = monotonicity_criterion(a, b).holds
            canc = cancellation_criterion(a, b).holds
            if ms or mono:
                assert canc, (a_bits, b_bits)
            checked += 1
        assert checked > 100

    def test_random_n4_implications(self):
        space = HypercubeSpace(4)
        for a, b in random_pairs(space, 150, seed=3, allow_empty=True):
            if miklau_suciu_criterion(a, b).holds or monotonicity_criterion(a, b).holds:
                assert cancellation_criterion(a, b).holds, (a, b)

    def test_cancellation_strictly_stronger(self):
        """Some pair passes cancellation but fails both weaker criteria."""
        space = HypercubeSpace(2)
        found = False
        worlds = list(space.worlds())
        for a_bits in range(16):
            for b_bits in range(16):
                a = space.property_set([w for w in worlds if (a_bits >> w) & 1])
                b = space.property_set([w for w in worlds if (b_bits >> w) & 1])
                if (
                    cancellation_criterion(a, b).holds
                    and not miklau_suciu_criterion(a, b).holds
                    and not monotonicity_criterion(a, b).holds
                ):
                    found = True
        assert found


class TestBoxNecessaryCriterion:
    def test_failure_gives_verified_witness(self):
        space = HypercubeSpace(2)
        a = space.property_set(["10", "11"])
        b = space.property_set(["10"])  # B ⊆ A: clearly unsafe
        result = box_necessary_criterion(a, b)
        assert not result.holds
        witness = result.witness
        gap = witness.prob(a) * witness.prob(b) - witness.prob(a & b)
        assert gap < -1e-9

    def test_soundness_on_random_pairs(self):
        """Criterion fails ⇒ pair really unsafe; witness gap always < 0."""
        space = HypercubeSpace(3)
        failures = 0
        for a, b in random_pairs(space, 120, seed=4, allow_empty=True):
            result = box_necessary_criterion(a, b)
            if not result.holds:
                failures += 1
                witness = result.witness
                gap = witness.prob(a) * witness.prob(b) - witness.prob(a & b)
                assert gap < 0, (a, b)
                assert not exact_safe(a, b), (a, b)
        assert failures > 0

    def test_completeness_direction_is_absent(self):
        """Prop 5.10 is only necessary: an unsafe pair can pass every box.

        The fixed pair below (found by search) satisfies the box criterion
        for all 27 match-vectors yet has a strictly negative gap somewhere
        in the interior of the Bernoulli box.
        """
        space = HypercubeSpace(3)
        worlds = list(space.worlds())
        a_bits, b_bits = 164, 200
        a = space.property_set([w for w in worlds if (a_bits >> w) & 1])
        b = space.property_set([w for w in worlds if (b_bits >> w) & 1])
        assert box_necessary_criterion(a, b).holds
        assert not exact_safe(a, b)


def _criterion_pair(space: HypercubeSpace, rnd: random.Random):
    """A random ``(A, B)`` of one of three shapes, so both outcomes occur.

    Independent pairs (``A`` and ``B`` read disjoint coordinates) and
    up-set/down-set pairs are safe, so they pass every box; pairs of random
    masks at random densities mostly fail one.
    """
    n = space.n
    shape = rnd.randrange(3)
    if shape == 0:
        split = rnd.getrandbits(n)
        table_a = rnd.getrandbits(1 << n)
        table_b = rnd.getrandbits(1 << n)
        a = space.where(lambda w: (table_a >> (w & split)) & 1)
        b = space.where(lambda w: (table_b >> (w & ~split)) & 1)
    elif shape == 1:
        a = up_closure(space.property_set(rnd.sample(range(space.size), 2)))
        b = down_closure(space.property_set(rnd.sample(range(space.size), 2)))
    else:
        density_a, density_b = rnd.random(), rnd.random()
        a = space.where(lambda w: rnd.random() < density_a)
        b = space.where(lambda w: rnd.random() < density_b)
    return a, b


def _assert_same_box_result(a, b):
    fast = box_necessary_criterion(a, b)
    oracle = product_oracles.box_necessary_criterion(a, b)
    assert (fast.name, fast.kind, fast.holds) == (
        oracle.name,
        oracle.kind,
        oracle.holds,
    ), (a, b)
    assert fast.details == oracle.details, (a, b)
    assert {k: type(v) for k, v in fast.details.items()} == {
        k: type(v) for k, v in oracle.details.items()
    }
    if oracle.holds:
        assert fast.witness is None
    else:
        np.testing.assert_array_equal(
            fast.witness.bernoulli, oracle.witness.bernoulli
        )
    return fast.holds


class TestBoxCriterionAgainstOracle:
    """The two-count deficit ``|A|·|B| − |AB|·|Box|`` against the
    four-quadrant statement of Prop 5.10: same verdict, details and witness."""

    def test_random_pairs_n1_to_n9(self):
        rnd = random.Random(510)
        outcomes = {True: 0, False: 0}
        for n in range(1, 10):
            space = HypercubeSpace(n)
            for _ in range(60):
                outcomes[_assert_same_box_result(*_criterion_pair(space, rnd))] += 1
        assert sum(outcomes.values()) >= 500
        assert min(outcomes.values()) >= 100

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_edge_cases(self, n):
        space = HypercubeSpace(n)
        rnd = random.Random(n)
        x = space.from_mask(rnd.getrandbits(space.size))
        y = space.from_mask(rnd.getrandbits(space.size))
        pairs = []
        for event in (x, y):
            for extreme in (space.empty, space.full):
                pairs += [(event, extreme), (extreme, event)]
        pairs += [
            (x | y, x),  # B ⊆ A
            (x & y, x),  # A ⊆ B
            (x - y, y),  # disjoint
            (x, x),
        ]
        for a, b in pairs:
            _assert_same_box_result(a, b)
        # B ⊆ A with A neither empty nor full is never safe.
        if 0 < len(x & y) and len(x | y) < space.size:
            assert not box_necessary_criterion(x | y, x & y).holds
