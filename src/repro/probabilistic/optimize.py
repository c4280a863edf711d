"""Numeric counterexample search for probabilistic safety.

Safety over a family ``Π`` fails iff some ``P ∈ Π`` makes the safety gap
``P[A]·P[B] − P[A∩B]`` negative.  This module searches for such witnesses:

* :func:`find_product_counterexample` — multi-start projected quasi-Newton
  minimisation of the gap ``g(p)`` over the Bernoulli box ``[0,1]^n``, with
  an exact analytic gradient (computed in ``O((|A|+|B|+|AB|)·n)`` per
  evaluation via forward/backward cumulative products);
* :func:`find_log_supermodular_counterexample` — penalty-method search over
  dense distributions with the Definition 5.1 constraints, followed by exact
  feasibility re-verification of any candidate.

A returned witness is always *re-verified exactly* before being reported;
failure to find one proves nothing (these are refutation procedures — the
certification direction is handled by the criteria, the SOS certificates and
the Bernstein decision).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .. import _bitops
from ..core.distributions import Distribution
from ..core.worlds import HypercubeSpace, PropertySet
from .distributions import ProductDistribution, is_log_supermodular

#: A gap more negative than this counts as a genuine violation.
VIOLATION_TOL = 1e-10

#: Bound on the :meth:`GapEvaluator.build` memo (entries, LRU-evicted).
BUILD_CACHE_CAPACITY = 256

_build_cache: "OrderedDict[Tuple[str, str], GapEvaluator]" = OrderedDict()
_build_cache_hits = 0
_build_cache_misses = 0


def gap_evaluator_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the :meth:`GapEvaluator.build` memo."""
    return {
        "hits": _build_cache_hits,
        "misses": _build_cache_misses,
        "size": len(_build_cache),
    }


def clear_gap_evaluator_cache() -> None:
    """Drop all memoised evaluators and reset the counters."""
    global _build_cache_hits, _build_cache_misses
    _build_cache.clear()
    _build_cache_hits = 0
    _build_cache_misses = 0


@dataclass(frozen=True)
class GapEvaluator:
    """Fast evaluation of the safety gap and its gradient over Bernoulli vectors.

    Precomputes the member bit-matrices of ``A``, ``B`` and ``A∩B`` once;
    each evaluation is fully vectorised numpy.
    """

    n: int
    a_bits: np.ndarray  # |A| × n in {0,1}
    b_bits: np.ndarray
    ab_bits: np.ndarray

    @classmethod
    def build(cls, audited: PropertySet, disclosed: PropertySet) -> "GapEvaluator":
        """The evaluator for ``(audited, disclosed)``, memoised by fingerprint.

        Multi-start counterexample search calls :meth:`build` once per
        decision, and batch audits decide the same pair against many prior
        families — so the ``|A|×n`` bit-matrices are cached in a bounded LRU
        keyed by the pair's cross-process-stable fingerprints.  Evaluators
        are immutable (frozen dataclass, read-only arrays), so sharing one
        instance across decisions is safe.
        """
        global _build_cache_hits, _build_cache_misses
        space = audited.space
        if not isinstance(space, HypercubeSpace):
            raise TypeError("the gap evaluator works over hypercube spaces")
        space.check_same(disclosed.space)
        key = (audited.fingerprint(), disclosed.fingerprint())
        cached = _build_cache.get(key)
        if cached is not None:
            _build_cache_hits += 1
            _build_cache.move_to_end(key)
            return cached
        _build_cache_misses += 1
        evaluator = cls(
            n=space.n,
            a_bits=_bit_matrix(audited, space.n),
            b_bits=_bit_matrix(disclosed, space.n),
            ab_bits=_bit_matrix(audited & disclosed, space.n),
        )
        _build_cache[key] = evaluator
        if len(_build_cache) > BUILD_CACHE_CAPACITY:
            _build_cache.popitem(last=False)
        return evaluator

    def _event_prob_and_grad(
        self, bits: np.ndarray, p: np.ndarray
    ) -> Tuple[float, np.ndarray]:
        """``P[X](p)`` and ``∇P[X](p)`` via per-row exclusive products."""
        if bits.shape[0] == 0:
            return 0.0, np.zeros(self.n)
        # factors[r, i] = p_i if bit set else 1 - p_i.
        factors = np.where(bits == 1, p[None, :], 1.0 - p[None, :])
        # Exclusive products via forward/backward cumulative products.
        fwd = np.ones((bits.shape[0], self.n + 1))
        np.cumprod(factors, axis=1, out=fwd[:, 1:])
        bwd = np.ones((bits.shape[0], self.n + 1))
        np.cumprod(factors[:, ::-1], axis=1, out=bwd[:, 1:])
        bwd = bwd[:, ::-1]
        prob = float(fwd[:, -1].sum())
        exclusive = fwd[:, :-1] * bwd[:, 1:]
        signs = np.where(bits == 1, 1.0, -1.0)
        grad = (exclusive * signs).sum(axis=0)
        return prob, grad

    def value(self, p: np.ndarray) -> float:
        pa, _ = self._event_prob_and_grad(self.a_bits, p)
        pb, _ = self._event_prob_and_grad(self.b_bits, p)
        pab, _ = self._event_prob_and_grad(self.ab_bits, p)
        return pa * pb - pab

    def value_and_grad(self, p: np.ndarray) -> Tuple[float, np.ndarray]:
        pa, ga = self._event_prob_and_grad(self.a_bits, p)
        pb, gb = self._event_prob_and_grad(self.b_bits, p)
        pab, gab = self._event_prob_and_grad(self.ab_bits, p)
        return pa * pb - pab, pa * gb + pb * ga - gab


def _bit_matrix(event: PropertySet, n: int) -> np.ndarray:
    rows = np.asarray(event.sorted_members(), dtype=np.int64).reshape(-1, 1)
    matrix = ((rows >> np.arange(n, dtype=np.int64)) & 1).astype(np.int8)
    matrix.flags.writeable = False
    return matrix


def find_product_counterexample(
    audited: PropertySet,
    disclosed: PropertySet,
    restarts: int = 24,
    rng: Optional[np.random.Generator] = None,
) -> Optional[ProductDistribution]:
    """Search for ``p ∈ [0,1]^n`` with a strictly negative safety gap.

    Multi-start L-BFGS-B with the analytic gradient; starts include the
    centre of the box, all-corner-biased points, and uniform random draws.
    Any candidate below :data:`VIOLATION_TOL` is re-verified exactly through
    :class:`ProductDistribution` before being returned.
    """
    from scipy import optimize as sp_optimize

    space = audited.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("product counterexamples require a hypercube space")
    evaluator = GapEvaluator.build(audited, disclosed)
    rng = rng or np.random.default_rng(0)
    n = space.n
    starts: List[np.ndarray] = [np.full(n, 0.5)]
    starts.extend(np.clip(rng.uniform(0.0, 1.0, size=(max(0, restarts - 1), n)), 0, 1))
    bounds = [(0.0, 1.0)] * n
    best: Optional[np.ndarray] = None
    best_value = -VIOLATION_TOL
    for start in starts:
        result = sp_optimize.minimize(
            lambda p: evaluator.value_and_grad(p),
            start,
            jac=True,
            bounds=bounds,
            method="L-BFGS-B",
        )
        if result.fun < best_value:
            best_value = float(result.fun)
            best = np.clip(result.x, 0.0, 1.0)
    if best is None:
        return None
    witness = ProductDistribution(space, best)
    exact_gap = (
        witness.prob(audited) * witness.prob(disclosed)
        - witness.prob(audited & disclosed)
    )
    if exact_gap < -VIOLATION_TOL:
        return witness
    return None


def find_log_supermodular_counterexample(
    audited: PropertySet,
    disclosed: PropertySet,
    restarts: int = 8,
    penalty: float = 50.0,
    rng: Optional[np.random.Generator] = None,
) -> Optional[Distribution]:
    """Search ``Π_m⁺`` for a distribution with negative safety gap.

    Parametrises a dense distribution by logits (softmax keeps it on the
    simplex automatically) and minimises
    ``gap(P) + penalty · Σ max(0, log-supermodularity violation)²`` with
    Nelder–Mead/L-BFGS restarts.  Candidates are *repaired* (violations
    projected out) and re-verified exactly; ``None`` means no witness found,
    not safety.
    """
    from scipy import optimize as sp_optimize

    space = audited.space
    if not isinstance(space, HypercubeSpace):
        raise TypeError("Π_m⁺ counterexamples require a hypercube space")
    space.check_same(disclosed.space)
    rng = rng or np.random.default_rng(0)
    size = space.size
    incomparable = [
        (u, v)
        for u in range(size)
        for v in range(u + 1, size)
        if not _bitops.comparable(u, v)
    ]
    a_idx = np.fromiter(audited.members, dtype=np.intp, count=len(audited))
    b_idx = np.fromiter(disclosed.members, dtype=np.intp, count=len(disclosed))
    ab_idx = np.fromiter(
        (audited & disclosed).members, dtype=np.intp, count=len(audited & disclosed)
    )

    def objective(logits: np.ndarray) -> float:
        shifted = logits - logits.max()
        weights = np.exp(shifted)
        probs = weights / weights.sum()
        gap = (
            probs[a_idx].sum() * probs[b_idx].sum() - probs[ab_idx].sum()
            if ab_idx.size
            else probs[a_idx].sum() * probs[b_idx].sum()
        )
        violation = 0.0
        for u, v in incomparable:
            excess = (logits[u] + logits[v]) - (logits[u & v] + logits[u | v])
            if excess > 0.0:
                violation += excess * excess
        return gap + penalty * violation

    best_witness: Optional[Distribution] = None
    for _ in range(restarts):
        start = rng.normal(0.0, 1.0, size=size)
        result = sp_optimize.minimize(objective, start, method="Powell")
        logits = np.asarray(result.x, dtype=float)
        # Repair: push any residual violation onto meet/join, then verify.
        for _ in range(200):
            dirty = False
            for u, v in incomparable:
                excess = (logits[u] + logits[v]) - (logits[u & v] + logits[u | v])
                if excess > 1e-12:
                    bump = excess / 2.0 + 1e-12
                    logits[u & v] += bump
                    logits[u | v] += bump
                    dirty = True
            if not dirty:
                break
        shifted = logits - logits.max()
        weights = np.exp(shifted)
        candidate = Distribution(space, weights, normalize=True)
        if not is_log_supermodular(candidate, tolerance=1e-9):
            continue
        gap = (
            candidate.prob(audited) * candidate.prob(disclosed)
            - candidate.prob(audited & disclosed)
        )
        if gap < -1e-9:
            best_witness = candidate
            break
    return best_witness
