"""Polynomial minimisation via SOS bounds — the §6.2 Shor/Parrilo procedure.

"The problem of minimizing a degree-d multivariate polynomial f over a set
K ⊆ R^s is equivalent to finding the maximum γ ∈ R for which f(x) − γ ≥ 0
for all x ∈ K. …  To minimize f(x) over R^s, we find the largest λ ∈ R for
which f(x) − λ ∈ Σ_{2,d} via a binary search on λ and the proposition
above.  The value λ is a lower bound on f(x) and in practice almost always
agrees with the true minimum of f."

This module implements exactly that:

* :func:`sos_lower_bound` — the unconstrained Shor relaxation over ``R^s``;
* :func:`box_lower_bound` — the constrained variant over ``[0,1]^n`` using
  the Schmüdgen-form certificates of :mod:`repro.algebraic.sos`;
* :func:`sampled_minimum` — a multistart numeric upper bound, so callers
  (and the E13 benchmark) can measure the paper's "almost always agrees"
  claim as the gap between the two.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .polynomial import Polynomial
from .sos import certify_box_nonnegative, sos_decompose


@dataclass(frozen=True)
class BoundResult:
    """A certified lower bound together with the search diagnostics."""

    lower_bound: float
    iterations: int
    certified: bool  # whether the final λ carries a verified certificate


def _binary_search_largest(
    feasible, low: float, high: float, tolerance: float
) -> Tuple[float, int, bool]:
    """Largest λ in [low, high] with ``feasible(λ)``, to ``tolerance``.

    ``low`` must be feasible (callers establish it); returns the best
    feasible λ found, the iteration count, and whether any certificate was
    produced at the returned value.
    """
    iterations = 0
    best = low
    while high - low > tolerance:
        iterations += 1
        mid = 0.5 * (low + high)
        if feasible(mid):
            best = mid
            low = mid
        else:
            high = mid
        if iterations > 60:
            break
    return best, iterations, True


def sos_lower_bound(
    poly: Polynomial,
    tolerance: float = 1e-4,
    max_iterations: int = 20000,
) -> Optional[BoundResult]:
    """The Shor bound: the largest λ with ``f − λ ∈ Σ²`` (binary search).

    Returns ``None`` when not even a crude ``f − λ₀`` is certifiable (e.g.
    for odd-degree ``f``, unbounded below).  Initial brackets come from a
    numeric multistart minimum.
    """
    probe = sampled_minimum(poly, box=None)
    # If f is unbounded below the sampled minimum will be very negative and
    # certification at that level will fail; bail out early on odd degree.
    if poly.total_degree() % 2 == 1 and poly.total_degree() > 0:
        return None
    low = probe - 1.0 - abs(probe)  # generous under-estimate
    high = probe + tolerance

    def feasible(lam: float) -> bool:
        return (
            sos_decompose(poly - lam, max_iterations=max_iterations) is not None
        )

    if not feasible(low):
        return None
    best, iterations, certified = _binary_search_largest(
        feasible, low, high, tolerance
    )
    return BoundResult(lower_bound=best, iterations=iterations, certified=certified)


def box_lower_bound(
    poly: Polynomial,
    tolerance: float = 1e-4,
    max_iterations: int = 20000,
) -> Optional[BoundResult]:
    """Largest λ with ``f − λ`` certified nonnegative on ``[0,1]^n``.

    Uses the Schmüdgen-form box certificates; this is the constrained
    version of the §6.2 search ("to minimize f(x) over a set K constrained
    by polynomials, we need a few more tools").
    """
    probe = sampled_minimum(poly, box=(0.0, 1.0))
    low = probe - 1.0 - abs(probe)
    high = probe + tolerance

    def feasible(lam: float) -> bool:
        return (
            certify_box_nonnegative(poly - lam, max_iterations=max_iterations)
            is not None
        )

    if not feasible(low):
        return None
    best, iterations, certified = _binary_search_largest(
        feasible, low, high, tolerance
    )
    return BoundResult(lower_bound=best, iterations=iterations, certified=certified)


def sampled_minimum(
    poly: Polynomial,
    box: Optional[Tuple[float, float]] = (0.0, 1.0),
    restarts: int = 16,
    rng: Optional[np.random.Generator] = None,
) -> float:
    """A numeric upper bound on the minimum: multistart local minimisation.

    ``box=None`` searches over ``R^s`` from Gaussian starts (used by the
    unconstrained Shor bound); otherwise starts are uniform in the box and
    iterates stay inside via L-BFGS-B bounds.
    """
    from scipy import optimize as sp_optimize

    rng = rng or np.random.default_rng(0)
    nvars = poly.nvars
    if nvars == 0:
        return poly([])
    grads = poly.gradient()

    def objective(x):
        return poly(list(x)), np.array([g(list(x)) for g in grads])

    best = np.inf
    for _ in range(restarts):
        if box is None:
            start = rng.normal(0.0, 1.0, size=nvars)
            bounds = None
        else:
            start = rng.uniform(box[0], box[1], size=nvars)
            bounds = [box] * nvars
        result = sp_optimize.minimize(
            objective, start, jac=True, method="L-BFGS-B", bounds=bounds
        )
        best = min(best, float(result.fun))
    return best
