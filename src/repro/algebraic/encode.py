"""Encoding event probabilities as polynomials in Bernoulli parameters.

For a product distribution with parameters ``p = (p₁, …, p_n)`` (Eq. 17),
the probability of an event ``X ⊆ {0,1}^n`` is the *multilinear* polynomial

    ``P[X](p) = Σ_{ω ∈ X} Π_i p_i^{ω[i]} (1 − p_i)^{1 − ω[i]}``.

This module computes that polynomial (sparsely, via a signed Möbius
transform over the subset lattice), the *safety gap*
``g(p) = P[A]·P[B] − P[A∩B]`` whose nonnegativity on ``[0,1]^n`` is exactly
``Safe_{Π_m⁰}(A, B)`` (Proposition 3.8 + Eq. 11), and a dense
per-variable-degree-≤2 coefficient tensor of ``g`` used by the Bernstein
decision procedure.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.worlds import HypercubeSpace, PropertySet
from ..exceptions import SpaceMismatchError
from .polynomial import Polynomial

#: Dimension guard for every dense ``3^n`` tensor: the safety-gap tensor
#: here, the box-count tensors of :mod:`repro.probabilistic.matchbox`, and
#: the product pipeline's box criterion and exact stage.
MAX_TENSOR_DIMENSION = 12


def _hypercube_of(prop: PropertySet) -> HypercubeSpace:
    space = prop.space
    if not isinstance(space, HypercubeSpace):
        raise SpaceMismatchError(f"encoding requires a hypercube space, got {space!r}")
    return space


def event_multilinear_coeffs(event: PropertySet) -> np.ndarray:
    """Coefficients of ``P[X]`` in the multilinear basis, indexed by subset mask.

    Entry ``U`` is the coefficient of ``Π_{i ∈ U} p_i``, computed by the
    signed Möbius transform ``c_U = Σ_{ω ⊆ U, ω ∈ X} (−1)^{|U| − |ω|}`` in
    ``O(n · 2^n)``.
    """
    space = _hypercube_of(event)
    n = space.n
    size = 1 << n
    # Indicator straight from the packed mask: one to_bytes + one unpackbits.
    packed = np.frombuffer(
        event.mask.to_bytes((size + 7) // 8, "little"), dtype=np.uint8
    )
    coeffs = np.unpackbits(packed, bitorder="little", count=size).astype(np.float64)
    # Signed Möbius transform, one in-place vectorized pass per coordinate.
    # Bit ``i`` of the world index lands on axis ``n - 1 - i`` of the C-order
    # reshape, but the axis order is irrelevant: the per-axis updates commute.
    shaped = coeffs.reshape((2,) * n)
    for axis in range(n):
        view = np.moveaxis(shaped, axis, 0)
        view[1] -= view[0]
    return coeffs


def event_polynomial(event: PropertySet) -> Polynomial:
    """``P[X](p)`` as a sparse :class:`Polynomial` in ``n`` variables."""
    space = _hypercube_of(event)
    n = space.n
    coeffs = event_multilinear_coeffs(event)
    terms = {}
    for mask in np.flatnonzero(coeffs):
        mono = tuple((int(mask) >> i) & 1 for i in range(n))
        terms[mono] = float(coeffs[mask])
    return Polynomial(n, terms)


def safety_gap_polynomial(audited: PropertySet, disclosed: PropertySet) -> Polynomial:
    """``g(p) = P[A](p)·P[B](p) − P[A∩B](p)``.

    ``Safe_{Π_m⁰}(A, B)`` holds iff ``g ≥ 0`` on the box ``[0,1]^n``
    (Eq. 11 for the product family).
    """
    space = _hypercube_of(audited)
    space.check_same(disclosed.space)
    pa = event_polynomial(audited)
    pb = event_polynomial(disclosed)
    pab = event_polynomial(audited & disclosed)
    return pa * pb - pab


@lru_cache(maxsize=None)
def _ternary_codes(n: int) -> np.ndarray:
    """``tern[x] = Σ_i x_i · 3^(n-1-i)`` for every mask ``x`` in ``{0,1}^n``.

    Because exponents of a product of two multilinear monomials are at most
    2 per variable, base-3 digit sums never carry, so ``tern[i] + tern[j]``
    is the ternary code of the product monomial.  Digit ``i`` (coordinate
    ``i+1``) is placed at position ``3^(n-1-i)`` so that a C-order reshape
    to ``(3,)*n`` puts coordinate ``i+1`` on axis ``i``.

    Cached per ``n`` (and marked read-only): every tensor build for a space
    reuses one table instead of re-deriving ``2^n`` digit sums.
    """
    masks = np.arange(1 << n, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    codes = bits @ (3 ** np.arange(n - 1, -1, -1, dtype=np.int64))
    codes.flags.writeable = False
    return codes


def safety_gap_tensor(audited: PropertySet, disclosed: PropertySet) -> np.ndarray:
    """Dense coefficient tensor of the safety gap, shape ``(3,)*n``.

    Axis ``i`` indexes the exponent of ``p_{i+1}`` (0, 1 or 2).  Used by the
    Bernstein branch-and-bound decision procedure.  Guarded to ``n ≤ 12``.
    """
    space = _hypercube_of(audited)
    space.check_same(disclosed.space)
    n = space.n
    if n > MAX_TENSOR_DIMENSION:
        raise ValueError(
            f"dense gap tensor needs 3^{n} entries; limit is n ≤ {MAX_TENSOR_DIMENSION}"
        )
    ca = event_multilinear_coeffs(audited)
    cb = event_multilinear_coeffs(disclosed)
    cab = event_multilinear_coeffs(audited & disclosed)
    tern = _ternary_codes(n)
    flat = np.zeros(3**n)
    # Product P[A]·P[B]: convolve the two multilinear coefficient vectors.
    # Chunk over rows to bound the temporary outer-product memory.
    nonzero_a = np.flatnonzero(ca)
    nonzero_b = np.flatnonzero(cb)
    if nonzero_a.size and nonzero_b.size:
        codes_b = tern[nonzero_b]
        vals_b = cb[nonzero_b]
        chunk = max(1, (1 << 22) // max(1, nonzero_b.size))
        for start in range(0, nonzero_a.size, chunk):
            rows = nonzero_a[start : start + chunk]
            keys = (tern[rows][:, None] + codes_b[None, :]).ravel()
            weights = (ca[rows][:, None] * vals_b[None, :]).ravel()
            flat += np.bincount(keys, weights=weights, minlength=3**n)
    # Subtract P[AB] (multilinear, so its codes are already ternary-valid).
    nonzero_ab = np.flatnonzero(cab)
    np.subtract.at(flat, tern[nonzero_ab], cab[nonzero_ab])
    return flat.reshape((3,) * n)


def polynomial_from_tensor(tensor: np.ndarray) -> Polynomial:
    """Inverse of :func:`safety_gap_tensor` for testing: tensor → Polynomial."""
    n = tensor.ndim
    terms = {}
    for idx in np.argwhere(tensor != 0.0):
        terms[tuple(int(e) for e in idx)] = float(tensor[tuple(idx)])
    return Polynomial(n, terms)


def evaluate_gap(
    audited: PropertySet, disclosed: PropertySet, point: np.ndarray
) -> float:
    """Evaluate the safety gap at a Bernoulli vector without building polynomials.

    Direct ``O((|A| + |B| + |AB|) · n)`` computation; used by the numeric
    optimiser where polynomial expansion would be wasteful.
    """
    space = _hypercube_of(audited)
    from ..probabilistic.distributions import ProductDistribution

    dist = ProductDistribution(space, point)
    return dist.prob(audited) * dist.prob(disclosed) - dist.prob(audited & disclosed)
