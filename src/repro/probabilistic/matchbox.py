"""Match, Box and Circ combinatorics (Definition 5.8).

The cancellation criterion (Proposition 5.9) and the box necessary criterion
(Proposition 5.10) are phrased over match-vectors ``w ∈ {0,1,*}^n``:

* ``Box(w)`` — the worlds refining ``w``;
* ``Circ(w)`` — the world pairs ``(u, v)`` with ``Match(u, v) = w``.

Two vectorised primitives power both criteria:

* :func:`box_count_tensor` — ``|X ∩ Box(w)|`` for **all** ``3^n`` boxes at
  once: the packed mask is unpacked onto the ``{0,1}`` sub-lattice and one
  star-sum pass per axis fills the rest (``O(n · 3^n)``, no per-world
  Python loop).  :func:`box_counts` runs that pass over several masks at
  once and :func:`box_sizes` gives ``|Box(w)| = 2^{#stars(w)}``;
* :func:`circ_pair_counter` — ``|(X × Y) ∩ Circ(w)|`` for all ``w`` realised
  by a pair, via numpy broadcasting over the Cartesian product.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, Tuple

import numpy as np

from .. import _bitops
from ..algebraic.encode import MAX_TENSOR_DIMENSION
from ..core.worlds import HypercubeSpace, PropertySet
from ..exceptions import SpaceMismatchError

MatchKey = Tuple[int, int]  # (star_mask, agreed_ones)


def _hypercube_of(prop: PropertySet) -> HypercubeSpace:
    space = prop.space
    if not isinstance(space, HypercubeSpace):
        raise SpaceMismatchError(f"Match/Box/Circ require a hypercube, got {space!r}")
    return space


def match(space: HypercubeSpace, u, v) -> MatchKey:
    """``Match(u, v)`` as a ``(star_mask, agreed_ones)`` key (Definition 5.8)."""
    return _bitops.match_key(space.world_id(u), space.world_id(v))


def match_string(space: HypercubeSpace, key: MatchKey) -> str:
    """Render a match key as the paper's ``{0,1,*}`` string."""
    return _bitops.match_vector_string(key[0], key[1], space.n)


def box(space: HypercubeSpace, key: MatchKey) -> PropertySet:
    """``Box(w)``: all worlds refining the match-vector ``w``."""
    star_mask, agreed = key
    return space.property_set(_bitops.box_members(star_mask, agreed, space.n))


def circ_members(
    space: HypercubeSpace, key: MatchKey
) -> Iterator[Tuple[int, int]]:
    """``Circ(w)``: ordered pairs ``(u, v)`` with ``Match(u, v) = w``."""
    star_mask, agreed = key
    for filling in _bitops.iter_subsets(star_mask):
        u = agreed | filling
        v = agreed | (star_mask ^ filling)
        yield u, v


def box_counts(n: int, *masks: int) -> np.ndarray:
    """``|X ∩ Box(w)|`` for each packed world mask, shape ``(len(masks), 3^n)``.

    Row ``k`` is the C-order flattening of the ``(3,)*n`` count tensor of
    ``masks[k]``: axis ``i`` is coordinate ``i+1``, with index 0 = fixed 0,
    1 = fixed 1, 2 = star.  The indicator comes straight from the packed
    mask and lands on the ``{0,1}`` sub-lattice; then one vectorised
    ``star = zero + one`` pass per axis fills in the stars.  Counts are
    exact ``int64``.
    """
    if n > MAX_TENSOR_DIMENSION:
        raise ValueError(
            f"box tensors need 3^{n} entries; limit is n ≤ {MAX_TENSOR_DIMENSION}"
        )
    rows = len(masks)
    size = 1 << n
    width = (size + 7) // 8
    packed = np.frombuffer(
        b"".join(mask.to_bytes(width, "little") for mask in masks), dtype=np.uint8
    ).reshape(rows, width)
    bits = np.unpackbits(packed, axis=1, count=size, bitorder="little")
    counts = np.zeros((rows,) + (3,) * n, dtype=np.int64)
    # World bit i is axis n-i of the C-order (2,)*n reshape: reverse the
    # axes so that axis i+1 of ``counts`` is coordinate i+1.
    counts[(slice(None),) + (slice(0, 2),) * n] = bits.reshape(
        (rows,) + (2,) * n
    ).transpose((0,) + tuple(range(n, 0, -1)))
    flat = counts.reshape(rows, 3**n)
    for axis in range(n):
        view = flat.reshape(rows, 3**axis, 3, 3 ** (n - axis - 1))
        np.add(view[:, :, 0], view[:, :, 1], out=view[:, :, 2])
    return flat


@lru_cache(maxsize=None)
def box_sizes(n: int) -> np.ndarray:
    """``|Box(w)| = 2^{#stars(w)}`` for every ``w``, flattened like :func:`box_counts`.

    Built once per ``n`` and read-only: every criterion call shares it.
    """
    sizes = box_counts(n, (1 << (1 << n)) - 1)[0]
    sizes.flags.writeable = False
    return sizes


def box_count_tensor(event: PropertySet) -> np.ndarray:
    """``|X ∩ Box(w)|`` for every ``w``, as an ``int64`` tensor of shape ``(3,)*n``.

    Axis ``i`` is coordinate ``i+1`` with index 0 = fixed 0, 1 = fixed 1,
    2 = star (see :func:`box_counts`).  ``n = 0`` gives shape ``(1,)``.
    """
    n = _hypercube_of(event).n
    return box_counts(n, event.mask).reshape((3,) * n if n else (1,))


def box_count(event: PropertySet, key: MatchKey) -> int:
    """``|X ∩ Box(w)|`` for a single match-vector (no tensor materialised)."""
    star_mask, agreed = key
    space = _hypercube_of(event)
    fixed_mask = ((1 << space.n) - 1) & ~star_mask
    return sum(1 for w in event if (w & fixed_mask) == agreed)


def _pair_keys(x_members: np.ndarray, y_members: np.ndarray, n: int) -> np.ndarray:
    """Encoded match keys for all pairs of X × Y.

    The key packs ``star_mask`` in the high bits and the agreed ones in the
    low bits: ``key = (u ^ v) << n | (u & v)``.
    """
    u = x_members[:, None]
    v = y_members[None, :]
    return (((u ^ v).astype(np.int64) << n) | (u & v)).ravel()


def circ_pair_counter(x: PropertySet, y: PropertySet) -> Dict[MatchKey, int]:
    """``|(X × Y) ∩ Circ(w)|`` for every ``w`` realised by some pair."""
    space = _hypercube_of(x)
    space.check_same(y.space)
    if not x or not y:
        return {}
    n = space.n
    xs = np.fromiter(x.members, dtype=np.int64, count=len(x))
    ys = np.fromiter(y.members, dtype=np.int64, count=len(y))
    keys = _pair_keys(xs, ys, n)
    unique, counts = np.unique(keys, return_counts=True)
    mask = (1 << n) - 1
    return {
        (int(k) >> n, int(k) & mask): int(c) for k, c in zip(unique, counts)
    }


def circ_count(x: PropertySet, y: PropertySet, key: MatchKey) -> int:
    """``|(X × Y) ∩ Circ(w)|`` for one match-vector."""
    star_mask, agreed = key
    space = _hypercube_of(x)
    space.check_same(y.space)
    count = 0
    for u in x:
        for v in y:
            if _bitops.match_key(u, v) == (star_mask, agreed):
                count += 1
    return count


def monomial_weight(space: HypercubeSpace, key: MatchKey, bernoulli) -> float:
    """The product-distribution weight ``m(w)`` shared by every pair of ``Circ(w)``.

    For a product distribution ``P`` with parameters ``p``, every pair
    ``(u, v)`` with ``Match(u, v) = w`` has
    ``P(u)·P(v) = Π_{w_i=1} p_i² · Π_{w_i=0} (1−p_i)² · Π_{w_i=*} p_i(1−p_i)``.
    This is the grouping that turns the safety-gap expansion into the
    cancellation criterion.
    """
    star_mask, agreed = key
    weight = 1.0
    for i in range(space.n):
        p = float(bernoulli[i])
        if (star_mask >> i) & 1:
            weight *= p * (1.0 - p)
        elif (agreed >> i) & 1:
            weight *= p * p
        else:
            weight *= (1.0 - p) * (1.0 - p)
    return weight
