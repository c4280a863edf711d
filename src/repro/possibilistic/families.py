"""∩-closed families of prior knowledge sets (Section 4.1).

The auditor's assumption about a possibilistic user is a family ``Σ`` of
admissible knowledge sets.  When the auditor accounts for collusion, ``Σ``
must be intersection-closed (Definition 4.3 via the product construction).
This module provides the structured families used in the paper plus a fully
generic explicit family:

* :class:`PowerSetFamily` — no assumption at all, ``Σ = P(Ω) − {∅}``;
* :class:`SubcubeFamily` — knowledge sets are subcubes of ``{0,1}^n``
  (the user knows the exact value of some records and nothing else);
* :class:`IntegerRectangleFamily` — integer sub-rectangles of a grid, the
  family of Figure 1 / Example 4.9;
* :class:`UpSetFamily` — knowledge closed upward (monotone knowledge);
* :class:`ExplicitFamily` — any finite family, with an ∩-closure helper.

Every family can compute the *interval* ``I_Σ(ω₁, ω₂)``: the smallest member
containing two given worlds (Definition 4.4 instantiated to ``K = C ⊗ Σ``),
analytically where possible.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, List, Optional, Set, Tuple

from .. import _bitops
from ..core.events import is_up_set, up_closure
from ..core.worlds import GridSpace, HypercubeSpace, PropertySet, WorldSpace
from ..exceptions import SpaceMismatchError


class KnowledgeFamily:
    """Abstract base: a family ``Σ`` of non-empty candidate knowledge sets."""

    def __init__(self, space: WorldSpace) -> None:
        self._space = space

    @property
    def space(self) -> WorldSpace:
        return self._space

    def __iter__(self) -> Iterator[PropertySet]:
        """Enumerate the members of ``Σ`` (may be expensive; prefer the
        analytic methods when available)."""
        raise NotImplementedError

    def __contains__(self, candidate: PropertySet) -> bool:
        raise NotImplementedError

    def is_intersection_closed(self) -> bool:
        """Whether ``S₁, S₂ ∈ Σ`` and ``S₁ ∩ S₂ ≠ ∅`` imply ``S₁ ∩ S₂ ∈ Σ``.

        This is the family-level condition that makes every product
        ``C ⊗ Σ`` an ∩-closed second-level knowledge set (Definition 4.3):
        two sets paired with the same world always intersect non-trivially.
        """
        return False

    def interval_between(self, world1: int, world2: int) -> Optional[PropertySet]:
        """The smallest ``S ∈ Σ`` containing both worlds, or ``None``.

        Generic implementation intersects all containing members; subclasses
        override with closed forms.  For an ∩-closed family the result is
        itself a member, which is what Definition 4.4 requires.
        """
        result: Optional[int] = None
        for member in self:
            m = member.mask
            if (m >> world1) & 1 and (m >> world2) & 1:
                result = m if result is None else result & m
        if result is None:
            return None
        return PropertySet._from_mask(self._space, result)

    def _check_world(self, world: int) -> None:
        if not 0 <= world < self._space.size:
            raise ValueError(f"world {world} outside {self._space!r}")


class PowerSetFamily(KnowledgeFamily):
    """``Σ = P(Ω) − {∅}``: the auditor assumes nothing about the user."""

    def __iter__(self) -> Iterator[PropertySet]:
        worlds = list(self._space.worlds())
        if len(worlds) > 16:
            raise ValueError("refusing to enumerate the power set of a large space")
        for r in range(1, len(worlds) + 1):
            for combo in itertools.combinations(worlds, r):
                yield self._space.property_set(combo)

    def __contains__(self, candidate: PropertySet) -> bool:
        self._space.check_same(candidate.space)
        return bool(candidate)

    def is_intersection_closed(self) -> bool:
        return True

    def interval_between(self, world1: int, world2: int) -> Optional[PropertySet]:
        self._check_world(world1)
        self._check_world(world2)
        return self._space.property_set({world1, world2})


class SubcubeFamily(KnowledgeFamily):
    """Knowledge sets are non-empty subcubes of ``{0,1}^n``.

    A subcube fixes the values of some coordinates and leaves the rest free:
    the knowledge of a user who has learnt the exact presence/absence of a
    subset of records.  Closed under non-empty intersection, with
    ``I(ω₁, ω₂) = Box(Match(ω₁, ω₂))`` — the same box construction as
    Definition 5.8.
    """

    def __init__(self, space: HypercubeSpace) -> None:
        if not isinstance(space, HypercubeSpace):
            raise SpaceMismatchError("SubcubeFamily requires a HypercubeSpace")
        super().__init__(space)
        self._n = space.n

    def __iter__(self) -> Iterator[PropertySet]:
        for star_mask, agreed in _bitops.all_match_vectors(self._n):
            yield PropertySet._from_mask(
                self._space, _bitops.box_mask(star_mask, agreed)
            )

    def __contains__(self, candidate: PropertySet) -> bool:
        """Whether ``candidate`` is a non-empty subcube, from ``2n`` mask ops.

        A non-empty set is a subcube iff, for each coordinate, it lies in
        one half of the cube or equals its own flip along that coordinate.
        Coordinate ``i``'s stripe (the worlds with bit ``i`` set, built
        once per family) splits the mask into halves ``hi`` and ``lo``,
        and the flip maps ``lo`` onto ``lo << 2^i``.
        """
        self._space.check_same(candidate.space)
        mask = candidate.mask
        if not mask:
            return False
        for offset, stripe in self._stripes:
            hi = mask & stripe
            if hi and hi != mask and hi != (mask ^ hi) << offset:
                return False
        return True

    @functools.cached_property
    def _stripes(self) -> List[Tuple[int, int]]:
        """``(2^i, worlds with bit i set)`` for each coordinate ``i``."""
        size = self._space.size
        offsets = [1 << i for i in range(self._n)]
        return [(offset, _bitops.stripe_mask(offset, size)) for offset in offsets]

    def is_intersection_closed(self) -> bool:
        return True

    def interval_between(self, world1: int, world2: int) -> Optional[PropertySet]:
        self._check_world(world1)
        self._check_world(world2)
        star_mask, agreed = _bitops.match_key(world1, world2)
        # Box(Match(ω₁, ω₂)) built by popcount(star) big-int shifts instead
        # of enumerating its 2^popcount(star) members one by one.
        return PropertySet._from_mask(
            self._space, _bitops.box_mask(star_mask, agreed)
        )


class IntegerRectangleFamily(KnowledgeFamily):
    """Integer sub-rectangles of a grid — the family of Figure 1 / Example 4.9.

    "Consider an auditor who … assumes that the user's prior knowledge set
    ``S ∈ Σ`` is an integer rectangle."  Intersections of rectangles are
    rectangles, so the family is ∩-closed, and ``I(ω₁, ω₂)`` is the bounding
    box of the two pixels — "the smallest integer rectangle that contains
    both ω₁ and ω₂."
    """

    def __init__(self, space: GridSpace) -> None:
        if not isinstance(space, GridSpace):
            raise SpaceMismatchError("IntegerRectangleFamily requires a GridSpace")
        super().__init__(space)

    def __iter__(self) -> Iterator[PropertySet]:
        grid: GridSpace = self._space  # type: ignore[assignment]
        for x0 in range(grid.width):
            for x1 in range(x0, grid.width):
                for y0 in range(grid.height):
                    for y1 in range(y0, grid.height):
                        yield grid.rectangle(x0, y0, x1, y1)

    def __contains__(self, candidate: PropertySet) -> bool:
        self._space.check_same(candidate.space)
        if not candidate:
            return False
        grid: GridSpace = self._space  # type: ignore[assignment]
        xs = [grid.coordinates(w)[0] for w in candidate]
        ys = [grid.coordinates(w)[1] for w in candidate]
        width = max(xs) - min(xs) + 1
        height = max(ys) - min(ys) + 1
        return len(candidate) == width * height

    def is_intersection_closed(self) -> bool:
        return True

    def interval_between(self, world1: int, world2: int) -> Optional[PropertySet]:
        self._check_world(world1)
        self._check_world(world2)
        grid: GridSpace = self._space  # type: ignore[assignment]
        x1, y1 = grid.coordinates(world1)
        x2, y2 = grid.coordinates(world2)
        return grid.rectangle(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


class UpSetFamily(KnowledgeFamily):
    """Knowledge sets are non-empty up-sets of ``{0,1}^n`` (monotone knowledge).

    Intersections of up-sets are up-sets, and the interval between two
    worlds is the up-closure of the pair.  Models a user who can only ever
    rule out worlds from below — e.g. one who learns lower bounds on which
    records exist.
    """

    def __init__(self, space: HypercubeSpace) -> None:
        if not isinstance(space, HypercubeSpace):
            raise SpaceMismatchError("UpSetFamily requires a HypercubeSpace")
        super().__init__(space)

    def __iter__(self) -> Iterator[PropertySet]:
        if self._space.size > 8:
            raise ValueError("up-set enumeration is only supported for n ≤ 3")
        worlds = list(self._space.worlds())
        for r in range(1, len(worlds) + 1):
            for combo in itertools.combinations(worlds, r):
                candidate = self._space.property_set(combo)
                if is_up_set(candidate):
                    yield candidate

    def __contains__(self, candidate: PropertySet) -> bool:
        self._space.check_same(candidate.space)
        return bool(candidate) and is_up_set(candidate)

    def is_intersection_closed(self) -> bool:
        return True

    def interval_between(self, world1: int, world2: int) -> Optional[PropertySet]:
        self._check_world(world1)
        self._check_world(world2)
        return up_closure(self._space.property_set({world1, world2}))


class ExplicitFamily(KnowledgeFamily):
    """An arbitrary finite family given by its member sets."""

    def __init__(self, space: WorldSpace, members: Iterable[PropertySet]) -> None:
        super().__init__(space)
        unique: List[PropertySet] = []
        seen: Set[int] = set()  # packed masks — cheap integer keys
        for member in members:
            space.check_same(member.space)
            if not member:
                raise ValueError("knowledge sets must be non-empty")
            if member.mask not in seen:
                seen.add(member.mask)
                unique.append(member)
        if not unique:
            raise ValueError("a knowledge family must have at least one member")
        self._members = unique
        self._member_keys = seen

    def __iter__(self) -> Iterator[PropertySet]:
        return iter(self._members)

    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, candidate: PropertySet) -> bool:
        self._space.check_same(candidate.space)
        return candidate.mask in self._member_keys

    def is_intersection_closed(self) -> bool:
        for s1, s2 in itertools.combinations(self._members, 2):
            meet = s1.mask & s2.mask
            if meet and meet not in self._member_keys:
                return False
        return True

    def intersection_closure(self) -> "ExplicitFamily":
        """The smallest ∩-closed family containing this one.

        This is how an auditor upgrades an ad-hoc assumption to one robust
        against collusion (Section 4.1).  The fixpoint runs on packed masks.
        """
        closed = {m.mask: m for m in self._members}
        frontier = [m.mask for m in self._members]
        while frontier:
            current = frontier.pop()
            for other in list(closed):
                meet = current & other
                if meet and meet not in closed:
                    closed[meet] = PropertySet._from_mask(self._space, meet)
                    frontier.append(meet)
        return ExplicitFamily(self._space, closed.values())
