"""Propositional formulas over candidate-presence variables.

Every query compiles to a formula over variables ``x_1 .. x_n`` ("candidate
``i`` is present"), and the deciders take its :func:`truth_table`, a
:class:`~repro.core.worlds.PropertySet` big-int over all ``2^n`` worlds.

The AST is deliberately tiny — constants, variables, negation, n-ary
conjunction/disjunction, and a cardinality atom :class:`AtLeastF` (counted
directly by :func:`truth_table`, never expanded).  Smart constructors
(:func:`and_f`, :func:`or_f`, :func:`not_f`, :func:`at_least`)
constant-fold and flatten so lowered formulas stay small.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Tuple, Union

from .. import _bitops


@dataclass(frozen=True)
class ConstF:
    """A Boolean constant."""

    value: bool


@dataclass(frozen=True)
class Var:
    """Presence of candidate record at 1-based coordinate ``index``."""

    index: int


@dataclass(frozen=True)
class NotF:
    inner: "Formula"


@dataclass(frozen=True)
class AndF:
    args: Tuple["Formula", ...]


@dataclass(frozen=True)
class OrF:
    args: Tuple["Formula", ...]


@dataclass(frozen=True)
class AtLeastF:
    """At least ``threshold`` of ``args`` are true (cardinality atom)."""

    args: Tuple["Formula", ...]
    threshold: int


Formula = Union[ConstF, Var, NotF, AndF, OrF, AtLeastF]

TRUE = ConstF(True)
FALSE = ConstF(False)


# -- smart constructors ----------------------------------------------------------


def const(value: bool) -> ConstF:
    return TRUE if value else FALSE


def not_f(f: Formula) -> Formula:
    if isinstance(f, ConstF):
        return const(not f.value)
    if isinstance(f, NotF):
        return f.inner
    return NotF(f)


def and_f(*args: Formula) -> Formula:
    flat: List[Formula] = []
    for a in args:
        if isinstance(a, ConstF):
            if not a.value:
                return FALSE
            continue
        if isinstance(a, AndF):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return AndF(tuple(flat))


def or_f(*args: Formula) -> Formula:
    flat: List[Formula] = []
    for a in args:
        if isinstance(a, ConstF):
            if a.value:
                return TRUE
            continue
        if isinstance(a, OrF):
            flat.extend(a.args)
        else:
            flat.append(a)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return OrF(tuple(flat))


def at_least(args: Iterable[Formula], threshold: int) -> Formula:
    args_t = tuple(args)
    if threshold <= 0:
        return TRUE
    if threshold > len(args_t):
        return FALSE
    if threshold == 1:
        return or_f(*args_t)
    if threshold == len(args_t):
        return and_f(*args_t)
    return AtLeastF(args_t, threshold)


# -- truth tables ----------------------------------------------------------------


def truth_table(formula: Formula, n: int) -> int:
    """The mask of the worlds of ``{0,1}^n`` where ``formula`` holds.

    Bit ``ω`` is set iff ``formula`` holds at ``ω`` (bit ``i-1`` of ``ω`` is
    variable ``i``): the packed form of a
    :class:`~repro.core.worlds.PropertySet`, built with a handful of big-int
    operations per node instead of one evaluation per world.  ``Var(i)`` is
    the stripe of worlds with bit ``i-1`` set; :class:`AtLeastF` runs a
    counter of ``threshold`` masks, where ``counts[j]`` holds the worlds in
    which more than ``j`` of the operands seen so far are true.
    """
    size = 1 << n
    full = (1 << size) - 1

    def mask(f: Formula) -> int:
        if isinstance(f, ConstF):
            return full if f.value else 0
        if isinstance(f, Var):
            if not 1 <= f.index <= n:
                raise ValueError(f"variable {f.index} outside 1..{n}")
            return _bitops.stripe_mask(1 << (f.index - 1), size)
        if isinstance(f, NotF):
            return full & ~mask(f.inner)
        if isinstance(f, AndF):
            out = full
            for a in f.args:
                out &= mask(a)
            return out
        if isinstance(f, OrF):
            out = 0
            for a in f.args:
                out |= mask(a)
            return out
        if isinstance(f, AtLeastF):
            counts = [0] * f.threshold
            for a in f.args:
                x = mask(a)
                for j in range(f.threshold - 1, 0, -1):
                    counts[j] |= counts[j - 1] & x
                counts[0] |= x
            return counts[-1]
        raise TypeError(f"not a formula: {f!r}")

    return mask(formula)
