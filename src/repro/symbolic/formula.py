"""Propositional formulas over candidate-presence variables.

Every query compiles to a formula over variables ``x_1 .. x_n`` ("candidate
``i`` is present").  The mask deciders take its :func:`truth_table`, a
:class:`~repro.core.worlds.PropertySet` big-int over all ``2^n`` worlds; the
symbolic backend decides on the formula itself, so its cost tracks formula
*structure*, not ``|Ω|``, which is what makes ``n = 24, 32, 64`` feasible.

The AST is deliberately tiny — constants, variables, negation, n-ary
conjunction/disjunction, and a cardinality atom :class:`AtLeastF` (kept
symbolic so engines can map it natively, e.g. to Z3's ``AtLeast``).  Smart
constructors (:func:`and_f`, :func:`or_f`, :func:`not_f`, :func:`at_least`)
constant-fold and flatten so lowered formulas stay small.

Formulas form a DAG (subterms may be shared); :func:`fingerprint` and
:func:`to_cnf` memoise on node identity so shared subterms are hashed and
Tseitin-encoded once.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple, Union

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


def var(index: int) -> Var:
    if index < 1:
        raise ValueError(f"variable indices are 1-based, got {index}")
    return Var(index)


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


def implies_f(antecedent: Formula, consequent: Formula) -> Formula:
    return or_f(not_f(antecedent), consequent)


def iff_f(left: Formula, right: Formula) -> Formula:
    return and_f(or_f(not_f(left), right), or_f(left, not_f(right)))


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


# -- evaluation ------------------------------------------------------------------


def eval_formula(formula: Formula, world: int) -> bool:
    """Truth of ``formula`` at one world (bit ``i-1`` = variable ``i``).

    The per-world twin of :func:`truth_table`: bit ``ω`` of
    ``truth_table(formula, n)`` equals ``eval_formula(formula, ω)``.  The
    symbolic deciders use it to check models and witnesses.
    :class:`AtLeastF` is counted directly, never expanded.
    """
    if isinstance(formula, ConstF):
        return formula.value
    if isinstance(formula, Var):
        return bool((world >> (formula.index - 1)) & 1)
    if isinstance(formula, NotF):
        return not eval_formula(formula.inner, world)
    if isinstance(formula, AndF):
        return all(eval_formula(a, world) for a in formula.args)
    if isinstance(formula, OrF):
        return any(eval_formula(a, world) for a in formula.args)
    if isinstance(formula, AtLeastF):
        count = 0
        for a in formula.args:
            if eval_formula(a, world):
                count += 1
                if count >= formula.threshold:
                    return True
        return False
    raise TypeError(f"not a formula: {formula!r}")


def truth_table(formula: Formula, n: int) -> int:
    """The mask of the worlds of ``{0,1}^n`` where ``formula`` holds.

    Bit ``ω`` is set iff ``eval_formula(formula, ω)``: the packed form of a
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


def shift_vars(formula: Formula, offset: int) -> Formula:
    """Rename every ``Var(i)`` to ``Var(i + offset)`` (fresh variable block).

    Used by the subcube CEGAR loop to place the ``x``, ``y`` and ``z``
    copies of a formula over disjoint variable ranges.
    """
    memo: Dict[int, Formula] = {}

    def walk(f: Formula) -> Formula:
        cached = memo.get(id(f))
        if cached is not None:
            return cached
        if isinstance(f, ConstF):
            out: Formula = f
        elif isinstance(f, Var):
            out = Var(f.index + offset)
        elif isinstance(f, NotF):
            out = NotF(walk(f.inner))
        elif isinstance(f, AndF):
            out = AndF(tuple(walk(a) for a in f.args))
        elif isinstance(f, OrF):
            out = OrF(tuple(walk(a) for a in f.args))
        elif isinstance(f, AtLeastF):
            out = AtLeastF(tuple(walk(a) for a in f.args), f.threshold)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[id(f)] = out
        return out

    return walk(formula)


def support(formula: Formula) -> "frozenset[int]":
    """The set of variable indices the formula actually mentions.

    Coordinates outside the support never influence truth; the subcube
    CEGAR loop uses this to generalise its blocking clauses (a witness can
    always copy ``x`` on unmentioned coordinates).
    """
    seen: Dict[int, bool] = {}
    out: set = set()

    def walk(f: Formula) -> None:
        if id(f) in seen:
            return
        seen[id(f)] = True
        if isinstance(f, Var):
            out.add(f.index)
        elif isinstance(f, NotF):
            walk(f.inner)
        elif isinstance(f, (AndF, OrF, AtLeastF)):
            for a in f.args:
                walk(a)

    walk(formula)
    return frozenset(out)


def fingerprint(formula: Formula) -> str:
    """Deterministic 128-bit digest of a formula's structure.

    Nodes are numbered in post-order with identity-memoised sharing, so a
    DAG hashes in linear time and two structurally identical formulas built
    independently get the same digest (numbering depends only on traversal
    order, never on object ids).
    """
    memo: Dict[int, int] = {}
    lines: List[str] = []

    def number(f: Formula) -> int:
        cached = memo.get(id(f))
        if cached is not None:
            return cached
        if isinstance(f, ConstF):
            desc = f"C{int(f.value)}"
        elif isinstance(f, Var):
            desc = f"V{f.index}"
        elif isinstance(f, NotF):
            desc = f"N{number(f.inner)}"
        elif isinstance(f, AndF):
            desc = "A" + ",".join(str(number(a)) for a in f.args)
        elif isinstance(f, OrF):
            desc = "O" + ",".join(str(number(a)) for a in f.args)
        elif isinstance(f, AtLeastF):
            desc = f"L{f.threshold};" + ",".join(str(number(a)) for a in f.args)
        else:
            raise TypeError(f"not a formula: {f!r}")
        index = len(lines)
        lines.append(desc)
        memo[id(f)] = index
        return index

    number(formula)
    payload = "\n".join(lines).encode("ascii")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# -- CNF translation -------------------------------------------------------------


def _expand_at_least(f: AtLeastF) -> Formula:
    """Sequential-counter expansion of a cardinality atom.

    ``prev[j]`` after processing the first ``i`` operands means "at least
    ``j`` of them hold"; the recurrence ``s_{i,j} = s_{i-1,j} ∨ (x_i ∧
    s_{i-1,j-1})`` builds a shared DAG of size ``O(n·k)`` which Tseitin
    then encodes once per node.
    """
    k = f.threshold
    prev: List[Formula] = [TRUE] + [FALSE] * k
    for x in f.args:
        cur: List[Formula] = [TRUE]
        for j in range(1, k + 1):
            cur.append(or_f(prev[j], and_f(x, prev[j - 1])))
        prev = cur
    return prev[k]


def to_cnf(formula: Formula, n_vars: int) -> Tuple[List[List[int]], int]:
    """Tseitin CNF: clauses over vars ``1..n_vars`` plus fresh auxiliaries.

    Returns ``(clauses, total_vars)``.  Input variables keep their indices;
    auxiliary (definition) variables start at ``n_vars + 1``.  Shared DAG
    nodes are encoded exactly once via an identity memo.
    """
    clauses: List[List[int]] = []
    counter = [n_vars]
    # Memo values pin the node: keys are ids, and cardinality expansions are
    # throwaway DAGs — if a memoised node were collected, a later allocation
    # could reuse its id and silently inherit its literal.
    memo: Dict[int, Tuple[Formula, int]] = {}

    def fresh() -> int:
        counter[0] += 1
        return counter[0]

    def lit(f: Formula) -> int:
        if isinstance(f, Var):
            if f.index > n_vars:
                raise ValueError(
                    f"formula mentions variable {f.index} beyond n_vars={n_vars}"
                )
            return f.index
        if isinstance(f, NotF):
            return -lit(f.inner)
        cached = memo.get(id(f))
        if cached is not None:
            return cached[1]
        if isinstance(f, ConstF):
            v = fresh()
            clauses.append([v] if f.value else [-v])
        elif isinstance(f, AtLeastF):
            v = lit(_expand_at_least(f))
        elif isinstance(f, (AndF, OrF)):
            args = [lit(a) for a in f.args]
            v = fresh()
            if isinstance(f, AndF):
                for a in args:
                    clauses.append([-v, a])
                clauses.append([v] + [-a for a in args])
            else:
                for a in args:
                    clauses.append([-a, v])
                clauses.append([-v] + args)
        else:
            raise TypeError(f"not a formula: {f!r}")
        memo[id(f)] = (f, v)
        return v

    clauses.append([lit(formula)])
    return clauses, counter[0]
