"""Lowered formulas as the symbolic deciders read them, world by world.

Two layers of equivalence:

* **db layer** — ``eval_formula``, the per-world evaluator the symbolic
  deciders check models and witnesses with, must agree on *every* world
  of seeded random database scenarios with ``compile_boolean`` /
  ``compile_answer``, the truth tables the mask deciders get.  The
  compiler itself is checked against the per-world query interpreter in
  ``tests/db/test_lowering.py``, which runs in every configuration.
* **formula layer** — hypothesis-generated formulas round-trip through the
  Tseitin CNF encoding: a SAT model satisfies the source formula, UNSAT means
  no world does, and fingerprints are stable under structural rebuilds.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import CandidateUniverse, ColumnType, Database, TableSchema
from repro.db.query import (
    AtLeast,
    ColumnCompare,
    Comparison,
    Exists,
    Implies,
    Not,
    Or,
    RowNot,
    RowOr,
    Select,
    column_eq,
)
from repro.exceptions import SymbolicLoweringError
from repro.symbolic import enabled

if not enabled():
    pytest.skip(
        "symbolic backend disabled (REPRO_SYMBOLIC=off)",
        allow_module_level=True,
    )

from repro.symbolic import (
    and_f,
    at_least,
    eval_formula,
    fingerprint,
    not_f,
    or_f,
    to_cnf,
)
from repro.symbolic.formula import AndF, AtLeastF, ConstF, NotF, OrF, Var, var
from repro.symbolic.sat import solve_cnf


def build_universe(rng: random.Random, n: int) -> CandidateUniverse:
    """``n`` candidates over one integer-valued table, presence mixed."""
    db = Database()
    db.create_table(TableSchema("t", (("v", ColumnType.INTEGER),)))
    records = [
        db.insert("t", v=i) if rng.random() < 0.5 else db.hypothetical_record("t", v=i)
        for i in range(n)
    ]
    return CandidateUniverse(db, records)


def random_predicate(rng: random.Random, n: int, depth: int = 2):
    if depth == 0 or rng.random() < 0.5:
        if rng.random() < 0.5:
            return column_eq("v", rng.randrange(n))
        op = rng.choice(list(Comparison))
        return ColumnCompare("v", op, rng.randrange(n))
    if rng.random() < 0.5:
        return RowNot(random_predicate(rng, n, depth - 1))
    return RowOr(
        random_predicate(rng, n, depth - 1), random_predicate(rng, n, depth - 1)
    )


def random_query(rng: random.Random, n: int, depth: int = 2):
    if depth == 0 or rng.random() < 0.4:
        pred = random_predicate(rng, n)
        if rng.random() < 0.5:
            return Exists("t", pred)
        return AtLeast("t", pred, rng.randrange(1, max(2, n // 2)))
    choice = rng.randrange(3)
    if choice == 0:
        return Not(random_query(rng, n, depth - 1))
    cls = Or if choice == 1 else Implies
    return cls(random_query(rng, n, depth - 1), random_query(rng, n, depth - 1))


class TestDbLowering:
    """eval_formula(lower_*) vs compile_* on seeded random scenarios."""

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_lower_boolean_matches_compile_boolean(self, n):
        rng = random.Random(100 + n)
        universe = build_universe(rng, n)
        for _ in range(40):
            query = random_query(rng, n)
            mask = universe.compile_boolean(query).mask
            formula = universe.lower_boolean(query)
            for world in range(1 << n):
                assert eval_formula(formula, world) == bool(
                    (mask >> world) & 1
                ), (query, world)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_lower_answer_matches_compile_answer(self, n):
        rng = random.Random(200 + n)
        universe = build_universe(rng, n)
        for _ in range(30):
            query = random_query(rng, n)
            mask = universe.compile_answer(query).mask
            formula = universe.lower_answer(query)
            for world in range(1 << n):
                assert eval_formula(formula, world) == bool(
                    (mask >> world) & 1
                ), (query, world)

    @pytest.mark.parametrize("n", [3, 5])
    def test_lower_answer_select_matches(self, n):
        rng = random.Random(300 + n)
        universe = build_universe(rng, n)
        for _ in range(25):
            query = Select("t", random_predicate(rng, n), ("v",))
            mask = universe.compile_answer(query).mask
            formula = universe.lower_answer(query)
            for world in range(1 << n):
                assert eval_formula(formula, world) == bool(
                    (mask >> world) & 1
                ), (query, world)

    def test_opaque_query_raises_lowering_error(self):
        universe = build_universe(random.Random(0), 3)

        class Opaque:
            def evaluate(self, view):  # pragma: no cover - never called
                return True

        with pytest.raises(SymbolicLoweringError):
            universe.lower_answer(Opaque())


# -- formula layer: hypothesis round-trips ---------------------------------------

N_VARS = 4


def formulas(n: int = N_VARS):
    leaves = st.one_of(
        st.integers(min_value=1, max_value=n).map(var),
        st.booleans().map(lambda b: ConstF(b)),
    )

    def extend(children):
        return st.one_of(
            children.map(not_f),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: and_f(*fs)),
            st.lists(children, min_size=2, max_size=3).map(lambda fs: or_f(*fs)),
            st.tuples(
                st.lists(children, min_size=2, max_size=3),
                st.integers(min_value=0, max_value=4),
            ).map(lambda pair: at_least(pair[0], pair[1])),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=120, deadline=None)
@given(formulas())
def test_cnf_round_trip(formula):
    """SAT ⟹ the model satisfies the formula; UNSAT ⟹ no world does."""
    clauses, total_vars = to_cnf(formula, N_VARS)
    status, model = solve_cnf(clauses, total_vars)
    truth_table = [
        eval_formula(formula, world) for world in range(1 << N_VARS)
    ]
    if status == "sat":
        assert eval_formula(formula, model & ((1 << N_VARS) - 1))
        assert any(truth_table)
    else:
        assert status == "unsat"
        assert not any(truth_table)


def test_cnf_two_cardinality_atoms_regression():
    """Two cardinality atoms in one encoding must not share Tseitin literals.

    Each ``AtLeastF`` is Tseitin-encoded through a throwaway expansion DAG;
    with an id-keyed memo that did not pin its nodes, the second atom's
    freshly allocated nodes could reuse the first expansion's ids and
    inherit its literals, yielding a CNF that admits non-models
    (hypothesis-discovered).
    """
    formula = not_f(
        or_f(
            not_f(AtLeastF((Var(2), Var(2), Var(3)), 2)),
            not_f(AtLeastF((Var(3), Var(2), Var(3)), 2)),
        )
    )
    clauses, total_vars = to_cnf(formula, N_VARS)

    def satisfies(model: int) -> bool:
        return all(
            any(
                ((model >> (abs(l) - 1)) & 1) == (1 if l > 0 else 0)
                for l in clause
            )
            for clause in clauses
        )

    projected = {
        model & ((1 << N_VARS) - 1)
        for model in range(1 << total_vars)
        if satisfies(model)
    }
    truth = {w for w in range(1 << N_VARS) if eval_formula(formula, w)}
    assert projected == truth
    status, model = solve_cnf(clauses, total_vars)
    assert status == "sat"
    assert eval_formula(formula, model & ((1 << N_VARS) - 1))


@settings(max_examples=80, deadline=None)
@given(formulas())
def test_fingerprint_stable_under_rebuild(formula):
    """Structurally equal formulas fingerprint identically."""

    def rebuild(f):
        if isinstance(f, (ConstF, Var)):
            return f
        if isinstance(f, NotF):
            return NotF(rebuild(f.inner))
        if isinstance(f, AndF):
            return AndF(tuple(rebuild(g) for g in f.args))
        if isinstance(f, OrF):
            return OrF(tuple(rebuild(g) for g in f.args))
        assert isinstance(f, AtLeastF)
        return AtLeastF(tuple(rebuild(g) for g in f.args), f.threshold)

    assert fingerprint(rebuild(formula)) == fingerprint(formula)
