"""Lowering ``repro.db`` queries to propositional formulas: the query compiler.

A query over ``n`` candidate records becomes a formula over the presence
variables ``x_1 .. x_n`` in time linear in the query and candidate count.
This is the only compiled form of a query:
:class:`repro.db.compile.CandidateUniverse` takes the formula's
:func:`~repro.db.formula.truth_table` as the query's
:class:`~repro.core.worlds.PropertySet`.

Soundness rests on one structural fact: a :class:`~repro.db.database.
DatabaseView` built by ``view_of`` contains candidate records only, so each
row test ``predicate.matches(r)`` is a constant per candidate and every
query's truth is a Boolean function of the presence bits.  The per-world
interpreter (``query.evaluate(view_of(ω))``) is the test oracle.

Only :mod:`repro.db` query classes lower; anything else, opaque callables
included, raises :class:`~repro.exceptions.SymbolicLoweringError`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from ..exceptions import SymbolicLoweringError
from .database import Database, DatabaseView, Record
from .formula import (
    FALSE,
    Formula,
    Var,
    and_f,
    at_least,
    const,
    not_f,
    or_f,
)
from .query import (
    And,
    AtLeast,
    BooleanQuery,
    ColumnCompare,
    ContainsRecord,
    Exists,
    Implies,
    Literal,
    Not,
    Or,
    RowAnd,
    RowNot,
    RowOr,
    Select,
)
from .schema import TableSchema


def _matching_vars(
    candidates: Sequence[Record], table: str, predicate
) -> List[Var]:
    return [
        Var(i + 1)
        for i, record in enumerate(candidates)
        if record.table == table and predicate.matches(record)
    ]


def _check_columns(predicate, schema: TableSchema) -> None:
    if isinstance(predicate, ColumnCompare):
        schema.column_type(predicate.column)
    elif isinstance(predicate, RowNot):
        _check_columns(predicate.inner, schema)
    elif isinstance(predicate, (RowAnd, RowOr)):
        _check_columns(predicate.left, schema)
        _check_columns(predicate.right, schema)


def check_names(query, database: Database) -> None:
    """Raise :class:`~repro.exceptions.QueryError` for any table ``query``
    names that ``database`` lacks, or any column its table lacks.

    Lowering reads only the candidates, so a misspelt table or column in a
    table without candidates would lower to a constant, and evaluation
    skips a table behind a short-circuit.  This checks every name, reached
    or not: the tables, the columns of every row predicate, and a
    :class:`Select`'s projected columns.
    """
    if isinstance(query, (Exists, AtLeast, Select)):
        schema = database.schema(query.table)
        _check_columns(query.predicate, schema)
        if isinstance(query, Select):
            for column in query.columns:
                schema.column_type(column)
    elif isinstance(query, Not):
        check_names(query.inner, database)
    elif isinstance(query, (And, Or)):
        check_names(query.left, database)
        check_names(query.right, database)
    elif isinstance(query, Implies):
        check_names(query.antecedent, database)
        check_names(query.consequent, database)


def lower_boolean(query: BooleanQuery, candidates: Sequence[Record]) -> Formula:
    """The formula ``φ`` with ``φ(ω) ⟺ query(view_of(ω))`` for every ω.

    Names are not checked here; see :func:`check_names`.
    """
    if isinstance(query, Exists):
        return or_f(*_matching_vars(candidates, query.table, query.predicate))
    if isinstance(query, AtLeast):
        return at_least(
            _matching_vars(candidates, query.table, query.predicate),
            query.threshold,
        )
    if isinstance(query, ContainsRecord):
        for i, record in enumerate(candidates):
            if record.record_id == query.record.record_id:
                return Var(i + 1)
        return FALSE  # not a candidate: absent from every view
    if isinstance(query, Not):
        return not_f(lower_boolean(query.inner, candidates))
    if isinstance(query, And):
        return and_f(
            lower_boolean(query.left, candidates),
            lower_boolean(query.right, candidates),
        )
    if isinstance(query, Or):
        return or_f(
            lower_boolean(query.left, candidates),
            lower_boolean(query.right, candidates),
        )
    if isinstance(query, Implies):
        return or_f(
            not_f(lower_boolean(query.antecedent, candidates)),
            lower_boolean(query.consequent, candidates),
        )
    if isinstance(query, Literal):
        return const(query.value)
    raise SymbolicLoweringError(
        f"cannot lower query of type {type(query).__name__} to a formula"
    )


def _project(select: Select, record: Record) -> Tuple:
    if select.columns:
        return tuple(record[c] for c in select.columns)
    return tuple(v for _, v in record.values)


def lower_answer(
    query,
    candidates: Sequence[Record],
    actual_view: DatabaseView,
) -> Formula:
    """The formula of the equal-output set ``{ω : Q(ω) = Q(ω*)}``.

    ``actual_view`` is ``ω*``; the query is evaluated on it once, for the
    actual answer.  A Boolean query's answer set is ``φ`` or ``¬φ``; a
    :class:`Select`'s is a conjunction over the distinct projected values
    of matching candidates — values in the actual output need a present
    producer (∨ of their candidates), values outside it need all producers
    absent (∧ of negations).
    """
    if isinstance(query, BooleanQuery):
        phi = lower_boolean(query, candidates)
        return phi if query.evaluate(actual_view) else not_f(phi)
    if not isinstance(query, Select):
        raise SymbolicLoweringError(
            f"cannot lower answers of {type(query).__name__} (opaque evaluator)"
        )
    actual_output = query.evaluate(actual_view)
    groups: dict = {}
    for i, record in enumerate(candidates):
        if record.table == query.table and query.predicate.matches(record):
            groups.setdefault(_project(query, record), []).append(Var(i + 1))
    clauses: List[Formula] = []
    for value, producers in groups.items():
        if value in actual_output:
            clauses.append(or_f(*producers))
        else:
            clauses.append(and_f(*[not_f(v) for v in producers]))
    for value in actual_output:
        if value not in groups:
            # The actual view produced a value no candidate can: with views
            # restricted to candidates the equal-output set is empty.
            return FALSE
    return and_f(*clauses)
