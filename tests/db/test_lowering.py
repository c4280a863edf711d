"""The query compiler against the per-world interpreter.

``CandidateUniverse.compile_boolean``/``compile_answer`` are the truth
tables of the lowered formulas (``lower_boolean``/``lower_answer`` and
``truth_table``).  The oracle, :mod:`tests.db.interpreter`, evaluates the
query on the database view of every world.  The two must agree bit for bit.
``truth_table`` itself is held to the per-world formula interpreter
:mod:`tests.db.formula_interpreter`.
"""

from __future__ import annotations

import random

import pytest

from repro.db import CandidateUniverse, ColumnType, Database, TableSchema
from repro.db.query import (
    And,
    AtLeast,
    ColumnCompare,
    Comparison,
    ContainsRecord,
    Exists,
    Implies,
    Literal,
    Not,
    Or,
    RowNot,
    RowOr,
    RowTrue,
    Select,
    column_eq,
)
from repro.db.formula import AndF, AtLeastF, ConstF, NotF, OrF, Var, truth_table
from repro.db.workload import generate_disclosure_log, generate_registry
from repro.exceptions import SymbolicLoweringError
from tests.db.formula_interpreter import eval_formula
from tests.db.interpreter import interpret_answer, interpret_boolean

N_RANGE = range(1, 11)
#: Projections tried per table; ``()`` projects the whole row.
COLUMNS = {"t": [(), ("g",), ("v",), ("g", "v")], "u": [(), ("v",)]}


class Scenario:
    """``n`` candidates over two tables, some inserted and some hypothetical,
    plus an inserted and a hypothetical record that are not candidates."""

    def __init__(self, rng: random.Random, n: int) -> None:
        self.rng = rng
        db = Database()
        db.create_table(
            TableSchema.build("t", v=ColumnType.INTEGER, g=ColumnType.TEXT)
        )
        db.create_table(TableSchema.build("u", v=ColumnType.INTEGER))
        candidates = []
        for i in range(n):
            table = "t" if rng.random() < 0.75 else "u"
            values = {"v": i, "g": "abc"[i % 3]} if table == "t" else {"v": i}
            make = db.insert if rng.random() < 0.5 else db.hypothetical_record
            candidates.append(make(table, **values))
        self.outsiders = [
            db.insert("t", v=n, g="a"),
            db.hypothetical_record("u", v=n + 1),
        ]
        self.n = n
        self.universe = CandidateUniverse(db, candidates)

    def predicate(self, table: str, depth: int = 2):
        rng, n = self.rng, self.n
        if depth == 0 or rng.random() < 0.5:
            roll = rng.random()
            if table == "t" and roll < 0.25:
                return column_eq("g", rng.choice("abcd"))
            if roll < 0.5:
                return column_eq("v", rng.randrange(-1, n + 1))
            if roll < 0.6:
                return RowTrue()
            op = rng.choice(list(Comparison))
            return ColumnCompare("v", op, rng.randrange(-1, n + 1))
        if rng.random() < 0.5:
            return RowNot(self.predicate(table, depth - 1))
        return RowOr(
            self.predicate(table, depth - 1), self.predicate(table, depth - 1)
        )

    def boolean(self, depth: int = 2):
        rng = self.rng
        if depth == 0 or rng.random() < 0.4:
            kind = rng.randrange(5)
            table = rng.choice("tu")
            if kind == 0:
                return Exists(table, self.predicate(table))
            if kind == 1:
                threshold = rng.randrange(self.n + 2)
                return AtLeast(table, self.predicate(table), threshold)
            if kind == 2:
                records = self.universe.candidates + tuple(self.outsiders)
                return ContainsRecord(rng.choice(records))
            if kind == 3:
                return Literal(rng.random() < 0.5)
            return AtLeast(table, self.predicate(table), rng.randrange(2, 4))
        kind = rng.randrange(4)
        if kind == 0:
            return Not(self.boolean(depth - 1))
        cls = (And, Or, Implies)[kind - 1]
        return cls(self.boolean(depth - 1), self.boolean(depth - 1))

    def select(self):
        table = self.rng.choice("tu")
        columns = self.rng.choice(COLUMNS[table])
        return Select(table, self.predicate(table), columns)

    def world(self) -> int:
        return self.rng.randrange(self.universe.space.size)


def assert_compiles_like_interpreter(universe, query, actual_world=None):
    compiled = universe.compile_answer(query, actual_world=actual_world)
    expected = interpret_answer(universe, query, actual_world=actual_world)
    assert compiled.mask == expected.mask, (str(query), actual_world)


class TestCompilerAgainstInterpreter:
    """Seeded random scenarios, every world."""

    @pytest.mark.parametrize("n", N_RANGE)
    def test_compile_boolean(self, n):
        scenario = Scenario(random.Random(100 + n), n)
        universe = scenario.universe
        for _ in range(30):
            query = scenario.boolean()
            expected = interpret_boolean(universe, query)
            assert universe.compile_boolean(query).mask == expected.mask, str(query)

    @pytest.mark.parametrize("n", N_RANGE)
    def test_compile_answer(self, n):
        """The database's own actual world, then another one."""
        scenario = Scenario(random.Random(200 + n), n)
        for _ in range(20):
            query = scenario.boolean()
            assert_compiles_like_interpreter(scenario.universe, query)
            assert_compiles_like_interpreter(
                scenario.universe, query, scenario.world()
            )

    @pytest.mark.parametrize("n", N_RANGE)
    def test_compile_answer_select(self, n):
        """SELECTs with and without projected columns."""
        scenario = Scenario(random.Random(300 + n), n)
        for _ in range(20):
            query = scenario.select()
            assert_compiles_like_interpreter(scenario.universe, query)
            assert_compiles_like_interpreter(
                scenario.universe, query, scenario.world()
            )

    @pytest.mark.parametrize("n", N_RANGE)
    def test_at_least_every_threshold(self, n):
        """Thresholds from 0 to one past the matching count."""
        scenario = Scenario(random.Random(400 + n), n)
        universe = scenario.universe
        predicates = [RowTrue(), column_eq("v", -1), column_eq("g", "a")]
        predicates += [scenario.predicate("t") for _ in range(3)]
        for predicate in predicates:
            matching = sum(
                1
                for record in universe.candidates
                if record.table == "t" and predicate.matches(record)
            )
            for threshold in range(matching + 2):
                query = AtLeast("t", predicate, threshold)
                expected = interpret_boolean(universe, query)
                assert universe.compile_boolean(query).mask == expected.mask, (
                    str(query)
                )
                assert_compiles_like_interpreter(universe, query)


class TestFixedShapes:
    """Hand-picked shapes, against every actual world of one scenario."""

    @pytest.fixture(scope="class")
    def scenario(self):
        return Scenario(random.Random(7), 5)

    def shapes(self, scenario):
        first = scenario.universe.candidates[0]
        inserted, ghost = scenario.outsiders
        probe = Exists("t", column_eq("g", "a"))
        return [
            probe.implies(Exists("u", RowTrue())),
            Implies(ContainsRecord(first), Literal(False)),
            Literal(True),
            Literal(False),
            ContainsRecord(inserted),
            ContainsRecord(ghost),
            ~ContainsRecord(ghost),
            Exists("t", column_eq("v", -1)),
            AtLeast("t", column_eq("v", -1), 0),
            AtLeast("t", column_eq("v", -1), 1),
            Select("t", column_eq("v", -1), ("g",)),
            Select("t", column_eq("v", -1)),
        ]

    def test_every_actual_world(self, scenario):
        universe = scenario.universe
        for query in self.shapes(scenario):
            if not isinstance(query, Select):
                expected = interpret_boolean(universe, query)
                assert universe.compile_boolean(query).mask == expected.mask
            for world in universe.space.worlds():
                assert_compiles_like_interpreter(universe, query, world)


class TestWorkloadQueries:
    """Every distinct query the disclosure-log generator draws from the
    n = 9 and n = 10 diagnoses registries."""

    @pytest.mark.parametrize("n, registry_seed", [(9, 3), (10, 2)])
    def test_distinct_log_queries(self, n, registry_seed):
        db, candidates = generate_registry(
            n_patients=6, n_hypothetical=3, seed=registry_seed
        )
        assert len(candidates) == n
        universe = CandidateUniverse(db, candidates)
        log = generate_disclosure_log(universe, n_events=3000, n_users=100, seed=1)
        queries = {repr(event.query): event.query for event in log}
        assert len(queries) > 50
        for query in queries.values():
            assert_compiles_like_interpreter(universe, query)


class TestTruthTable:
    """``truth_table`` against its per-world twin ``eval_formula``, on
    formulas built without the constant-folding constructors."""

    def formula(self, rng: random.Random, n: int, depth: int = 3):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.15:
                return ConstF(rng.random() < 0.5)
            return Var(rng.randrange(1, n + 1))
        width = rng.randrange(1, 4)
        args = tuple(self.formula(rng, n, depth - 1) for _ in range(width))
        kind = rng.randrange(4)
        if kind == 0:
            return NotF(args[0])
        if kind == 1:
            return AndF(args)
        if kind == 2:
            return OrF(args)
        return AtLeastF(args, rng.randrange(1, len(args) + 2))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_eval_formula(self, n):
        rng = random.Random(500 + n)
        for _ in range(60):
            formula = self.formula(rng, n)
            mask = truth_table(formula, n)
            for world in range(1 << n):
                assert bool((mask >> world) & 1) == eval_formula(formula, world), (
                    formula,
                    world,
                )

    def test_variable_outside_the_cube_rejected(self):
        with pytest.raises(ValueError):
            truth_table(Var(4), 3)


class TestDbLowering:
    """``eval_formula`` on the lowered formula against the compiled mask,
    world by world: the compiler's truth table of each real query."""

    @staticmethod
    def assert_evaluates_like_mask(formula, mask, n, query):
        for world in range(1 << n):
            assert eval_formula(formula, world) == bool((mask >> world) & 1), (
                str(query),
                world,
            )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_lower_boolean_matches_compile_boolean(self, n):
        scenario = Scenario(random.Random(600 + n), n)
        universe = scenario.universe
        for _ in range(40):
            query = scenario.boolean()
            self.assert_evaluates_like_mask(
                universe.lower_boolean(query),
                universe.compile_boolean(query).mask,
                n,
                query,
            )

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_lower_answer_matches_compile_answer(self, n):
        scenario = Scenario(random.Random(700 + n), n)
        universe = scenario.universe
        for _ in range(30):
            query = scenario.boolean()
            self.assert_evaluates_like_mask(
                universe.lower_answer(query),
                universe.compile_answer(query).mask,
                n,
                query,
            )

    @pytest.mark.parametrize("n", [3, 5])
    def test_lower_answer_select_matches(self, n):
        scenario = Scenario(random.Random(800 + n), n)
        universe = scenario.universe
        for _ in range(25):
            query = scenario.select()
            self.assert_evaluates_like_mask(
                universe.lower_answer(query),
                universe.compile_answer(query).mask,
                n,
                query,
            )

    def test_opaque_query_raises_lowering_error(self):
        universe = Scenario(random.Random(0), 3).universe

        class Opaque:
            def evaluate(self, view):  # pragma: no cover - never called
                return True

        with pytest.raises(SymbolicLoweringError):
            universe.lower_answer(Opaque())
