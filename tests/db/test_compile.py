"""Tests for the query → PropertySet compiler (CandidateUniverse)."""

from __future__ import annotations

import pytest

from repro.db import (
    CandidateUniverse,
    ColumnType,
    Database,
    Exists,
    Select,
    TableSchema,
    column_eq,
    parse_boolean_query,
)
from repro.db.query import RowNot, RowTrue
from repro.exceptions import QueryError, SymbolicLoweringError


@pytest.fixture
def setting():
    db = Database()
    db.create_table(
        TableSchema.build(
            "facts", patient=ColumnType.TEXT, kind=ColumnType.TEXT
        )
    )
    # A table with no candidate records: lowering never reads its rows.
    db.create_table(TableSchema.build("visits", patient=ColumnType.TEXT))
    r1 = db.insert("facts", patient="Bob", kind="hiv")
    r2 = db.insert("facts", patient="Bob", kind="transfusion")
    universe = CandidateUniverse(db, [r1, r2])
    return db, universe, r1, r2


class TestUniverse:
    def test_space_dimensions(self, setting):
        _, universe, r1, r2 = setting
        assert universe.space.n == 2
        assert universe.coordinate_of(r1) == 1
        assert universe.coordinate_of(r2) == 2

    def test_world_view_roundtrip(self, setting):
        _, universe, r1, r2 = setting
        for world in universe.space.worlds():
            assert universe.world_of(universe.view_of(world)) == world

    def test_actual_world_has_all_candidates(self, setting):
        _, universe, _, _ = setting
        assert universe.actual_world() == universe.space.world_id("11")

    def test_duplicate_candidates_rejected(self, setting):
        db, _, r1, _ = setting
        with pytest.raises(QueryError):
            CandidateUniverse(db, [r1, r1])

    def test_empty_universe_rejected(self, setting):
        db, _, _, _ = setting
        with pytest.raises(QueryError):
            CandidateUniverse(db, [])

    def test_non_candidate_coordinate_rejected(self, setting):
        db, universe, _, _ = setting
        ghost = db.hypothetical_record("facts", patient="X", kind="hiv")
        with pytest.raises(QueryError):
            universe.coordinate_of(ghost)


class TestCompileBoolean:
    def test_hiv_example_sets(self, setting):
        """The §1.1 example compiles to exactly the paper's table of worlds."""
        _, universe, r1, r2 = setting
        space = universe.space
        a = universe.compile_boolean(
            Exists("facts", column_eq("kind", "hiv"))
        )
        assert a == space.property_set(["10", "11"])  # r1 present
        b = universe.compile_boolean(
            Exists("facts", column_eq("kind", "hiv")).implies(
                Exists("facts", column_eq("kind", "transfusion"))
            )
        )
        # B rules out exactly the ✗-cell: r1 present, r2 absent.
        assert b == ~space.property_set(["10"])

    def test_presence_matches_coordinate(self, setting):
        _, universe, r1, _ = setting
        assert universe.presence(r1) == universe.space.coordinate_set(1)

    def test_compile_with_parser(self, setting):
        _, universe, _, _ = setting
        query = parse_boolean_query(
            "EXISTS(SELECT * FROM facts WHERE kind = 'hiv')"
        )
        assert universe.compile_boolean(query) == universe.space.property_set(
            ["10", "11"]
        )

    def test_hypothetical_candidates(self, setting):
        """Imaginary records participate as coordinates (the paper's
        "real or imaginary" critical records)."""
        db, _, r1, r2 = setting
        ghost = db.hypothetical_record("facts", patient="Eve", kind="hiv")
        universe = CandidateUniverse(db, [r1, r2, ghost])
        a = universe.compile_boolean(Exists("facts", column_eq("kind", "hiv")))
        # A holds whenever r1 or the ghost is present: 6 of 8 worlds.
        assert len(a) == 6
        # The actual world has only the inserted records.
        assert universe.actual_world() == universe.space.world_id("110")


class TestCompileAnswer:
    def test_boolean_answer_set(self, setting):
        """For a Boolean query whose actual answer is yes, the answer set is
        the query's property itself."""
        _, universe, _, _ = setting
        query = Exists("facts", column_eq("kind", "hiv"))
        assert universe.compile_answer(query) == universe.compile_boolean(query)

    def test_boolean_negative_answer_set(self, setting):
        """If the actual answer is no, the answer set is the complement."""
        _, universe, _, _ = setting
        query = Exists("facts", column_eq("kind", "dialysis"))
        assert universe.compile_answer(query) == universe.space.full  # never true

    def test_select_answer_groups_equal_outputs(self, setting):
        _, universe, r1, _ = setting
        query = Select("facts", RowTrue(), columns=("kind",))
        answer_set = universe.compile_answer(query)
        # Only the actual world yields exactly {hiv, transfusion}.
        assert answer_set == universe.space.property_set(["11"])

    def test_answer_from_alternate_world(self, setting):
        _, universe, _, _ = setting
        query = Exists("facts", column_eq("kind", "hiv"))
        empty_world = universe.space.world_id("00")
        answer_set = universe.compile_answer(query, actual_world=empty_world)
        assert answer_set == ~universe.compile_boolean(query)

    def test_callable_queries_rejected(self, setting):
        """Only repro.db queries compile: an opaque callable has no formula."""
        _, universe, _, _ = setting
        count_rows = lambda view: len(view)  # noqa: E731
        with pytest.raises(SymbolicLoweringError):
            universe.compile_answer(count_rows)
        with pytest.raises(SymbolicLoweringError):
            universe.lower_answer(count_rows)


#: Well-formed queries that name a table the database lacks, or a column
#: its table lacks: directly, behind a conjunct that matches nothing (so
#: evaluation never reaches the name), in a table without candidates, nested
#: in a row predicate, and as a projected column.
UNKNOWN_NAME_QUERIES = {
    "direct": (Exists("nosuch", RowTrue()), "no such table"),
    "short-circuit": (
        Exists("facts", column_eq("kind", "dialysis")) & Exists("nosuch", RowTrue()),
        "no such table",
    ),
    "select": (Select("nosuch", RowTrue()), "no such table"),
    "column-no-candidates": (
        Exists("visits", column_eq("nosuch", 1)),
        "has no column",
    ),
    "column-short-circuit": (
        Exists("facts", column_eq("kind", "dialysis") & column_eq("nosuch", 1)),
        "has no column",
    ),
    "column-nested": (
        Exists("visits", RowNot(column_eq("patient", "Bob") | column_eq("nosuch", 1))),
        "has no column",
    ),
    "select-column": (
        Select("facts", column_eq("kind", "dialysis"), ("nosuch",)),
        "has no column",
    ),
}


class TestCompileErrors:
    @pytest.mark.parametrize(
        "query, message",
        list(UNKNOWN_NAME_QUERIES.values()),
        ids=list(UNKNOWN_NAME_QUERIES),
    )
    def test_unknown_table_raises(self, setting, query, message):
        _, universe, _, _ = setting
        with pytest.raises(QueryError, match=message):
            universe.compile_boolean(query)
        with pytest.raises(QueryError, match=message):
            universe.compile_answer(query)
