"""Compiling queries to property sets over ``{0,1}^n`` of candidate records.

Section 6 observes that after PROJECT/SELECT-style disclosures, the user "may
be left only with a subset S of possible records", so "the number N of
possible relevant worlds could be very small".  The
:class:`CandidateUniverse` realises that reduction: fix ``n`` candidate
records (real rows plus hypothetical ones the auditor considers relevant);
each world of the hypercube ``{0,1}^n`` is the database view containing
exactly the chosen candidates.

Every query then is a Boolean function of the ``n`` presence bits, and the
universe compiles it once, to a formula (:mod:`repro.db.lower`).  The
:class:`~repro.core.worlds.PropertySet` the Section 4/5/6 machinery decides
on is that formula's truth table (:func:`repro.db.formula.truth_table`): one
front end, so no two deciders can disagree about what a query means.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.worlds import HypercubeSpace, PropertySet
from ..exceptions import QueryError
from . import lower
from .database import Database, DatabaseView, Record
from .formula import Formula, truth_table
from .query import BooleanQuery


class CandidateUniverse:
    """A fixed set of candidate records spanning the relevant worlds.

    The query compiler: :meth:`lower_boolean`/:meth:`lower_answer` turn a
    query into a formula over the candidates' presence bits, and
    :meth:`compile_boolean`/:meth:`compile_answer` return that formula's
    truth table as a :class:`~repro.core.worlds.PropertySet`.  No query is
    evaluated per world; ``view_of`` serves the one evaluation of the
    actual answer.

    Parameters
    ----------
    database:
        The database supplying schemas (and the actual world).
    candidates:
        The records whose presence is uncertain; coordinate ``i+1`` of the
        hypercube is candidate ``i``.  Insert order fixes the coordinates.
    """

    def __init__(self, database: Database, candidates: Sequence[Record]) -> None:
        if not candidates:
            raise QueryError("a candidate universe needs at least one record")
        seen = set()
        for record in candidates:
            if record.record_id in seen:
                raise QueryError(f"duplicate candidate {record.label()}")
            seen.add(record.record_id)
        if len(candidates) > 20:
            raise QueryError(
                f"{len(candidates)} candidates give 2^{len(candidates)} worlds; "
                "narrow the relevant-record set first"
            )
        self._database = database
        self._candidates: Tuple[Record, ...] = tuple(candidates)
        self._space = HypercubeSpace(
            len(candidates),
            coordinate_names=[r.label() for r in candidates],
        )

    @property
    def database(self) -> Database:
        return self._database

    @property
    def candidates(self) -> Tuple[Record, ...]:
        return self._candidates

    @property
    def space(self) -> HypercubeSpace:
        """The hypercube of relevant worlds."""
        return self._space

    # -- worlds ↔ views ----------------------------------------------------------

    def view_of(self, world: int) -> DatabaseView:
        """The database view for a hypercube world."""
        present = [
            record
            for i, record in enumerate(self._candidates)
            if (world >> i) & 1
        ]
        return self._database.view(present)

    def world_of(self, view: DatabaseView) -> int:
        """The hypercube world of a view (candidate records only)."""
        world = 0
        for i, record in enumerate(self._candidates):
            if view.contains(record):
                world |= 1 << i
        return world

    def actual_world(self) -> int:
        """The world corresponding to the actually inserted records."""
        return self.world_of(self._database.actual_view())

    def coordinate_of(self, record: Record) -> int:
        """The 1-based coordinate of a candidate record."""
        for i, candidate in enumerate(self._candidates):
            if candidate.record_id == record.record_id:
                return i + 1
        raise QueryError(f"{record.label()} is not a candidate")

    # -- compilation --------------------------------------------------------------
    # A query's property set is the truth table of its lowered formula.

    def compile_boolean(self, query: BooleanQuery) -> PropertySet:
        """The property ``{ω : query(ω) is true}``: the truth table of
        :meth:`lower_boolean`."""
        return self._truth_table(self.lower_boolean(query))

    def presence(self, record: Record) -> PropertySet:
        """The atomic property ``{ω : record ∈ ω}``."""
        return self._space.coordinate_set(self.coordinate_of(record))

    def compile_answer(self, query, actual_world: Optional[int] = None) -> PropertySet:
        """The knowledge set of a query's *actual output* (Section 2).

        For a query ``Q`` (Boolean or :class:`~repro.db.query.Select`), the
        disclosure of its answer is ``{ω : Q(ω) = Q(ω*)}``: the truth table
        of :meth:`lower_answer`.
        """
        return self._truth_table(self.lower_answer(query, actual_world))

    def positive_answer_set(self, query: BooleanQuery) -> PropertySet:
        """Alias of :meth:`compile_boolean`, named for audit-policy use:
        a "yes" to the audit query is the protected property ``A``."""
        return self.compile_boolean(query)

    def _truth_table(self, formula: Formula) -> PropertySet:
        return self._space.from_mask(truth_table(formula, self._space.n))

    # -- lowering ------------------------------------------------------------------
    # The one front end: a formula over the presence variables, built in
    # O(|query| · n).

    def lower_boolean(self, query: BooleanQuery) -> Formula:
        """The formula ``φ`` with ``φ(ω) ⟺ query(view_of(ω))`` on every world.

        Every table the query names must exist, and every column its
        predicates or projection name must exist in that table, whether or
        not evaluation would reach it; otherwise
        :class:`~repro.exceptions.QueryError`.
        """
        lower.check_names(query, self._database)
        return lower.lower_boolean(query, self._candidates)

    def lower_answer(self, query, actual_world: Optional[int] = None) -> Formula:
        """Formula form of :meth:`compile_answer` (the equal-output set).

        ``ω*`` is ``actual_world`` (default: the inserted records).  Names
        are checked as in :meth:`lower_boolean`.  Only :mod:`repro.db`
        queries lower; anything else, a callable included, raises
        :class:`~repro.exceptions.SymbolicLoweringError`.
        """
        lower.check_names(query, self._database)
        if actual_world is None:
            actual_world = self.actual_world()
        return lower.lower_answer(
            query, self._candidates, self.view_of(actual_world)
        )
