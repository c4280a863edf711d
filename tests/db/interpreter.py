"""The per-world query interpreter: the oracle of the query compiler.

``CandidateUniverse.compile_boolean``/``compile_answer`` take the truth
table of the lowered formula.  These functions compute the same property
sets the direct way, by evaluating the query on the database view of every
world of the hypercube.
"""

from __future__ import annotations

from typing import Optional

from repro.core.worlds import PropertySet
from repro.db import CandidateUniverse


def interpret_boolean(universe: CandidateUniverse, query) -> PropertySet:
    """``{ω : query(view_of(ω)) is true}``, one evaluation per world."""
    return universe.space.where(lambda w: query.evaluate(universe.view_of(w)))


def interpret_answer(
    universe: CandidateUniverse, query, actual_world: Optional[int] = None
) -> PropertySet:
    """The equal-output set ``{ω : Q(ω) = Q(ω*)}``, one evaluation per world."""
    if actual_world is None:
        actual_world = universe.actual_world()
    actual = query.evaluate(universe.view_of(actual_world))
    return universe.space.where(
        lambda w: query.evaluate(universe.view_of(w)) == actual
    )
