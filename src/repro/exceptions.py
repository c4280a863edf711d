"""Exception hierarchy for the epistemic-privacy library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything produced by this package with a single ``except`` clause.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class SpaceMismatchError(ReproError):
    """Two objects defined over different world spaces were combined."""


class InconsistentKnowledgeError(ReproError):
    """A knowledge world violated the consistency requirement of Remark 2.3.

    Possibilistic pairs ``(ω, S)`` must satisfy ``ω ∈ S`` and probabilistic
    pairs ``(ω, P)`` must satisfy ``P(ω) > 0``: every agent considers the
    actual world possible.
    """


class EmptyKnowledgeError(ReproError):
    """An empty second-level knowledge set was constructed.

    Definition 2.5 of the paper calls a pair ``(C, Σ)`` (or ``(C, Π)``)
    *consistent* only when its product is non-empty, "because ∅ is not a
    valid second-level knowledge set."
    """


class NotIntersectionClosedError(ReproError):
    """An operation required an ∩-closed second-level knowledge set (Def 4.3)."""


class IntervalDoesNotExistError(ReproError):
    """The K-interval ``I_K(ω₁, ω₂)`` of Definition 4.4 does not exist."""


class InvalidDistributionError(ReproError):
    """A probability distribution failed validation (negative mass, sum ≠ 1...)."""


class UndecidedError(ReproError):
    """A decision procedure could not reach a sound verdict within its budget."""


class NativeBackendError(ReproError):
    """``REPRO_NATIVE=require`` but the compiled kernel extension is unusable.

    Under ``auto`` (the default) a missing or broken extension degrades
    silently to the NumPy fallback; ``require`` turns that degradation into
    this error so CI legs can prove the native path actually ran.
    """


class MalformedEventError(ReproError, ValueError):
    """A disclosure-log entry is malformed (bad user, time, or query).

    ``event_index`` locates the offending entry within the log (or batch)
    being processed, ``None`` when the event was validated standalone.
    Subclasses :class:`ValueError` so pre-existing ``except ValueError``
    call sites keep working.
    """

    def __init__(self, message: str, event_index: "int | None" = None) -> None:
        if event_index is not None:
            message = f"event #{event_index}: {message}"
        super().__init__(message)
        self.event_index = event_index


class PolicyError(ReproError, ValueError):
    """An :class:`~repro.audit.policy.AuditPolicy` field failed validation."""


class SolverConfigurationError(ReproError, ValueError):
    """Arguments to a numeric solver are malformed (block sizes, dimensions…).

    Subclasses :class:`ValueError` for backward compatibility with callers
    that predate the typed hierarchy.
    """


class BudgetExhaustedError(ReproError):
    """A decision's deadline budget ran out where degrading was impossible.

    The staged pipeline prefers degrading (skipping optional stages,
    returning a typed UNKNOWN verdict) over raising; this escape hatch is
    for call sites that cannot continue at all.  ``stage`` names where the
    budget died.
    """

    def __init__(self, message: str, stage: "str | None" = None) -> None:
        super().__init__(message)
        self.stage = stage


class StageTimeoutError(ReproError):
    """A decision stage (e.g. an SDP solve) exceeded its time allowance."""


class QueryError(ReproError):
    """A database query is malformed or references unknown tables/columns."""


class ParseError(QueryError):
    """The SQL-ish query text could not be parsed."""


class SymbolicLoweringError(QueryError):
    """A query could not be lowered to a propositional formula.

    Raised by the query compiler (:mod:`repro.db.lower`) for inputs
    that are not :mod:`repro.db` queries, e.g. an opaque callable passed
    to ``compile_answer``.  The audit engine reports it, like any other
    :class:`QueryError`, as a :class:`MalformedEventError`.
    """


class CertificateError(ReproError):
    """A claimed algebraic certificate failed verification."""
