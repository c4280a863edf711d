"""Typed decision outcomes and the runtime's degradation counters.

A bare :class:`~repro.core.verdict.AuditVerdict` says *what* was decided;
a :class:`DecisionOutcome` additionally says *how*: which stages ran (in
order), whether the decision degraded from its normal path, why, how many
times it was retried, and how long it took.  The batch engine attaches an
outcome to every finding, so a chaos run's report shows exactly where each
verdict came from — and the fault-injection suite can assert that faults
moved provenance, not verdicts.

:class:`RuntimeStats` aggregates the same information per audit run, in the
``cache_stats`` style: cheap integer counters surfaced on
:class:`~repro.audit.offline.AuditReport` and in benchmark artifacts.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional, Tuple

from ..core.verdict import AuditVerdict

__all__ = ["DecisionOutcome", "RuntimeStats"]


@dataclass(frozen=True)
class DecisionOutcome:
    """One decision's verdict plus its runtime provenance.

    Attributes
    ----------
    verdict:
        The audit verdict (unchanged by any degradation — that is the
        resilience layer's contract, enforced by ``tests/runtime/``).
    stages:
        Stage provenance in execution order (the pipeline trace, plus
        wrapper events such as ``"verdict-cache"`` or
        ``"verdict-store"``).
    degraded:
        Whether the decision left its normal path (breaker pin, budget
        skip, pipeline-error fallback).
    degradation:
        Why, when ``degraded`` — e.g. ``"breaker-pinned"``,
        ``"budget-exhausted"``, ``"pipeline-error:StageTimeoutError"``.
    retries:
        Decision retries: the exact-path fallback after a pipeline error.
    elapsed:
        Decision wall-clock seconds (in the process that decided it).
    """

    verdict: AuditVerdict
    stages: Tuple[str, ...] = ()
    degraded: bool = False
    degradation: Optional[str] = None
    retries: int = 0
    elapsed: float = 0.0

    @property
    def resolved(self) -> bool:
        """Whether a SAFE/UNSAFE verdict was reached (UNKNOWN = unresolved)."""
        return self.verdict.is_decided

    def with_degradation(self, reason: str) -> "DecisionOutcome":
        """A copy marked degraded for ``reason`` (appended if already degraded)."""
        combined = f"{self.degradation};{reason}" if self.degradation else reason
        return DecisionOutcome(
            verdict=self.verdict,
            stages=self.stages + (reason,),
            degraded=True,
            degradation=combined,
            retries=self.retries,
            elapsed=self.elapsed,
        )

    def describe(self) -> str:
        tail = f" [degraded: {self.degradation}]" if self.degraded else ""
        return f"{self.verdict} via {' → '.join(self.stages) or '?'}{tail}"


@dataclass
class RuntimeStats:
    """Per-run counters of the resilience layer's interventions.

    All zeros on a clean run — the counters exist so degradation is never
    silent: every injected-fault class in the chaos harness maps to at
    least one counter here (see the README failure-modes table).
    """

    breaker_trips: int = 0  # CLOSED → OPEN transitions this run
    breaker_pinned: int = 0  # decisions pinned to the exact path
    certificate_failures: int = 0  # certificate stages that raised/timed out
    budget_exhausted: int = 0  # decisions that ran out of deadline budget
    degraded_decisions: int = 0  # findings whose outcome is degraded
    store_failures: int = 0  # verdict-store loads/flushes that failed
    #: Selected decision-kernel backend ("native"/"numpy-fallback"; "" until
    #: an audit stamped it).  Provenance, not a degradation counter: it is
    #: excluded from ``merge`` sums, ``any_degradation`` and ``__str__``.
    native_backend: str = ""
    #: Decision backend for Safe_K checks (always "mask" once an audit
    #: stamped it, "" before).  Provenance like ``native_backend`` —
    #: string, so excluded from sums and degradation.
    decision_backend: str = ""

    def merge(self, other: "RuntimeStats") -> "RuntimeStats":
        merged = RuntimeStats()
        for name, value in asdict(self).items():
            if isinstance(value, str):
                setattr(merged, name, value or getattr(other, name))
            else:
                setattr(merged, name, value + getattr(other, name))
        return merged

    @property
    def any_degradation(self) -> bool:
        return any(
            value
            for value in asdict(self).values()
            if not isinstance(value, str)
        )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    def __str__(self) -> str:
        nonzero = {
            k: v for k, v in asdict(self).items() if v and not isinstance(v, str)
        }
        return "clean" if not nonzero else ", ".join(
            f"{k}={v}" for k, v in nonzero.items()
        )
