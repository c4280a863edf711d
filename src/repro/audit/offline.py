"""The end-to-end offline (retroactive) auditor — the paper's motivating app.

Given a candidate universe (database + relevant records), an audit policy,
and a disclosure log, the :class:`OfflineAuditor`:

1. compiles the audit query to ``A ⊆ {0,1}^n`` and each logged query's
   *answer* to a disclosed set ``B`` (the equal-output knowledge set);
2. discards events inconsistent with the actual world;
3. runs the appropriate decision pipeline for the policy's prior family;
4. returns a per-event, per-user report with witnesses attached — "the
   audit will place the suspicion on Mallory, but not on Alice and Cindy."

Audit results are never shown to users, so (unlike online auditing) the
auditor's behaviour discloses nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.verdict import AuditVerdict, Verdict
from ..core.worlds import PropertySet, WorldSpace
from ..db.compile import CandidateUniverse
from ..exceptions import PolicyError
from ..perf import CacheStats
from ..possibilistic.auditor import PossibilisticAuditor
from ..possibilistic.families import (
    ExplicitFamily,
    KnowledgeFamily,
    PowerSetFamily,
    SubcubeFamily,
)
from ..probabilistic.auditor import (
    ProbabilisticAuditor,
    SupermodularAuditor,
    audit_unconstrained,
)
from ..runtime.outcome import DecisionOutcome, RuntimeStats
from .log import DisclosureEvent, DisclosureLog
from .policy import AuditPolicy, PriorAssumption
from .store import StoreStats, VerdictStoreBase


def possibilistic_family(
    space: WorldSpace, assumption: PriorAssumption
) -> Optional[KnowledgeFamily]:
    """The ∩-closed family ``Σ`` a possibilistic assumption means.

    The auditor's knowledge is ``K = Ω ⊗ Σ`` (Definition 2.5): power set for
    ``possibilistic-unrestricted``, subcubes for ``possibilistic-subcubes``,
    ``{Ω}`` for ``possibilistic-ignorant``.  ``None`` for the probabilistic
    assumptions.  Every family here contains ``Ω``, so a disclosed set ``B``
    is K-preserving (Definition 3.9) exactly when ``B = ∅`` or ``B ∈ Σ``.
    """
    if assumption is PriorAssumption.POSSIBILISTIC_SUBCUBES:
        return SubcubeFamily(space)
    if assumption is PriorAssumption.POSSIBILISTIC_UNRESTRICTED:
        return PowerSetFamily(space)
    if assumption is PriorAssumption.POSSIBILISTIC_IGNORANT:
        return ExplicitFamily(space, [space.full])
    return None


def make_decider(
    space: WorldSpace,
    assumption: PriorAssumption,
    rng: Optional[np.random.Generator] = None,
    atol: Optional[float] = None,
    use_sos: bool = False,
    exact_only: bool = False,
):
    """Build the ``Safe_K(A, B)`` decision callable for one prior family.

    Standalone so both the per-event :class:`OfflineAuditor` path and the
    batched :class:`~repro.audit.engine.BatchAuditEngine` construct
    identical pipelines.

    ``use_sos`` enables the sum-of-squares certificate stage of the
    product-family pipeline.  ``exact_only`` pins that pipeline to its
    deterministic path (criteria + Bernstein branch-and-bound, no
    randomized optimizer, no certificate) — the degraded configuration the
    engine's circuit breaker falls back to; it is sound and, within the
    exact stage's dimension limit, verdict-identical.  Both flags are
    ignored by the other families.  The product and log-supermodular
    deciders additionally accept a ``budget=`` keyword (a
    :class:`~repro.runtime.Budget`) bounding the decision's wall clock.
    """
    rng = rng or np.random.default_rng(0)
    if assumption is PriorAssumption.PRODUCT:
        kwargs = {} if atol is None else {"atol": atol}
        return ProbabilisticAuditor(
            space,
            rng=rng,
            use_sos=use_sos and not exact_only,
            use_optimizer=not exact_only,
            **kwargs,
        ).audit
    if assumption is PriorAssumption.LOG_SUPERMODULAR:
        return SupermodularAuditor(space, rng=rng).audit
    if assumption is PriorAssumption.UNRESTRICTED:
        return audit_unconstrained
    family = possibilistic_family(space, assumption)
    if family is None:
        raise PolicyError(f"unsupported assumption {assumption}")
    return PossibilisticAuditor.from_family(space.full, family).audit


@dataclass(frozen=True)
class EventFinding:
    """The audit outcome for one disclosure event.

    ``outcome`` carries the decision's runtime provenance (stages run,
    degradation flags, retries) when the finding came from the batched
    engine; the per-event reference path leaves it ``None``.
    """

    event: DisclosureEvent
    disclosed_set: PropertySet
    verdict: AuditVerdict
    outcome: Optional[DecisionOutcome] = None

    @property
    def suspicious(self) -> bool:
        return self.verdict.is_unsafe

    @property
    def degraded(self) -> bool:
        """Whether the decision left its normal path (see the outcome)."""
        return self.outcome is not None and self.outcome.degraded

    def describe(self) -> str:
        return f"{self.event.describe()}  →  {self.verdict}"


@dataclass
class AuditReport:
    """All findings of one audit run, grouped per user.

    ``cache_stats`` carries the engine's verdict-cache hit/miss counters
    when the report was produced by the batched path (``None`` otherwise);
    ``runtime_stats`` likewise carries the engine's resilience counters
    (breaker trips, budget expiries, store failures) — all zeros
    on a clean run.  ``store_stats`` is the persistent verdict store's
    counters when one was attached (``None`` otherwise).
    """

    policy: AuditPolicy
    findings: List[EventFinding] = field(default_factory=list)
    cache_stats: Optional[CacheStats] = None
    runtime_stats: Optional[RuntimeStats] = None
    store_stats: Optional[StoreStats] = None

    @property
    def degraded_findings(self) -> List[EventFinding]:
        return [f for f in self.findings if f.degraded]

    @property
    def suspicious_users(self) -> Tuple[str, ...]:
        return tuple(
            sorted({f.event.user for f in self.findings if f.suspicious})
        )

    @property
    def cleared_users(self) -> Tuple[str, ...]:
        suspicious = set(self.suspicious_users)
        return tuple(
            sorted(
                {f.event.user for f in self.findings} - suspicious
            )
        )

    def for_user(self, user: str) -> List[EventFinding]:
        return [f for f in self.findings if f.event.user == user]

    def counts(self) -> Dict[str, int]:
        """Per-status finding counts, keyed by status value.

        Every :class:`~repro.core.verdict.Verdict` member is present (zero
        when unseen); statuses outside the enum are counted under their own
        key rather than raising.
        """
        result = {status.value: 0 for status in Verdict}
        for finding in self.findings:
            status = finding.verdict.status
            key = status.value if isinstance(status, Verdict) else str(status)
            result[key] = result.get(key, 0) + 1
        return result


class OfflineAuditor:
    """Retroactive auditor over a candidate universe and a policy."""

    def __init__(
        self,
        universe: CandidateUniverse,
        policy: AuditPolicy,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self._universe = universe
        self._policy = policy
        self._rng = rng or np.random.default_rng(0)
        self._audited = universe.compile_boolean(policy.audit_query)
        self._decider = self._build_decider()
        self._engine = None  # lazy BatchAuditEngine, reused across audit_log calls
        self._incremental = None  # lazy IncrementalAuditor (streaming entry point)

    @property
    def universe(self) -> CandidateUniverse:
        return self._universe

    @property
    def policy(self) -> AuditPolicy:
        return self._policy

    @property
    def audited_set(self) -> PropertySet:
        """The compiled audit property ``A``."""
        return self._audited

    def _build_decider(self):
        return make_decider(
            self._universe.space, self._policy.assumption, rng=self._rng
        )

    # -- auditing ------------------------------------------------------------------

    def disclosed_set(self, event: DisclosureEvent) -> PropertySet:
        """Compile the event's *answer* into the disclosed property ``B``."""
        return self._universe.compile_answer(event.query)

    def audit_event(self, event: DisclosureEvent) -> EventFinding:
        disclosed = self.disclosed_set(event)
        verdict = self._decider(self._audited, disclosed)
        return EventFinding(event=event, disclosed_set=disclosed, verdict=verdict)

    def audit_prospective(self, query) -> AuditVerdict:
        """Pre-disclosure check: would answering ``query`` truthfully be safe?

        Compiles the query's actual answer set and runs the policy's
        decision pipeline — the bridge toward the online setting the
        paper's conclusion points at (without modelling strategy knowledge;
        see :mod:`repro.audit.online` for that dynamic).
        """
        disclosed = self._universe.compile_answer(query)
        return self._decider(self._audited, disclosed)

    def audit_event_at(self, event: DisclosureEvent, actual_world: int) -> EventFinding:
        """Audit an event against a *historical* database state.

        Old disclosures answered queries about old states; the auditor
        reconstructs ``ω*`` at disclosure time (e.g. from update logs,
        Section 2) and compiles the answer set from that world.
        """
        disclosed = self._universe.compile_answer(
            event.query, actual_world=actual_world
        )
        verdict = self._decider(self._audited, disclosed)
        return EventFinding(event=event, disclosed_set=disclosed, verdict=verdict)

    def audit_log(
        self,
        log: DisclosureLog,
        decision_budget: Optional[float] = None,
    ) -> AuditReport:
        """Audit every event of the log against the policy's audit query.

        Delegates to the batched :class:`~repro.audit.engine.BatchAuditEngine`:
        each unique query answer is compiled once and each unique ``(A, B)``
        decision runs once (memoised across calls on this auditor).
        Verdict statuses are identical to the per-event path; see the engine
        docs for the one caveat on optimiser witnesses.

        ``decision_budget`` bounds each decision's wall clock in seconds
        (``None`` = unlimited); on expiry the pipeline degrades soundly
        (see :class:`~repro.runtime.Budget`) and the report's
        ``runtime_stats`` record the expiries — no exception escapes.
        """
        from .engine import BatchAuditEngine

        if self._engine is None:
            self._engine = BatchAuditEngine(self._universe, self._policy)
        self._engine.decision_budget = decision_budget
        return self._engine.audit_log(log)

    def audit_log_incremental(
        self,
        log: DisclosureLog,
        since: Optional[int] = None,
        store: Optional[VerdictStoreBase] = None,
        decision_budget: Optional[float] = None,
    ) -> AuditReport:
        """Audit the log as a stream, reusing everything already decided.

        The streaming entry point for append-mostly logs: a lazily built
        :class:`~repro.audit.incremental.IncrementalAuditor` keeps per-user
        composition state across calls on this auditor, so re-auditing a log
        that grew by a few events costs roughly the new events — and with a
        persistent ``store`` the warm part of a *cold* process is priced the
        same way.  Verdict statuses are identical to :meth:`audit_log_serial`
        (the equivalence suite in ``tests/audit/test_incremental.py`` checks
        cold, warm, ``since`` and corrupted-store runs).

        ``since`` restricts the report to events with ``time >= since``
        (``None`` reports the whole log); earlier events still feed the
        per-user cumulative states.
        """
        from .incremental import IncrementalAuditor

        if self._incremental is None or self._incremental.store is not store:
            self._incremental = IncrementalAuditor(
                self._universe,
                self._policy,
                store=store,
                decision_budget=decision_budget,
            )
        self._incremental.decision_budget = decision_budget
        return self._incremental.audit_log(log, since=since)

    def audit_log_serial(self, log: DisclosureLog) -> AuditReport:
        """The original one-event-at-a-time loop (no dedupe, no cache).

        Kept as the reference implementation: benchmarks measure the batched
        engine against it, and tests assert verdict equivalence.
        """
        report = AuditReport(policy=self._policy)
        for event in log:
            report.findings.append(self.audit_event(event))
        return report

    def audit_user_cumulative(
        self, log: DisclosureLog, user: str
    ) -> EventFinding:
        """Audit the *conjunction* of everything one user learned.

        Acquisition of ``B₁`` then ``B₂`` equals acquiring ``B₁ ∩ B₂``
        (Section 3.3): even individually safe disclosures may be jointly
        unsafe unless preservation applies (Proposition 3.10 / Remark 4.2).
        """
        events = list(log.for_user(user))
        if not events:
            raise ValueError(f"no disclosures logged for {user!r}")
        combined = self._universe.space.full
        for event in events:
            combined = combined & self.disclosed_set(event)
        verdict = self._decider(self._audited, combined)
        summary = DisclosureEvent(
            time=events[-1].time,
            user=user,
            query=events[-1].query,
            note=f"cumulative over {len(events)} disclosures",
        )
        return EventFinding(event=summary, disclosed_set=combined, verdict=verdict)
