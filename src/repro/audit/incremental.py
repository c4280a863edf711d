"""Incremental streaming audits: K-preserving prefix states (Prop 3.10).

The batched engine made *one* audit run cheap; this module makes the
*next* run cheap.  An :class:`IncrementalAuditor` treats the disclosure
log as a stream: it remembers which prefix it has already consumed, keeps
one :class:`UserCompositionState` per user — the running disclosed
intersection, whether the Proposition 3.10 composition invariant still
holds, and the last safe prefix length — and prices an appended event at
one ``is_preserving_*`` check plus one engine decision.

Two reuse layers stack:

1. **Across calls in one process** — per-event verdicts come from the
   engine's verdict cache; only genuinely new events reach a pipeline.
2. **Across processes** — an attached persistent verdict store (the JSON
   :class:`~repro.audit.store.VerdictStore` or the sharded SQLite
   :class:`~repro.audit.store_sql.SqliteVerdictStore`) replays previous
   runs' decisions from disk — one batched probe per audit — so a cold
   process re-auditing an append-mostly log only decides the appended
   tail.

The fast path is the paper's Proposition 3.10.  Write ``C_t`` for a
user's cumulative disclosed set after ``t`` events.  ``C_0 = Ω`` is
trivially safe and K-preserving; if ``C_t`` is safe and K-preserving and
event ``t+1`` discloses a ``B`` that is itself safe and K-preserving,
then ``C_{t+1} = C_t ∩ B`` is safe (3.10(2)) *and* K-preserving
(3.10(1): preserving sets are closed under intersection) — so the
cumulative verdict is settled without running the full decision pipeline
on ``C_{t+1}``.  The first event that breaks the invariant drops the
user to full engine decisions permanently (sound: the possibilistic
deciders are exact, so a direct decision is never wrong — the fast path
only ever *skips* work the proposition has already done).  The
``fast_path`` knob disables the shortcut outright; it must never change
a verdict (tests assert this).

Definition 3.9 needs no explicit ``K``.  Each possibilistic prior family
means ``K = Ω ⊗ Σ`` for an ∩-closed ``Σ ∋ Ω``
(:func:`~repro.audit.offline.possibilistic_family`), and for such a ``K``
a disclosed ``B`` is K-preserving exactly when ``B = ∅`` or ``B ∈ Σ``:
every ``S ∩ B`` with ``S ∈ Σ`` is then in ``Σ`` by ∩-closure, and
``S = Ω`` forces ``B ∈ Σ`` otherwise.  So the check is one family
membership test on the mask, at any ``n``.  The probabilistic families
have no ``Σ``; their cumulative verdicts all take the engine path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.verdict import AuditVerdict
from ..core.worlds import PropertySet
from ..db.compile import CandidateUniverse
from .log import DisclosureEvent, DisclosureLog
from .offline import AuditReport, EventFinding, possibilistic_family
from .policy import AuditPolicy
from .store import VerdictStoreBase

__all__ = [
    "IncrementalAuditor",
    "UserCompositionState",
]

#: Method tag of cumulative verdicts settled by the composition shortcut.
FAST_PATH_METHOD = "prop-3.10-composition"


@dataclass
class UserCompositionState:
    """One user's running composition, Section 3.3 style.

    ``cumulative`` is ``C_t = B_1 ∩ … ∩ B_t`` — acquiring a sequence of
    disclosures equals acquiring their intersection.  ``fast`` records
    whether the Proposition 3.10 invariant (``C_t`` safe and K-preserving)
    is still established; once it breaks it stays broken.
    ``last_safe_prefix`` is the largest ``t`` with ``C_t`` safe — the
    longest event prefix this user could have been shown without the
    composition becoming unsafe.
    """

    cumulative: PropertySet
    fast: bool = True
    events_seen: int = 0
    last_safe_prefix: int = 0
    fast_path_hits: int = 0
    full_decisions: int = 0
    cumulative_verdict: Optional[AuditVerdict] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "events_seen": self.events_seen,
            "fast": self.fast,
            "last_safe_prefix": self.last_safe_prefix,
            "fast_path_hits": self.fast_path_hits,
            "full_decisions": self.full_decisions,
            "cumulative_status": (
                self.cumulative_verdict.status.value
                if self.cumulative_verdict is not None
                else None
            ),
        }


class IncrementalAuditor:
    """Streaming auditor over an append-mostly disclosure log.

    Parameters mirror :class:`~repro.audit.engine.BatchAuditEngine` (which
    does the per-event deciding); ``store`` attaches a persistent
    verdict store (any :class:`~repro.audit.store.VerdictStoreBase`
    backend) so reuse survives the process,
    and ``fast_path`` gates the Proposition 3.10 composition shortcut for
    cumulative verdicts (never per-event ones — those are always engine
    decisions, cache/store-served when warm).

    :meth:`audit_log` may be called repeatedly with a growing log; the
    auditor consumes only the unseen suffix.  If the log's seen prefix
    *changed* (an event edited or removed), all streaming state is reset
    and the log is re-consumed from the start — correctness never depends
    on the caller appending politely.
    """

    def __init__(
        self,
        universe: CandidateUniverse,
        policy: AuditPolicy,
        store: Optional[VerdictStoreBase] = None,
        fast_path: bool = True,
        decision_budget: Optional[float] = None,
    ) -> None:
        from .engine import BatchAuditEngine

        self._universe = universe
        self._policy = policy
        self.fast_path = fast_path
        self.decision_budget = decision_budget
        self._engine = BatchAuditEngine(
            universe,
            policy,
            decision_budget=decision_budget,
            store=store,
        )
        self._family = possibilistic_family(universe.space, policy.assumption)
        self._consumed: List[DisclosureEvent] = []
        self._findings: List[EventFinding] = []
        self._states: Dict[str, UserCompositionState] = {}
        # Replay memo: (log fingerprint, repr(since)) of the last audit and
        # its report.  An identical replay — same events, same window — is
        # answered from here without touching the engine or the store, so
        # probing a store twice for the same question costs one probe.
        self._last_audit_key: Optional[tuple] = None
        self._last_report: Optional[AuditReport] = None

    @property
    def engine(self):
        return self._engine

    @property
    def store(self) -> Optional[VerdictStoreBase]:
        return self._engine.store

    @property
    def policy(self) -> AuditPolicy:
        return self._policy

    @property
    def states(self) -> Dict[str, UserCompositionState]:
        """Per-user composition states (read-only by convention)."""
        return self._states

    def user_state(self, user: str) -> UserCompositionState:
        state = self._states.get(user)
        if state is None:
            raise KeyError(f"no disclosures consumed for {user!r}")
        return state

    def cumulative_verdict(self, user: str) -> AuditVerdict:
        """The verdict on everything ``user`` has learned so far."""
        verdict = self.user_state(user).cumulative_verdict
        if verdict is None:  # pragma: no cover - set on first consumed event
            raise KeyError(f"no cumulative verdict for {user!r}")
        return verdict

    def reset(self) -> None:
        """Forget all streaming state (the engine's caches survive)."""
        self._consumed = []
        self._findings = []
        self._states = {}
        self._last_audit_key = None
        self._last_report = None

    # -- streaming -----------------------------------------------------------------

    def _is_extension(self, events: List[DisclosureEvent]) -> bool:
        if len(events) < len(self._consumed):
            return False
        return events[: len(self._consumed)] == self._consumed

    def _is_preserving(self, disclosed: PropertySet) -> bool:
        """Definition 3.9 for ``K = Ω ⊗ Σ``: ``B = ∅`` or ``B ∈ Σ``.

        ``False`` when the assumption has no family ``Σ`` (the
        probabilistic priors): the fast path is an optimisation, never a
        correctness dependency.
        """
        family = self._family
        return family is not None and (not disclosed or disclosed in family)

    def _consume(self, event: DisclosureEvent, finding: EventFinding) -> None:
        """Fold one audited event into its user's composition state."""
        state = self._states.get(event.user)
        if state is None:
            state = self._states[event.user] = UserCompositionState(
                cumulative=self._universe.space.full
            )
        state.cumulative = state.cumulative & finding.disclosed_set
        state.events_seen += 1
        if (
            self.fast_path
            and state.fast
            and finding.verdict.is_safe
            and self._is_preserving(finding.disclosed_set)
        ):
            # Proposition 3.10: C_t safe+preserving, B safe+preserving ⇒
            # C_{t+1} = C_t ∩ B safe (3.10(2)) and preserving (3.10(1)).
            state.fast_path_hits += 1
            state.cumulative_verdict = AuditVerdict.safe(
                FAST_PATH_METHOD,
                events=state.events_seen,
                user=event.user,
            )
        else:
            outcome = self._engine.decide_one(state.cumulative)
            state.fast = False
            state.full_decisions += 1
            state.cumulative_verdict = outcome.verdict
        if state.cumulative_verdict.is_safe:
            state.last_safe_prefix = state.events_seen
        self._consumed.append(event)
        self._findings.append(finding)

    def append(
        self,
        event: DisclosureEvent,
        budget_seconds: Optional[float] = None,
        pinned: bool = False,
    ) -> EventFinding:
        """Consume one appended event and return its finding, synchronously.

        The single-event streaming entry the online gateway decides each
        disclosure through *before* release: compile the query (memoised),
        decide the pair through cache → store → pipeline, fold the event
        into its user's composition state, and return the finding.  The
        cumulative verdict is then available via :meth:`cumulative_verdict`.
        Verdict statuses are identical to :meth:`audit_log` consuming the
        same events — this entry changes when decisions happen (one at a
        time, before each release), never what they are.

        ``budget_seconds`` overrides the auditor's ``decision_budget`` for
        this one decision (the gateway threads each request's remaining
        admission deadline through here); ``pinned`` forces the
        deterministic exact path (the gateway sets it while a tenant's
        keyed circuit breaker is open).  The caller owns flush cadence:
        like :meth:`~repro.audit.engine.BatchAuditEngine.decide_one`, this
        writes through to an attached store without flushing.
        """
        self._engine.decision_budget = (
            budget_seconds if budget_seconds is not None else self.decision_budget
        )
        try:
            disclosed = self._engine.compile_query(event.query)
            outcome = self._engine.decide_one(disclosed, pinned=pinned)
            finding = EventFinding(
                event=event,
                disclosed_set=disclosed,
                verdict=outcome.verdict,
                outcome=outcome,
            )
            # _consume may run a cumulative decision too; it shares the
            # request's budget (the deadline covers the whole decision).
            self._consume(event, finding)
        finally:
            self._engine.decision_budget = self.decision_budget
        # The replay memo keys on (log fingerprint, since); a direct append
        # changes the consumed prefix, so any memoised report is stale.
        self._last_audit_key = None
        self._last_report = None
        return finding

    def append_decided(
        self,
        event: DisclosureEvent,
        disclosed: "PropertySet",
        outcome,
        budget_seconds: Optional[float] = None,
    ) -> EventFinding:
        """Fold one event whose per-event decision was already made.

        The batched counterpart of :meth:`append`: the gateway's decision
        loop decides a whole admission batch through
        :meth:`~repro.audit.engine.BatchAuditEngine.decide_many` (one
        store probe for the batch), then folds each event here in
        admission order.  Identical composition semantics — only *where*
        the per-event outcome came from changes; the cumulative decision
        inside the fold still runs through this auditor's engine
        (cache-warm after the batch pass).  ``budget_seconds`` covers the
        cumulative decision, mirroring :meth:`append`.
        """
        self._engine.decision_budget = (
            budget_seconds if budget_seconds is not None else self.decision_budget
        )
        try:
            finding = EventFinding(
                event=event,
                disclosed_set=disclosed,
                verdict=outcome.verdict,
                outcome=outcome,
            )
            self._consume(event, finding)
        finally:
            self._engine.decision_budget = self.decision_budget
        self._last_audit_key = None
        self._last_report = None
        return finding

    def audit_log(
        self, log: DisclosureLog, since: Optional[object] = None
    ) -> AuditReport:
        """Audit the log's unseen suffix; report events at/after ``since``.

        Per-event verdict statuses are identical to
        :meth:`~repro.audit.offline.OfflineAuditor.audit_log_serial` over
        the same events — the streaming machinery changes where verdicts
        come from (cache, store, Prop 3.10), never what they are.

        Probing is idempotent per ``(log fingerprint, since)``: replaying
        the identical log with the identical window returns the memoised
        report outright — no engine pass, no store probe, no flush.
        """
        audit_key = (log.fingerprint(), repr(since))
        if audit_key == self._last_audit_key and self._last_report is not None:
            return self._last_report
        events = list(log)
        if not self._is_extension(events):
            self.reset()
        new_events = events[len(self._consumed) :]

        self._engine.decision_budget = self.decision_budget
        if new_events:
            suffix_report = self._engine.audit_log(DisclosureLog(new_events))
            # DisclosureLog re-sorts, but the suffix of an already-sorted
            # log keeps its order, so findings align with new_events.
            for finding in suffix_report.findings:
                self._consume(finding.event, finding)
        # decide_one writes through to the store without flushing; one
        # atomic flush per streaming call keeps the on-disk generation
        # consistent with everything consumed so far.
        self._engine.flush_store()

        if since is None:
            findings = list(self._findings)
        else:
            findings = [f for f in self._findings if f.event.time >= since]
        report = AuditReport(
            policy=self._policy,
            findings=findings,
            cache_stats=self._engine.cache.stats(),
            runtime_stats=self._engine.runtime_stats,
            store_stats=(
                self._engine.store.stats
                if self._engine.store is not None
                else None
            ),
        )
        self._last_audit_key = audit_key
        self._last_report = report
        return report
