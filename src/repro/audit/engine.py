"""The batched audit engine: dedupe → verdict cache → serial decisions.

The seed pipeline audited a disclosure log strictly one event at a time:
every event recompiled its disclosed set and re-ran the full decision
pipeline, even when many log entries shared the same query answer.  Real
logs are heavy with repeats (popular queries are asked again and again), so
the batched engine exploits two layers of reuse before deciding anything:

1. **Batch compilation** — events are grouped by query, and each unique
   query's answer is compiled to its disclosed set ``B`` exactly once
   (``CandidateUniverse.compile_answer`` lowers the query to a formula and
   takes its truth table over the ``2^n`` worlds).
2. **Verdict cache** — decisions are memoised by content fingerprints of
   ``(A, B)`` plus the prior assumption and tolerance, so duplicate
   disclosures in a log (and across successive ``audit_log`` calls) cost
   one decision.  Fingerprints digest each property set's packed bitmask in
   one fixed-width hashlib update (see ``PropertySet.fingerprint``), so key
   construction is cheap even for dense sets.  The cache is the
   bounded-agent move of Halpern–Pucella's *probabilistic algorithmic
   knowledge*: the auditor's knowledge is whatever its resource budget lets
   it recompute — or remember.

Every pair still undecided after the cache and the optional persistent
store is decided in this process, one at a time, by :func:`_decide_task`:
one decision path, whichever entry point (:meth:`BatchAuditEngine.audit_log`,
``decide_many``, ``decide_one``) asked.

On top of the reuse layers sits the **resilience layer**
(:mod:`repro.runtime`), with one invariant: *degradation changes
provenance, never verdicts*.

* ``decision_budget`` gives every decision a monotonic-clock deadline; the
  stage chain polls it and degrades soundly (optional stages skipped, the
  exact stage stops at its next poll, typed UNKNOWN at worst).
* A :class:`~repro.runtime.CircuitBreaker` watches certificate-stage
  failures when ``use_sos`` is on and pins subsequent decisions to the
  deterministic exact path once tripped.
* Every finding carries a :class:`~repro.runtime.DecisionOutcome` — the
  verdict plus its stage provenance and degradation flags — so a chaos run
  (see :mod:`repro.runtime.faults`) is auditable after the fact.

Determinism: every decision runs with a freshly seeded generator, so
results are independent of decision *order*.  This differs from the
per-event path only in which optimiser witness an UNSAFE verdict may carry
(statuses never differ: the randomised stages are backed by deterministic
exact/criteria stages).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import _native

from ..core.verdict import AuditVerdict
from ..core.worlds import PropertySet
from ..db.compile import CandidateUniverse
from ..exceptions import MalformedEventError, QueryError, ReproError
from ..perf import CacheStats
from ..probabilistic.exact import DEFAULT_ATOL
from ..runtime.breaker import CircuitBreaker
from ..runtime.budget import Budget
from ..runtime.outcome import DecisionOutcome, RuntimeStats
from .log import DisclosureLog
from .offline import AuditReport, EventFinding, make_decider
from .policy import AuditPolicy, PriorAssumption
from .store import VerdictStoreBase

__all__ = [
    "BatchAuditEngine",
    "DecisionTask",
    "VerdictCache",
]

#: The one ``Safe_K`` decision backend: every pair is decided on the
#: ``2^n`` world masks its queries compile to.
DECISION_BACKEND = "mask"

#: A verdict-cache key: (A digest, B digest, assumption value, atol).
CacheKey = Tuple[str, str, str, float]

#: Per-process memo of stateless (possibilistic/unrestricted) deciders, so
#: partition structures are built once per (space, family).
_DECIDER_MEMO: Dict[tuple, object] = {}

#: Families whose pipelines draw random restarts; their deciders are rebuilt
#: with a fresh seed per decision to keep results order-independent.
_RANDOMISED = (PriorAssumption.PRODUCT, PriorAssumption.LOG_SUPERMODULAR)


@dataclass(frozen=True)
class DecisionTask:
    """The inputs of one ``Safe_K(A, B)`` decision.

    Budgets deliberately travel as ``budget_seconds`` rather than as a
    live :class:`~repro.runtime.Budget`: :func:`_decide_task` starts the
    clock when the decision starts, so the deadline measures decision
    time, not time spent behind the batch's earlier decisions.  ``pinned``
    forces the deterministic exact path (set by the circuit breaker);
    ``use_sos`` enables the certificate stage.
    """

    assumption_value: str
    atol: float
    audited: PropertySet
    disclosed: PropertySet
    budget_seconds: Optional[float] = None
    use_sos: bool = False
    pinned: bool = False


def _run_pipeline(
    task: DecisionTask,
    assumption: PriorAssumption,
    budget: Budget,
    force_pinned: bool = False,
) -> AuditVerdict:
    """Build the task's decider and run it once."""
    space = task.audited.space
    if assumption in _RANDOMISED:
        decider = make_decider(
            space,
            assumption,
            rng=np.random.default_rng(0),
            atol=task.atol,
            use_sos=task.use_sos,
            exact_only=task.pinned or force_pinned,
        )
        return decider(task.audited, task.disclosed, budget=budget)
    memo_key = (task.assumption_value, type(space).__name__, space._key())
    decider = _DECIDER_MEMO.get(memo_key)
    if decider is None:
        decider = _DECIDER_MEMO[memo_key] = make_decider(space, assumption)
    return decider(task.audited, task.disclosed)


def _outcome_from_verdict(
    task: DecisionTask, verdict: AuditVerdict, retries: int, elapsed: float
) -> DecisionOutcome:
    """Fold the pipeline's provenance details into a typed outcome."""
    details = verdict.details
    flags = tuple(details.get("degraded", ()))
    parts = (("breaker-pinned",) if task.pinned else ()) + flags
    degradation = ";".join(parts) if parts else None
    return DecisionOutcome(
        verdict=verdict,
        stages=tuple(details.get("trace", ())),
        degraded=degradation is not None,
        degradation=degradation,
        retries=retries,
        elapsed=elapsed,
    )


def _decide_task(task: DecisionTask) -> DecisionOutcome:
    """Decide one ``(A, B)`` pair: the engine's only decision path.

    Pipeline errors (injected or real) are retried once on the
    deterministic exact path before surfacing as a typed
    ``UNKNOWN("decision-error")`` — this function never raises a
    :class:`~repro.exceptions.ReproError`.
    """
    started = time.monotonic()
    budget = Budget(task.budget_seconds)
    assumption = PriorAssumption(task.assumption_value)
    try:
        verdict = _run_pipeline(task, assumption, budget)
    except ReproError as exc:
        reason = f"pipeline-error:{type(exc).__name__}"
        try:
            verdict = _run_pipeline(task, assumption, budget, force_pinned=True)
        except ReproError as retry_exc:
            verdict = AuditVerdict.unknown(
                "decision-error",
                error=f"{type(retry_exc).__name__}: {retry_exc}",
            )
        outcome = _outcome_from_verdict(
            task, verdict, retries=1, elapsed=time.monotonic() - started
        )
        return outcome.with_degradation(reason)
    return _outcome_from_verdict(
        task, verdict, retries=0, elapsed=time.monotonic() - started
    )


class VerdictCache:
    """Memo table for ``Safe_K(A, B)`` verdicts.

    Keys are canonical content fingerprints (:meth:`PropertySet.fingerprint`
    digests of ``A`` and ``B``, each one blake2b update over the packed mask
    bytes) plus the assumption and tolerance, so logically identical
    disclosures hit regardless of how their property sets were constructed.
    Hit/miss counters feed the engine's reports;
    a *hit* is any lookup served without scheduling a new decision,
    including duplicates within one batch.
    """

    def __init__(self) -> None:
        self._store: Dict[CacheKey, AuditVerdict] = {}
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key(
        audited: PropertySet,
        disclosed: PropertySet,
        assumption: PriorAssumption,
        atol: float,
    ) -> CacheKey:
        return (
            audited.fingerprint(),
            disclosed.fingerprint(),
            assumption.value,
            float(atol),
        )

    def lookup(self, key: CacheKey) -> Optional[AuditVerdict]:
        """The cached verdict, counting the hit/miss (None on miss)."""
        verdict = self._store.get(key)
        if verdict is None:
            self.misses += 1
        else:
            self.hits += 1
        return verdict

    def contains(self, key: CacheKey) -> bool:
        return key in self._store

    def fetch(self, key: CacheKey) -> AuditVerdict:
        """The cached verdict without touching the counters (KeyError if absent)."""
        return self._store[key]

    def put(self, key: CacheKey, verdict: AuditVerdict) -> None:
        self._store[key] = verdict

    def stats(self) -> CacheStats:
        return CacheStats(hits=self.hits, misses=self.misses)

    def clear(self) -> None:
        self._store.clear()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._store)


class BatchAuditEngine:
    """Batched, memoised, fault-tolerant auditing.

    Parameters
    ----------
    universe, policy:
        As for :class:`~repro.audit.offline.OfflineAuditor`.
    n_workers:
        Must be ``1``: every decision runs in this process.  Any other
        value raises :class:`ValueError`.
    atol:
        Numeric tolerance forwarded to the product-family exact decision and
        part of every verdict-cache key.
    cache:
        An existing :class:`VerdictCache` to share between engines (e.g.
        across assumption ablations); a private one is created by default.
    decision_budget:
        Per-decision deadline in seconds (``None`` = unlimited); each
        decision starts its own clock.
    use_sos:
        Attempt the sum-of-squares certificate stage for product-family
        decisions (the stage the circuit breaker guards).
    breaker:
        The :class:`~repro.runtime.CircuitBreaker` watching certificate
        failures; a default one is created when omitted.
    store:
        An optional persistent verdict store (any
        :class:`~repro.audit.store.VerdictStoreBase` backend — the JSON
        reference store or the sharded SQLite one).  When attached, cache
        misses are resolved through **one** batched
        :meth:`~repro.audit.store.VerdictStoreBase.probe_many` round trip
        per ``audit_log`` call — warm pairs are pruned from the batch
        before any decision runs — and freshly decided verdicts are written
        back and flushed once per call.  Store failures (corrupt loads,
        failed flushes) degrade to recomputation and are counted as
        ``store_failures`` on ``runtime_stats``; they never raise.

    ``runtime_stats`` accumulates the resilience layer's counters across
    ``audit_log`` calls on this engine (like the verdict cache, which also
    persists across calls); every report references the same object.
    """

    def __init__(
        self,
        universe: CandidateUniverse,
        policy: AuditPolicy,
        n_workers: int = 1,
        atol: Optional[float] = None,
        cache: Optional[VerdictCache] = None,
        decision_budget: Optional[float] = None,
        use_sos: bool = False,
        breaker: Optional[CircuitBreaker] = None,
        store: Optional[VerdictStoreBase] = None,
    ) -> None:
        if n_workers != 1:
            raise ValueError(
                f"BatchAuditEngine decides in-process; n_workers must be 1, "
                f"got {n_workers!r}"
            )
        self._universe = universe
        self._policy = policy
        self.decision_budget = decision_budget
        self.use_sos = use_sos
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.runtime_stats = RuntimeStats()
        self._atol = DEFAULT_ATOL if atol is None else float(atol)
        self._cache = cache if cache is not None else VerdictCache()
        self.store = store
        self._audited = universe.compile_boolean(policy.audit_query)
        # query repr → compiled disclosed set (batch-compilation memo)
        self._compiled: Dict[str, PropertySet] = {}
        self._compile_stats = CacheStats()

    @property
    def universe(self) -> CandidateUniverse:
        return self._universe

    @property
    def policy(self) -> AuditPolicy:
        return self._policy

    @property
    def atol(self) -> float:
        return self._atol

    @property
    def cache(self) -> VerdictCache:
        return self._cache

    @property
    def audited_set(self) -> PropertySet:
        return self._audited

    @property
    def compile_stats(self) -> CacheStats:
        """Hit/miss counters of the batch-compilation memo."""
        return self._compile_stats

    # -- batch compilation ---------------------------------------------------------

    def compile_log(self, log: DisclosureLog) -> List[PropertySet]:
        """Disclosed sets of all events, compiling each unique query once.

        Queries are canonicalised by ``repr`` (they are frozen dataclasses
        with deterministic reprs), so re-asked queries — the common case in
        real logs — share one compilation.  A query that does not compile
        against the universe (an unknown table or column, or something that
        is not a :mod:`repro.db` query) raises a
        :class:`~repro.exceptions.MalformedEventError` naming the offending
        event's index, not a bare ``KeyError`` from deep inside the
        compiler.
        """
        sets: List[PropertySet] = []
        for index, event in enumerate(log):
            try:
                sets.append(self.compile_query(event.query))
            except (KeyError, QueryError) as exc:
                raise MalformedEventError(
                    f"query {event.query} does not compile against the "
                    f"universe: {exc}",
                    event_index=index,
                ) from exc
        return sets

    def compile_query(self, query) -> PropertySet:
        """One query's disclosed set, served from the batch-compilation memo.

        The single-query entry behind :meth:`compile_log`, exposed for
        streaming callers (the incremental auditor's per-event ``append``
        and the online gateway) that receive events one at a time but want
        the same memoisation a batch gets.  Raises the compiler's own
        :class:`KeyError`/:class:`~repro.exceptions.QueryError` — callers
        with an event index wrap it in a ``MalformedEventError``.
        """
        query_key = repr(query)
        disclosed = self._compiled.get(query_key)
        if disclosed is None:
            disclosed = self._universe.compile_answer(query)
            self._compiled[query_key] = disclosed
            self._compile_stats.misses += 1
        else:
            self._compile_stats.hits += 1
        return disclosed

    @property
    def decision_backend(self) -> str:
        """The ``Safe_K`` decision backend: always ``"mask"``."""
        return DECISION_BACKEND

    # -- auditing ------------------------------------------------------------------

    def audit_log(self, log: DisclosureLog) -> AuditReport:
        """Audit every event of the log; the batched counterpart of the
        per-event :meth:`OfflineAuditor.audit_log_serial` loop.

        Events resolve through the same cache → store → pipeline path as
        :meth:`decide_many`, and the attached store is flushed once."""
        events = list(log)
        disclosed_sets = self.compile_log(log)
        outcomes = self._resolve(disclosed_sets, pinned=False)
        self.flush_store()
        findings = [
            EventFinding(
                event=event,
                disclosed_set=disclosed,
                verdict=outcome.verdict,
                outcome=outcome,
            )
            for event, disclosed, outcome in zip(events, disclosed_sets, outcomes)
        ]
        return AuditReport(
            policy=self._policy,
            findings=findings,
            cache_stats=self._cache.stats(),
            runtime_stats=self.runtime_stats,
            store_stats=self.store.stats if self.store is not None else None,
        )

    def audit_ablation(
        self, log: DisclosureLog, assumptions: Sequence[PriorAssumption]
    ) -> Dict[PriorAssumption, AuditReport]:
        """Audit one log under several prior families.

        Compiled disclosed sets and the verdict cache are shared across the
        runs, so each family's run decides only the pairs it has not seen
        (a product-family pair that reaches the exact stage builds its own
        gap tensor there).  The runtime knobs (budget, certificate stage,
        breaker) and the stats they feed are shared too, so a fault during
        one family's run is visible in every sibling report.
        """
        reports: Dict[PriorAssumption, AuditReport] = {}
        for assumption in assumptions:
            sibling = BatchAuditEngine(
                self._universe,
                AuditPolicy(
                    audit_query=self._policy.audit_query,
                    assumption=assumption,
                    name=f"{self._policy.name}[{assumption.value}]",
                ),
                atol=self._atol,
                cache=self._cache,
                decision_budget=self.decision_budget,
                use_sos=self.use_sos,
                breaker=self.breaker,
                store=self.store,
            )
            sibling._compiled = self._compiled
            sibling._compile_stats = self._compile_stats
            sibling.runtime_stats = self.runtime_stats
            reports[assumption] = sibling.audit_log(log)
        return reports

    # -- persistent store ----------------------------------------------------------

    def flush_store(self) -> None:
        """Persist the attached store (no-op without one) and tally failures.

        Load and write failures accumulate on the store's own stats; the
        engine mirrors the *new* ones onto ``runtime_stats.store_failures``
        so degradation is visible in every report, PR-3 style.
        """
        if self.store is None:
            return
        self.store.flush()
        failures = (
            self.store.stats.load_failures + self.store.stats.write_failures
        )
        delta = failures - self.store.failures_reported
        if delta > 0:
            self.runtime_stats.store_failures += delta
            self.store.failures_reported = failures

    def decide_one(
        self, disclosed: PropertySet, pinned: bool = False
    ) -> DecisionOutcome:
        """Decide ``Safe_K(A, disclosed)`` through cache → store → pipeline.

        The single-pair entry the incremental layer uses for running-
        intersection fallbacks: same key derivation, breaker gating, budget
        and outcome accounting as the batched path, without building a
        batch.  The caller is responsible for an eventual
        :meth:`flush_store` (the incremental auditor flushes once per
        ``audit_log_incremental`` call).

        ``pinned`` forces the deterministic exact path regardless of the
        breaker — the gateway uses it to pin a misbehaving *tenant* (whose
        keyed breaker is open) without waiting for this engine's own
        certificate-stage breaker to trip.  Sound and verdict-identical,
        like every breaker pin.  Note the cache/store are consulted first:
        a pinned call can still be served an unpinned run's verdict —
        they are interchangeable by the resilience contract.
        """
        self.runtime_stats.native_backend = _native.backend_name()
        self.runtime_stats.decision_backend = DECISION_BACKEND
        key = VerdictCache.key(
            self._audited, disclosed, self._policy.assumption, self._atol
        )
        verdict = self._cache.lookup(key)
        if verdict is not None:
            return DecisionOutcome(verdict=verdict, stages=("verdict-cache",))
        if self.store is not None:
            stored = self.store.get(key)
            if stored is not None:
                self._cache.put(key, stored)
                return DecisionOutcome(verdict=stored, stages=("verdict-store",))
        task = DecisionTask(
            assumption_value=self._policy.assumption.value,
            atol=self._atol,
            audited=self._audited,
            disclosed=disclosed,
            budget_seconds=self.decision_budget,
            use_sos=self.use_sos,
            pinned=pinned,
        )
        outcome = self._decide_batch([task])[0]
        self._cache.put(key, outcome.verdict)
        if self.store is not None:
            self.store.put(key, outcome.verdict)
        return outcome

    def decide_many(
        self, disclosed_sets: Sequence[PropertySet], pinned: bool = False
    ) -> List["DecisionOutcome"]:
        """Decide many ``Safe_K(A, B_i)`` pairs with one store round trip.

        The gateway's micro-batching entry: the same cache → store →
        pipeline path as :meth:`audit_log` — duplicates within the batch
        deduplicate to one decision, cache misses resolve against the
        persistent store in ONE :meth:`~repro.audit.store.VerdictStoreBase.
        probe_many`, and only genuinely cold pairs reach a pipeline — but
        returning per-item :class:`DecisionOutcome`\\ s instead of findings,
        so streaming callers can fold them into composition state in
        admission order.  Outcomes are position-aligned with
        ``disclosed_sets``; items sharing a key share one outcome object,
        exactly like :meth:`audit_log`'s per-key provenance.

        Like :meth:`decide_one`, this writes through to an attached store
        without flushing — the caller owns flush cadence.  ``pinned``
        forces the deterministic exact path for the whole batch (the
        gateway batches pinned tenants separately).
        """
        return self._resolve(disclosed_sets, pinned)

    # -- decision dispatch ---------------------------------------------------------

    def _resolve(
        self, disclosed_sets: Sequence[PropertySet], pinned: bool
    ) -> List[DecisionOutcome]:
        """Cache → store → pipeline for a batch, outcomes position-aligned.

        The in-memory cache is probed per item, then every cache miss is
        resolved against the persistent store in ONE batched round trip —
        the store answers "what do we already know about this batch?" at a
        cost priced by the batch, not per pair.  Only what neither knows
        reaches :meth:`_decide_batch`; fresh verdicts are written through
        to the store without flushing.
        """
        self.runtime_stats.native_backend = _native.backend_name()
        self.runtime_stats.decision_backend = DECISION_BACKEND
        assumption = self._policy.assumption
        keys: List[CacheKey] = []
        cold: Dict[CacheKey, PropertySet] = {}
        for disclosed in disclosed_sets:
            key = VerdictCache.key(self._audited, disclosed, assumption, self._atol)
            keys.append(key)
            if self._cache.contains(key) or key in cold:
                self._cache.hits += 1
                continue
            self._cache.misses += 1
            cold[key] = disclosed
        outcomes: Dict[CacheKey, DecisionOutcome] = {}
        if self.store is not None and cold:
            for key, stored in self.store.probe_many(list(cold)).items():
                self._cache.put(key, stored)
                outcomes[key] = DecisionOutcome(
                    verdict=stored, stages=("verdict-store",)
                )
                del cold[key]
        pending: Dict[CacheKey, DecisionTask] = {
            key: DecisionTask(
                assumption_value=assumption.value,
                atol=self._atol,
                audited=self._audited,
                disclosed=disclosed,
                budget_seconds=self.decision_budget,
                use_sos=self.use_sos,
                pinned=pinned,
            )
            for key, disclosed in cold.items()
        }
        for key, outcome in zip(pending, self._decide_batch(list(pending.values()))):
            self._cache.put(key, outcome.verdict)
            if self.store is not None:
                self.store.put(key, outcome.verdict)
            outcomes[key] = outcome
        results: List[DecisionOutcome] = []
        for key in keys:
            outcome = outcomes.get(key)
            if outcome is None:
                # Decided before this batch: provenance is the cache.
                outcome = DecisionOutcome(
                    verdict=self._cache.fetch(key), stages=("verdict-cache",)
                )
            results.append(outcome)
        return results

    def _apply_breaker(self, task: DecisionTask) -> DecisionTask:
        """Pin the task to the exact path when the breaker refuses its stage.

        Only product-family tasks with the certificate stage enabled are
        ever pinned: the breaker guards that stage specifically, and the
        exact path is verdict-identical only where a complete stage backs
        the ones being skipped.
        """
        if (
            not task.use_sos
            or task.assumption_value != PriorAssumption.PRODUCT.value
        ):
            return task
        if self.breaker.allow():
            return task
        self.runtime_stats.breaker_pinned += 1
        return replace(task, pinned=True)

    def _record_outcome(self, outcome: DecisionOutcome) -> None:
        """Feed the breaker and the run counters from one decision's outcome."""
        stats = self.runtime_stats
        details = outcome.verdict.details
        certificate_stage = details.get("certificate_stage")
        if certificate_stage == "failed":
            stats.certificate_failures += 1
            if self.breaker.record_failure():
                stats.breaker_trips += 1
        elif certificate_stage == "ok":
            self.breaker.record_success()
        degradation = outcome.degradation or ""
        if details.get("budget_exhausted") or "budget" in degradation:
            stats.budget_exhausted += 1
        if outcome.degraded:
            stats.degraded_decisions += 1

    def _decide_batch(self, tasks: List[DecisionTask]) -> List[DecisionOutcome]:
        """Decide the tasks in order, in this process.

        The breaker is fed per decision, so repeated certificate failures
        pin the *rest of this batch* to the exact path.
        """
        outcomes = []
        for task in tasks:
            outcome = _decide_task(self._apply_breaker(task))
            self._record_outcome(outcome)
            outcomes.append(outcome)
        return outcomes
