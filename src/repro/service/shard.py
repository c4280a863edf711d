"""Per-tenant audit shards and the manager that recovers them.

A :class:`TenantShard` is one tenant's complete decision state: its own
:class:`~repro.audit.incremental.IncrementalAuditor` (per-user Prop 3.10
composition states), its own append-only :class:`~repro.service.journal.
EventJournal`, and its own keyed circuit breaker — while the *verdict
store* is shared across every tenant, because a verdict keys on (policy,
universe, disclosed set) and is tenant-independent: clinic B re-asking
clinic A's question should hit the store, not re-run the pipeline.

The discipline that makes crash recovery work is **journal before
decide**: the journal *is* the tenant's disclosure log.  After any crash
(a real ``kill -9``, or the ``journal-torn-write`` chaos site), replaying
the journal's intact prefix through a scratch auditor reproduces every
verdict that was ever issued, bit-identically — torn tails correspond to
verdicts that were never returned, hence answers that were never
released.  :class:`ShardManager` performs that replay on startup for every
journal it finds, and again (lazily, on the tenant's next request) for a
shard that crashed while the gateway stayed up.
"""

from __future__ import annotations

import pathlib
import urllib.parse
from typing import Any, Dict, Optional, Union

from ..audit.engine import BatchAuditEngine
from ..audit.incremental import IncrementalAuditor
from ..audit.log import DisclosureEvent, DisclosureLog
from ..audit.policy import AuditPolicy
from ..audit.store import VerdictStoreBase
from ..db.compile import CandidateUniverse
from ..db.sql import parse_boolean_query
from ..exceptions import QueryError
from ..runtime import BreakerRegistry, faults
from ..runtime.outcome import RuntimeStats
from .commit import GROUP_COMMIT_FILENAME, GroupCommitLog
from .journal import EventJournal, JournalRecord, JournalTornWriteError
from .protocol import (
    DecisionRequest,
    error_response,
    verdict_response,
)
from .stats import GatewayStats, TenantStats

__all__ = ["ShardManager", "TenantShard"]

_JOURNAL_SUFFIX = ".journal"


def journal_filename(tenant: str) -> str:
    """A filesystem-safe, *reversible* filename for a tenant's journal.

    Percent-encoding keeps arbitrary tenant ids (slashes, dots, unicode)
    out of the path namespace while letting startup recovery map files
    back to tenants without a sidecar index.
    """
    return urllib.parse.quote(tenant, safe="") + _JOURNAL_SUFFIX


def tenant_of_journal(filename: str) -> Optional[str]:
    if not filename.endswith(_JOURNAL_SUFFIX):
        return None
    return urllib.parse.unquote(filename[: -len(_JOURNAL_SUFFIX)])


class TenantShard:
    """One tenant's auditor + journal + breaker, decided synchronously.

    All methods run in the event-loop thread (decisions are CPU-bound and
    the store's SQLite connections are thread-affine); isolation between
    tenants is the server's per-tenant queues, not threads.
    """

    def __init__(
        self,
        tenant: str,
        universe: CandidateUniverse,
        policy: AuditPolicy,
        journal_path: Union[str, pathlib.Path],
        store: Optional[VerdictStoreBase],
        breakers: BreakerRegistry,
        stats: TenantStats,
        decision_budget: Optional[float] = None,
    ) -> None:
        self.tenant = tenant
        self.journal = EventJournal(journal_path)
        self.breaker = breakers.for_key(tenant)
        self.stats = stats
        self.auditor = IncrementalAuditor(
            universe,
            policy,
            store=store,
            decision_budget=decision_budget,
        )
        #: Set when a journal append crashed mid-frame; every entry point
        #: recovers (replay + truncate) before touching the journal again.
        self.crashed = False

    # -- recovery ----------------------------------------------------------

    def recover(self, extra_records=()) -> int:
        """Replay the journal's intact prefix into a fresh auditor state.

        Returns the number of events recovered.  Sound by the journal's
        ordering contract: every record predates its verdict, so replaying
        records reissues exactly the verdicts that were issued before the
        crash — served from the shared store when warm, recomputed
        (identically: the deciders are deterministic) when not.

        ``extra_records`` carries this tenant's slice of the shared
        group-commit log (the batched decision plane journals there); the
        merged record set audits as one log ordered by event time, so
        recovery is source-agnostic.  A retried event journaled twice (a
        torn commit round salvaged a prefix) folds twice — harmless, the
        cumulative composition is an idempotent intersection.
        """
        result = self.journal.replay(repair=True)
        events = []
        for record in list(result.records) + list(extra_records):
            events.append(
                DisclosureEvent(
                    time=record.time,
                    user=record.user,
                    query=parse_boolean_query(record.query_text),
                    note=record.note,
                )
            )
        self.auditor.reset()
        if events:
            self.auditor.audit_log(DisclosureLog(events))
        self.stats.recoveries += 1
        self.stats.replayed_events += len(events)
        if result.torn:
            self.stats.torn_tails_dropped += 1
        self.crashed = False
        return len(events)

    # -- deciding ----------------------------------------------------------

    def decide(
        self, request: DecisionRequest, budget_seconds: Optional[float] = None
    ) -> Dict[str, Any]:
        """Journal, decide, and gate one disclosure; returns the response.

        Never raises: malformed queries and journal crashes come back as
        typed error responses (the connection survives; the breaker hears
        about the failure), and a crashed shard self-heals by replay at
        the top of the next call.
        """
        if self.crashed:
            self.recover()
        try:
            query = parse_boolean_query(request.query_text)
        except QueryError as exc:
            self.breaker.record_failure()
            return error_response(request.request_id, f"bad query: {exc}")
        # The keyed breaker gates the *fragile* path, not admission: while
        # open, this tenant's decisions are pinned to the deterministic
        # exact pipeline (sound, verdict-identical) — neighbours' breakers
        # never hear about it.
        pinned = not self.breaker.allow()
        record = JournalRecord(
            user=request.user,
            time=request.time,
            query_text=request.query_text,
            note=request.note,
        )
        try:
            self.journal.append(record)
        except JournalTornWriteError as exc:
            # The shard is now "crashed": its on-disk tail is torn and its
            # in-memory state is ahead of nothing (the event was never
            # decided).  Heal lazily so the *next* request pays the replay.
            self.crashed = True
            self.breaker.record_failure()
            return error_response(
                request.request_id, f"journal crash (will recover): {exc}"
            )
        self.stats.journal_appends += 1
        return self.finish(request, query, pinned, budget_seconds=budget_seconds)

    def finish(
        self,
        request: DecisionRequest,
        query,
        pinned: bool,
        budget_seconds: Optional[float] = None,
        disclosed=None,
        outcome=None,
    ) -> Dict[str, Any]:
        """The decide tail after the record is durable: fold and respond.

        Shared by the synchronous :meth:`decide` path (``outcome=None`` —
        the auditor decides the event itself) and the batched executor,
        which pre-decides a whole admission batch through
        :meth:`~repro.audit.engine.BatchAuditEngine.decide_many` and hands
        each event's outcome in here for the fold.  Either way the caller
        has already journaled the record — **journal before decide** is
        the caller's obligation, this method only ever runs after it.
        """
        event = DisclosureEvent(
            time=request.time,
            user=request.user,
            query=query,
            note=request.note,
        )
        if outcome is None:
            finding = self.auditor.append(
                event, budget_seconds=budget_seconds, pinned=pinned
            )
        else:
            finding = self.auditor.append_decided(
                event, disclosed, outcome, budget_seconds=budget_seconds
            )
        if pinned:
            self.stats.pinned += 1
        cumulative = self.auditor.cumulative_verdict(request.user)
        outcome = finding.outcome
        # The breaker's failure signal is "this tenant's requests keep not
        # resolving" (malformed queries, budget exhaustion): UNKNOWN counts
        # as a failure, decided verdicts as success.  A *pinned* decision
        # records neither — the protected (unpinned) path never ran, so the
        # breaker sits out its count-based recovery window before probing,
        # exactly like the engine's certificate-stage breaker.
        if not pinned:
            if finding.verdict.is_decided and cumulative.is_decided:
                self.breaker.record_success()
            else:
                self.breaker.record_failure()
        self.stats.breaker_state = self.breaker.state.value
        response = verdict_response(
            request.request_id,
            status=finding.verdict.status.value,
            cumulative_status=cumulative.status.value,
            method=finding.verdict.method,
            provenance=list(outcome.stages) if outcome is not None else [],
            degraded=bool(outcome is not None and outcome.degraded),
            elapsed_ms=(outcome.elapsed if outcome is not None else 0.0) * 1000.0,
        )
        self.stats.record_decision(
            response["decision"], response["degraded"], response["elapsed_ms"]
        )
        return response

    def close(self) -> None:
        self.journal.close()


class ShardManager:
    """Creates, recovers, and flushes the gateway's tenant shards."""

    def __init__(
        self,
        universe: CandidateUniverse,
        policy: AuditPolicy,
        journal_dir: Union[str, pathlib.Path],
        store: Optional[VerdictStoreBase] = None,
        breakers: Optional[BreakerRegistry] = None,
        gateway_stats: Optional[GatewayStats] = None,
        decision_budget: Optional[float] = None,
    ) -> None:
        self.universe = universe
        self.policy = policy
        self.journal_dir = pathlib.Path(journal_dir)
        self.store = store
        self.breakers = breakers if breakers is not None else BreakerRegistry()
        self.gateway_stats = (
            gateway_stats if gateway_stats is not None else GatewayStats()
        )
        self.decision_budget = decision_budget
        self._shards: Dict[str, TenantShard] = {}
        # The shared decision engine: verdicts key on (policy, universe,
        # disclosed set) and are tenant-independent, so its verdict cache
        # and compiled-query memo are shared by every tenant shard
        # (ablation-sibling style) — one tenant's cold decision warms
        # every neighbour, in memory, without a store round trip.  The batched decision plane also decides
        # whole cross-tenant batches through this engine directly.
        self.engine = BatchAuditEngine(
            universe,
            policy,
            decision_budget=decision_budget,
            store=store,
        )
        #: The shared group-commit log (one fsync per decision round, all
        #: tenants).  The file only exists once the batched decision plane
        #: has appended; the synchronous per-tenant path keeps using the
        #: tenant's own journal.
        self.commit_log = GroupCommitLog(
            self.journal_dir / GROUP_COMMIT_FILENAME
        )
        #: This tenant's yet-unreplayed slice of the group-commit log,
        #: loaded (and healed) exactly once per manager; ``None`` = not
        #: loaded yet.  Loading is lazy so a manager over a fresh
        #: directory never creates the file.
        self._wal_pending: Optional[Dict[str, list]] = None
        # query text → parsed query (or the QueryError it raised): the
        # wire sends textual queries, so the batched path would otherwise
        # re-parse every event of every batch.
        self._parse_memo: Dict[str, Any] = {}

    def parse_query(self, text: str):
        """Parse one wire-format query, memoised by exact text.

        Failures are memoised too (re-raised per call): a tenant
        re-sending the same malformed query still sees an error — and
        still feeds its breaker — without re-running the parser.
        """
        cached = self._parse_memo.get(text)
        if cached is None:
            try:
                cached = parse_boolean_query(text)
            except QueryError as exc:
                cached = exc
            self._parse_memo[text] = cached
        if isinstance(cached, QueryError):
            raise cached
        return cached

    def _wal_records(self, tenant: str) -> list:
        """Pop the tenant's group-commit records pending replay (once)."""
        if self._wal_pending is None:
            if self.commit_log.path.exists():
                self._wal_pending = self.commit_log.replay(
                    repair=True
                ).by_tenant()
            else:
                self._wal_pending = {}
        return self._wal_pending.pop(tenant, [])

    def shard(self, tenant: str) -> TenantShard:
        """The tenant's shard, created (and journal-recovered) on first use."""
        shard = self._shards.get(tenant)
        if shard is None:
            shard = self._make_shard(tenant)
            wal_records = self._wal_records(tenant)
            if shard.journal.path.exists() or wal_records:
                shard.recover(extra_records=wal_records)
            self._shards[tenant] = shard
        return shard

    def _make_shard(self, tenant: str) -> TenantShard:
        shard = TenantShard(
            tenant,
            self.universe,
            self.policy,
            journal_path=self.journal_dir / journal_filename(tenant),
            store=self.store,
            breakers=self.breakers,
            stats=self.gateway_stats.tenant(tenant),
            decision_budget=self.decision_budget,
        )
        # Share the tenant-independent decision state with the manager's
        # engine, exactly like audit_ablation shares it across siblings.
        engine = shard.auditor.engine
        engine._cache = self.engine._cache
        engine._compiled = self.engine._compiled
        engine._compile_stats = self.engine._compile_stats
        return shard

    def recover_all(self) -> Dict[str, int]:
        """Startup recovery: replay every journal found on disk.

        Returns ``{tenant: events_recovered}``.  Called once before the
        gateway starts accepting, so a restart after ``kill -9`` serves
        its first request from exactly the pre-crash verdict state.  Both
        journal sources replay here: each tenant's own ``*.journal`` file
        and its slice of the shared group-commit log, merged by event
        time.
        """
        recovered: Dict[str, int] = {}
        if not self.journal_dir.exists():
            return recovered
        tenants = set()
        for path in sorted(self.journal_dir.iterdir()):
            tenant = tenant_of_journal(path.name)
            if tenant is not None:
                tenants.add(tenant)
        if self.commit_log.path.exists():
            if self._wal_pending is None:
                self._wal_pending = self.commit_log.replay(
                    repair=True
                ).by_tenant()
            tenants.update(self._wal_pending)
        for tenant in sorted(tenants):
            if tenant in self._shards:
                continue
            shard = self._make_shard(tenant)
            recovered[tenant] = shard.recover(
                extra_records=self._wal_records(tenant)
            )
            self._shards[tenant] = shard
        return recovered

    @property
    def tenants(self) -> Dict[str, TenantShard]:
        return dict(self._shards)

    def flush_all(self, draining: bool = False) -> bool:
        """Flush the shared store once; ``False`` when the flush failed.

        The ``drain-flush`` chaos site lives here (probed only on the
        drain path): a failed final flush is *reported* — unflushed
        verdicts degrade to recomputation-from-journal on the next boot —
        but the drain still completes.
        """
        if self.store is None:
            return True
        failures_before = self.store.stats.write_failures
        if draining and faults.fire(faults.DRAIN_FLUSH):
            self.store.stats.write_failures += 1
            self.gateway_stats.flush_failures += 1
            return False
        # The shared engine flushes the shared store and mirrors failures
        # onto RuntimeStats like PR-3 faults.
        self.engine.flush_store()
        failed = self.store.stats.write_failures > failures_before
        if failed:
            self.gateway_stats.flush_failures += 1
        return not failed

    def runtime_stats(self) -> RuntimeStats:
        merged = RuntimeStats().merge(self.engine.runtime_stats)
        for shard in self._shards.values():
            merged = merged.merge(shard.auditor.engine.runtime_stats)
        return merged

    def snapshot(self) -> Dict[str, Any]:
        for tenant, shard in self._shards.items():
            shard.stats.breaker_state = shard.breaker.state.value
        return self.gateway_stats.snapshot(
            runtime=self.runtime_stats(),
            store=self.store.stats if self.store is not None else None,
        )

    def close(self) -> None:
        for shard in self._shards.values():
            shard.close()
        self.commit_log.close()
