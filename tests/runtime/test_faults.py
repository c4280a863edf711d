"""Seeded fault-injection suite for the resilience layer.

The contract under test: every injected fault class — solver timeout,
forced SDP nonconvergence, budget exhaustion, failed store writes, a
failed native-kernel load — yields verdict *statuses* identical to a clean
run (budgets may soundly weaken decided verdicts to UNKNOWN, never flip
them), records its degradation on the report's ``runtime_stats`` and
per-finding ``DecisionOutcome``, and never lets an exception escape
``audit_log``.

``REPRO_FAULTS_SEED`` (the ``make chaos-smoke`` matrix) varies the fault
schedules; every assertion here is seed-independent unless it pins its own
seed explicitly.
"""

from __future__ import annotations

import os

import pytest

from repro.audit import (
    AuditPolicy,
    AuditReport,
    BatchAuditEngine,
    DisclosureLog,
    OfflineAuditor,
)
from repro.core.verdict import Verdict
from repro.db import parse_boolean_query
from repro.runtime import CircuitBreaker, faults
from tests.workloads import AUDIT_QUERY, build_mixed_density_log, build_registry

#: Seed for the chaos matrix (varied by `make chaos-smoke`).
ENV_SEED = int(os.environ.get(faults.ENV_SEED, "0"))


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    """No fault plan may leak between tests (or out of this module)."""
    faults.uninstall()
    yield
    faults.uninstall()


@pytest.fixture(scope="module")
def registry():
    return build_registry(background_rows=16)


@pytest.fixture(scope="module")
def mixed_log(registry):
    return build_mixed_density_log(registry, n_events=30, seed=11)


def make_policy(name="faults-test"):
    return AuditPolicy(audit_query=parse_boolean_query(AUDIT_QUERY), name=name)


def statuses(report: AuditReport):
    return [finding.verdict.status for finding in report.findings]


def clean_statuses(universe, policy, log, **kwargs):
    """Reference statuses: the engine with no faults installed."""
    engine = BatchAuditEngine(universe, policy, **kwargs)
    return statuses(engine.audit_log(log))


# -- the SOS-reaching workload ----------------------------------------------------
#
# The registry's candidate worlds are {0..7} (three candidate records); a
# query's disclosed set is its equal-answer set, which always contains the
# actual world 3.  The pairs below are exhaustively verified to pass every
# cheap criterion *and* the optimizer inconclusively, so their decisions
# reach the certificate stage — the stage the solver-timeout injector and
# the circuit breaker act on.  A/B sets are encoded as DNF over the
# per-candidate EXISTS coordinates, so this is an end-to-end DB-layer path.

_PATIENTS = ("Bob", "Carol", "Dana")
_SOS_AUDIT = (1, 2, 3, 5)
_SOS_REACHING = ((0, 1, 3, 6, 7), (0, 1, 3, 7), (0, 3, 7))
_CRITERIA_DECIDED = ((1, 3, 5, 7), (0, 1, 2, 3))


def _exists(patient):
    return f"EXISTS(SELECT * FROM diagnoses WHERE patient = '{patient}')"


def _dnf(worlds):
    """A boolean query true exactly on ``worlds`` (bit k ↔ candidate k real)."""
    terms = []
    for w in worlds:
        literals = [
            _exists(p) if (w >> bit) & 1 else f"NOT {_exists(p)}"
            for bit, p in enumerate(_PATIENTS)
        ]
        terms.append("(" + " AND ".join(literals) + ")")
    return " OR ".join(terms)


def sos_policy():
    return AuditPolicy(audit_query=parse_boolean_query(_dnf(_SOS_AUDIT)), name="sos")


def sos_log():
    log = DisclosureLog()
    for t, b in enumerate(_SOS_REACHING + _CRITERIA_DECIDED):
        log.record(t, f"user{t}", parse_boolean_query(_dnf(b)))
    return log


def test_dnf_encoding_compiles_to_the_intended_sets(registry):
    audited = registry.compile_boolean(parse_boolean_query(_dnf(_SOS_AUDIT)))
    assert tuple(sorted(audited.members)) == _SOS_AUDIT


class TestSolverTimeout:
    def test_certificate_failures_keep_verdicts_and_trip_breaker(self, registry):
        policy = sos_policy()
        log = sos_log()
        reference = clean_statuses(registry, policy, log)
        breaker = CircuitBreaker(failure_threshold=1, recovery_after=100)
        engine = BatchAuditEngine(
            registry, policy, use_sos=True, breaker=breaker
        )
        with faults.inject("solver-timeout:1", seed=ENV_SEED):
            report = engine.audit_log(log)
        assert statuses(report) == reference
        stats = report.runtime_stats
        # The first certificate-stage decision failed and tripped the
        # breaker; every later task of the batch was pinned to the exact
        # path (so exactly one certificate failure total).
        assert stats.certificate_failures == 1
        assert stats.breaker_trips == 1
        assert stats.breaker_pinned == engine.cache.misses - 1
        pinned = [
            f
            for f in report.findings
            if f.outcome and f.outcome.degradation
            and "breaker-pinned" in f.outcome.degradation
        ]
        assert len(pinned) >= 1

    def test_without_breaker_every_certificate_fails_soundly(self, registry):
        policy = sos_policy()
        log = sos_log()
        reference = clean_statuses(registry, policy, log)
        breaker = CircuitBreaker(failure_threshold=10_000)  # effectively off
        engine = BatchAuditEngine(
            registry, policy, use_sos=True, breaker=breaker
        )
        with faults.inject("solver-timeout:1", seed=ENV_SEED):
            report = engine.audit_log(log)
        assert statuses(report) == reference
        stats = report.runtime_stats
        assert stats.certificate_failures == len(_SOS_REACHING)
        assert stats.breaker_trips == 0
        assert stats.breaker_pinned == 0
        failed = [
            f
            for f in report.findings
            if f.verdict.details.get("certificate_stage") == "failed"
        ]
        assert len(failed) == len(_SOS_REACHING)
        for finding in failed:
            assert finding.verdict.status in (Verdict.SAFE, Verdict.UNSAFE)
            assert any(
                "sos failed" in stage for stage in finding.outcome.stages
            )


class TestNonconvergence:
    def test_nonconvergent_sdp_is_inconclusive_not_an_error(self, registry):
        policy = sos_policy()
        log = sos_log()
        reference = clean_statuses(registry, policy, log)
        engine = BatchAuditEngine(registry, policy, use_sos=True)
        with faults.inject("nonconvergence:1", seed=ENV_SEED):
            report = engine.audit_log(log)
        assert statuses(report) == reference
        # "Solver found nothing" is a clean inconclusive, not a failure:
        # the exact stage decides and the breaker never hears about it.
        assert report.runtime_stats.certificate_failures == 0
        assert report.runtime_stats.breaker_trips == 0


class TestBudget:
    def test_zero_budget_is_sound_and_typed(self, registry):
        # The SOS workload needs the optimizer/exact stages, so a dead
        # budget actually bites (the mixed log is criteria-decided and
        # would sail through unchanged).
        policy = sos_policy()
        log = sos_log()
        reference = clean_statuses(registry, policy, log)
        engine = BatchAuditEngine(registry, policy, decision_budget=0.0)
        report = engine.audit_log(log)
        for clean, starved in zip(reference, statuses(report)):
            # Budgets degrade soundly: a decided status either survives
            # (criteria are always run) or weakens to UNKNOWN — never flips.
            assert starved in (clean, Verdict.UNKNOWN)
        assert report.runtime_stats.budget_exhausted >= 1
        assert report.runtime_stats.degraded_decisions >= 1
        starved_unknowns = [
            f for f in report.findings if f.verdict.status is Verdict.UNKNOWN
        ]
        assert starved_unknowns  # the SOS-reaching pairs ran out of budget
        for finding in starved_unknowns:
            assert finding.verdict.method == "budget-exhausted"
            assert "budget" in (finding.outcome.degradation or "")

    def test_generous_budget_changes_nothing(self, registry, mixed_log):
        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        engine = BatchAuditEngine(registry, policy, decision_budget=60.0)
        report = engine.audit_log(mixed_log)
        assert statuses(report) == reference
        assert report.runtime_stats.budget_exhausted == 0
        assert not report.runtime_stats.any_degradation

    def test_offline_auditor_budget_passthrough(self, registry):
        auditor = OfflineAuditor(registry, sos_policy())
        report = auditor.audit_log(sos_log(), decision_budget=0.0)
        assert report.runtime_stats is not None
        assert report.runtime_stats.budget_exhausted >= 1


class TestChaosMatrix:
    def test_mixed_fault_plan_is_verdict_identical(self, registry):
        """Timeouts and nonconvergence together: provenance moves, verdicts
        do not (no budget in the plan, so full identity holds)."""
        policy = sos_policy()
        log = sos_log()
        reference = clean_statuses(registry, policy, log)
        engine = BatchAuditEngine(registry, policy, use_sos=True)
        plan = "solver-timeout:0.6,nonconvergence:0.5"
        with faults.inject(plan, seed=ENV_SEED):
            report = engine.audit_log(log)
        assert statuses(report) == reference
        for finding in report.findings:
            assert finding.outcome is not None

    def test_no_exception_escapes_audit_log(self, registry, mixed_log):
        for site in faults.KNOWN_SITES:
            auditor = OfflineAuditor(registry, make_policy(name=f"chaos-{site}"))
            with faults.inject(f"{site}:1", seed=ENV_SEED):
                report = auditor.audit_log(mixed_log)
            assert isinstance(report, AuditReport)
            assert len(report.findings) == len(mixed_log)


class TestProvenance:
    def test_clean_run_outcomes_are_attached_and_undegraded(
        self, registry, mixed_log
    ):
        engine = BatchAuditEngine(registry, make_policy())
        report = engine.audit_log(mixed_log)
        assert not report.runtime_stats.any_degradation
        for finding in report.findings:
            assert finding.outcome is not None
            assert not finding.outcome.degraded
            assert finding.outcome.stages  # pipeline trace is never empty
            assert finding.outcome.verdict is finding.verdict

    def test_warm_rerun_provenance_is_the_cache(self, registry, mixed_log):
        engine = BatchAuditEngine(registry, make_policy())
        engine.audit_log(mixed_log)
        warm = engine.audit_log(mixed_log)
        for finding in warm.findings:
            assert finding.outcome.stages == ("verdict-cache",)

    def test_env_plan_activates_and_deactivates(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_PLAN, "solver-timeout:1")
        monkeypatch.setenv(faults.ENV_SEED, "3")
        assert faults.active() is not None
        assert faults.fire(faults.SOLVER_TIMEOUT)
        assert not faults.fire(faults.NONCONVERGENCE)
        monkeypatch.delenv(faults.ENV_PLAN)
        assert faults.active() is None
        assert not faults.fire(faults.SOLVER_TIMEOUT)


class TestStoreWrite:
    """The store-write fault site: a failed flush degrades to recomputation."""

    def test_failed_flush_verdict_identical_and_counted(
        self, registry, mixed_log, tmp_path
    ):
        from repro.audit import VerdictStore

        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        store = VerdictStore(tmp_path / "store.json")
        engine = BatchAuditEngine(registry, policy, store=store)
        with faults.inject("store-write:1", seed=ENV_SEED):
            report = engine.audit_log(mixed_log)
        assert statuses(report) == reference
        assert store.stats.write_failures >= 1
        assert report.runtime_stats.store_failures >= 1
        assert not store.path.exists()  # nothing partial on disk

    def test_next_clean_flush_recovers(self, registry, mixed_log, tmp_path):
        from repro.audit import VerdictStore

        policy = make_policy()
        store = VerdictStore(tmp_path / "store.json")
        engine = BatchAuditEngine(registry, policy, store=store)
        with faults.inject("store-write:1:1", seed=ENV_SEED):
            engine.audit_log(mixed_log)
        assert store.stats.write_failures == 1
        # Fault budget spent: the same engine's next audit flushes cleanly
        # and the next process inherits every verdict.
        engine.audit_log(mixed_log)
        assert store.path.exists()
        reloaded = VerdictStore(tmp_path / "store.json")
        assert reloaded.stats.loaded == store.stats.stored

    def test_incremental_chaos_run_stays_equivalent(
        self, registry, mixed_log, tmp_path
    ):
        from repro.audit import OfflineAuditor, VerdictStore

        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        store = VerdictStore(tmp_path / "store.json")
        auditor = OfflineAuditor(registry, policy)
        with faults.inject("store-write:0.5", seed=ENV_SEED):
            report = auditor.audit_log_incremental(mixed_log, store=store)
        assert statuses(report) == reference


class TestStoreSqlWrite:
    """The store-sql-write site: per-shard commit failures on the SQLite
    backend degrade that shard's appends to the next flush — verdicts are
    never wrong, pending rows are never lost, partial progress is safe."""

    def test_failed_shard_commits_verdict_identical_and_counted(
        self, registry, mixed_log, tmp_path
    ):
        from repro.audit import SqliteVerdictStore

        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        store = SqliteVerdictStore(tmp_path / "store")
        engine = BatchAuditEngine(registry, policy, store=store)
        with faults.inject("store-sql-write:1", seed=ENV_SEED):
            report = engine.audit_log(mixed_log)
        assert statuses(report) == reference
        assert store.stats.write_failures >= 1
        assert report.runtime_stats.store_failures >= 1

    def test_failed_shards_keep_verdicts_pending_and_recover(
        self, registry, mixed_log, tmp_path
    ):
        from repro.audit import SqliteVerdictStore

        policy = make_policy()
        store = SqliteVerdictStore(tmp_path / "store")
        engine = BatchAuditEngine(registry, policy, store=store)
        with faults.inject("store-sql-write:1", seed=ENV_SEED):
            engine.audit_log(mixed_log)
        failed = store.stats.write_failures
        assert failed >= 1
        # Every verdict the failed shards could not commit is still
        # pending in memory — visible to this process's probes.
        stored_total = store.stats.stored
        assert len(store) == stored_total
        # The next clean flush lands them on disk for other processes.
        assert store.flush()
        store.close()
        reloaded = SqliteVerdictStore(tmp_path / "store")
        assert len(reloaded) == stored_total

    def test_partial_flush_is_safe_progress(self, registry, mixed_log, tmp_path):
        """A probabilistic per-shard fault leaves committed shards intact
        and failed shards pending — never a torn or wrong row."""
        from repro.audit import OfflineAuditor, SqliteVerdictStore

        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        store = SqliteVerdictStore(tmp_path / "store")
        auditor = OfflineAuditor(registry, policy)
        with faults.inject("store-sql-write:0.5", seed=ENV_SEED):
            report = auditor.audit_log_incremental(mixed_log, store=store)
        assert statuses(report) == reference
        assert store.flush()  # lands any survivors once the fault lifts
        store.close()
        reloaded = SqliteVerdictStore(tmp_path / "store")
        assert len(reloaded) == store.stats.stored
        assert reloaded.stats.load_failures == 0


class TestNativeLoad:
    """The native-load fault site: a failed kernel import degrades, never decides."""

    @pytest.fixture(autouse=True)
    def restore_backend(self):
        from repro import _native

        yield
        _native.configure(None)

    def test_auto_falls_back_under_fault(self):
        from repro import _native

        with faults.inject("native-load:1", seed=ENV_SEED):
            backend = _native.configure("auto")
        assert backend.name == "numpy-fallback"
        assert backend.fused_split is None
        assert backend.load_error == "fault-injected: native-load"

    def test_require_raises_under_fault(self):
        from repro import _native
        from repro.exceptions import NativeBackendError

        with faults.inject("native-load:1", seed=ENV_SEED):
            with pytest.raises(NativeBackendError):
                _native.configure("require")

    def test_fallback_is_verdict_identical(self, registry, mixed_log):
        from repro import _native

        policy = make_policy()
        reference = clean_statuses(registry, policy, mixed_log)
        with faults.inject("native-load:1", seed=ENV_SEED):
            _native.configure("auto")
            engine = BatchAuditEngine(registry, policy)
            report = engine.audit_log(mixed_log)
        assert statuses(report) == reference
        assert report.runtime_stats.native_backend == "numpy-fallback"
