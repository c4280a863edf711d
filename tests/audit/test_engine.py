"""Tests for the batched audit engine: verdict cache, dedupe, one decision path."""

from __future__ import annotations

import pytest

from repro.audit import (
    AuditPolicy,
    BatchAuditEngine,
    DisclosureLog,
    OfflineAuditor,
    PriorAssumption,
    VerdictCache,
)
from repro.core.verdict import Verdict
from repro.db import (
    CandidateUniverse,
    ColumnType,
    Database,
    TableSchema,
    parse_boolean_query,
)
from repro.exceptions import MalformedEventError, QueryError
from tests.workloads import AUDIT_QUERY, build_mixed_density_log, build_registry


@pytest.fixture
def hospital():
    db = Database()
    db.create_table(
        TableSchema.build("facts", patient=ColumnType.TEXT, kind=ColumnType.TEXT)
    )
    r1 = db.insert("facts", patient="Bob", kind="hiv_positive")
    r2 = db.insert("facts", patient="Bob", kind="transfusion")
    return CandidateUniverse(db, [r1, r2])


A_TEXT = "EXISTS(SELECT * FROM facts WHERE patient = 'Bob' AND kind = 'hiv_positive')"
B_TEXT = (
    "EXISTS(SELECT * FROM facts WHERE patient = 'Bob' AND kind = 'hiv_positive') "
    "IMPLIES "
    "EXISTS(SELECT * FROM facts WHERE patient = 'Bob' AND kind = 'transfusion')"
)


def make_policy(assumption=PriorAssumption.PRODUCT):
    return AuditPolicy(
        audit_query=parse_boolean_query(A_TEXT),
        assumption=assumption,
        name="engine-test",
    )


def repeated_log(n: int = 4):
    log = DisclosureLog()
    for t in range(n):
        log.record(2000 + t, f"user{t}", parse_boolean_query(B_TEXT))
    return log


class TestVerdictCache:
    def test_identical_events_hit(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        report = engine.audit_log(repeated_log(4))
        assert len(report.findings) == 4
        # One decision for four logically identical events.
        assert engine.cache.misses == 1
        assert engine.cache.hits == 3
        assert len(engine.cache) == 1
        assert report.cache_stats.hit_rate == pytest.approx(0.75)

    def test_warm_rerun_hits_everything(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        log = repeated_log(4)
        engine.audit_log(log)
        engine.audit_log(log)
        assert engine.cache.misses == 1
        assert engine.cache.hits == 7
        # Batch compilation deduped the query as well.
        assert engine.compile_stats.misses == 1
        assert engine.compile_stats.hits == 7

    def test_different_atol_misses(self, hospital):
        cache = VerdictCache()
        log = repeated_log(2)
        BatchAuditEngine(hospital, make_policy(), cache=cache).audit_log(log)
        BatchAuditEngine(
            hospital, make_policy(), cache=cache, atol=1e-6
        ).audit_log(log)
        # Same (A, B) pair, different tolerance → separate cache entries.
        assert cache.misses == 2
        assert len(cache) == 2

    def test_different_assumption_misses(self, hospital):
        cache = VerdictCache()
        log = repeated_log(2)
        BatchAuditEngine(hospital, make_policy(), cache=cache).audit_log(log)
        BatchAuditEngine(
            hospital, make_policy(PriorAssumption.UNRESTRICTED), cache=cache
        ).audit_log(log)
        assert cache.misses == 2
        assert len(cache) == 2

    def test_cached_unsafe_carries_witness(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        log = DisclosureLog()
        for t in range(3):
            log.record(2000 + t, f"user{t}", parse_boolean_query(A_TEXT))
        report = engine.audit_log(log)
        assert engine.cache.misses == 1  # the two repeats came from the cache
        for finding in report.findings:
            assert finding.verdict.status is Verdict.UNSAFE
            assert finding.verdict.witness is not None

    def test_clear_resets(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        engine.audit_log(repeated_log(2))
        engine.cache.clear()
        assert len(engine.cache) == 0
        assert engine.cache.stats().lookups == 0


class TestEngineAgainstSeedLoop:
    def test_matches_serial_loop_and_counts_tolerant(self, hospital):
        log = repeated_log(2)
        log.record(2007, "mallory", parse_boolean_query(A_TEXT))
        auditor = OfflineAuditor(hospital, make_policy())
        seed_report = auditor.audit_log_serial(log)
        engine_report = auditor.audit_log(log)
        assert [f.verdict.status for f in engine_report.findings] == [
            f.verdict.status for f in seed_report.findings
        ]
        assert engine_report.suspicious_users == seed_report.suspicious_users
        counts = engine_report.counts()
        assert counts["unsafe"] == 1
        assert counts["unknown"] == 0  # all statuses present even at zero

    def test_mixed_density_log_matches_seed_loop(self):
        """A duplicate-heavy log spanning every answer density: the batch
        path equals the per-event loop cold and warm, deciding each
        distinct pair once."""
        universe = build_registry(background_rows=16)
        log = build_mixed_density_log(universe, n_events=60, seed=7)
        policy = AuditPolicy(
            audit_query=parse_boolean_query(AUDIT_QUERY),
            assumption=PriorAssumption.PRODUCT,
            name="seed-loop-test",
        )
        seed_report = OfflineAuditor(universe, policy).audit_log_serial(log)
        expected = [f.verdict.status for f in seed_report.findings]
        engine = BatchAuditEngine(universe, policy)
        cold = engine.audit_log(log)
        warm = engine.audit_log(log)
        assert [f.verdict.status for f in cold.findings] == expected
        assert [f.verdict.status for f in warm.findings] == expected
        distinct = len({s.fingerprint() for s in engine.compile_log(log)})
        assert engine.cache.misses == distinct < len(expected)
        for finding in warm.findings:
            assert finding.outcome.stages == ("verdict-cache",)


#: Well-formed queries naming a table the database lacks: directly, and
#: behind a conjunct that matches no candidate.
UNKNOWN_TABLE_TEXTS = [
    "EXISTS(SELECT * FROM nosuch WHERE patient = 'Bob')",
    "EXISTS(SELECT * FROM facts WHERE patient = 'Nobody') AND "
    "EXISTS(SELECT * FROM nosuch WHERE patient = 'Bob')",
]
#: Misspelt columns that no candidate record ever evaluates: behind a
#: conjunct that matches nothing, and inside a negated disjunction.
UNKNOWN_COLUMN_TEXTS = [
    "EXISTS(SELECT * FROM facts WHERE patient = 'Nobody' AND nosuch = 'Bob')",
    "EXISTS(SELECT * FROM facts WHERE NOT (patient = 'Bob' OR nosuch = 'x'))",
]


class TestCompileErrors:
    @pytest.mark.parametrize(
        "text, message",
        [(text, "no such table") for text in UNKNOWN_TABLE_TEXTS]
        + [(text, "has no column") for text in UNKNOWN_COLUMN_TEXTS],
        ids=["direct", "short-circuit", "column", "column-nested"],
    )
    def test_compile_log_names_the_event(self, hospital, text, message):
        log = repeated_log(3)
        log.record(2010, "mallory", parse_boolean_query(text))
        engine = BatchAuditEngine(hospital, make_policy())
        with pytest.raises(MalformedEventError, match=message) as info:
            engine.compile_log(log)
        assert info.value.event_index == 3

    @pytest.mark.parametrize(
        "text", UNKNOWN_TABLE_TEXTS, ids=["direct", "short-circuit"]
    )
    def test_audit_query_fails_engine_construction(self, hospital, text):
        policy = AuditPolicy(audit_query=parse_boolean_query(text))
        with pytest.raises(QueryError, match="no such table"):
            BatchAuditEngine(hospital, policy)


class TestOneDecisionPath:
    def test_more_than_one_worker_is_rejected(self, hospital):
        with pytest.raises(ValueError):
            BatchAuditEngine(hospital, make_policy(), n_workers=2)

    def test_every_decision_runs_on_masks(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        report = engine.audit_log(repeated_log(3))
        assert engine.decision_backend == "mask"
        assert report.runtime_stats.decision_backend == "mask"


class TestAblationSharing:
    def test_ablation_shares_compilation_and_cache(self, hospital):
        engine = BatchAuditEngine(hospital, make_policy())
        log = repeated_log(3)
        reports = engine.audit_ablation(
            log, [PriorAssumption.PRODUCT, PriorAssumption.UNRESTRICTED]
        )
        assert set(reports) == {
            PriorAssumption.PRODUCT,
            PriorAssumption.UNRESTRICTED,
        }
        # One compile miss total: the sets were shared across both runs.
        assert engine.compile_stats.misses == 1
        # Two cache misses: one decision per assumption family.
        assert engine.cache.misses == 2
