"""The sharded SQLite-WAL verdict store: same contract, production shape.

Covers the :class:`~repro.audit.store_sql.SqliteVerdictStore` half of the
``VerdictStoreBase`` protocol — round trips, lazy sharded probing, layout
pinning, append/compaction, corruption tolerance — plus the cross-backend
guarantees: the engine issues exactly one batched probe per audit, and
randomized audits are verdict-identical across {no-store, json, sqlite}
backends, including after injected corruption.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.audit import (
    AuditPolicy,
    BatchAuditEngine,
    OfflineAuditor,
    SqliteVerdictStore,
    VerdictStore,
    open_verdict_store,
)
from repro.audit.store import _encode_key
from repro.audit.store_sql import (
    _COMPACT_MIN_DEAD,
    DEFAULT_SHARDS,
    STORE_BACKENDS,
    shard_of,
)
from repro.core.verdict import AuditVerdict, Verdict
from repro.db import parse_boolean_query
from repro.runtime import faults
from tests.workloads import AUDIT_QUERY, build_mixed_density_log, build_registry

KEY = ("a" * 32, "b" * 32, "product", 1e-9)
KEY2 = ("a" * 32, "c" * 32, "product", 1e-9)
KEY3 = ("a" * 32, "d" * 32, "product", 1e-9)


@pytest.fixture(autouse=True)
def _no_leftover_plan():
    faults.uninstall()
    yield
    faults.uninstall()


def make_store(tmp_path, name="verdicts", **kwargs):
    return SqliteVerdictStore(tmp_path / name, **kwargs)


class TestRoundTrip:
    def test_put_flush_reload(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        store.put(KEY2, AuditVerdict.unsafe("optimizer", gap=0.25))
        assert store.flush()
        store.close()

        reloaded = make_store(tmp_path)
        assert len(reloaded) == 2
        verdict = reloaded.get(KEY)
        assert verdict is not None and verdict.status is Verdict.SAFE
        verdict2 = reloaded.get(KEY2)
        assert verdict2 is not None and verdict2.status is Verdict.UNSAFE
        assert verdict2.details["gap"] == 0.25
        # Lazy by design: nothing is ever loaded wholesale.
        assert reloaded.stats.loaded == 0

    def test_probe_many_batches_and_counts(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        store.flush()
        store.close()
        reloaded = make_store(tmp_path)
        found = reloaded.probe_many([KEY, KEY2, KEY3])
        assert set(found) == {KEY}
        assert reloaded.stats.probes == 1
        assert reloaded.stats.hits == 1
        assert reloaded.stats.misses == 2

    def test_get_does_not_count_a_probe(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        store.flush()
        assert store.get(KEY) is not None
        assert store.stats.probes == 0

    def test_pending_writes_visible_before_flush(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        assert KEY in store
        assert set(store.probe_many([KEY])) == {KEY}

    def test_unknown_verdicts_not_persisted(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.unknown("budget"))
        assert store.flush()
        assert len(store) == 0

    def test_latest_write_wins(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("first"))
        store.flush()
        store.put(KEY, AuditVerdict.unsafe("second"))
        store.flush()
        store.close()
        reloaded = make_store(tmp_path)
        assert reloaded.get(KEY).status is Verdict.UNSAFE
        assert reloaded.probe_many([KEY])[KEY].method == "second"

    def test_witness_and_certificate_dropped(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.unsafe("optimizer", witness=object()))
        assert store.flush()
        store.close()
        verdict = make_store(tmp_path).get(KEY)
        assert verdict.status is Verdict.UNSAFE
        assert verdict.witness is None

    def test_read_only_never_creates(self, tmp_path):
        store = make_store(tmp_path, read_only=True)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        assert store.flush()
        assert not (tmp_path / "verdicts").exists()
        assert store.probe_many([KEY]) == {KEY: AuditVerdict.safe("cancellation")}

    def test_clear_empties_all_shards(self, tmp_path):
        store = make_store(tmp_path)
        for key in (KEY, KEY2, KEY3):
            store.put(key, AuditVerdict.safe("cancellation"))
        store.flush()
        store.clear()
        assert store.flush()
        store.close()
        assert len(make_store(tmp_path)) == 0

    def test_skipped_flush_counted(self, tmp_path):
        store = make_store(tmp_path)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        assert store.flush()
        assert store.flush()
        assert store.stats.flushes == 1
        assert store.stats.skipped_flushes == 1


class TestShardLayout:
    def test_shard_of_is_stable(self):
        text = _encode_key(KEY)
        assert shard_of(text, 8) == shard_of(text, 8)
        assert 0 <= shard_of(text, 8) < 8

    def test_layout_file_pins_shard_count(self, tmp_path):
        store = make_store(tmp_path, n_shards=3)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        store.flush()
        store.close()
        # A later opener asking for a different count must defer to disk.
        reopened = make_store(tmp_path, n_shards=16)
        assert reopened.n_shards == 3
        assert reopened.get(KEY) is not None

    def test_malformed_layout_is_a_load_failure(self, tmp_path):
        (tmp_path / "verdicts").mkdir()
        (tmp_path / "verdicts" / "layout.json").write_text("{not json")
        store = make_store(tmp_path)
        assert store.stats.load_failures == 1
        assert store.n_shards == DEFAULT_SHARDS

    def test_keys_spread_over_multiple_shards(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(64):
            store.put(
                (f"aud{i:04d}", f"dis{i:04d}", "product", 1e-9),
                AuditVerdict.safe("cancellation"),
            )
        store.flush()
        shards = list((tmp_path / "verdicts").glob("shard-*.sqlite"))
        assert len(shards) > 1


class TestCompaction:
    def test_superseded_rows_compacted(self, tmp_path):
        store = make_store(tmp_path, n_shards=1)
        keys = [(f"aud{i:04d}", "b" * 8, "product", 1e-9) for i in range(32)]
        rounds = _COMPACT_MIN_DEAD // len(keys) + 2
        for round_no in range(rounds):
            for key in keys:
                store.put(key, AuditVerdict.safe(f"round-{round_no}"))
            store.flush()
        assert store.stats.compactions >= 1
        # Compaction dropped history only: every key still reads newest.
        found = store.probe_many(keys)
        assert len(found) == len(keys)
        assert all(v.method == f"round-{rounds - 1}" for v in found.values())


class TestCorruptionTolerance:
    def _primed(self, tmp_path):
        store = make_store(tmp_path, n_shards=1)
        store.put(KEY, AuditVerdict.safe("cancellation"))
        store.flush()
        store.close()
        return tmp_path / "verdicts" / "shard-00.sqlite"

    def test_garbage_shard_discarded_and_counted(self, tmp_path):
        shard = self._primed(tmp_path)
        shard.write_bytes(b"this is not a database")
        store = make_store(tmp_path)
        assert store.get(KEY) is None
        assert store.stats.load_failures == 1
        # The writable store recreated the shard; it works again.
        store.put(KEY2, AuditVerdict.safe("recovered"))
        assert store.flush()
        store.close()
        assert make_store(tmp_path).get(KEY2) is not None

    def test_alien_format_marker_discarded(self, tmp_path):
        shard = self._primed(tmp_path)
        conn = sqlite3.connect(str(shard))
        conn.execute("UPDATE meta SET v = 'alien' WHERE k = 'format'")
        conn.commit()
        conn.close()
        store = make_store(tmp_path)
        assert store.get(KEY) is None
        assert store.stats.load_failures == 1

    def test_read_only_treats_corrupt_shard_as_empty(self, tmp_path):
        shard = self._primed(tmp_path)
        shard.write_bytes(b"garbage")
        store = make_store(tmp_path, read_only=True)
        assert store.get(KEY) is None
        assert store.stats.load_failures == 1
        assert shard.read_bytes() == b"garbage"  # never touched

    def test_malformed_row_dropped_individually(self, tmp_path):
        shard = self._primed(tmp_path)
        conn = sqlite3.connect(str(shard))
        conn.execute(
            "INSERT INTO verdicts (key, status, method, details) "
            "VALUES (?, 'bogus-status', 'x', '{}')",
            (_encode_key(KEY2),),
        )
        conn.commit()
        conn.close()
        store = make_store(tmp_path)
        found = store.probe_many([KEY, KEY2])
        assert set(found) == {KEY}
        assert store.stats.dropped_entries == 1
        assert store.stats.load_failures == 0


class TestFactory:
    def test_backends_constant(self):
        assert STORE_BACKENDS == ("json", "sqlite")

    def test_factory_dispatches(self, tmp_path):
        assert isinstance(
            open_verdict_store(tmp_path / "s.json", backend="json"), VerdictStore
        )
        assert isinstance(
            open_verdict_store(tmp_path / "s", backend="sqlite"),
            SqliteVerdictStore,
        )
        with pytest.raises(ValueError):
            open_verdict_store(tmp_path / "s", backend="dbm")


# -- engine integration: one batched probe, backend equivalence --------------------


@pytest.fixture(scope="module")
def registry():
    return build_registry(background_rows=16)


def make_policy(name="store-sql-test"):
    return AuditPolicy(audit_query=parse_boolean_query(AUDIT_QUERY), name=name)


def _statuses(report):
    return [finding.verdict.status for finding in report.findings]


class TestOneProbePerAudit:
    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_engine_probes_once_per_audit_log(self, registry, tmp_path, backend):
        log = build_mixed_density_log(registry, n_events=25, seed=3)
        store = open_verdict_store(tmp_path / "store", backend=backend)
        engine = BatchAuditEngine(
            registry, make_policy(), store=store
        )
        engine.audit_log(log)
        assert store.stats.probes == 1
        # Warm rerun: the in-memory cache answers everything — the store
        # is not consulted again, so the count stays at one.
        engine.audit_log(log)
        assert store.stats.probes == 1

    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_incremental_auditor_probes_once_per_call(
        self, registry, tmp_path, backend
    ):
        log = build_mixed_density_log(registry, n_events=25, seed=3)
        store = open_verdict_store(tmp_path / "store", backend=backend)
        auditor = OfflineAuditor(registry, make_policy())
        auditor.audit_log_incremental(log, store=store)
        assert store.stats.probes == 1


class TestBackendEquivalence:
    """Randomized audits must be verdict-identical across all backends."""

    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_fresh_stores_match_no_store(self, registry, tmp_path, seed):
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        reference = _statuses(
            BatchAuditEngine(registry, make_policy()).audit_log(log)
        )
        for backend in STORE_BACKENDS:
            store = open_verdict_store(
                tmp_path / f"fresh-{backend}", backend=backend
            )
            report = BatchAuditEngine(
                registry, make_policy(), store=store
            ).audit_log(log)
            assert _statuses(report) == reference, backend

    @pytest.mark.parametrize("seed", [2, 6])
    def test_warm_stores_match_no_store(self, registry, tmp_path, seed):
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        reference = _statuses(
            BatchAuditEngine(registry, make_policy()).audit_log(log)
        )
        for backend in STORE_BACKENDS:
            path = tmp_path / f"warm-{backend}"
            primer = open_verdict_store(path, backend=backend)
            BatchAuditEngine(
                registry, make_policy(), store=primer
            ).audit_log(log)
            primer.close()
            # A fresh process resumes: every verdict served from disk.
            warm = open_verdict_store(path, backend=backend)
            report = BatchAuditEngine(
                registry, make_policy(), store=warm
            ).audit_log(log)
            assert _statuses(report) == reference, backend
            assert warm.stats.hits > 0

    @pytest.mark.parametrize("seed", [4, 8])
    def test_corrupted_stores_still_match(self, registry, tmp_path, seed):
        """Injected corruption degrades to recomputation, never to a wrong
        verdict — on either backend."""
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        reference = _statuses(
            BatchAuditEngine(registry, make_policy()).audit_log(log)
        )
        # Prime both stores, then corrupt them on disk.
        json_path = tmp_path / "corrupt.json"
        sqlite_path = tmp_path / "corrupt-sqlite"
        for backend, path in (("json", json_path), ("sqlite", sqlite_path)):
            primer = open_verdict_store(path, backend=backend)
            BatchAuditEngine(
                registry, make_policy(), store=primer
            ).audit_log(log)
            primer.close()
        json_path.write_text("{definitely not json")
        shards = sorted(sqlite_path.glob("shard-*.sqlite"))
        assert shards
        shards[0].write_bytes(b"scribbled over")

        for backend, path in (("json", json_path), ("sqlite", sqlite_path)):
            store = open_verdict_store(path, backend=backend)
            report = BatchAuditEngine(
                registry, make_policy(), store=store
            ).audit_log(log)
            assert _statuses(report) == reference, backend
            assert store.stats.load_failures >= 1, backend
            assert report.runtime_stats.store_failures >= 1, backend
