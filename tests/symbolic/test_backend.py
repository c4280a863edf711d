"""Backend selection and end-to-end engine integration for symbolic decisions.

The selection contract mirrors the native-kernel switch: ``REPRO_SYMBOLIC``
(off / auto / require) picks the process-wide engine, ``decision_backend``
on the audit engines picks per-run, and every shortfall — backend off,
unsupported family — degrades to the mask path *with the degradation
counted*, never silently and never with a changed verdict.
"""

from __future__ import annotations

import time

import pytest

from repro.audit import (
    AuditPolicy,
    BatchAuditEngine,
    DisclosureLog,
    OfflineAuditor,
    PriorAssumption,
)
from repro.audit.engine import DECISION_BACKENDS
from repro.audit.report import render_report
from repro.db import CandidateUniverse, ColumnType, Database, TableSchema
from repro.db.query import AtLeast, ColumnCompare, Comparison, Exists, column_eq
from repro.symbolic import ENV_SYMBOLIC, MODES, configure, enabled

if not enabled():
    pytest.skip(
        "symbolic backend disabled (REPRO_SYMBOLIC=off)",
        allow_module_level=True,
    )

from repro.runtime import Budget
from repro.symbolic import (
    SymbolicPair,
    audit_symbolic,
    backend_name,
    engine as active_engine,
    lower_answer,
    lower_boolean,
)
from repro.symbolic.decide import SUBCUBES


@pytest.fixture(autouse=True)
def _restore_backend():
    """Every test leaves the process-wide backend as the environment set it."""
    yield
    configure()


def build_db(n: int = 6):
    db = Database()
    db.create_table(TableSchema("t", (("v", ColumnType.INTEGER),)))
    records = [db.insert("t", v=i) for i in range(n // 2)]
    records += [db.hypothetical_record("t", v=i) for i in range(n // 2, n)]
    return db, records


def build_scenario(n: int = 6):
    db, records = build_db(n)
    universe = CandidateUniverse(db, records)
    policy = AuditPolicy(
        audit_query=Exists("t", column_eq("v", 0)),
        assumption=PriorAssumption.POSSIBILISTIC_SUBCUBES,
        name="symbolic-backend-test",
    )
    log = DisclosureLog()
    log.record(1, "alice", AtLeast("t", ColumnCompare("v", Comparison.LE, 3), 2))
    log.record(2, "bob", Exists("t", column_eq("v", 1)))
    log.record(3, "carol", AtLeast("t", ColumnCompare("v", Comparison.LE, 5), 3))
    return universe, policy, log


def statuses(report):
    return [finding.verdict.status for finding in report.findings]


class TestBackendSelection:
    def test_mode_validation(self):
        assert MODES == ("auto", "off", "require")
        with pytest.raises(ValueError):
            configure("bogus")

    def test_off_mode_disables(self):
        configure("off")
        assert active_engine() is None
        assert backend_name() == "off"

    def test_auto_loads_an_engine(self):
        backend = configure("auto")
        assert backend.engine is not None
        assert backend.name.startswith("symbolic-")

    def test_invalid_decision_backend_rejected(self):
        universe, policy, _ = build_scenario()
        assert DECISION_BACKENDS == ("auto", "mask", "symbolic")
        with pytest.raises(ValueError):
            BatchAuditEngine(universe, policy, decision_backend="bogus")


class TestEngineIntegration:
    def test_symbolic_verdicts_identical_to_mask(self):
        universe, policy, log = build_scenario()
        mask = BatchAuditEngine(universe, policy, decision_backend="mask")
        mask_report = mask.audit_log(log)
        sym = BatchAuditEngine(universe, policy, decision_backend="symbolic")
        sym_report = sym.audit_log(log)

        assert statuses(sym_report) == statuses(mask_report)
        assert mask_report.backend_counts == {"mask": len(log)}
        assert set(sym_report.backend_counts) == {backend_name()}
        assert sym_report.runtime_stats.decision_backend == "symbolic"
        assert mask_report.runtime_stats.decision_backend == "mask"
        assert sym_report.runtime_stats.symbolic_degraded == 0

    def test_off_degrades_to_mask_counted(self):
        universe, policy, log = build_scenario()
        mask_statuses = statuses(
            BatchAuditEngine(
                universe, policy, decision_backend="mask"
            ).audit_log(log)
        )
        configure("off")
        engine = BatchAuditEngine(universe, policy, decision_backend="symbolic")
        report = engine.audit_log(log)

        assert statuses(report) == mask_statuses  # never a changed verdict
        assert report.backend_counts == {"mask": len(log)}
        assert report.runtime_stats.symbolic_degraded == len(log)
        for finding in report.findings:
            assert "symbolic-unavailable:mask" in finding.outcome.degradation

    def test_auto_follows_require_env(self, monkeypatch):
        monkeypatch.setenv(ENV_SYMBOLIC, "require")
        configure()
        universe, policy, log = build_scenario()
        report = BatchAuditEngine(
            universe, policy, decision_backend="auto"
        ).audit_log(log)
        assert set(report.backend_counts) == {backend_name()}
        assert next(iter(report.backend_counts)).startswith("symbolic-")

    def test_auto_defaults_to_mask(self, monkeypatch):
        monkeypatch.delenv(ENV_SYMBOLIC, raising=False)
        configure()
        universe, policy, log = build_scenario()
        report = BatchAuditEngine(
            universe, policy, decision_backend="auto"
        ).audit_log(log)
        assert report.backend_counts == {"mask": len(log)}

    def test_report_renders_backend_footer(self):
        universe, policy, log = build_scenario()
        report = BatchAuditEngine(
            universe, policy, decision_backend="symbolic"
        ).audit_log(log)
        text = render_report(report)
        assert "decision backend: symbolic" in text
        assert f"decisions: {backend_name()}: {len(log)}" in text

    def test_incremental_symbolic_matches_mask(self):
        universe, policy, log = build_scenario()
        mask_report = OfflineAuditor(
            universe, policy, decision_backend="mask"
        ).audit_log_incremental(log)
        sym_report = OfflineAuditor(
            universe, policy, decision_backend="symbolic"
        ).audit_log_incremental(log)
        assert statuses(sym_report) == statuses(mask_report)
        assert set(sym_report.backend_counts) <= {backend_name(), "mask"}
        assert backend_name() in sym_report.backend_counts

    def test_ablation_shares_formula_cache(self):
        universe, policy, log = build_scenario()
        engine = BatchAuditEngine(universe, policy, decision_backend="symbolic")
        assumptions = [
            PriorAssumption.POSSIBILISTIC_SUBCUBES,
            PriorAssumption.POSSIBILISTIC_IGNORANT,
        ]
        reports = engine.audit_ablation(log, assumptions)
        assert set(reports) == set(assumptions)
        for report in reports.values():
            assert all(s.value in ("safe", "unsafe") for s in statuses(report))
        # Each sibling reused the parent's lowering: one formula per
        # distinct disclosure query, not one per (sibling, query).
        assert len(engine._formulas) == len(log)


class TestBigN:
    def test_n32_decision_under_budget(self):
        """The acceptance regime: n = 32 decided where masks cannot exist."""
        n = 32
        db, records = build_db(n)
        pair = SymbolicPair(
            lower_boolean(Exists("t", column_eq("v", 0)), records),
            lower_answer(
                AtLeast("t", ColumnCompare("v", Comparison.LE, 5), 3),
                records,
                db.actual_view(),
            ),
            n,
        )
        start = time.perf_counter()
        verdict = audit_symbolic(SUBCUBES, pair, budget=Budget(10.0))
        elapsed = time.perf_counter() - start
        assert verdict.is_decided, verdict
        assert elapsed < 10.0
        assert verdict.details["backend"].startswith("symbolic-")
