"""Unit tests for the resilience primitives and the typed error hierarchy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algebraic.sdp import AffineSystem, solve_psd_feasibility
from repro.audit import AuditPolicy, DisclosureEvent, DisclosureLog, PriorAssumption
from repro.core.verdict import AuditVerdict
from repro.db import parse_boolean_query
from repro.exceptions import (
    BudgetExhaustedError,
    MalformedEventError,
    PolicyError,
    ReproError,
    SolverConfigurationError,
)
from repro.runtime import (
    BreakerState,
    Budget,
    CircuitBreaker,
    DecisionOutcome,
    RuntimeStats,
    faults,
)

QUERY = parse_boolean_query("EXISTS(SELECT * FROM t WHERE a = 'b')")


class TestBudget:
    def test_unlimited_never_expires(self):
        budget = Budget.unlimited()
        assert not budget.limited
        assert not budget.expired
        assert budget.remaining() == float("inf")
        budget.check("anything")  # no raise

    def test_fake_clock_deadline(self):
        now = [0.0]
        budget = Budget(5.0, clock=lambda: now[0])
        assert budget.limited and not budget.expired
        assert budget.remaining() == pytest.approx(5.0)
        now[0] = 4.9
        assert not budget.expired
        now[0] = 5.0
        assert budget.expired
        assert budget.remaining() == 0.0

    def test_zero_budget_is_born_expired(self):
        assert Budget(0.0).expired

    def test_check_raises_typed_with_stage(self):
        budget = Budget(0.0)
        with pytest.raises(BudgetExhaustedError) as info:
            budget.check("exact")
        assert info.value.stage == "exact"
        assert isinstance(info.value, ReproError)

    def test_negative_budget_rejected(self):
        with pytest.raises(BudgetExhaustedError):
            Budget(-1.0)


class TestCircuitBreaker:
    def test_trips_after_consecutive_failures_only(self):
        breaker = CircuitBreaker(failure_threshold=3)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        breaker.record_success()  # resets the consecutive count
        assert breaker.record_failure() is False
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True
        assert breaker.state is BreakerState.OPEN
        assert breaker.trips == 1

    def test_open_short_circuits_then_probes(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_after=2)
        breaker.record_failure()
        assert not breaker.allow()
        assert not breaker.allow()  # recovery window reached → HALF_OPEN
        assert breaker.short_circuits == 2
        assert breaker.allow()  # the probe goes through
        breaker.record_success()
        assert breaker.state is BreakerState.CLOSED
        assert breaker.allow()

    def test_failed_probe_reopens(self):
        breaker = CircuitBreaker(failure_threshold=1, recovery_after=1)
        breaker.record_failure()
        assert not breaker.allow()  # window done → HALF_OPEN
        assert breaker.allow()  # probe
        breaker.record_failure()  # probe failed
        assert breaker.state is BreakerState.OPEN
        assert not breaker.allow()

    def test_thresholds_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0)


class TestFaultInjector:
    def test_parse_spec_rates_and_caps(self):
        injector = faults.FaultInjector.parse(
            "nonconvergence:1,solver-timeout:0.25:3", seed=7
        )
        fired = sum(injector.fire(faults.NONCONVERGENCE) for _ in range(5))
        assert fired == 5  # rate 1, no cap
        fired = sum(injector.fire(faults.SOLVER_TIMEOUT) for _ in range(1000))
        assert fired == 3  # capped by max_fires

    def test_same_seed_same_schedule(self):
        a = faults.FaultInjector({"nonconvergence": 0.5}, seed=3)
        b = faults.FaultInjector({"nonconvergence": 0.5}, seed=3)
        schedule = [a.fire(faults.NONCONVERGENCE) for _ in range(64)]
        assert schedule == [b.fire(faults.NONCONVERGENCE) for _ in range(64)]
        assert any(schedule) and not all(schedule)

    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError):
            faults.FaultRule(site="disk-on-fire")
        with pytest.raises(ValueError):
            faults.FaultRule(site=faults.NONCONVERGENCE, rate=1.5)

    def test_retired_pool_sites_rejected(self):
        # The engine has no process pool, so its crash and dispatch sites
        # are gone: a plan naming them is an error, not a silent no-op.
        for spec in ("worker-crash:1", "pickle-failure:1"):
            with pytest.raises(ValueError):
                faults.FaultInjector.parse(spec)

    def test_inject_context_restores_previous_plan(self):
        faults.uninstall()
        assert not faults.fire(faults.NONCONVERGENCE)
        with faults.inject("nonconvergence:1"):
            assert faults.fire(faults.NONCONVERGENCE)
            with faults.inject("solver-timeout:1"):
                assert not faults.fire(faults.NONCONVERGENCE)
                assert faults.fire(faults.SOLVER_TIMEOUT)
            assert faults.fire(faults.NONCONVERGENCE)
        assert faults.active() is None


class TestDecisionOutcome:
    def test_with_degradation_accumulates(self):
        outcome = DecisionOutcome(
            verdict=AuditVerdict.unknown("test"), stages=("criteria",)
        )
        assert not outcome.degraded
        once = outcome.with_degradation("breaker-pinned")
        twice = once.with_degradation("pipeline-error:StageTimeoutError")
        assert twice.degraded
        assert twice.degradation == "breaker-pinned;pipeline-error:StageTimeoutError"
        assert twice.stages[-1] == "pipeline-error:StageTimeoutError"

    def test_runtime_stats_merge_and_flags(self):
        a = RuntimeStats(store_failures=1, budget_exhausted=2)
        b = RuntimeStats(store_failures=2, breaker_trips=1)
        merged = a.merge(b)
        assert merged.store_failures == 3
        assert merged.budget_exhausted == 2
        assert merged.breaker_trips == 1
        assert merged.any_degradation
        assert not RuntimeStats().any_degradation
        assert str(RuntimeStats()) == "clean"


class TestTypedExceptions:
    def test_malformed_event_bad_user(self):
        with pytest.raises(MalformedEventError):
            DisclosureEvent(time=0, user="", query=QUERY)
        with pytest.raises(MalformedEventError):
            DisclosureEvent(time=0, user="alice", query="not-a-query")

    def test_log_record_attaches_event_index(self):
        log = DisclosureLog()
        log.record(0, "alice", QUERY)
        with pytest.raises(MalformedEventError) as info:
            log.record(1, "", QUERY)
        assert info.value.event_index == 1
        assert "event #1" in str(info.value)
        assert isinstance(info.value, ValueError)  # back-compat contract

    def test_log_rejects_non_events_with_index(self):
        with pytest.raises(MalformedEventError) as info:
            DisclosureLog([DisclosureEvent(0, "a", QUERY), "garbage"])
        assert info.value.event_index == 1

    def test_policy_validates_and_coerces_assumption(self):
        policy = AuditPolicy(audit_query=QUERY, assumption="product")
        assert policy.assumption is PriorAssumption.PRODUCT
        with pytest.raises(PolicyError):
            AuditPolicy(audit_query=QUERY, assumption="psychic")
        with pytest.raises(PolicyError):
            AuditPolicy(audit_query="SELECT *", assumption="product")
        with pytest.raises(PolicyError):
            AuditPolicy(audit_query=QUERY, name="")

    def test_solver_configuration_errors_are_typed_valueerrors(self):
        system = AffineSystem(dimension=4)
        system.add_constraint({0: 1.0}, 1.0)
        with pytest.raises(SolverConfigurationError):
            solve_psd_feasibility([], system)
        with pytest.raises(SolverConfigurationError):
            solve_psd_feasibility([-2], system)
        with pytest.raises(SolverConfigurationError):
            solve_psd_feasibility([2], system, max_iterations=0)
        with pytest.raises(ValueError):  # typed errors stay catchable as before
            solve_psd_feasibility([2], system, tolerance=0.0)


class TestBreakerRegistry:
    def test_lazy_per_key_creation_with_shared_thresholds(self):
        from repro.runtime import BreakerRegistry

        registry = BreakerRegistry(failure_threshold=2, recovery_after=4)
        assert len(registry) == 0 and "a" not in registry
        breaker = registry.for_key("a")
        assert breaker is registry.for_key("a")  # stable per key
        assert breaker.failure_threshold == 2
        assert breaker.recovery_after == 4
        assert "a" in registry and registry.keys() == ("a",)

    def test_keys_trip_independently(self):
        from repro.runtime import BreakerRegistry

        registry = BreakerRegistry(failure_threshold=2)
        for _ in range(2):
            registry.for_key("noisy").record_failure()
        assert registry.for_key("noisy").state is BreakerState.OPEN
        assert registry.for_key("quiet").state is BreakerState.CLOSED
        assert registry.for_key("quiet").allow()  # neighbour unaffected
        assert registry.open_keys == ("noisy",)
        assert registry.total_trips == 1
        assert registry.states() == {"noisy": "open", "quiet": "closed"}

    def test_single_breaker_is_the_one_key_case(self):
        """API-compatibility: registry.for_key(k) behaves exactly like a
        bare CircuitBreaker with the same thresholds."""
        from repro.runtime import BreakerRegistry

        registry = BreakerRegistry(failure_threshold=3, recovery_after=2)
        keyed = registry.for_key(None)
        bare = CircuitBreaker(failure_threshold=3, recovery_after=2)
        script = ["fail", "fail", "fail", "allow", "allow", "allow", "ok"]
        for step in script:
            if step == "fail":
                assert keyed.record_failure() == bare.record_failure()
            elif step == "allow":
                assert keyed.allow() == bare.allow()
            else:
                keyed.record_success(), bare.record_success()
            assert keyed.state is bare.state

    def test_thresholds_validated(self):
        from repro.runtime import BreakerRegistry

        with pytest.raises(ValueError):
            BreakerRegistry(failure_threshold=0)
        with pytest.raises(ValueError):
            BreakerRegistry(recovery_after=0)
