"""The batched decision plane: verdict identity, group-commit soundness,
executor partitions.

Three invariant families for the gateway scale-out:

* **Verdict identity** — a cross-tenant batch pushed through
  ``BatchDecisionExecutor`` (one group-commit fsync, one engine pass, one
  store probe) answers bit-identically to deciding the same events one at
  a time, and to the offline scratch audit — per event and per
  user-cumulative.
* **Group-commit crash soundness** — a crashed round (torn write or
  failed fsync) withholds *every* verdict in it, heals by truncation, and
  any kill-9 prefix of batched operation replays bit-identically (the
  PR-8 hypothesis property, extended to the shared log).
* **Executor partitioning** — the tenant → executor hash is stable, a
  killed executor sheds only its own partition's requests (with a retry
  hint) while neighbours keep deciding, and the respawned executor
  replays its journals before serving.
"""

from __future__ import annotations

import asyncio
import os
import signal

import pytest

from repro.runtime import faults
from repro.service.client import GatewayClient
from repro.service.executor import (
    BatchDecisionExecutor,
    executor_index,
)
from repro.service.server import AuditGateway
from repro.service.shard import ShardManager

from .conftest import (
    as_request,
    drive_manager,
    recovered_statuses,
    scratch_statuses,
)

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - test extra not installed
    HAVE_HYPOTHESIS = False


def make_manager(scenario, tmp_path, subdir="run"):
    universe, policy, _ = scenario
    return ShardManager(
        universe, policy, journal_dir=tmp_path / subdir / "journals", store=None
    )


def batch_items(events):
    return [(as_request(event), None) for event in events]


def live_statuses(responses, events):
    return {
        (event.tenant, event.time): response["status"]
        for event, response in zip(events, responses)
        if response.get("ok")
    }


def cumulative_by_user(manager):
    return {
        (tenant, user): state.cumulative_verdict.status.value
        for tenant, shard in manager.tenants.items()
        for user, state in shard.auditor.states.items()
    }


class TestBatchedVerdictIdentity:
    def test_one_batch_equals_one_at_a_time_equals_scratch(
        self, scenario, trace, tmp_path
    ):
        universe, policy, _ = scenario
        batched = make_manager(scenario, tmp_path, "batched")
        executor = BatchDecisionExecutor(batched)
        responses = executor.decide_batch(batch_items(trace))
        live = live_statuses(responses, trace)
        assert len(live) == len(trace)  # no faults: everything decided
        serial = make_manager(scenario, tmp_path, "serial")
        serial_live = live_statuses(drive_manager(serial, trace), trace)
        scratch = scratch_statuses(universe, policy, trace)
        assert live == serial_live == scratch
        # The user-cumulative composition states agree too.
        assert cumulative_by_user(batched) == cumulative_by_user(serial)
        # And the whole batch cost exactly one commit round (one fsync).
        stats = batched.gateway_stats
        assert stats.commit_rounds == 1
        assert stats.batch_events == len(trace)
        assert stats.fsyncs_saved == len(trace) - 1
        batched.close()
        serial.close()

    def test_many_small_batches_match_scratch(self, scenario, trace, tmp_path):
        universe, policy, _ = scenario
        manager = make_manager(scenario, tmp_path)
        executor = BatchDecisionExecutor(manager)
        responses = []
        for start in range(0, len(trace), 5):
            responses.extend(
                executor.decide_batch(batch_items(trace[start : start + 5]))
            )
        assert live_statuses(responses, trace) == scratch_statuses(
            universe, policy, trace
        )
        assert manager.gateway_stats.commit_rounds == (len(trace) + 4) // 5
        manager.close()

    def test_bad_query_fails_only_its_own_slot(self, scenario, trace, tmp_path):
        universe, policy, _ = scenario
        events = trace[:6]
        bad_texts = [
            "NOT VALID SQL (((",
            # Well-formed, but naming a table the database lacks: directly,
            # and behind a conjunct that matches no candidate.
            "EXISTS(SELECT * FROM nosuch WHERE patient = 'Bob')",
            "EXISTS(SELECT * FROM registry WHERE patient = 'Nobody') AND "
            "EXISTS(SELECT * FROM nosuch WHERE patient = 'Bob')",
            # A misspelt column that no candidate record ever evaluates.
            "EXISTS(SELECT * FROM registry WHERE patient = 'Nobody' "
            "AND nosuch = 'Bob')",
        ]
        for attempt, text in enumerate(bad_texts):
            manager = make_manager(scenario, tmp_path, subdir=f"run{attempt}")
            executor = BatchDecisionExecutor(manager)
            items = batch_items(events)
            bad = as_request(events[2])
            bad = type(bad)(
                tenant=bad.tenant,
                user=bad.user,
                time=bad.time,
                query_text=text,
                request_id=bad.request_id,
            )
            items[2] = (bad, None)
            responses = executor.decide_batch(items)
            assert responses[2]["decision"] == "error", text
            assert "bad query" in responses[2]["error"], text
            others = [r for i, r in enumerate(responses) if i != 2]
            assert all(r["ok"] for r in others), text
            # The malformed slot was never journaled — the commit round
            # holds exactly the five parseable records.
            assert manager.gateway_stats.batch_events == 5, text
            manager.close()


class TestGroupCommitCrash:
    def test_fsync_fail_withholds_every_verdict_in_the_round(
        self, scenario, trace, tmp_path
    ):
        universe, policy, _ = scenario
        events = trace[:6]
        manager = make_manager(scenario, tmp_path)
        executor = BatchDecisionExecutor(manager)
        with faults.inject(
            {
                faults.COMMIT_FSYNC_FAIL: faults.FaultRule(
                    site=faults.COMMIT_FSYNC_FAIL, rate=1.0, max_fires=1
                )
            }
        ):
            crashed = executor.decide_batch(batch_items(events))
            assert all(not r["ok"] for r in crashed)
            assert all("fsync" in r["error"] for r in crashed)
            assert manager.gateway_stats.commit_crashes == 1
            assert manager.commit_log.crashed
            # The retry heals the log (truncate to the durable boundary)
            # and decides normally.
            retried = executor.decide_batch(batch_items(events))
        assert live_statuses(retried, events) == scratch_statuses(
            universe, policy, events
        )
        # After heal + retry the log holds each event exactly once.
        assert len(manager.commit_log.replay(repair=False).records) == len(events)
        manager.close()

    def test_torn_round_recovers_to_a_sound_prefix(
        self, scenario, trace, tmp_path
    ):
        """A torn group-commit round salvages only complete frames, and a
        kill -9 before heal replays exactly the durable records."""
        universe, policy, _ = scenario
        first, second = trace[:5], trace[5:10]
        manager = make_manager(scenario, tmp_path)
        executor = BatchDecisionExecutor(manager)
        ok = executor.decide_batch(batch_items(first))
        assert all(r["ok"] for r in ok)
        with faults.inject(
            {
                faults.JOURNAL_TORN_WRITE: faults.FaultRule(
                    site=faults.JOURNAL_TORN_WRITE, rate=1.0, max_fires=1
                )
            }
        ):
            crashed = executor.decide_batch(batch_items(second))
        assert all(not r["ok"] for r in crashed)
        assert all("journal crash" in r["error"] for r in crashed)
        # kill -9 before any heal: abandon the manager, recover fresh.
        fresh = make_manager(scenario, tmp_path)
        counts = fresh.recover_all()
        surviving_keys = {
            (tenant, record.time)
            for tenant, record in fresh.commit_log.replay(repair=False).records
        }
        surviving = [e for e in trace[:10] if (e.tenant, e.time) in surviving_keys]
        # Every first-round record is durable; the torn second round
        # contributes only the salvaged prefix of complete frames — events
        # whose verdicts were never issued, so replaying them is sound.
        assert {(e.tenant, e.time) for e in first} <= surviving_keys
        assert sum(counts.values()) == len(surviving)
        assert recovered_statuses(fresh, counts) == scratch_statuses(
            universe, policy, surviving
        )
        manager.close()
        fresh.close()


if HAVE_HYPOTHESIS:

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        cut=st.integers(min_value=0, max_value=30),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_property_batched_kill_at_any_point_recovers_identically(
        scenario, tmp_path_factory, cut, seed
    ):
        """PR-8's hypothesis property, extended to group commit: for any
        prefix length and trace seed, killing the gateway after ``cut``
        *batched* decisions and replaying the shared log yields verdicts
        bit-identical to a scratch audit of those decisions."""
        from repro.service.trace import zipf_trace

        universe, policy, pool = scenario
        events = zipf_trace(
            n_events=30, n_tenants=3, n_users=2, seed=seed, pool=pool
        )[:cut]
        tmp_path = tmp_path_factory.mktemp("prop-batched")
        manager = ShardManager(
            universe, policy, journal_dir=tmp_path / "journals", store=None
        )
        executor = BatchDecisionExecutor(manager)
        responses = []
        width = 1 + seed % 5  # deterministic batch width per example
        for start in range(0, len(events), width):
            responses.extend(
                executor.decide_batch(batch_items(events[start : start + width]))
            )
        live = live_statuses(responses, events)
        recovered = ShardManager(
            universe, policy, journal_dir=tmp_path / "journals", store=None
        )
        counts = recovered.recover_all()
        after = recovered_statuses(recovered, counts)
        assert after == scratch_statuses(universe, policy, events) == live


class TestExecutorPartition:
    def test_hash_partition_is_stable_and_total(self):
        tenants = [f"t{i:03d}" for i in range(64)] + ["a/b", "Ünïcode", ""]
        for workers in (1, 2, 3, 8):
            for tenant in tenants:
                index = executor_index(tenant, workers)
                assert 0 <= index < max(1, workers)
                assert index == executor_index(tenant, workers)  # stable
        assert executor_index("anything", 1) == 0
        # Not degenerate: with a few workers the tenants actually spread.
        assert len({executor_index(t, 4) for t in tenants}) > 1

    def test_killed_executor_sheds_only_its_partition(
        self, scenario, trace, tmp_path
    ):
        universe, policy, _ = scenario
        workers = 3  # splits this trace's tenants across partitions
        by_partition = {}
        for event in trace:
            by_partition.setdefault(
                executor_index(event.tenant, workers), []
            ).append(event)
        assert len(by_partition) >= 2  # the trace spans partitions
        indexes = sorted(by_partition)
        victim_event = by_partition[indexes[0]][0]
        neighbour_event = by_partition[indexes[1]][0]

        async def run():
            manager = make_manager(scenario, tmp_path)
            gateway = AuditGateway(
                manager, port=0, http_port=0, workers=workers
            )
            await gateway.start()
            pids = gateway.executor_pids()
            assert len(pids) == workers
            os.kill(
                pids[executor_index(victim_event.tenant, workers)],
                signal.SIGKILL,
            )

            async def decide(event):
                async with GatewayClient(
                    "127.0.0.1", gateway.port, event.tenant
                ) as client:
                    return await client.decide(
                        event.user, event.query_text, time=event.time
                    )

            # The dead executor's partition sheds with an explicit retry
            # hint; the neighbour partition never notices.
            shed = await decide(victim_event)
            assert shed["decision"] == "shed"
            assert shed["reason"] == "executor-restart"
            ok_neighbour = await decide(neighbour_event)
            assert ok_neighbour["ok"]
            # The shed carried a restart: the retried request decides on
            # the respawned (journal-replayed) executor.
            await asyncio.sleep(shed["retry_after_ms"] / 1000.0)
            ok_victim = await decide(victim_event)
            assert ok_victim["ok"]
            report = await gateway.drain()
            assert report["batching"]["executor_restarts"] == 1
            assert report["batching"]["workers"] == workers
            statuses = {
                (victim_event.tenant, victim_event.time): ok_victim["status"],
                (neighbour_event.tenant, neighbour_event.time): ok_neighbour[
                    "status"
                ],
            }
            assert statuses == scratch_statuses(
                universe, policy, [victim_event, neighbour_event]
            )

        asyncio.run(run())

    def test_executor_crash_chaos_site_fires_and_recovers(
        self, scenario, trace, tmp_path
    ):
        """The ``executor-crash`` site at rate 1: the victim's batch sheds,
        the process respawns, retries decide — verdicts match scratch."""
        universe, policy, _ = scenario
        events = trace[:16]

        async def run():
            manager = make_manager(scenario, tmp_path)
            gateway = AuditGateway(manager, port=0, http_port=0, workers=2)
            await gateway.start()
            rule = faults.FaultRule(
                site=faults.EXECUTOR_CRASH, rate=1.0, max_fires=2
            )
            clients = {}
            responses = {}
            with faults.inject({faults.EXECUTOR_CRASH: rule}):
                for event in events:
                    for _ in range(8):
                        client = clients.get(event.tenant)
                        if client is None:
                            client = clients[event.tenant] = await GatewayClient(
                                "127.0.0.1", gateway.port, event.tenant
                            ).connect()
                        response = await client.decide(
                            event.user, event.query_text, time=event.time
                        )
                        if response.get("decision") == "shed":
                            await asyncio.sleep(
                                response["retry_after_ms"] / 1000.0
                            )
                            continue
                        responses[(event.tenant, event.time)] = response
                        break
                for client in clients.values():
                    await client.close()
                report = await gateway.drain()
            assert report["batching"]["executor_restarts"] == 2
            return responses

        responses = asyncio.run(run())
        assert set(responses) == {(e.tenant, e.time) for e in events}
        live = {key: r["status"] for key, r in responses.items()}
        assert live == scratch_statuses(universe, policy, events)
