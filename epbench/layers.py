"""The layer table: which program entry points are traced, and the
per-layer metrics computed from their spans.

:func:`install` wraps the program's public entry points in whichever
process calls it.  Only calls made once per request, round, decision or
compile are wrapped, never inner loops such as
``FamilyIntervalOracle.interval``.  :func:`layer_metrics` turns the
aggregated spans of a traced run into the ``per_layer`` metrics of
``BENCHMARK.json``.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Tuple

from common import metric, percentile
from tracer import Aggregate, Tracer

#: The product pipeline's deciding stages, in pipeline order.  A
#: verdict's ``method`` names the stage that decided it.
PRODUCT_STAGES = (
    "box-necessary",
    "miklau-suciu",
    "monotonicity",
    "cancellation",
    "numeric-optimizer",
    "bernstein-branch-and-bound",
)
UNDECIDED_STAGE = len(PRODUCT_STAGES)

PROTOCOL = ("protocol.parse_request", "protocol.parse_decision", "protocol.encode_response")
ENGINE = ("engine.audit_log", "engine.decide_many", "engine.decide_one")
COMPILE = ("compile.compile_answer", "compile.compile_boolean")
#: Store reads: the batched probe and the single-key fallback.
STORE_READS = ("store.probe_many", "store.get")
CRITERIA = ("probabilistic.criterion",)
PROBABILISTIC = (
    "probabilistic.audit",
    "probabilistic.criterion",
    "probabilistic.optimizer",
    "probabilistic.exact",
)

#: ``(name, unit)`` of every per-layer metric, in ``BENCHMARK.json`` order.
PER_LAYER: List[Tuple[str, str]] = [
    ("service.protocol.calls", "count"),
    ("service.protocol.busy_ms", "ms"),
    ("service.queue_wait_p50_ms", "ms"),
    ("service.rounds", "count"),
    ("service.batch_mean", "count"),
    ("service.round_busy_ms", "ms"),
    ("service.prepare_busy_ms", "ms"),
    ("service.complete_busy_ms", "ms"),
    ("service.commit.rounds", "count"),
    ("service.commit.records", "count"),
    ("service.commit.busy_ms", "ms"),
    ("service.shard.calls", "count"),
    ("service.shard.busy_ms", "ms"),
    ("audit.engine.calls", "count"),
    ("audit.engine.busy_ms", "ms"),
    ("audit.cache.hits", "count"),
    ("audit.cache.misses", "count"),
    ("audit.store.probes", "count"),
    ("audit.store.probe_keys", "count"),
    ("audit.store.hit_rate", "fraction"),
    ("audit.store.probe_ms", "ms"),
    ("audit.store.puts", "count"),
    ("audit.store.flushes", "count"),
    ("audit.store.flush_ms", "ms"),
    ("db.compile.calls", "count"),
    ("db.compile.worlds", "count"),
    ("db.compile.busy_ms", "ms"),
    ("probabilistic.decisions", "count"),
    ("probabilistic.busy_ms", "ms"),
    ("probabilistic.criteria_ms", "ms"),
    ("probabilistic.optimizer_ms", "ms"),
    ("probabilistic.exact_ms", "ms"),
    *((f"probabilistic.stage.{stage}", "count") for stage in PRODUCT_STAGES),
    ("probabilistic.stage.undecided", "count"),
    ("possibilistic.partition_busy_ms", "ms"),
    ("possibilistic.decisions", "count"),
    ("possibilistic.audit_busy_ms", "ms"),
    ("possibilistic.oracle.hit_rate", "fraction"),
    ("possibilistic.oracle.evictions", "count"),
    ("setup.import_s", "s"),
    ("setup.build_s", "s"),
    ("loadgen.sent", "count"),
    ("loadgen.retries", "count"),
    ("loadgen.cpu_s", "s"),
    ("loadgen.p99_ms", "ms"),
    ("loadgen.max_ms", "ms"),
    ("run.failed_frac", "fraction"),
    ("host.ref_ms_before", "ms"),
    ("host.ref_ms_after", "ms"),
    ("trace.coverage", "fraction"),
    ("trace.overhead", "fraction"),
]


def _request_id(value: Any) -> int:
    return value if isinstance(value, int) else -1


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the program (call before building it)."""
    from repro.audit import engine, store_sql
    from repro.db import compile as db_compile
    from repro.possibilistic import auditor as possibilistic
    from repro.probabilistic import auditor as probabilistic
    from repro.service import commit, executor, server, shard

    clock_ns = time.perf_counter_ns
    parsed_at: Dict[int, int] = {}
    rounds = [0]

    # service.protocol: the server module binds these names at import.
    tracer.wrap(
        server, "parse_request", "protocol.parse_request",
        after=lambda args, kwargs, doc, state: (_request_id(doc.get("id")), 0, 0),
    )

    def parsed(args, kwargs, request, state):
        parsed_at[id(request)] = clock_ns()
        return _request_id(request.request_id), 0, 0

    tracer.wrap(server, "parse_decision", "protocol.parse_decision", after=parsed)
    tracer.wrap(
        server, "encode_response", "protocol.encode_response",
        after=lambda args, kwargs, out, state: (_request_id(args[0].get("id")), 0, 0),
    )

    # service.server: one decision round per ExecutorPool.decide_batch.
    def round_starts(args, kwargs):
        now = clock_ns()
        for request, _ in args[1]:
            seen = parsed_at.pop(id(request), None)
            if seen is not None:
                tracer.sample("service.queue_wait_ns", now, now - seen)
        rounds[0] += 1
        return rounds[0]

    tracer.wrap(
        executor.ExecutorPool, "decide_batch", "server.round",
        before=round_starts,
        after=lambda args, kwargs, out, round_id: (round_id, len(args[1]), 0),
    )
    tracer.wrap(executor.BatchDecisionExecutor, "prepare", "executor.prepare")
    tracer.wrap(executor.BatchDecisionExecutor, "complete", "executor.complete")
    tracer.wrap(
        commit.GroupCommitLog, "append_round", "commit.append_round",
        after=lambda args, kwargs, out, state: (-1, len(args[1]), 0),
    )
    tracer.wrap(shard.TenantShard, "finish", "shard.finish")

    # audit.engine, with the verdict-cache counters each call moved.
    def cache_before(args, kwargs):
        cache = args[0].cache
        return cache.hits, cache.misses

    def cache_after(args, kwargs, out, state):
        cache = args[0].cache
        return -1, cache.hits - state[0], cache.misses - state[1]

    for method in ("audit_log", "decide_many", "decide_one"):
        tracer.wrap(
            engine.BatchAuditEngine, method, f"engine.{method}",
            before=cache_before, after=cache_after,
        )

    # audit.store_sql: a read records (keys asked, keys found) as (a, b).
    # ``get`` is the one-key read ``BatchAuditEngine.decide_one`` makes on
    # a verdict-cache miss.
    tracer.wrap(
        store_sql.SqliteVerdictStore, "probe_many", "store.probe_many",
        after=lambda args, kwargs, found, state: (-1, len(args[1]), len(found)),
    )
    tracer.wrap(
        store_sql.SqliteVerdictStore, "get", "store.get",
        after=lambda args, kwargs, found, state: (-1, 1, int(found is not None)),
    )
    tracer.wrap(store_sql.SqliteVerdictStore, "put", "store.put")
    tracer.wrap(store_sql.SqliteVerdictStore, "flush", "store.flush")

    # db.compile: every compile sweeps all 2^n worlds.
    for method in ("compile_answer", "compile_boolean"):
        tracer.wrap(
            db_compile.CandidateUniverse, method, f"compile.{method}",
            after=lambda args, kwargs, out, state: (-1, args[0].space.size, 0),
        )

    # probabilistic: the staged pipeline and its stages (module globals of
    # repro.probabilistic.auditor, looked up at call time).
    def stage_of(args, kwargs, verdict, state):
        if verdict.is_decided and verdict.method in PRODUCT_STAGES:
            return -1, PRODUCT_STAGES.index(verdict.method), 0
        return -1, UNDECIDED_STAGE, 0

    tracer.wrap(
        probabilistic.ProbabilisticAuditor, "audit", "probabilistic.audit",
        after=stage_of,
    )
    for criterion in (
        "box_necessary_criterion",
        "miklau_suciu_criterion",
        "monotonicity_criterion",
        "cancellation_criterion",
    ):
        tracer.wrap(probabilistic, criterion, "probabilistic.criterion")
    tracer.wrap(probabilistic, "find_product_counterexample", "probabilistic.optimizer")
    tracer.wrap(probabilistic, "decide_product_safety", "probabilistic.exact")

    # possibilistic: the interval-partition build (one call per origin in
    # A, the first time an auditor sees A) and the per-decision audit.
    auditors: Dict[int, Any] = {}

    def remember(args, kwargs, verdict, state):
        auditors.setdefault(id(args[0]), args[0])
        return -1, 0, 0

    tracer.wrap(
        possibilistic.PossibilisticAuditor, "audit", "possibilistic.audit",
        after=remember,
    )
    tracer.wrap(possibilistic.PossibilisticAuditor, "prepare", "possibilistic.prepare")
    tracer.wrap(possibilistic, "interval_partition", "possibilistic.partition")

    def oracle_notes() -> Dict[str, Any]:
        hits = misses = evictions = 0
        for auditor in auditors.values():
            stats = auditor.oracle.cache_stats()
            hits += stats.hits
            misses += stats.misses
            evictions += auditor.oracle.cache_evictions
        return {"oracle_hits": hits, "oracle_misses": misses, "oracle_evictions": evictions}

    tracer.note_sources.append(oracle_notes)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(agg: Aggregate, extra: Dict[str, float]) -> Dict[str, Dict[str, Any]]:
    """The ``per_layer`` metrics from a traced run's aggregated spans.

    ``extra`` carries the values that do not come from spans: set-up
    split, load generator, host stamp, failure fraction and the trace's
    own overhead.
    """
    waits = sorted(agg.samples.get("service.queue_wait_ns", []))
    rounds = agg.count("server.round")
    stage_counts = agg.a_values.get("probabilistic.audit", {})
    oracle_hits = sum(note.get("oracle_hits", 0) for note in agg.notes)
    oracle_misses = sum(note.get("oracle_misses", 0) for note in agg.notes)
    probe_keys = agg.total_a(*STORE_READS)
    values: Dict[str, float] = {
        "service.protocol.calls": agg.count(*PROTOCOL),
        "service.protocol.busy_ms": agg.busy_ms(*PROTOCOL),
        "service.queue_wait_p50_ms": percentile(waits, 0.5) / 1e6 if waits else 0.0,
        "service.rounds": rounds,
        "service.batch_mean": _ratio(agg.total_a("server.round"), rounds),
        "service.round_busy_ms": agg.busy_ms("server.round"),
        "service.prepare_busy_ms": agg.busy_ms("executor.prepare"),
        "service.complete_busy_ms": agg.busy_ms("executor.complete"),
        "service.commit.rounds": agg.count("commit.append_round"),
        "service.commit.records": agg.total_a("commit.append_round"),
        "service.commit.busy_ms": agg.busy_ms("commit.append_round"),
        "service.shard.calls": agg.count("shard.finish"),
        "service.shard.busy_ms": agg.busy_ms("shard.finish"),
        "audit.engine.calls": agg.count(*ENGINE),
        "audit.engine.busy_ms": agg.busy_ms(*ENGINE),
        "audit.cache.hits": agg.total_a(*ENGINE),
        "audit.cache.misses": agg.total_b(*ENGINE),
        "audit.store.probes": agg.count(*STORE_READS),
        "audit.store.probe_keys": probe_keys,
        "audit.store.hit_rate": _ratio(agg.total_b(*STORE_READS), probe_keys),
        "audit.store.probe_ms": agg.busy_ms(*STORE_READS),
        "audit.store.puts": agg.count("store.put"),
        "audit.store.flushes": agg.count("store.flush"),
        "audit.store.flush_ms": agg.busy_ms("store.flush"),
        "db.compile.calls": agg.count(*COMPILE),
        "db.compile.worlds": agg.total_a(*COMPILE),
        "db.compile.busy_ms": agg.busy_ms(*COMPILE),
        "probabilistic.decisions": agg.count("probabilistic.audit"),
        "probabilistic.busy_ms": agg.busy_ms(*PROBABILISTIC),
        "probabilistic.criteria_ms": agg.busy_ms(*CRITERIA),
        "probabilistic.optimizer_ms": agg.busy_ms("probabilistic.optimizer"),
        "probabilistic.exact_ms": agg.busy_ms("probabilistic.exact"),
        "probabilistic.stage.undecided": stage_counts.get(UNDECIDED_STAGE, 0),
        "possibilistic.partition_busy_ms": agg.busy_ms("possibilistic.partition"),
        "possibilistic.decisions": agg.count("possibilistic.audit"),
        "possibilistic.audit_busy_ms": agg.busy_ms("possibilistic.audit", "possibilistic.prepare"),
        "possibilistic.oracle.hit_rate": _ratio(oracle_hits, oracle_hits + oracle_misses),
        "possibilistic.oracle.evictions": sum(
            note.get("oracle_evictions", 0) for note in agg.notes
        ),
        "trace.coverage": _ratio(agg.covered_ns, agg.window_ns),
    }
    for index, stage in enumerate(PRODUCT_STAGES):
        values[f"probabilistic.stage.{stage}"] = stage_counts.get(index, 0)
    values.update(extra)
    missing = [name for name, _ in PER_LAYER if name not in values]
    if missing:
        raise KeyError(f"per-layer metrics without a value: {missing}")
    return {name: metric(values[name], unit) for name, unit in PER_LAYER}
