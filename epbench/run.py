"""Benchmark entry point: ``python3 epbench/run.py --workload W --seed S
--seconds T --trace 0|1``, from the root of a checkout.

A run is a series of rounds, each in fresh processes (see README.md):
``offline_round.py`` for the two offline workloads, ``gateway_server.py``
plus ``loadgen.py`` for ``gateway-zipf``.  After the rounds the run
checks every verdict against an oracle, outside the timed phases.  It
prints one ``{"env": ...}`` line with the environment and host stamp,
then, as its last line, the result: every end-to-end metric with
``--trace 0``; with ``--trace 1`` every per-layer metric, taken from the
rounds that ran traced (odd rounds; even rounds run untraced to measure
the trace's overhead).

Exit status 0 when the run is correct, 1 when a check failed or a round
broke, 2 when the checkout holds no program to measure.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from typing import Any, Dict, List

from statistics import median

from common import (
    BENCH_DIR,
    SRC,
    WORK_ROOT,
    metric,
    peak_rss_mb,
    percentile,
    program_available,
    read_json,
    read_line,
    reference_ms,
    spawn,
    stop,
    summary_line,
)

WORKLOADS = ("gateway-zipf", "audit-product-stream", "audit-subcubes-stream")

#: ``(name, unit)`` of every end-to-end metric, in ``BENCHMARK.json`` order.
END_TO_END = [
    ("throughput_per_s", "1/s"),
    ("warm_throughput_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("setup_s", "s"),
    ("rss_mb", "MB"),
    ("ok_frac", "fraction"),
]

#: Offline rounds: at least this many, then more until the timed passes
#: add up to ``--seconds``.
MIN_ROUNDS = 3
MAX_ROUNDS = 16
#: Log length of an offline round, cut to what :data:`MIN_ROUNDS` rounds
#: at :data:`OFFLINE_RATE` events/s (a low estimate for both passes
#: together) fit in ``--seconds``: full length from 23 s up.
OFFLINE_EVENTS = 3000
OFFLINE_RATE = 400
#: Events of the small-``n`` log the offline verdict gate audits.
GATE_EVENTS = 400

#: Gateway rounds per run; ``--seconds`` is split evenly across them and
#: then between the cold (60%) and warm (40%) phases.  Phases are fixed
#: work — events sized at :data:`GATEWAY_RATE` — so memory and every
#: count repeat whatever the host's speed.
GATEWAY_ROUNDS = 6
COLD_SHARE = 0.6
GATEWAY_RATE = 6500

#: Per-step limits; a run that exceeds one fails instead of hanging.
READY_TIMEOUT = 120.0
SLACK_TIMEOUT = 60.0


def _ms(ns: float) -> float:
    return ns / 1e6


def _wait_ok(process: subprocess.Popen, timeout: float) -> None:
    if process.wait(timeout=timeout) != 0:
        raise RuntimeError(f"{process.args[1]} exited with {process.returncode}")


# -- offline workloads ---------------------------------------------------------


def offline_round(
    workload: str, seed: int, events: int, directory: pathlib.Path, traced: bool
) -> Dict[str, Any]:
    directory.mkdir(parents=True)
    out = directory / "report.json"
    args = [
        "--workload", workload,
        "--seed", str(seed),
        "--events", str(events),
        "--workdir", str(directory),
        "--out", str(out),
    ] + (["--trace"] if traced else [])
    started = time.perf_counter()
    process = spawn("offline_round.py", args, stdout=subprocess.PIPE, bufsize=0)
    try:
        read_line(process, "READY", READY_TIMEOUT)
        setup_s = time.perf_counter() - started
        read_line(process, "DONE", READY_TIMEOUT)
        _wait_ok(process, SLACK_TIMEOUT)
    finally:
        stop(process)
    report = read_json(out)
    report.update(setup_s=setup_s, traced=traced, seed=seed)
    return report


def offline_gate(workload: str, seed: int, directory: pathlib.Path) -> bool:
    """Both passes equal ``OfflineAuditor.audit_log`` on the same log, at small n."""
    import workloads
    from offline_round import run_passes, statuses
    from repro.audit.offline import OfflineAuditor

    universe, policy = workloads.offline_setup(workload, workloads.GATE_N)
    log = workloads.offline_log(workload, universe, seed, GATE_EVENTS)
    passes = run_passes(universe, policy, log, directory)
    expected = statuses(OfflineAuditor(universe, policy).audit_log(log))
    return statuses(passes["cold"]) == expected == statuses(passes["warm"])


def run_offline(args, work: pathlib.Path) -> Dict[str, Any]:
    import workloads

    events = min(OFFLINE_EVENTS, int(OFFLINE_RATE * args.seconds / MIN_ROUNDS))
    rounds: List[Dict[str, Any]] = []
    timed_s = 0.0
    while len(rounds) < MIN_ROUNDS or (
        timed_s < args.seconds and len(rounds) < MAX_ROUNDS
    ):
        index = len(rounds)
        report = offline_round(
            args.workload,
            workloads.round_seed(args.seed, index),
            events,
            work / f"round{index}",
            traced=bool(args.trace) and index % 2 == 1,
        )
        timed_s += (report["cold_ns"] + report["warm_ns"]) / 1e9
        rounds.append(report)
    gate_ok = offline_gate(args.workload, args.seed, work / "gate")

    # A round has only ~30 appends, so the latency percentiles pool the
    # rounds, and the rates divide total events by total time.
    plain = [r for r in rounds if not r["traced"]]
    audited = sum(r["events"] for r in plain)
    latencies = sorted(ns for r in plain for ns in r["latencies_ns"])
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    correct = gate_ok and all(r["passes_agree"] and r["audited_all"] for r in rounds)
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "values": {
            "throughput_per_s": audited / (sum(r["cold_ns"] for r in plain) / 1e9),
            "warm_throughput_per_s": audited / (sum(r["warm_ns"] for r in plain) / 1e9),
            "p50_ms": _ms(percentile(latencies, 0.5)),
            "p90_ms": _ms(percentile(latencies, 0.9)),
            "setup_s": median([r["setup_s"] for r in plain]),
            "rss_mb": median([r["rss_mb"] for r in plain]),
        },
        "round_throughputs": [
            (r["traced"], r["events"] / (r["cold_ns"] / 1e9)) for r in rounds
        ],
        "traces": [(r["spans"], r["windows"]) for r in rounds if r["traced"]],
        "setup_split": (
            median([r["import_s"] for r in rounds]),
            median([r["build_s"] for r in rounds]),
        ),
        "loadgen": {},
        "backends": {
            "decision_backend": rounds[0]["decision_backend"],
            "native_backend": rounds[0]["native_backend"],
        },
        "rounds": [
            {k: r[k] for k in ("seed", "events", "distinct_queries", "traced")}
            | {k: r[k] for k in ("setup_s", "rss_mb")}
            | {"cold_s": r["cold_ns"] / 1e9, "warm_s": r["warm_ns"] / 1e9}
            for r in rounds
        ],
    }


# -- gateway-zipf --------------------------------------------------------------


def gateway_round(
    seed: int,
    events: int,
    warm_events: int,
    directory: pathlib.Path,
    traced: bool,
) -> Dict[str, Any]:
    directory.mkdir(parents=True)
    loadgen_out = directory / "loadgen.json"
    server_out = directory / "server.json"
    loadgen = spawn(
        "loadgen.py",
        [
            "--seed", str(seed),
            "--events", str(events),
            "--warm-events", str(warm_events),
            "--out", str(loadgen_out),
        ],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        bufsize=0,
    )
    server = None
    try:
        read_line(loadgen, "READY", READY_TIMEOUT)
        started = time.perf_counter()
        server = spawn(
            "gateway_server.py",
            ["--workdir", str(directory), "--out", str(server_out)]
            + (["--trace"] if traced else []),
            stdout=subprocess.PIPE,
            bufsize=0,
        )
        port = read_line(server, "READY", READY_TIMEOUT).split()[1]
        setup_s = time.perf_counter() - started
        loadgen.stdin.write(f"GO {port}\n".encode())
        loadgen.stdin.flush()
        read_line(loadgen, "DONE", READY_TIMEOUT)
        rss_mb = peak_rss_mb(server.pid)
        server.send_signal(signal.SIGTERM)
        _wait_ok(server, SLACK_TIMEOUT)
        _wait_ok(loadgen, SLACK_TIMEOUT)
    finally:
        stop(loadgen)
        stop(server)
    return {
        "seed": seed,
        "events": events,
        "setup_s": setup_s,
        "rss_mb": rss_mb,
        "traced": traced,
        "loadgen": read_json(loadgen_out),
        "server": read_json(server_out),
    }


def gateway_gate(rounds: List[Dict[str, Any]]) -> bool:
    """Every answered status equals a ``BatchAuditEngine`` audit of the trace.

    Per-event verdicts key on the disclosed set, so one engine pass over
    the trace's distinct queries is the reference for every event (E21's
    check).  Each answered cumulative status must equal the engine's
    verdict on the intersection of that user's answered disclosures, in
    trace order.
    """
    import workloads
    from repro.audit.engine import BatchAuditEngine
    from repro.audit.log import DisclosureLog
    from repro.db.sql import parse_boolean_query
    from repro.service.trace import hospital_pool

    universe, policy, pool = hospital_pool()
    engine = BatchAuditEngine(universe, policy, n_workers=1)
    log = DisclosureLog()
    for time_, text in enumerate(pool):
        log.record(time_, "gate", parse_boolean_query(text))
    per_event = {
        text: finding.verdict.status.value
        for text, finding in zip(pool, engine.audit_log(log).findings)
    }
    disclosed = {text: engine.compile_query(parse_boolean_query(text)) for text in pool}
    for report in rounds:
        trace = workloads.gateway_trace(report["seed"], report["events"])
        for phase in ("cold", "warm"):
            answered = sorted(report["loadgen"][phase]["answered"])
            cumulative = {}
            folded = []
            for time_, status, _ in answered:
                event = trace[time_]
                if status != per_event[event.query_text]:
                    return False
                current = cumulative.get(event.user, universe.space.full)
                current = cumulative[event.user] = current & disclosed[event.query_text]
                folded.append(current)
            unique = {s.mask: s for s in folded}
            verdicts = engine.decide_many(list(unique.values()))
            expected = {
                mask: outcome.verdict.status.value
                for mask, outcome in zip(unique, verdicts)
            }
            if any(
                cum != expected[s.mask] for (_, _, cum), s in zip(answered, folded)
            ):
                return False
    return True


def gateway_values(report: Dict[str, Any]) -> Dict[str, float]:
    """One gateway round's end-to-end values, measured by the client; the
    latencies are the cold phase's."""

    def rate(phase: Dict[str, Any]) -> float:
        return len(phase["latencies_ns"]) / ((phase["end"] - phase["t0"]) / 1e9)

    cold, warm = report["loadgen"]["cold"], report["loadgen"]["warm"]
    latencies = sorted(cold["latencies_ns"])
    return {
        "throughput_per_s": rate(cold),
        "warm_throughput_per_s": rate(warm),
        "p50_ms": _ms(percentile(latencies, 0.5)),
        "p90_ms": _ms(percentile(latencies, 0.9)),
        "setup_s": report["setup_s"],
        "rss_mb": report["rss_mb"],
    }


def run_gateway(args, work: pathlib.Path) -> Dict[str, Any]:
    import loadgen as lg
    import workloads

    per_round = GATEWAY_RATE * args.seconds / GATEWAY_ROUNDS
    events = lg.WARMUP + int(COLD_SHARE * per_round)
    warm_events = int((1 - COLD_SHARE) * per_round)
    rounds = []
    for index in range(GATEWAY_ROUNDS):
        report = gateway_round(
            workloads.round_seed(args.seed, index),
            events,
            warm_events,
            work / f"round{index}",
            traced=bool(args.trace) and index % 2 == 1,
        )
        report["values"] = gateway_values(report)
        rounds.append(report)
    gate_ok = gateway_gate(rounds)

    # A round has ~10k responses per phase, so its own figures are sound;
    # the median over rounds keeps one round on a slow stretch of the
    # host from setting the run's figure.
    plain = [r["values"] for r in rounds if not r["traced"]]
    phases = [r["loadgen"][p] for r in rounds for p in ("cold", "warm")]
    attempted = sum(p["sent"] for p in phases)
    latencies = sorted(
        ns
        for r in rounds
        if not r["traced"]
        for ns in r["loadgen"]["cold"]["latencies_ns"]
    )
    windows = [
        [(r["loadgen"][p]["t0"], r["loadgen"][p]["end"]) for p in ("cold", "warm")]
        for r in rounds
    ]
    return {
        "correct": gate_ok,
        "attempted": attempted,
        "failed": sum(p["sheds"] + p["errors"] + p["dropped"] for p in phases),
        "values": {name: median(v[name] for v in plain) for name in plain[0]},
        "round_throughputs": [
            (r["traced"], r["values"]["throughput_per_s"]) for r in rounds
        ],
        "traces": [
            (r["server"]["spans"], w) for r, w in zip(rounds, windows) if r["traced"]
        ],
        "setup_split": (
            median([r["server"]["import_s"] for r in rounds]),
            median([r["server"]["build_s"] for r in rounds]),
        ),
        "loadgen": {
            "loadgen.sent": attempted,
            "loadgen.retries": sum(p["sheds"] for p in phases),
            "loadgen.cpu_s": sum(p["cpu_s"] for p in phases),
            "loadgen.p99_ms": _ms(percentile(latencies, 0.99)),
            "loadgen.max_ms": _ms(latencies[-1]),
        },
        "backends": {
            "decision_backend": rounds[0]["server"]["decision_backend"],
            "native_backend": rounds[0]["server"]["native_backend"],
        },
        "rounds": [
            {k: r[k] for k in ("seed", "events", "traced")}
            | {"drain": r["server"]["drain"]}
            | r["values"]
            for r in rounds
        ],
    }


# -- reporting -----------------------------------------------------------------


def per_layer_metrics(
    outcome: Dict[str, Any], failed_frac: float, reference: Dict[str, float]
):
    import layers
    from tracer import Aggregate

    agg = Aggregate()
    for document, windows in outcome["traces"]:
        agg.add(document, windows, count_a_values=("probabilistic.audit",))

    plain = [tp for traced, tp in outcome["round_throughputs"] if not traced]
    traced = [tp for is_traced, tp in outcome["round_throughputs"] if is_traced]
    loadgen = {
        name: outcome["loadgen"].get(name, 0.0)
        for name, _ in layers.PER_LAYER
        if name.startswith("loadgen.")
    }
    extra = {
        "setup.import_s": outcome["setup_split"][0],
        "setup.build_s": outcome["setup_split"][1],
        **loadgen,
        "run.failed_frac": failed_frac,
        "host.ref_ms_before": reference["before"],
        "host.ref_ms_after": reference["after"],
        "trace.overhead": 1.0 - median(traced) / median(plain),
    }
    return layers.layer_metrics(agg, extra)


def environment(
    seed: int, reference: Dict[str, float], outcome: Dict[str, Any]
) -> Dict[str, Any]:
    import workloads
    from repro.perf import machine_info

    info = machine_info()
    info.update(
        nproc=os.cpu_count(),
        seed=seed,
        held_out_seed=workloads.HELD_OUT_SEED,
        engine_backends=outcome["backends"],
        repro_env={k: v for k, v in os.environ.items() if k.startswith("REPRO_")},
        **{
            "host.ref_ms_before": reference["before"],
            "host.ref_ms_after": reference["after"],
        },
        rounds=outcome["rounds"],
    )
    return info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_available():
        print(f"epbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    # On SIGTERM, unwind through every ``finally``: children are stopped
    # and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    WORK_ROOT.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        # Byte-compile first, so every timed set-up imports cached bytecode.
        for tree in (SRC, BENCH_DIR):
            compileall.compile_dir(str(tree), quiet=1)
        reference = {"before": reference_ms()}
        run = run_gateway if args.workload == "gateway-zipf" else run_offline
        outcome = run(args, work)
        reference["after"] = reference_ms()
        failed_frac = outcome["failed"] / outcome["attempted"]
        if args.trace:
            metrics = per_layer_metrics(outcome, failed_frac, reference)
        else:
            values = dict(outcome["values"], ok_frac=1.0 - failed_frac)
            metrics = {name: metric(values[name], unit) for name, unit in END_TO_END}
        env = environment(args.seed, reference, outcome)
        print(json.dumps({"env": env}, default=str))
        print(
            summary_line(
                outcome["correct"], outcome["attempted"], outcome["failed"], metrics
            ),
            flush=True,
        )
        return 0 if outcome["correct"] else 1
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


if __name__ == "__main__":
    sys.exit(main())
