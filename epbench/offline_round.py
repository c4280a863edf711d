"""One round of an offline workload, in a fresh process.

Run by ``run.py`` as ``python3 epbench/offline_round.py --workload W
--seed S --events E --workdir D --out FILE [--trace]``.  The round:

1. imports the program and builds the universe, policy and an empty
   SQLite verdict store, then prints ``READY`` — the parent times set-up
   from spawn to that line;
2. generates its log (untimed: the benchmark's own input);
3. **cold pass** — streams the log into one ``OfflineAuditor`` in
   appends of :data:`CHUNK` events, timing each
   ``audit_log_incremental`` call (what ``repro audit --incremental
   --store-backend sqlite`` runs);
4. **warm pass** — a fresh ``OfflineAuditor`` on a freshly opened store
   over the same directory re-audits the whole log in one call;
5. reads its peak RSS, checks both passes agree, and writes a JSON
   report to ``--out``.
"""

from __future__ import annotations

import argparse
import pathlib
import time
from typing import Any, Dict, List, Tuple

import_started = time.perf_counter()

from common import peak_rss_mb, write_json  # noqa: E402

#: Events appended between two incremental audits of the cold pass.
CHUNK = 100


def run_passes(universe, policy, log, store_dir: pathlib.Path) -> Dict[str, Any]:
    """The cold stream and the warm re-audit of ``log`` over one store.

    Shared with ``run.py``'s small-``n`` verdict gate, so the gate checks
    the same code path the timed rounds run.
    """
    from repro.audit.log import DisclosureLog
    from repro.audit.offline import OfflineAuditor
    from repro.audit.store_sql import SqliteVerdictStore

    clock = time.perf_counter_ns
    events = list(log)
    growing = DisclosureLog()
    began = clock()
    store = SqliteVerdictStore(store_dir)
    cold_auditor = OfflineAuditor(universe, policy)
    windows: List[Tuple[int, int]] = [(began, clock())]
    latencies_ns: List[int] = []
    cold = None
    for start in range(0, len(events), CHUNK):
        for event in events[start : start + CHUNK]:
            growing.record(event.time, event.user, event.query, event.note)
        began = clock()
        cold = cold_auditor.audit_log_incremental(growing, store=store)
        ended = clock()
        latencies_ns.append(ended - began)
        windows.append((began, ended))
    store.close()

    began = clock()
    warm_store = SqliteVerdictStore(store_dir)
    warm = OfflineAuditor(universe, policy).audit_log_incremental(
        log, store=warm_store
    )
    ended = clock()
    windows.append((began, ended))
    warm_store.close()
    return {
        "cold": cold,
        "warm": warm,
        "cold_ns": sum(end - start for start, end in windows[:-1]),
        "warm_ns": ended - began,
        "latencies_ns": latencies_ns,
        "windows": windows,
    }


def statuses(report) -> List[str]:
    return [finding.verdict.status.value for finding in report.findings]


def failures(report) -> int:
    """UNKNOWN or degraded findings: decisions the auditor could not stand by."""
    return sum(
        1
        for finding in report.findings
        if not finding.verdict.is_decided or finding.degraded
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    import repro.audit.offline  # noqa: F401  (the program under test)
    import repro.audit.store_sql  # noqa: F401
    import workloads

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    imported = time.perf_counter()

    n = workloads.SIZES[args.workload]
    universe, policy = workloads.offline_setup(args.workload, n)
    store_dir = args.workdir / "store"
    store_dir.mkdir(parents=True)
    built = time.perf_counter()
    print("READY", flush=True)

    log = workloads.offline_log(args.workload, universe, args.seed, args.events)
    passes = run_passes(universe, policy, log, store_dir)
    rss_mb = peak_rss_mb()

    cold, warm = passes["cold"], passes["warm"]
    report = {
        "n": n,
        "events": len(log),
        "distinct_queries": len({repr(event.query) for event in log}),
        "import_s": imported - import_started,
        "build_s": built - imported,
        "cold_ns": passes["cold_ns"],
        "warm_ns": passes["warm_ns"],
        "latencies_ns": passes["latencies_ns"],
        "windows": passes["windows"],
        "rss_mb": rss_mb,
        "attempted": len(cold.findings) + len(warm.findings),
        "failed": failures(cold) + failures(warm),
        "passes_agree": statuses(cold) == statuses(warm),
        "audited_all": len(cold.findings) == len(log) == len(warm.findings),
        "decision_backend": cold.runtime_stats.decision_backend,
        "native_backend": cold.runtime_stats.native_backend,
        "spans": tracer.dump() if tracer is not None else None,
    }
    write_json(args.out, report)
    print("DONE", flush=True)


if __name__ == "__main__":
    main()
