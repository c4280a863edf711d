"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``audit SCENARIO.json``
    Run the offline auditor over a JSON scenario (see :mod:`repro.io`) and
    print the report.  Exit status 1 when any disclosure is flagged.
``check SCENARIO.json --query "..."``
    Pre-disclosure check: would answering this query (truthfully, against
    the scenario's actual database) be safe under the scenario's policy?
``demo``
    The paper's §1.1 hospital story, end to end.
``figure1``
    Render the reconstructed Figure 1 and its minimal intervals.
``serve SCENARIO.json``
    Boot the multi-tenant online auditing gateway over the scenario's
    universe and policy: JSON-lines decisions over TCP, HTTP health/stats,
    per-tenant journals for crash recovery.  Runs until SIGTERM/SIGINT,
    then drains gracefully and prints the per-tenant footer.
"""

from __future__ import annotations

import argparse
import json
import sys

from .audit.offline import OfflineAuditor
from .audit.report import render_report
from .audit.store_sql import STORE_BACKENDS, open_verdict_store
from .db.sql import parse_boolean_query
from .io import example_scenario_document, load_scenario


def _cmd_audit(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    auditor = OfflineAuditor(scenario.universe, scenario.policy)
    if args.incremental:
        store = (
            open_verdict_store(args.store, backend=args.store_backend)
            if args.store
            else None
        )
        report = auditor.audit_log_incremental(
            scenario.log, since=args.since, store=store
        )
    elif args.store:
        print("--store requires --incremental", file=sys.stderr)
        return 2
    else:
        report = auditor.audit_log(scenario.log)
    # StoreStats (hits/misses/stored/load failures) render inside the
    # report footer — see render_report — so nothing is swallowed here.
    print(render_report(report))
    return 1 if report.suspicious_users else 0


def _cmd_check(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    auditor = OfflineAuditor(scenario.universe, scenario.policy)
    query = parse_boolean_query(args.query)
    verdict = auditor.audit_prospective(query)
    print(f"query:    {query}")
    print(f"policy:   {scenario.policy.describe()}")
    print(f"verdict:  {verdict}")
    if verdict.is_unsafe and verdict.witness is not None:
        print(f"witness prior: {verdict.witness}")
    return 1 if verdict.is_unsafe else 0


def _cmd_demo(args: argparse.Namespace) -> int:
    document = example_scenario_document()
    print("scenario document:")
    print(json.dumps(document, indent=2)[:400] + "  ...")
    print()
    scenario = load_scenario(document)
    report = OfflineAuditor(scenario.universe, scenario.policy).audit_log(
        scenario.log
    )
    print(render_report(report))
    return 0


def _cmd_figure1(args: argparse.Namespace) -> int:
    from .possibilistic.figure1 import Figure1Scenario

    scenario = Figure1Scenario.build()
    print(scenario.render_ascii())
    print("minimal intervals from ω₁ to Ā:", scenario.minimal_corners())
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .audit.report import render_gateway_footer
    from .service import AuditGateway, ShardManager

    scenario = load_scenario(args.scenario)
    store = (
        open_verdict_store(args.store, backend=args.store_backend)
        if args.store
        else None
    )
    manager = ShardManager(
        scenario.universe,
        scenario.policy,
        journal_dir=args.journal,
        store=store,
        decision_budget=args.decision_budget,
    )

    footer_snapshot: dict = {}

    async def run() -> dict:
        gateway = AuditGateway(
            manager,
            host=args.host,
            port=args.port,
            http_port=args.http_port,
            queue_limit=args.queue_limit,
            drain_budget=args.drain_budget,
            default_deadline_ms=args.deadline_ms,
            workers=args.workers,
        )
        await gateway.start()
        gateway.install_signal_handlers()
        pids = gateway.pool.executor_pids()
        executors = f", executors pids={pids}" if pids else ""
        print(
            f"gateway listening on {args.host}:{gateway.port} "
            f"(http {args.host}:{gateway.http_port}) — "
            f"policy {scenario.policy.name!r}, journals in {args.journal}"
            f"{executors}",
            flush=True,
        )
        report = await gateway.serve_until_drained()
        # In multi-process mode the parent's manager counted nothing —
        # the merged front-end + executor snapshot is the truthful one.
        footer_snapshot.update(gateway.final_snapshot or manager.snapshot())
        return report

    report = asyncio.run(run())
    print("drained:", json.dumps({k: v for k, v in report.items() if k != "tenants"}))
    print(render_gateway_footer(footer_snapshot))
    return 0 if report["flushed"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Epistemic-privacy query auditing (PODS 2008 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    audit = subparsers.add_parser("audit", help="audit a JSON scenario's log")
    audit.add_argument("scenario", help="path to a scenario JSON file")
    audit.add_argument(
        "--incremental",
        action="store_true",
        help="stream the log through the incremental auditor",
    )
    audit.add_argument(
        "--store",
        metavar="PATH",
        help="persistent verdict store (implies reuse across runs; "
        "requires --incremental)",
    )
    audit.add_argument(
        "--store-backend",
        choices=STORE_BACKENDS,
        default="json",
        help="verdict-store backend: 'json' (single human-readable file) or "
        "'sqlite' (sharded WAL directory for concurrent writers); "
        "with 'sqlite' the --store PATH names a directory",
    )
    audit.add_argument(
        "--since",
        type=int,
        metavar="TIME",
        help="only report events at/after this time (incremental mode)",
    )
    audit.set_defaults(func=_cmd_audit)

    check = subparsers.add_parser(
        "check", help="pre-disclosure safety check for one query"
    )
    check.add_argument("scenario", help="path to a scenario JSON file")
    check.add_argument("--query", required=True, help="the candidate disclosure")
    check.set_defaults(func=_cmd_check)

    demo = subparsers.add_parser("demo", help="run the §1.1 hospital story")
    demo.set_defaults(func=_cmd_demo)

    figure1 = subparsers.add_parser("figure1", help="render Figure 1")
    figure1.set_defaults(func=_cmd_figure1)

    serve = subparsers.add_parser(
        "serve", help="run the multi-tenant online auditing gateway"
    )
    serve.add_argument("scenario", help="path to a scenario JSON file")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=7341, help="decision port (0 = ephemeral)"
    )
    serve.add_argument(
        "--http-port",
        type=int,
        default=7342,
        help="health/stats HTTP port (0 = ephemeral)",
    )
    serve.add_argument(
        "--journal",
        default="journals",
        metavar="DIR",
        help="per-tenant event-journal directory (created if absent; "
        "existing journals are replayed before accepting)",
    )
    serve.add_argument(
        "--store", metavar="PATH", help="shared persistent verdict store"
    )
    serve.add_argument(
        "--store-backend", choices=STORE_BACKENDS, default="sqlite"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="per-tenant admission queue bound (overflow sheds)",
    )
    serve.add_argument(
        "--drain-budget",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="how long a SIGTERM drain waits for in-flight work",
    )
    serve.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="default per-request deadline (requests may override)",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="executor processes; with N > 1 tenants partition by stable "
        "hash across forked workers, each owning its journal slice "
        "(crashed workers are restarted and replayed)",
    )
    serve.add_argument(
        "--decision-budget",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-decision engine budget when no deadline applies",
    )
    serve.set_defaults(func=_cmd_serve)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
