"""The gateway under test, in its own process.

Run by ``run.py`` as ``python3 epbench/gateway_server.py --workdir D
--out FILE [--trace]``.  It builds what ``repro serve`` builds — a
``ShardManager`` over a ``SqliteVerdictStore``, the group-commit journal
in ``D/journals`` and an ``AuditGateway`` with one in-process executor —
over the E21 hospital scenario, prints ``READY <port>`` once the gateway
accepts connections (journal recovery and ``gc.freeze`` done), serves
until SIGTERM drains it, and writes a JSON report to ``--out``.
"""

from __future__ import annotations

import argparse
import asyncio
import pathlib
import time

import_started = time.perf_counter()

from common import write_json  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    from repro import _native
    from repro.audit.store_sql import SqliteVerdictStore
    from repro.service import AuditGateway, ShardManager
    from repro.service.trace import hospital_pool

    tracer = None
    if args.trace:
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install(tracer)
    imported = time.perf_counter()

    universe, policy, _ = hospital_pool()
    manager = ShardManager(
        universe,
        policy,
        journal_dir=args.workdir / "journals",
        store=SqliteVerdictStore(args.workdir / "store"),
    )
    timings = {}

    async def serve() -> dict:
        gateway = AuditGateway(manager, port=0, workers=1, drain_budget=30.0)
        await gateway.start()
        gateway.install_signal_handlers()
        timings["build_s"] = time.perf_counter() - imported
        print(f"READY {gateway.port}", flush=True)
        return await gateway.serve_until_drained()

    drained = asyncio.run(serve())
    write_json(
        args.out,
        {
            "import_s": imported - import_started,
            "build_s": timings["build_s"],
            "drain": {k: v for k, v in drained.items() if k != "tenants"},
            "decision_backend": manager.engine.decision_backend,
            "native_backend": _native.backend_name(),
            "spans": tracer.dump() if tracer is not None else None,
        },
    )


if __name__ == "__main__":
    main()
