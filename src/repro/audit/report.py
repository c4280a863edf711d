"""Rendering audit reports (and gateway stats) as human-readable text."""

from __future__ import annotations

from typing import Any, Dict, List

from .offline import AuditReport


def render_report(report: AuditReport, width: int = 78) -> str:
    """A plain-text audit report: policy, per-event verdicts, summary."""
    lines: List[str] = []
    rule = "=" * width
    lines.append(rule)
    lines.append("OFFLINE AUDIT REPORT")
    lines.append(rule)
    lines.append(report.policy.describe())
    lines.append("-" * width)
    for finding in report.findings:
        marker = "!!" if finding.suspicious else "ok"
        lines.append(f" [{marker}] {finding.event.describe()}")
        lines.append(f"       verdict: {finding.verdict}")
        if finding.suspicious and finding.verdict.witness is not None:
            lines.append(
                f"       witness prior: {_summarise_witness(finding.verdict.witness)}"
            )
    lines.append("-" * width)
    counts = report.counts()
    summary = "  ".join(
        f"{status}: {count}" for status, count in counts.items() if count
    ) or "safe: 0  unsafe: 0  unknown: 0"
    lines.append(f"events: {len(report.findings)}  {summary}")
    if report.cache_stats is not None and report.cache_stats.lookups:
        lines.append(f"verdict cache: {report.cache_stats}")
    store = report.store_stats
    if store is not None and (
        store.lookups or store.stored or store.loaded or store.load_failures
    ):
        lines.append(f"verdict store: {store}")
    if report.runtime_stats is not None and report.runtime_stats.native_backend:
        lines.append(f"kernel backend: {report.runtime_stats.native_backend}")
    if report.runtime_stats is not None and report.runtime_stats.any_degradation:
        lines.append(f"runtime degradation: {report.runtime_stats}")
        for finding in report.degraded_findings:
            lines.append(
                f"  degraded: {finding.event.describe()}"
                f" [{finding.outcome.degradation}]"
            )
    if report.suspicious_users:
        lines.append("suspicion falls on: " + ", ".join(report.suspicious_users))
    if report.cleared_users:
        lines.append("cleared: " + ", ".join(report.cleared_users))
    lines.append(rule)
    return "\n".join(lines)


def _summarise_witness(witness) -> str:
    text = repr(witness)
    if len(text) > 100:
        text = text[:97] + "..."
    return text


def render_gateway_footer(snapshot: Dict[str, Any], width: int = 78) -> str:
    """The per-tenant footer for gateway stats snapshots.

    Takes the JSON document the gateway serves on ``/stats`` (see
    :meth:`~repro.service.stats.GatewayStats.snapshot`) and renders the
    same counters-never-silent footer :func:`render_report` gives offline
    audits: one row per tenant, then the aggregated runtime/store lines in
    their established format.  Used by ``repro serve`` after a drain and
    reusable against any saved snapshot.
    """
    lines: List[str] = ["-" * width]
    lines.append(
        f"gateway: {snapshot.get('decided', 0)} decided  "
        f"{snapshot.get('shed', 0)} shed  "
        f"{snapshot.get('connections', 0)} connections "
        f"({snapshot.get('connections_dropped', 0)} dropped)  "
        f"{snapshot.get('protocol_errors', 0)} protocol errors"
    )
    batching = snapshot.get("batching") or {}
    if batching.get("commit_rounds"):
        extras = []
        if batching.get("commit_crashes"):
            extras.append(f"commit crashes={batching['commit_crashes']}")
        if batching.get("executor_restarts"):
            extras.append(f"executor restarts={batching['executor_restarts']}")
        tail = ("  " + " ".join(extras)) if extras else ""
        lines.append(
            f"batching: {batching['commit_rounds']} commit rounds "
            f"(mean {batching.get('batch_mean', 0.0):.2f}, "
            f"max {batching.get('batch_max', 0)})  "
            f"{batching.get('fsyncs_saved', 0)} fsyncs saved  "
            f"workers={batching.get('workers', 1)}{tail}"
        )
    for name, tenant in sorted(snapshot.get("tenants", {}).items()):
        verdicts = (
            f"allow={tenant['allowed']} deny={tenant['denied']}"
            + (f" unknown={tenant['unknown']}" if tenant.get("unknown") else "")
        )
        extras = []
        if tenant.get("shed"):
            reasons = ",".join(
                f"{reason}:{count}"
                for reason, count in sorted(tenant["shed_reasons"].items())
            )
            extras.append(f"shed={tenant['shed']}({reasons})")
        if tenant.get("degraded"):
            extras.append(f"degraded={tenant['degraded']}")
        if tenant.get("pinned"):
            extras.append(f"pinned={tenant['pinned']}")
        if tenant.get("recoveries"):
            extras.append(
                f"recovered={tenant['replayed_events']}ev"
                f"/{tenant['recoveries']}x"
            )
        if tenant.get("torn_tails_dropped"):
            extras.append(f"torn={tenant['torn_tails_dropped']}")
        if tenant.get("breaker_state", "closed") != "closed":
            extras.append(f"breaker={tenant['breaker_state']}")
        tail = ("  " + " ".join(extras)) if extras else ""
        lines.append(
            f"  {name}: {tenant['decided']} decided ({verdicts})"
            f"  {tenant['busy_ms']:.0f}ms{tail}"
        )
    runtime = snapshot.get("runtime") or {}
    nonzero = {
        key: value
        for key, value in runtime.items()
        if value and not isinstance(value, str)
    }
    if nonzero:
        lines.append(
            "runtime degradation: "
            + ", ".join(f"{key}={value}" for key, value in nonzero.items())
        )
    store = snapshot.get("store") or {}
    if store and (store.get("hits") or store.get("misses") or store.get("stored")):
        lines.append(
            f"verdict store: {store.get('hits', 0)} hits "
            f"{store.get('misses', 0)} misses "
            f"{store.get('stored', 0)} stored "
            f"{store.get('flushes', 0)} flushes"
            + (
                f" {store['write_failures']} write failures"
                if store.get("write_failures")
                else ""
            )
        )
    lines.append("-" * width)
    return "\n".join(lines)
