"""Deterministic fault injection for reproducible chaos runs.

Every failure mode the resilience layer claims to survive has a seeded
injector here, wired into the production code paths behind a probe that is
inert (one dict lookup against ``None``) unless a plan is installed:

=================  ==========================================================
site               effect at the probe point
=================  ==========================================================
``solver-timeout`` :func:`~repro.algebraic.sdp.solve_psd_feasibility` raises
                   :class:`~repro.exceptions.StageTimeoutError`
``nonconvergence`` the SDP solver reports "not found within budget" without
                   iterating (matrices ``None``, infinite residual)
``store-write``    :meth:`~repro.audit.store.VerdictStore.flush` fails with
                   an ``OSError`` before touching the file — the persistent
                   verdict store degrades to recomputation, never corrupts
``store-sql-write``  one shard commit of :meth:`~repro.audit.store_sql.
                   SqliteVerdictStore.flush` fails — that shard's verdicts
                   stay pending (retried next flush); other shards land
``native-load``    the compiled kernel extension fails to import during
                   :func:`repro._native.configure` — ``auto`` mode degrades
                   to the NumPy fallback, ``require`` raises
``conn-drop``      the gateway closes a tenant connection abruptly at
                   admission, before journaling or deciding — the client
                   observes a dropped socket, never a wrong verdict
``journal-torn-write``  a gateway journal append writes only a prefix of
                   its CRC-framed record and raises — simulating a hard
                   crash mid-``write``; replay drops the torn tail
``slow-tenant``    one tenant's shard worker stalls before deciding — its
                   own queue backs up (and sheds); neighbours are untouched
``drain-flush``    the shutdown drain's store flush fails — shed work and
                   unflushed verdicts are reported, the drain still
                   completes
``commit-fsync-fail``  a group-commit round's ``fsync`` fails after the
                   write — every verdict in the round is withheld (typed
                   errors, clients retry) and the log truncates back to the
                   last durable round before its next append
``executor-crash`` the gateway hard-kills one shard-executor process
                   (``SIGKILL``) before dispatching a batch to it — in-flight
                   requests are shed with a retry hint and the executor is
                   restarted and replayed from its journals
=================  ==========================================================

Plans activate either programmatically (:func:`install` / the
:func:`inject` context manager) or through the environment::

    REPRO_FAULTS="solver-timeout:0.5:3,nonconvergence:1" REPRO_FAULTS_SEED=7 ...

Each spec is ``site:rate[:max_fires]``.  A chaos run's fault schedule is a
pure function of the plan, the seed, and the probe sequence.  Forked
processes (the gateway's ``--workers`` executors) inherit an installed
plan with its RNG state at fork time; counters advance in the process
that probes them.
"""

from __future__ import annotations

import os
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Union

__all__ = [
    "FaultInjector",
    "FaultRule",
    "COMMIT_FSYNC_FAIL",
    "CONN_DROP",
    "DRAIN_FLUSH",
    "EXECUTOR_CRASH",
    "JOURNAL_TORN_WRITE",
    "KNOWN_SITES",
    "NATIVE_LOAD",
    "NONCONVERGENCE",
    "SLOW_TENANT",
    "SOLVER_TIMEOUT",
    "STORE_SQL_WRITE",
    "STORE_WRITE",
    "active",
    "fire",
    "inject",
    "install",
    "uninstall",
]

SOLVER_TIMEOUT = "solver-timeout"
NONCONVERGENCE = "nonconvergence"
STORE_WRITE = "store-write"
STORE_SQL_WRITE = "store-sql-write"
NATIVE_LOAD = "native-load"
CONN_DROP = "conn-drop"
JOURNAL_TORN_WRITE = "journal-torn-write"
SLOW_TENANT = "slow-tenant"
DRAIN_FLUSH = "drain-flush"
COMMIT_FSYNC_FAIL = "commit-fsync-fail"
EXECUTOR_CRASH = "executor-crash"

KNOWN_SITES = (
    SOLVER_TIMEOUT,
    NONCONVERGENCE,
    STORE_WRITE,
    STORE_SQL_WRITE,
    NATIVE_LOAD,
    CONN_DROP,
    JOURNAL_TORN_WRITE,
    SLOW_TENANT,
    DRAIN_FLUSH,
    COMMIT_FSYNC_FAIL,
    EXECUTOR_CRASH,
)

ENV_PLAN = "REPRO_FAULTS"
ENV_SEED = "REPRO_FAULTS_SEED"


@dataclass
class FaultRule:
    """One site's firing rule: probability per probe, optional fire cap."""

    site: str
    rate: float = 1.0
    max_fires: Optional[int] = None
    fired: int = 0

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r}; known: {', '.join(KNOWN_SITES)}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")


class FaultInjector:
    """A seeded set of fault rules with per-site RNG streams.

    Seeding is per ``(seed, site)`` via string-seeded :class:`random.Random`
    (stable across processes and Python hash randomisation), so adding a
    rule never perturbs another site's schedule.
    """

    def __init__(
        self,
        rules: Union[Mapping[str, float], Mapping[str, FaultRule], None] = None,
        seed: int = 0,
    ) -> None:
        self.seed = int(seed)
        self._rules: Dict[str, FaultRule] = {}
        self._rngs: Dict[str, random.Random] = {}
        for site, rule in (rules or {}).items():
            if not isinstance(rule, FaultRule):
                rule = FaultRule(site=site, rate=float(rule))
            self.add_rule(rule)

    def add_rule(self, rule: FaultRule) -> None:
        self._rules[rule.site] = rule
        self._rngs[rule.site] = random.Random(f"{self.seed}:{rule.site}")

    @property
    def fired_total(self) -> int:
        return sum(rule.fired for rule in self._rules.values())

    def fire(self, site: str) -> bool:
        """Whether the fault at ``site`` fires on this probe."""
        rule = self._rules.get(site)
        if rule is None:
            return False
        if rule.max_fires is not None and rule.fired >= rule.max_fires:
            return False
        if rule.rate < 1.0 and self._rngs[site].random() >= rule.rate:
            return False
        rule.fired += 1
        return True

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultInjector":
        """Parse ``"site:rate[:max_fires],..."`` (rate defaults to 1)."""
        injector = cls(seed=seed)
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split(":")
            site = parts[0].strip()
            rate = float(parts[1]) if len(parts) > 1 and parts[1] else 1.0
            max_fires = (
                int(parts[2]) if len(parts) > 2 and parts[2] else None
            )
            injector.add_rule(FaultRule(site=site, rate=rate, max_fires=max_fires))
        return injector

    @classmethod
    def from_env(cls, environ: Optional[Mapping[str, str]] = None) -> Optional["FaultInjector"]:
        environ = os.environ if environ is None else environ
        plan = environ.get(ENV_PLAN, "").strip()
        if not plan:
            return None
        return cls.parse(plan, seed=int(environ.get(ENV_SEED, "0")))

    def __repr__(self) -> str:
        rules = ", ".join(
            f"{r.site}:{r.rate}"
            + (f":{r.max_fires}" if r.max_fires is not None else "")
            for r in self._rules.values()
        )
        return f"FaultInjector(seed={self.seed}, rules=[{rules}])"


# -- process-global activation ---------------------------------------------------

#: Programmatically installed plan (``install`` / ``inject``); wins over env.
_ACTIVE: Optional[FaultInjector] = None
#: Environment-derived plan, kept separate so clearing ``REPRO_FAULTS``
#: deactivates it and a changed plan string re-parses exactly once.
_ENV_ACTIVE: Optional[FaultInjector] = None
_ENV_SOURCE: Optional[str] = None


def install(injector: FaultInjector) -> FaultInjector:
    """Activate a fault plan for this process (and future forked workers)."""
    global _ACTIVE
    _ACTIVE = injector
    return injector


def uninstall() -> None:
    global _ACTIVE, _ENV_ACTIVE, _ENV_SOURCE
    _ACTIVE = None
    _ENV_ACTIVE = None
    _ENV_SOURCE = None


def active() -> Optional[FaultInjector]:
    """The live injector: the installed one, else one parsed from the env."""
    global _ENV_ACTIVE, _ENV_SOURCE
    if _ACTIVE is not None:
        return _ACTIVE
    plan = os.environ.get(ENV_PLAN, "").strip()
    if not plan:
        _ENV_ACTIVE = None
        _ENV_SOURCE = None
        return None
    if plan != _ENV_SOURCE:
        _ENV_ACTIVE = FaultInjector.parse(
            plan, seed=int(os.environ.get(ENV_SEED, "0"))
        )
        _ENV_SOURCE = plan
    return _ENV_ACTIVE


def fire(site: str) -> bool:
    """Probe ``site``: ``True`` iff a fault should be injected right here.

    This is the single call production code embeds; with no plan installed
    it is one global read and one ``None`` comparison.
    """
    injector = active()
    return injector is not None and injector.fire(site)


@contextmanager
def inject(
    plan: Union[str, Mapping[str, float], FaultInjector],
    seed: int = 0,
) -> Iterator[FaultInjector]:
    """Temporarily activate a plan (spec string, ``{site: rate}``, or injector)."""
    if isinstance(plan, FaultInjector):
        injector = plan
    elif isinstance(plan, str):
        injector = FaultInjector.parse(plan, seed=seed)
    else:
        injector = FaultInjector(plan, seed=seed)
    previous = _ACTIVE
    install(injector)
    try:
        yield injector
    finally:
        if previous is None:
            uninstall()
        else:
            install(previous)
