"""End-to-end auditing workflows: offline (retroactive) and online simulation.

Disclosure logs, audit policies over the paper's prior-knowledge families,
the :class:`OfflineAuditor` pipeline, report rendering, and the §1 online
answer-strategy simulator (truthful denial vs. always-deny vs. the
footnote-1 coin flip).
"""

from .engine import BatchAuditEngine, VerdictCache
from .incremental import IncrementalAuditor, UserCompositionState
from .log import DisclosureEvent, DisclosureLog
from .offline import (
    AuditReport,
    EventFinding,
    OfflineAuditor,
    make_decider,
    possibilistic_family,
)
from .online import (
    AlwaysDenyStrategy,
    Answer,
    AnswerStrategy,
    BayesianResult,
    BayesianStep,
    CoinFlipStrategy,
    ObserverBelief,
    SimulationResult,
    SimulationStep,
    TruthfulDenialStrategy,
    simulate,
    simulate_bayesian,
)
from .policy import AuditPolicy, PriorAssumption
from .report import render_report
from .store import StoreStats, VerdictStore, VerdictStoreBase
from .store_sql import STORE_BACKENDS, SqliteVerdictStore, open_verdict_store

__all__ = [
    "AlwaysDenyStrategy",
    "Answer",
    "AnswerStrategy",
    "AuditPolicy",
    "AuditReport",
    "BatchAuditEngine",
    "BayesianResult",
    "BayesianStep",
    "CoinFlipStrategy",
    "DisclosureEvent",
    "DisclosureLog",
    "EventFinding",
    "IncrementalAuditor",
    "ObserverBelief",
    "OfflineAuditor",
    "PriorAssumption",
    "STORE_BACKENDS",
    "SimulationResult",
    "SimulationStep",
    "SqliteVerdictStore",
    "StoreStats",
    "TruthfulDenialStrategy",
    "UserCompositionState",
    "VerdictCache",
    "VerdictStore",
    "VerdictStoreBase",
    "make_decider",
    "open_verdict_store",
    "possibilistic_family",
    "render_report",
    "simulate",
    "simulate_bayesian",
]
