"""The fault-tolerant audit runtime: budgets, breakers, fault injection.

Halpern–Pucella's *Probabilistic Algorithmic Knowledge* frames the auditor
as a resource-bounded agent: what it "knows" is whatever its budget lets it
compute.  This package makes that budget explicit and survivable:

* :mod:`~repro.runtime.budget` — monotonic-clock deadline budgets passed
  down through the staged decision pipeline, so no stage spins unbounded;
* :mod:`~repro.runtime.breaker` — a deterministic (count-based) circuit
  breaker that pins decisions to the sound exact path after repeated
  certificate-stage failures;
* :mod:`~repro.runtime.outcome` — the typed :class:`DecisionOutcome`
  (verdict + stage provenance + degradation flags) and the
  :class:`RuntimeStats` counters surfaced on audit reports;
* :mod:`~repro.runtime.faults` — seeded, reproducible fault injection for
  chaos runs (solver timeout, nonconvergence, store and journal writes,
  gateway connection and executor crashes).

The guiding invariant, enforced by ``tests/runtime/``: degradation changes
latency and provenance, never the verdict — every degraded path is one of
the pipeline's *sound* stages, and a decision that exhausts every resource
returns a typed "unresolved" outcome instead of raising.
"""

from .breaker import BreakerRegistry, BreakerState, CircuitBreaker
from .budget import Budget, BudgetPoller
from .outcome import DecisionOutcome, RuntimeStats

__all__ = [
    "BreakerRegistry",
    "BreakerState",
    "Budget",
    "BudgetPoller",
    "CircuitBreaker",
    "DecisionOutcome",
    "RuntimeStats",
]
