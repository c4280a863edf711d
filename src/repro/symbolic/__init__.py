"""Symbolic decision backend: ``Safe_K(A, B)`` without enumerating Ω.

Compiles :mod:`repro.db` queries to propositional formulas over candidate
presence variables and decides possibilistic safety (Prop 4.5 interval
form) and ``is_preserving`` (Definition 3.9) with a SAT engine — the
built-in DPLL always, Z3 when the optional ``z3-solver`` extra is
installed.  Selection follows the ``REPRO_NATIVE`` pattern via the
``REPRO_SYMBOLIC={auto,off,require}`` environment switch; see
:mod:`repro.symbolic.backend`.
"""

from .backend import (
    ENV_SYMBOLIC,
    MODES,
    Backend,
    backend,
    backend_name,
    configure,
    enabled,
    engine,
    preferred,
)
from .decide import (
    SUPPORTED,
    SymbolicPair,
    audit_symbolic,
    decide_safe,
    preserving_symbolic,
)
from .formula import (
    FALSE,
    TRUE,
    AndF,
    AtLeastF,
    ConstF,
    Formula,
    NotF,
    OrF,
    Var,
    and_f,
    at_least,
    eval_formula,
    fingerprint,
    iff_f,
    implies_f,
    not_f,
    or_f,
    to_cnf,
    truth_table,
)
from .lower import lower_answer, lower_boolean

__all__ = [
    "ENV_SYMBOLIC",
    "MODES",
    "SUPPORTED",
    "AndF",
    "AtLeastF",
    "Backend",
    "ConstF",
    "FALSE",
    "Formula",
    "NotF",
    "OrF",
    "SymbolicPair",
    "TRUE",
    "Var",
    "and_f",
    "at_least",
    "audit_symbolic",
    "backend",
    "backend_name",
    "configure",
    "decide_safe",
    "enabled",
    "engine",
    "eval_formula",
    "fingerprint",
    "iff_f",
    "implies_f",
    "lower_answer",
    "lower_boolean",
    "not_f",
    "or_f",
    "preferred",
    "preserving_symbolic",
    "to_cnf",
    "truth_table",
]
