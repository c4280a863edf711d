"""Probabilistic privacy machinery (Sections 3.2, 5 and 6.1 of the paper).

Distributions on ``{0,1}^n``, the product / log-supermodular /
log-submodular prior families, every Section 5 criterion, numeric
counterexample search, the Bernstein exact decision, and the staged
:class:`ProbabilisticAuditor`.
"""

from .auditor import (
    MAX_EXACT_DIMENSION,
    ProbabilisticAuditor,
    SupermodularAuditor,
    audit_unconstrained,
)
from .criteria import CriterionKind, CriterionResult
from .distributions import (
    ProductDistribution,
    dense_product,
    is_log_submodular,
    is_log_supermodular,
    is_product,
    random_log_supermodular,
)
from .exact import (
    DEFAULT_FRONTIER_BATCH,
    BernsteinDecision,
    decide_nonnegative_on_box_batched,
    decide_product_safety,
    power_tensor_to_bernstein,
)
from .families import (
    DistributionFamily,
    ExplicitDistributionFamily,
    LogSubmodularFamily,
    LogSupermodularFamily,
    ProductFamily,
    UnconstrainedFamily,
)
from .matchbox import (
    box,
    box_count,
    box_count_tensor,
    circ_count,
    circ_members,
    circ_pair_counter,
    match,
    match_string,
    monomial_weight,
)
from .modularity import (
    fkg_correlation_holds,
    pointwise_condition_holds,
    set_inequality_holds,
    supermodularity_deficit,
)
from .optimize import (
    GapEvaluator,
    clear_gap_evaluator_cache,
    find_log_supermodular_counterexample,
    find_product_counterexample,
    gap_evaluator_cache_stats,
)
from .preserving import (
    compose_safe_disclosures,
    conditioned_bernoulli,
    is_family_preserving,
    is_subcube,
)
from .relaxations import (
    DefinitionOutcome,
    definition_matrix,
    epistemic_privacy_holds,
    gain_vs_loss_gap,
    lambda_bound_holds,
    perfect_secrecy_holds,
    rho1_rho2_breach,
    sulq_bound_holds,
)
from .product_criteria import (
    box_necessary_criterion,
    cancellation_criterion,
    critical_coordinates,
    independence_holds,
    miklau_suciu_criterion,
    monotonicity_criterion,
)
from .supermodular_criteria import (
    supermodular_necessary_criterion,
    supermodular_sufficient_criterion,
    up_down_criterion,
)

__all__ = [
    "BernsteinDecision",
    "CriterionKind",
    "DEFAULT_FRONTIER_BATCH",
    "CriterionResult",
    "DefinitionOutcome",
    "DistributionFamily",
    "ExplicitDistributionFamily",
    "GapEvaluator",
    "LogSubmodularFamily",
    "LogSupermodularFamily",
    "MAX_EXACT_DIMENSION",
    "ProbabilisticAuditor",
    "ProductDistribution",
    "ProductFamily",
    "SupermodularAuditor",
    "UnconstrainedFamily",
    "audit_unconstrained",
    "box",
    "box_count",
    "box_count_tensor",
    "box_necessary_criterion",
    "cancellation_criterion",
    "circ_count",
    "circ_members",
    "circ_pair_counter",
    "clear_gap_evaluator_cache",
    "compose_safe_disclosures",
    "conditioned_bernoulli",
    "critical_coordinates",
    "decide_nonnegative_on_box_batched",
    "decide_product_safety",
    "definition_matrix",
    "dense_product",
    "epistemic_privacy_holds",
    "find_log_supermodular_counterexample",
    "find_product_counterexample",
    "fkg_correlation_holds",
    "gain_vs_loss_gap",
    "gap_evaluator_cache_stats",
    "independence_holds",
    "is_family_preserving",
    "is_log_submodular",
    "is_log_supermodular",
    "is_product",
    "is_subcube",
    "lambda_bound_holds",
    "match",
    "match_string",
    "miklau_suciu_criterion",
    "monomial_weight",
    "monotonicity_criterion",
    "perfect_secrecy_holds",
    "pointwise_condition_holds",
    "power_tensor_to_bernstein",
    "random_log_supermodular",
    "rho1_rho2_breach",
    "set_inequality_holds",
    "sulq_bound_holds",
    "supermodular_necessary_criterion",
    "supermodular_sufficient_criterion",
    "supermodularity_deficit",
    "up_down_criterion",
]
