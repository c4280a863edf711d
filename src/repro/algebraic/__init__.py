"""Algebraic machinery for Section 6: polynomial programs, SOS, hardness.

A from-scratch sparse polynomial library, encodings of event probabilities
as polynomials in Bernoulli parameters, the semialgebraic programs
``K(A, B, Π)`` of Proposition 6.1, a mini SDP-feasibility solver powering
the sum-of-squares heuristic of Section 6.2, Positivstellensatz refutations
(Theorem 6.7), the Motzkin polynomial, and the MAX-CUT hardness reduction
(Theorem 6.2).
"""

from .certificates import (
    Refutation,
    cone_products,
    monoid_members,
    refute_feasibility,
    refutes_emptiness_of_interval,
)
from .critical import (
    BoxMinimum,
    decide_safety_by_critical_points,
    minimize_bivariate_on_box,
    minimize_univariate_on_interval,
    solve_bivariate_system,
    sylvester_resultant,
    univariate_real_roots,
)
from .encode import (
    evaluate_gap,
    event_multilinear_coeffs,
    event_polynomial,
    polynomial_from_tensor,
    safety_gap_polynomial,
    safety_gap_tensor,
)
from .maxcut import (
    Graph,
    MaxCutReduction,
    cut_polynomial,
    k_set_is_empty,
    maxcut_reduction,
    reduction_is_faithful,
    safe_under_graph_family,
)
from .minimize import (
    BoundResult,
    box_lower_bound,
    sampled_minimum,
    sos_lower_bound,
)
from .motzkin import amgm_gap, motzkin_artin_lift, motzkin_polynomial, motzkin_value
from .polynomial import Monomial, Polynomial, monomials_up_to_degree
from .program import (
    PolynomialProgram,
    feasibility_by_sampling,
    gap_strict_inequality,
    k_program,
    log_submodular_constraints,
    log_supermodular_constraints,
    product_constraints,
    reduced_product_program,
    simplex_constraints,
    simplex_sampler,
)
from .sdp import (
    AffineSystem,
    FeasibilityResult,
    project_psd,
    solve_psd_feasibility,
)
from .sos import (
    BoxCertificate,
    HandelmanCertificate,
    SOSDecomposition,
    certify_box_nonnegative,
    certify_gap_nonnegative,
    handelman_certificate,
    is_sos,
    sos_decompose,
)

__all__ = [
    "AffineSystem",
    "BoundResult",
    "BoxCertificate",
    "BoxMinimum",
    "FeasibilityResult",
    "Graph",
    "HandelmanCertificate",
    "MaxCutReduction",
    "Monomial",
    "Polynomial",
    "PolynomialProgram",
    "Refutation",
    "SOSDecomposition",
    "amgm_gap",
    "box_lower_bound",
    "certify_box_nonnegative",
    "certify_gap_nonnegative",
    "cone_products",
    "cut_polynomial",
    "decide_safety_by_critical_points",
    "evaluate_gap",
    "event_multilinear_coeffs",
    "event_polynomial",
    "feasibility_by_sampling",
    "gap_strict_inequality",
    "handelman_certificate",
    "is_sos",
    "k_program",
    "k_set_is_empty",
    "log_submodular_constraints",
    "log_supermodular_constraints",
    "maxcut_reduction",
    "minimize_bivariate_on_box",
    "minimize_univariate_on_interval",
    "monoid_members",
    "monomials_up_to_degree",
    "motzkin_artin_lift",
    "motzkin_polynomial",
    "motzkin_value",
    "polynomial_from_tensor",
    "product_constraints",
    "project_psd",
    "reduced_product_program",
    "reduction_is_faithful",
    "refute_feasibility",
    "refutes_emptiness_of_interval",
    "safe_under_graph_family",
    "sampled_minimum",
    "safety_gap_polynomial",
    "safety_gap_tensor",
    "simplex_constraints",
    "simplex_sampler",
    "solve_bivariate_system",
    "solve_psd_feasibility",
    "sos_decompose",
    "sos_lower_bound",
    "sylvester_resultant",
    "univariate_real_roots",
]
