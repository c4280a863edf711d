"""The probabilistic auditor: a staged decision pipeline for ``Safe_Π(A, B)``.

For each supported prior family the auditor chains procedures from cheapest
to most expensive, stopping at the first conclusive verdict:

Product family ``Π_m⁰`` (Sections 5.1 and 6.1):

1. box necessary criterion (Prop 5.10) — UNSAFE with witness;
2. Miklau–Suciu (Thm 5.7) — SAFE;
3. monotonicity criterion — SAFE;
4. cancellation criterion (Prop 5.9) — SAFE;
5. numeric counterexample search — UNSAFE with witness;
6. sum-of-squares certificate (§6.2) — SAFE with certificate (optional);
7. Bernstein branch-and-bound (our Thm 6.3 substitute) — exact decision.

Log-supermodular family ``Π_m⁺``:

1. meet/join split necessary criterion (Prop 5.2) — UNSAFE with witness;
2. up/down sets (Cor 5.5) and the Four-Functions sufficient criterion
   (Prop 5.4) — SAFE;
3. penalty-method counterexample search — UNSAFE with witness;
4. otherwise UNKNOWN (the paper gives no complete procedure for ``Π_m⁺``).

Unconstrained priors: the closed form of Theorem 3.11, exact.

Every verdict records its method and carries a witness or certificate; the
pipeline never reports SAFE or UNSAFE without one of the sound procedures
having fired.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..algebraic.encode import MAX_TENSOR_DIMENSION as MAX_EXACT_DIMENSION
from ..core.distributions import Distribution
from ..core.verdict import AuditVerdict
from ..core.worlds import HypercubeSpace, PropertySet
from ..exceptions import ReproError
from ..runtime.budget import Budget
from .criteria import CriterionResult
from .exact import decide_product_safety
from .optimize import (
    find_log_supermodular_counterexample,
    find_product_counterexample,
)
from .product_criteria import (
    box_necessary_criterion,
    cancellation_criterion,
    miklau_suciu_criterion,
    monotonicity_criterion,
)
from .supermodular_criteria import (
    supermodular_necessary_criterion,
    supermodular_sufficient_criterion,
    up_down_criterion,
)


def _verdict_from_criterion(result: CriterionResult) -> Optional[AuditVerdict]:
    if result.proves_safe:
        return AuditVerdict.safe(result.name, **result.details)
    if result.proves_unsafe:
        return AuditVerdict.unsafe(result.name, witness=result.witness, **result.details)
    return None


class ProbabilisticAuditor:
    """Decision pipeline for product-family safety (the paper's main case).

    Parameters
    ----------
    space:
        The hypercube ``{0,1}^n`` of relevant worlds.
    use_sos:
        Attempt a sum-of-squares certificate before the exact decision.
    use_exact:
        Run the Bernstein branch-and-bound when everything else is
        inconclusive (only for ``n ≤ 12``).
    use_optimizer:
        Run the randomized numeric counterexample search.  ``False`` is the
        deterministic "exact path" the circuit breaker pins to: criteria
        plus Bernstein only — sound and (for ``n ≤ 12``) verdict-identical,
        since the optimizer only ever pre-empts UNSAFE verdicts the exact
        stage reaches anyway.
    optimizer_restarts:
        Multi-start count for the numeric counterexample search.
    atol:
        Tolerance forwarded to the exact Bernstein decision.
    budget:
        Default per-decision deadline :class:`~repro.runtime.Budget`; each
        :meth:`audit` call may also bring its own.  Expiry degrades the
        pipeline (optional stages are skipped, the exact stage stops at its
        next poll); it never raises out of :meth:`audit`.
    """

    def __init__(
        self,
        space: HypercubeSpace,
        use_sos: bool = False,
        use_exact: bool = True,
        use_optimizer: bool = True,
        optimizer_restarts: int = 24,
        rng: Optional[np.random.Generator] = None,
        atol: Optional[float] = None,
        budget: Optional[Budget] = None,
    ) -> None:
        if not isinstance(space, HypercubeSpace):
            raise TypeError("the probabilistic auditor works over hypercube spaces")
        self._space = space
        self._use_sos = use_sos
        self._use_exact = use_exact and space.n <= MAX_EXACT_DIMENSION
        self._use_optimizer = use_optimizer
        self._restarts = optimizer_restarts
        self._rng = rng or np.random.default_rng(0)
        self._atol = atol
        self._budget = budget

    @property
    def space(self) -> HypercubeSpace:
        return self._space

    def _check(self, audited: PropertySet, disclosed: PropertySet) -> None:
        self._space.check_same(audited.space)
        self._space.check_same(disclosed.space)

    def audit(
        self,
        audited: PropertySet,
        disclosed: PropertySet,
        budget: Optional[Budget] = None,
    ) -> AuditVerdict:
        """Decide ``Safe_{Π_m⁰}(A, B)`` via the staged pipeline.

        The criteria run on the packed world masks (the box criterion's
        count tensors for ``A`` are memoised per audited set); the dense
        safety-gap tensor is built only if a pair reaches the exact stage,
        inside :func:`decide_product_safety`.  Every stage is looked up as a
        module global at call time, so tracing can wrap it by name.

        ``budget`` bounds the decision's wall clock.  Degradation order on
        expiry: the optimizer and certificate stages are skipped first
        (sound — they only pre-empt what the exact stage decides), then the
        exact stage returns its undecided frontier, and a budget dead on
        arrival yields a typed ``UNKNOWN("budget-exhausted")`` — never an
        exception.  Criteria always run: they are the cheap sound stages
        the resource-bounded auditor degrades *to*.
        """
        self._check(audited, disclosed)
        budget = budget if budget is not None else self._budget
        trace: List[str] = []
        degraded: List[str] = []

        if self._space.n <= MAX_EXACT_DIMENSION:
            step = box_necessary_criterion(audited, disclosed)
            trace.append(str(step))
            verdict = _verdict_from_criterion(step)
            if verdict:
                return self._finish(verdict, trace, degraded)

        for criterion in (
            miklau_suciu_criterion,
            monotonicity_criterion,
            cancellation_criterion,
        ):
            step = criterion(audited, disclosed)
            trace.append(str(step))
            verdict = _verdict_from_criterion(step)
            if verdict:
                return self._finish(verdict, trace, degraded)

        if self._use_optimizer:
            if budget is not None and budget.expired:
                trace.append("optimizer skipped (budget)")
                degraded.append("optimizer-skipped:budget")
            else:
                witness = find_product_counterexample(
                    audited, disclosed, restarts=self._restarts, rng=self._rng
                )
                trace.append(
                    f"optimizer {'found witness' if witness else 'found nothing'}"
                )
                if witness is not None:
                    return self._finish(
                        AuditVerdict.unsafe("numeric-optimizer", witness=witness),
                        trace,
                        degraded,
                    )

        certificate_failed = False
        certificate_ok = False
        if self._use_sos:
            if budget is not None and budget.expired:
                trace.append("sos skipped (budget)")
                degraded.append("certificate-skipped:budget")
            else:
                try:
                    verdict = self._try_sos(audited, disclosed, budget)
                except ReproError as exc:
                    # Solver timeout / nonconvergence / verification failure:
                    # the certificate stage is an accelerator, not an
                    # authority — record the failure (the engine's circuit
                    # breaker feeds on it) and fall through to exact.
                    certificate_failed = True
                    trace.append(f"sos failed ({type(exc).__name__})")
                    degraded.append(f"certificate-failed:{type(exc).__name__}")
                else:
                    certificate_ok = True
                    trace.append(f"sos {'certified' if verdict else 'inconclusive'}")
                    if verdict:
                        return self._finish(
                            verdict, trace, degraded, certificate_ok=True
                        )

        if self._use_exact:
            if budget is not None and budget.expired and budget.limited:
                trace.append("exact skipped (budget)")
                degraded.append("exact-skipped:budget")
                verdict = AuditVerdict.unknown(
                    "budget-exhausted", budget_seconds=budget.seconds
                )
                return self._finish(
                    verdict,
                    trace,
                    degraded,
                    certificate_failed=certificate_failed,
                    certificate_ok=certificate_ok,
                )
            kwargs = {} if self._atol is None else {"atol": self._atol}
            verdict = decide_product_safety(
                audited, disclosed, budget=budget, **kwargs
            )
            trace.append(str(verdict))
            if verdict.is_decided:
                return self._finish(
                    verdict,
                    trace,
                    degraded,
                    certificate_failed=certificate_failed,
                    certificate_ok=certificate_ok,
                )
            if verdict.details.get("budget_exhausted"):
                degraded.append("exact-stopped:budget")

        return self._finish(
            AuditVerdict.unknown("pipeline-exhausted"),
            trace,
            degraded,
            certificate_failed=certificate_failed,
            certificate_ok=certificate_ok,
        )

    def _try_sos(
        self,
        audited: PropertySet,
        disclosed: PropertySet,
        budget: Optional[Budget] = None,
    ) -> Optional[AuditVerdict]:
        from ..algebraic.sos import certify_gap_nonnegative

        certificate = certify_gap_nonnegative(audited, disclosed, budget=budget)
        if certificate is not None:
            return AuditVerdict.safe("sos-certificate", certificate=certificate)
        return None

    @staticmethod
    def _finish(
        verdict: AuditVerdict,
        trace: List[str],
        degraded: Optional[List[str]] = None,
        certificate_failed: bool = False,
        certificate_ok: bool = False,
    ) -> AuditVerdict:
        verdict.details["trace"] = tuple(trace)
        if degraded:
            verdict.details["degraded"] = tuple(degraded)
        if certificate_failed:
            verdict.details["certificate_stage"] = "failed"
        elif certificate_ok:
            verdict.details["certificate_stage"] = "ok"
        return verdict

    def audit_many(
        self, audited: PropertySet, disclosures
    ) -> List[AuditVerdict]:
        return [self.audit(audited, b) for b in disclosures]


class SupermodularAuditor:
    """Decision pipeline for safety over ``Π_m⁺`` (log-supermodular priors)."""

    def __init__(
        self,
        space: HypercubeSpace,
        optimizer_restarts: int = 8,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if not isinstance(space, HypercubeSpace):
            raise TypeError("the Π_m⁺ auditor works over hypercube spaces")
        self._space = space
        self._restarts = optimizer_restarts
        self._rng = rng or np.random.default_rng(0)

    def audit(
        self,
        audited: PropertySet,
        disclosed: PropertySet,
        budget: Optional[Budget] = None,
    ) -> AuditVerdict:
        self._space.check_same(audited.space)
        self._space.check_same(disclosed.space)
        trace: List[str] = []
        degraded: List[str] = []

        step = supermodular_necessary_criterion(audited, disclosed)
        trace.append(str(step))
        verdict = _verdict_from_criterion(step)
        if verdict:
            return self._finish(verdict, trace, degraded)

        for criterion in (up_down_criterion, supermodular_sufficient_criterion):
            step = criterion(audited, disclosed)
            trace.append(str(step))
            verdict = _verdict_from_criterion(step)
            if verdict:
                return self._finish(verdict, trace, degraded)

        if self._space.n <= 4:  # dense search over 2^n masses
            if budget is not None and budget.expired:
                # Sound skip: the optimizer only refutes; UNKNOWN stays UNKNOWN.
                trace.append("optimizer skipped (budget)")
                degraded.append("optimizer-skipped:budget")
            else:
                witness = find_log_supermodular_counterexample(
                    audited, disclosed, restarts=self._restarts, rng=self._rng
                )
                trace.append(
                    f"optimizer {'found witness' if witness else 'found nothing'}"
                )
                if witness is not None:
                    return self._finish(
                        AuditVerdict.unsafe("supermodular-optimizer", witness=witness),
                        trace,
                        degraded,
                    )

        return self._finish(AuditVerdict.unknown("pipeline-exhausted"), trace, degraded)

    @staticmethod
    def _finish(
        verdict: AuditVerdict,
        trace: List[str],
        degraded: Optional[List[str]] = None,
    ) -> AuditVerdict:
        verdict.details["trace"] = tuple(trace)
        if degraded:
            verdict.details["degraded"] = tuple(degraded)
        return verdict


def audit_unconstrained(
    audited: PropertySet, disclosed: PropertySet
) -> AuditVerdict:
    """Exact decision for unrestricted priors — Theorem 3.11 in verdict form.

    On UNSAFE the witness is the explicit two-point prior that gains
    confidence (mass ½ on a world of ``A∩B``, ½ on a world outside
    ``A∪B``).
    """
    from ..core.privacy import safe_unrestricted

    if safe_unrestricted(audited, disclosed):
        return AuditVerdict.safe("theorem-3.11")
    space = audited.space
    inside = min((audited & disclosed).sorted_members())
    outside = min((~(audited | disclosed)).sorted_members())
    witness = Distribution.from_mapping(space, {inside: 0.5, outside: 0.5})
    return AuditVerdict.unsafe("theorem-3.11", witness=witness)
