"""The possibilistic auditor: amortised offline auditing for Section 4 models.

Wraps the interval machinery behind one object.  Given the auditor's
∩-closed knowledge (either an explicit ``K`` or a product ``C ⊗ Σ``) and an
audit query ``A``, the auditor precomputes the partition/margin structures
once and then tests an arbitrary number of disclosed properties — the
"auditing a lot of properties B₁, B₂, …, B_N … using the same audit query A"
workflow the paper describes after Proposition 4.1.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from .. import _bitops
from ..core.knowledge import PossibilisticKnowledge
from ..core.privacy import safe_possibilistic
from ..core.verdict import AuditVerdict
from ..core.worlds import PropertySet, WorldSpace
from .families import KnowledgeFamily, SubcubeFamily
from .intervals import ExplicitIntervalIndex, FamilyIntervalOracle, IntervalOracle
from .minimal import IntervalPartition, interval_partition, subcube_partitions
from .safety import audit_interval_based


class PossibilisticAuditor:
    """Offline auditor for possibilistic users with ∩-closed prior families.

    Construct with :meth:`from_family` (structured ``C ⊗ Σ``) or
    :meth:`from_knowledge` (explicit ``K``).  Call :meth:`prepare` once per
    audit query, then :meth:`audit` per disclosed property.
    """

    def __init__(self, oracle: IntervalOracle) -> None:
        self._oracle = oracle
        self._partitions: Dict[PropertySet, Dict[int, IntervalPartition]] = {}

    @classmethod
    def from_family(
        cls, candidates: PropertySet, family: KnowledgeFamily
    ) -> "PossibilisticAuditor":
        """Auditor for ``K = C ⊗ Σ`` with a structured ∩-closed family."""
        return cls(FamilyIntervalOracle(candidates, family))

    @classmethod
    def from_knowledge(cls, knowledge: PossibilisticKnowledge) -> "PossibilisticAuditor":
        """Auditor for an explicit ∩-closed second-level knowledge set."""
        return cls(ExplicitIntervalIndex(knowledge))

    @property
    def oracle(self) -> IntervalOracle:
        return self._oracle

    @property
    def space(self) -> WorldSpace:
        return self._oracle.space

    # -- amortised workflow -------------------------------------------------------

    def prepare(self, audited: PropertySet) -> None:
        """Precompute ``Δ_K(Ā, ω₁)`` for every ``ω₁ ∈ A`` (done lazily otherwise)."""
        self._partitions_for(audited)

    def _partitions_for(self, audited: PropertySet) -> Dict[int, IntervalPartition]:
        if audited not in self._partitions:
            oracle = self._oracle
            # Subcubes have a closed form; every other K is searched per origin.
            if isinstance(oracle, FamilyIntervalOracle) and isinstance(
                oracle.family, SubcubeFamily
            ):
                table = subcube_partitions(audited, oracle.candidate_worlds())
            else:
                outside = ~audited
                table = {}
                active = audited.mask & oracle.candidate_worlds().mask
                for w1 in _bitops.iter_bits(active):
                    table[w1] = interval_partition(oracle, w1, outside)
            self._partitions[audited] = table
        return self._partitions[audited]

    def audit(self, audited: PropertySet, disclosed: PropertySet) -> AuditVerdict:
        """Test ``Safe_K(A, B)`` via Corollary 4.12 using cached partitions.

        UNSAFE verdicts carry the violated partition class as witness: a
        region of ``Ā`` that ``B`` fails to keep possible for some user.
        """
        self.space.check_same(audited.space)
        self.space.check_same(disclosed.space)
        table = self._partitions_for(audited)
        b_mask = disclosed.mask
        checked = 0
        for w1 in _bitops.iter_bits(audited.mask & b_mask):
            partition = table.get(w1)
            if partition is None:
                continue
            for cls in partition.classes:
                checked += 1
                if cls.mask & b_mask == 0:
                    return AuditVerdict.unsafe(
                        "interval-partition",
                        witness=cls,
                        origin=w1,
                        classes_checked=checked,
                    )
        return AuditVerdict.safe("interval-partition", classes_checked=checked)

    def audit_many(
        self, audited: PropertySet, disclosures: Iterable[PropertySet]
    ) -> List[AuditVerdict]:
        """Audit a batch of disclosures against one audit query."""
        self.prepare(audited)
        return [self.audit(audited, b) for b in disclosures]

    def audit_uncached(
        self, audited: PropertySet, disclosed: PropertySet
    ) -> AuditVerdict:
        """One-shot audit via Proposition 4.8 without partition caching."""
        return audit_interval_based(self._oracle, audited, disclosed)


def brute_force_audit(
    knowledge: PossibilisticKnowledge, audited: PropertySet, disclosed: PropertySet
) -> AuditVerdict:
    """Reference audit straight from Definition 3.1 (no structure required).

    Exponential in general; used as ground truth in tests and for
    second-level knowledge sets that are not ∩-closed.
    """
    if safe_possibilistic(knowledge, audited, disclosed):
        return AuditVerdict.safe("definition-3.1")
    from ..core.privacy import possibilistic_violation

    witness = possibilistic_violation(knowledge, audited, disclosed)
    return AuditVerdict.unsafe("definition-3.1", witness=witness)
