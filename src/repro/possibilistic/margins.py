"""Safety margins β (Proposition 4.1, Corollary 4.14).

Proposition 4.1 associates each world ``ω ∈ A`` with a "safety margin"
``β(ω) ⊆ Ω − A``: if every ``ω ∈ A ∩ B`` occurs in ``B`` together with its
margin, then ``B`` is safe; and for K-preserving ``B`` the converse holds.
When ``K`` is ∩-closed *with tight intervals* (Definition 4.13),
Corollary 4.14 gives the margin explicitly —
``β(ω₁) = ∪ Δ_K(Ā, ω₁)`` — and the margin test becomes an exact
characterisation for **all** ``B``, not just K-preserving ones.

The margin is precomputed once per audit query ``A`` and reused across many
disclosed properties ``B₁, …, B_N``, the amortised workflow the paper
highlights after Proposition 4.1.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import _bitops
from ..core.verdict import AuditVerdict
from ..core.worlds import PropertySet
from ..perf import CacheStats
from .intervals import IntervalOracle
from .minimal import interval_partition


class SafetyMarginIndex:
    """The precomputed margin map ``β : A → P(Ω − A)`` for one audit query.

    Parameters
    ----------
    oracle:
        Interval oracle over an ∩-closed ``K``.
    audited:
        The audit query ``A``.
    require_tight:
        When true (default), verify the tight-intervals hypothesis of
        Corollary 4.14, making ``test`` an exact characterisation.  When
        false, ``test`` remains *sufficient* for safety (the forward
        implication (12) of Proposition 4.1) but may reject safe disclosures,
        and the (expensive, exhaustive) tightness check is deferred until
        something actually asks for exactness (``is_exact`` or ``audit``).

    Margins are stored as packed masks: one big-int per origin world, so a
    margin test is one AND-NOT per world of ``A ∩ B``.  The map is filled
    *lazily*: each origin's interval partition — the expensive part — is
    computed on its first test and memoised, so a streaming auditor that
    only ever sees disclosures touching a few origins never pays for the
    rest of ``A``.  :meth:`cache_stats` exposes the memo's counters.
    """

    def __init__(
        self,
        oracle: IntervalOracle,
        audited: PropertySet,
        require_tight: bool = True,
    ) -> None:
        oracle.space.check_same(audited.space)
        self._oracle = oracle
        self._audited = audited
        self._tight: Optional[bool] = None
        if require_tight:
            if not self._check_tight():
                from ..exceptions import NotIntersectionClosedError

                raise NotIntersectionClosedError(
                    "Corollary 4.14 requires tight intervals (Definition 4.13); "
                    "pass require_tight=False for a sufficient-only margin test"
                )
        self._outside = ~audited
        self._origin_mask = audited.mask & oracle.candidate_worlds().mask
        self._margins: Dict[int, int] = {}
        self._stats = CacheStats()
        # Word-array mirror of the margin memo: origin worlds in
        # increasing order, one uint64 row per origin, filled in lockstep
        # with ``_margins`` so the sweep below is a single matrix AND-NOT
        # instead of one big-int op per origin.
        self._size = audited.space.size
        self._origins: List[int] = list(_bitops.iter_bits(self._origin_mask))
        self._origin_index: Dict[int, int] = {
            w: i for i, w in enumerate(self._origins)
        }
        nwords = _bitops.n_words(self._size)
        self._margin_words = np.zeros((len(self._origins), nwords), dtype=np.uint64)
        self._filled = np.zeros(len(self._origins), dtype=bool)
        self._unfilled_count = len(self._origins)
        origins_arr = np.array(self._origins, dtype=np.int64).reshape(-1)
        self._origin_word = origins_arr // _bitops.WORD_BITS
        self._origin_shift = (origins_arr % _bitops.WORD_BITS).astype(np.uint64)
        self._origin_bit = np.uint64(1) << self._origin_shift
        # Reusable sweep buffers: the containment test allocates nothing.
        self._sweep_not = np.empty(nwords, dtype=np.uint64)
        self._sweep_and = np.empty_like(self._margin_words)

    def _margin_mask(self, world: int) -> int:
        """``β(ω)`` as a packed mask, computed at most once per origin."""
        margin = self._margins.get(world)
        if margin is None:
            self._stats.misses += 1
            partition = interval_partition(self._oracle, world, self._outside)
            margin = 0
            for cls in partition.classes:
                margin |= cls.mask
            self._margins[world] = margin
            idx = self._origin_index.get(world)
            if idx is not None and not self._filled[idx]:
                self._margin_words[idx] = _bitops.mask_to_words(margin, self._size)
                self._filled[idx] = True
                self._unfilled_count -= 1
        else:
            self._stats.hits += 1
        return margin

    def _present_origins(self, b_words: np.ndarray) -> np.ndarray:
        """Indices (into the origin order) of origins contained in ``B``."""
        if not self._origins:
            return np.empty(0, dtype=np.intp)
        return np.flatnonzero(b_words[self._origin_word] & self._origin_bit)

    def cache_stats(self) -> CacheStats:
        """Hit/miss counters of the lazy per-origin margin memo."""
        return self._stats

    def _check_tight(self) -> bool:
        if self._tight is None:
            self._tight = self._oracle.has_tight_intervals()
        return self._tight

    @property
    def audited(self) -> PropertySet:
        return self._audited

    @property
    def is_exact(self) -> bool:
        """Whether ``test`` is an exact characterisation (tight intervals)."""
        return self._check_tight()

    def margin(self, world: int) -> PropertySet:
        """``β(ω)`` for ``ω ∈ A`` (empty for worlds outside ``π₁(K)``)."""
        if world not in self._audited:
            raise ValueError(f"margins are defined on A only; {world} ∉ A")
        if not (self._origin_mask >> world) & 1:
            return PropertySet._from_mask(self._audited.space, 0)
        return PropertySet._from_mask(
            self._audited.space, self._margin_mask(world)
        )

    def test(self, disclosed: PropertySet) -> bool:
        """The margin condition ``∀ ω ∈ AB : β(ω) ⊆ B``.

        By Proposition 4.1 this implies ``Safe_K(A, B)``; with tight
        intervals (Corollary 4.14) it is equivalent to it.

        Worlds of A ∩ B outside ``π₁(K)`` have empty margins and pass
        trivially, so only origins are checked.  The containment sweep is
        the word-array kernel of :mod:`repro._bitops`: one ``(k, nwords)``
        AND-NOT over all present origins at once, instead of one big-int
        operation per origin (``k`` lazy margin fills at most — each
        present origin still counts one memo hit or miss per call).
        """
        self._audited.space.check_same(disclosed.space)
        if not self._origins:
            return True
        b_words = _bitops.mask_to_words(disclosed.mask, self._size, copy=False)
        present_bits = (b_words[self._origin_word] & self._origin_bit) != 0
        present_count = int(present_bits.sum())
        if present_count == 0:
            return True
        if self._unfilled_count:
            present = np.flatnonzero(present_bits)
            unfilled = present[~self._filled[present]]
            for idx in unfilled:
                self._margin_mask(self._origins[int(idx)])  # miss + row fill
            self._stats.hits += int(present.size - unfilled.size)
        else:
            self._stats.hits += present_count
        # Full-matrix AND-NOT into the preallocated buffers: absent or
        # unfilled rows are zero (or masked out by present_bits) and can
        # never report a spurious violation.
        np.bitwise_not(b_words, out=self._sweep_not)
        np.bitwise_and(self._margin_words, self._sweep_not, out=self._sweep_and)
        violations = self._sweep_and.any(axis=-1)
        return not bool(np.any(violations & present_bits))

    def audit(self, disclosed: PropertySet) -> AuditVerdict:
        """Verdict-producing form of :meth:`test`.

        Without tight intervals a failed margin test yields UNKNOWN rather
        than UNSAFE, because only the forward implication is available.
        """
        if self.test(disclosed):
            return AuditVerdict.safe("safety-margin", exact=self._check_tight())
        if self._check_tight():
            # test() filled every present origin's row, so the offending
            # search is a pure re-sweep; the first violating row in the
            # increasing origin order matches the big-int walk that
            # tests/possibilistic keeps as the oracle.
            b_words = _bitops.mask_to_words(disclosed.mask, self._size)
            present = self._present_origins(b_words)
            violations = _bitops.andnot_any_rows(
                self._margin_words[present], b_words
            )
            offending = self._origins[int(present[int(np.argmax(violations))])]
            return AuditVerdict.unsafe(
                "safety-margin",
                witness=PropertySet._from_mask(
                    self._audited.space, self._margin_mask(offending)
                ),
                origin=offending,
                exact=True,
            )
        return AuditVerdict.unknown("safety-margin", exact=False)
