"""Tests for the engine's cross-event tensor cache.

The safety-gap tensor depends only on the ``(A, B)`` pair, so duplicate
decisions, cleared verdict caches and assumption ablations must reuse one
tensor per pair instead of rebuilding it.
"""

from __future__ import annotations

from repro.audit import AuditPolicy, BatchAuditEngine, PriorAssumption
from repro.db import parse_boolean_query
from tests.workloads import build_mixed_density_log, build_registry

AUDIT_TEXT = (
    "EXISTS(SELECT * FROM diagnoses WHERE patient = 'Bob' AND disease = 'hiv')"
)


def make_policy(assumption=PriorAssumption.PRODUCT, name="dispatch-test"):
    return AuditPolicy(
        audit_query=parse_boolean_query(AUDIT_TEXT),
        assumption=assumption,
        name=name,
    )


def make_workload(n_events=40, seed=11):
    universe = build_registry(background_rows=16)
    return universe, build_mixed_density_log(universe, n_events=n_events, seed=seed)


class TestTensorCacheSharing:
    def test_duplicate_heavy_log_hits_the_tensor_cache(self):
        universe, log = make_workload()
        engine = BatchAuditEngine(universe, make_policy())
        engine.audit_log(log)
        # Unique pairs each built exactly one tensor; duplicates were
        # deduped upstream by the verdict cache.
        assert engine.tensor_cache.misses == engine.cache.misses
        before = engine.tensor_cache.misses
        # A fresh engine sharing the verdict cache would re-decide nothing;
        # force re-decisions by clearing verdicts — tensors must survive.
        engine.cache.clear()
        engine.audit_log(log)
        assert engine.tensor_cache.misses == before
        assert engine.tensor_cache.hits > 0

    def test_ablation_shares_one_tensor_cache(self):
        universe, log = make_workload(n_events=20)
        engine = BatchAuditEngine(universe, make_policy())
        reports = engine.audit_ablation(
            log, [PriorAssumption.PRODUCT, PriorAssumption.UNRESTRICTED]
        )
        assert set(reports) == {
            PriorAssumption.PRODUCT,
            PriorAssumption.UNRESTRICTED,
        }
        # precompute_tensors + the product run share entries; the
        # unrestricted family never touches tensors.
        assert len(engine.tensor_cache) == engine.tensor_cache.misses > 0

    def test_non_product_assumption_skips_tensors(self):
        universe, log = make_workload(n_events=10)
        engine = BatchAuditEngine(
            universe, make_policy(assumption=PriorAssumption.UNRESTRICTED)
        )
        engine.audit_log(log)
        assert len(engine.tensor_cache) == 0
