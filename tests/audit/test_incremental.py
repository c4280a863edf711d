"""Equivalence and soundness of the incremental streaming auditor.

The contract: ``audit_log_incremental`` is verdict-identical to the serial
reference path under every streaming configuration — cold store, warm
store, mid-log ``since``, corrupted store — and the Proposition 3.10 fast
path only ever fires when the running composition genuinely is safe and
K-preserving.
"""

from __future__ import annotations

import random

import pytest

from repro import _bitops
from repro.audit import (
    AuditPolicy,
    DisclosureLog,
    IncrementalAuditor,
    OfflineAuditor,
    PriorAssumption,
)
from repro.audit.incremental import FAST_PATH_METHOD
from repro.audit.store import VerdictStore
from repro.core.preserving import (
    is_preserving_possibilistic,
    preserving_cache_clear,
)
from repro.core.privacy import safe_possibilistic
from repro.core.worlds import HypercubeSpace
from repro.db import (
    CandidateUniverse,
    ColumnType,
    Database,
    Exists,
    TableSchema,
    column_eq,
    generate_disclosure_log,
    generate_registry,
    parse_boolean_query,
)
from tests.audit.explicit_knowledge import explicit_possibilistic_knowledge
from tests.workloads import AUDIT_QUERY, build_mixed_density_log, build_registry

SEEDS = (3, 11, 29)


@pytest.fixture(scope="module")
def registry():
    return build_registry(background_rows=16)


def make_policy(assumption=PriorAssumption.PRODUCT):
    return AuditPolicy(
        audit_query=parse_boolean_query(AUDIT_QUERY), assumption=assumption
    )


def statuses(report):
    return [f.verdict.status for f in report.findings]


class TestEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_cold_equivalent_to_serial(self, registry, tmp_path, seed):
        log = build_mixed_density_log(registry, n_events=40, seed=seed)
        policy = make_policy()
        serial = OfflineAuditor(registry, policy).audit_log_serial(log)
        store = VerdictStore(tmp_path / "store.json")
        report = OfflineAuditor(registry, policy).audit_log_incremental(
            log, store=store
        )
        assert statuses(report) == statuses(serial)
        assert report.store_stats is not None
        assert report.store_stats.stored > 0

    @pytest.mark.parametrize("seed", SEEDS)
    def test_warm_store_equivalent_and_decision_free(
        self, registry, tmp_path, seed
    ):
        log = build_mixed_density_log(registry, n_events=40, seed=seed)
        policy = make_policy()
        path = tmp_path / "store.json"
        OfflineAuditor(registry, policy).audit_log_incremental(
            log, store=VerdictStore(path)
        )
        serial = OfflineAuditor(registry, policy).audit_log_serial(log)

        # A cold process warming up from disk: fresh auditor, fresh store
        # object, same path.  Every unique per-event decision must come
        # from the store, none from a pipeline.
        warm_store = VerdictStore(path)
        warm = OfflineAuditor(registry, policy).audit_log_incremental(
            log, store=warm_store
        )
        assert statuses(warm) == statuses(serial)
        assert warm_store.stats.loaded > 0
        assert warm_store.stats.hits == warm_store.stats.lookups
        assert warm_store.stats.stored == 0  # nothing new to persist

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_prefix_primed_store_serves_grown_log(self, registry, tmp_path, seed):
        """Yesterday's audit of a prefix, then a fresh process audits the
        grown log: statuses equal the scratch loop, and only the appended
        tail's new pairs are decided and stored."""
        log = build_mixed_density_log(registry, n_events=40, seed=seed)
        policy = make_policy()
        path = tmp_path / "store.json"
        primer = VerdictStore(path)
        OfflineAuditor(registry, policy).audit_log_incremental(
            log.before(20), store=primer
        )
        serial = OfflineAuditor(registry, policy).audit_log_serial(log)

        warm_store = VerdictStore(path)
        warm = OfflineAuditor(registry, policy).audit_log_incremental(
            log, store=warm_store
        )
        assert statuses(warm) == statuses(serial)
        assert warm_store.stats.loaded == primer.stats.stored > 0
        assert warm_store.stats.hits > 0
        assert 0 < warm_store.stats.stored == warm_store.stats.misses

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_mid_log_since(self, registry, tmp_path, seed):
        log = build_mixed_density_log(registry, n_events=40, seed=seed)
        policy = make_policy()
        cut = 20
        auditor = OfflineAuditor(registry, policy)
        # Stream the prefix first, then the grown log with a since filter.
        auditor.audit_log_incremental(
            log.before(cut), store=VerdictStore(tmp_path / "store.json")
        )
        report = auditor.audit_log_incremental(
            log, since=cut, store=auditor._incremental.store
        )
        serial = OfflineAuditor(registry, policy).audit_log_serial(log.since(cut))
        assert [f.event for f in report.findings] == list(log.since(cut))
        assert statuses(report) == statuses(serial)

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_corrupted_store_recovery(self, registry, tmp_path, seed):
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        policy = make_policy()
        path = tmp_path / "store.json"
        path.write_text("{definitely not a store")
        store = VerdictStore(path)
        report = OfflineAuditor(registry, policy).audit_log_incremental(
            log, store=store
        )
        serial = OfflineAuditor(registry, policy).audit_log_serial(log)
        assert statuses(report) == statuses(serial)
        assert report.store_stats.load_failures == 1
        assert report.runtime_stats.store_failures >= 1
        # The bad generation is replaced by a good one.
        assert VerdictStore(path).stats.loaded > 0

    def test_append_only_consumes_suffix(self, registry, tmp_path):
        log = build_mixed_density_log(registry, n_events=30, seed=5)
        policy = make_policy()
        auditor = OfflineAuditor(registry, policy)
        store = VerdictStore(tmp_path / "store.json")
        auditor.audit_log_incremental(log, store=store)
        inc = auditor._incremental
        consumed_before = len(inc._consumed)

        grown = DisclosureLog(list(log))
        extra = build_mixed_density_log(registry, n_events=5, seed=99)
        for i, event in enumerate(extra):
            grown.record(1000 + i, event.user, event.query)
        report = auditor.audit_log_incremental(grown, store=store)
        assert len(inc._consumed) == consumed_before + 5
        serial = OfflineAuditor(registry, policy).audit_log_serial(grown)
        assert statuses(report) == statuses(serial)

    def test_rewritten_prefix_resets(self, registry, tmp_path):
        log = build_mixed_density_log(registry, n_events=20, seed=5)
        policy = make_policy()
        auditor = OfflineAuditor(registry, policy)
        store = VerdictStore(tmp_path / "store.json")
        auditor.audit_log_incremental(log, store=store)
        shuffled = DisclosureLog(list(log)[5:])  # events removed, not appended
        report = auditor.audit_log_incremental(shuffled, store=store)
        serial = OfflineAuditor(registry, policy).audit_log_serial(shuffled)
        assert statuses(report) == statuses(serial)
        assert len(report.findings) == len(shuffled)

    def test_no_store_still_works(self, registry):
        log = build_mixed_density_log(registry, n_events=20, seed=5)
        policy = make_policy()
        report = OfflineAuditor(registry, policy).audit_log_incremental(log)
        serial = OfflineAuditor(registry, policy).audit_log_serial(log)
        assert statuses(report) == statuses(serial)
        assert report.store_stats is None


class TestProbeIdempotency:
    """Replaying an identical (log, since) is free: no probe, no flush."""

    def test_identical_replay_touches_neither_store_nor_engine(
        self, registry, tmp_path
    ):
        log = build_mixed_density_log(registry, n_events=30, seed=7)
        store = VerdictStore(tmp_path / "store.json")
        auditor = IncrementalAuditor(registry, make_policy(), store=store)
        first = auditor.audit_log(log)
        probes = store.stats.probes
        flushes = store.stats.flushes
        skipped = store.stats.skipped_flushes
        assert probes == 1  # one batched probe on the cold run

        replay = auditor.audit_log(log)
        assert replay is first  # memoised report, returned outright
        assert store.stats.probes == probes
        assert store.stats.flushes == flushes
        assert store.stats.skipped_flushes == skipped
        assert statuses(replay) == statuses(first)

    def test_grown_log_is_not_short_circuited(self, registry, tmp_path):
        log = build_mixed_density_log(registry, n_events=20, seed=7)
        store = VerdictStore(tmp_path / "store.json")
        auditor = IncrementalAuditor(registry, make_policy(), store=store)
        auditor.audit_log(log)
        probes = store.stats.probes

        grown = DisclosureLog(list(log))
        extra = build_mixed_density_log(registry, n_events=3, seed=41)
        for i, event in enumerate(extra):
            grown.record(1000 + i, event.user, event.query)
        report = auditor.audit_log(grown)
        assert store.stats.probes == probes + 1  # the fingerprint moved
        assert len(report.findings) == len(grown)

    def test_same_content_rebuilt_log_still_short_circuits(
        self, registry, tmp_path
    ):
        """The memo keys on content (fingerprint), not object identity —
        a cold-restart shape where the log is re-read from scratch."""
        log = build_mixed_density_log(registry, n_events=20, seed=7)
        rebuilt = DisclosureLog(list(log))
        assert log.fingerprint() == rebuilt.fingerprint()

        store = VerdictStore(tmp_path / "store.json")
        auditor = IncrementalAuditor(registry, make_policy(), store=store)
        first = auditor.audit_log(log)
        probes = store.stats.probes
        assert auditor.audit_log(rebuilt) is first
        assert store.stats.probes == probes

    def test_since_is_part_of_the_key(self, registry, tmp_path):
        log = build_mixed_density_log(registry, n_events=20, seed=7)
        store = VerdictStore(tmp_path / "store.json")
        auditor = IncrementalAuditor(registry, make_policy(), store=store)
        full = auditor.audit_log(log)
        tail = auditor.audit_log(log, since=10)
        assert tail is not full
        assert [f.event for f in tail.findings] == list(log.since(10))

    def test_reset_clears_the_memo(self, registry, tmp_path):
        log = build_mixed_density_log(registry, n_events=20, seed=7)
        store = VerdictStore(tmp_path / "store.json")
        auditor = IncrementalAuditor(registry, make_policy(), store=store)
        first = auditor.audit_log(log)
        auditor.reset()
        again = auditor.audit_log(log)
        assert again is not first
        assert statuses(again) == statuses(first)


POSSIBILISTIC = (
    PriorAssumption.POSSIBILISTIC_SUBCUBES,
    PriorAssumption.POSSIBILISTIC_UNRESTRICTED,
    PriorAssumption.POSSIBILISTIC_IGNORANT,
)


class TestFastPath:
    @pytest.mark.parametrize("assumption", POSSIBILISTIC)
    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_knob_never_changes_verdicts(self, registry, assumption, seed):
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        policy = make_policy(assumption)

        fast = IncrementalAuditor(registry, policy, fast_path=True)
        fast_report = fast.audit_log(log)
        slow = IncrementalAuditor(registry, policy, fast_path=False)
        slow_report = slow.audit_log(log)

        assert statuses(fast_report) == statuses(slow_report)
        for user in fast.states:
            assert (
                fast.cumulative_verdict(user).status
                is slow.cumulative_verdict(user).status
            ), user
        # The knob genuinely disables the shortcut.
        assert all(s.fast_path_hits == 0 for s in slow.states.values())

    @pytest.mark.parametrize("assumption", POSSIBILISTIC)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fast_path_fires_only_when_actually_preserving(
        self, registry, assumption, seed
    ):
        """Prop 3.10 property test: every fast-path verdict is backed by a
        composition that really is safe and K-preserving (checked directly
        against Definition 3.9 and the exact possibilistic decider)."""
        log = build_mixed_density_log(registry, n_events=30, seed=seed)
        policy = make_policy(assumption)
        auditor = IncrementalAuditor(registry, policy)
        auditor.audit_log(log)
        knowledge = explicit_possibilistic_knowledge(
            registry.space, assumption
        )
        assert knowledge is not None
        audited = auditor.engine.audited_set
        preserving_cache_clear()  # re-derive, don't trust the memo

        for user, state in auditor.states.items():
            events = [e for e in auditor._consumed if e.user == user]
            cumulative = registry.space.full
            for step, event in enumerate(events[: state.fast_path_hits], 1):
                disclosed = auditor.engine.compile_log(
                    DisclosureLog([event])
                )[0]
                cumulative = cumulative & disclosed
                assert is_preserving_possibilistic(knowledge, cumulative), (
                    user,
                    step,
                )
                assert safe_possibilistic(knowledge, audited, cumulative), (
                    user,
                    step,
                )

    def test_fast_path_verdict_carries_method_tag(self, registry):
        log = build_mixed_density_log(registry, n_events=30, seed=3)
        policy = make_policy(PriorAssumption.POSSIBILISTIC_UNRESTRICTED)
        auditor = IncrementalAuditor(registry, policy)
        auditor.audit_log(log)
        tagged = [
            user
            for user, state in auditor.states.items()
            if state.fast_path_hits
            and state.fast
            and auditor.cumulative_verdict(user).method == FAST_PATH_METHOD
        ]
        fired = [u for u, s in auditor.states.items() if s.fast_path_hits and s.fast]
        assert tagged == fired


class TestExplicitKnowledge:
    def test_subcubes_gated_by_pair_count(self):
        small = HypercubeSpace(3)
        assert (
            explicit_possibilistic_knowledge(
                small, PriorAssumption.POSSIBILISTIC_SUBCUBES
            )
            is not None
        )
        big = HypercubeSpace(8)  # 4^8 = 65536 pairs > the 4096 bound
        assert (
            explicit_possibilistic_knowledge(
                big, PriorAssumption.POSSIBILISTIC_SUBCUBES
            )
            is None
        )

    def test_unrestricted_gated_by_pair_count(self):
        assert (
            explicit_possibilistic_knowledge(
                HypercubeSpace(3), PriorAssumption.POSSIBILISTIC_UNRESTRICTED
            )
            is not None
        )
        assert (
            explicit_possibilistic_knowledge(
                HypercubeSpace(5), PriorAssumption.POSSIBILISTIC_UNRESTRICTED
            )
            is None
        )

    def test_non_possibilistic_families_have_no_fast_path(self):
        space = HypercubeSpace(3)
        for assumption in (
            PriorAssumption.PRODUCT,
            PriorAssumption.LOG_SUPERMODULAR,
            PriorAssumption.UNRESTRICTED,
        ):
            assert explicit_possibilistic_knowledge(space, assumption) is None


def universe_of_size(n: int) -> CandidateUniverse:
    db = Database()
    db.create_table(TableSchema.build("t", v=ColumnType.INTEGER))
    return CandidateUniverse(db, [db.insert("t", v=i) for i in range(n)])


def auditor_over(universe: CandidateUniverse, assumption) -> IncrementalAuditor:
    policy = AuditPolicy(
        audit_query=Exists("t", column_eq("v", 0)), assumption=assumption
    )
    return IncrementalAuditor(universe, policy)


def sets_to_check(space: HypercubeSpace, rng: random.Random):
    """Every set of Ω at n ≤ 3.  Beyond: ∅, Ω, every subcube, each subcube
    with one random world flipped, and random sets."""
    size = space.size
    if space.n <= 3:
        masks = set(range(1 << size))
    else:
        full = (1 << size) - 1
        masks = {0, full}
        for star, agreed in _bitops.all_match_vectors(space.n):
            cube = _bitops.box_mask(star, agreed)
            masks.add(cube)
            masks.add(cube ^ (1 << rng.randrange(size)))
        masks.update(rng.getrandbits(size) for _ in range(150))
    return [space.from_mask(mask) for mask in sorted(masks)]


class TestPreservingByFamily:
    """Definition 3.9 as family membership (``B = ∅`` or ``B ∈ Σ``) against
    the explicit-``K`` oracle, exhaustively at n ≤ 3 and on every subcube,
    its one-world neighbours and random sets up to n = 6."""

    @staticmethod
    def check(assumption, n_range, seed):
        rng = random.Random(seed)
        checked = {True: 0, False: 0}
        for n in n_range:
            universe = universe_of_size(n)
            auditor = auditor_over(universe, assumption)
            knowledge = explicit_possibilistic_knowledge(universe.space, assumption)
            assert knowledge is not None, n
            for disclosed in sets_to_check(universe.space, rng):
                expected = is_preserving_possibilistic(knowledge, disclosed)
                assert auditor._is_preserving(disclosed) is expected, (
                    n,
                    disclosed.mask,
                )
                checked[expected] += 1
        return checked

    def test_ignorant(self):
        checked = self.check(PriorAssumption.POSSIBILISTIC_IGNORANT, range(1, 7), 5)
        assert min(checked.values()) > 0

    def test_subcubes(self):
        checked = self.check(PriorAssumption.POSSIBILISTIC_SUBCUBES, range(1, 7), 6)
        assert min(checked.values()) > 0

    def test_unrestricted(self):
        """``Ω ⊗ P(Ω)`` has ``|Ω|·2^(|Ω|−1)`` pairs, too many to build past
        n = 3; above that every set must still be preserving."""
        assumption = PriorAssumption.POSSIBILISTIC_UNRESTRICTED
        checked = self.check(assumption, range(1, 4), 7)
        assert checked[False] == 0
        rng = random.Random(8)
        for n in range(4, 7):
            universe = universe_of_size(n)
            auditor = auditor_over(universe, assumption)
            for disclosed in sets_to_check(universe.space, rng):
                assert auditor._is_preserving(disclosed)

    def test_probabilistic_families_never_preserve(self):
        universe = universe_of_size(2)
        for assumption in (
            PriorAssumption.PRODUCT,
            PriorAssumption.LOG_SUPERMODULAR,
            PriorAssumption.UNRESTRICTED,
        ):
            auditor = auditor_over(universe, assumption)
            assert not auditor._is_preserving(universe.space.full)


class TestCompositionAtScale:
    """Prop 3.10 past the reach of an explicit ``K``: subcubes at n = 10,
    where ``Ω ⊗ Σ`` has 4^10 pairs."""

    @pytest.fixture(scope="class")
    def setting(self):
        database, candidates = generate_registry(
            n_patients=6, n_hypothetical=3, seed=2
        )
        universe = CandidateUniverse(database, candidates)
        assert universe.space.n == 10
        target = universe.candidates[0]
        policy = AuditPolicy(
            audit_query=Exists(
                "diagnoses",
                column_eq("patient", target["patient"])
                & column_eq("disease", target["disease"]),
            ),
            assumption=PriorAssumption.POSSIBILISTIC_SUBCUBES,
        )
        log = generate_disclosure_log(universe, n_events=600, n_users=100, seed=1)
        return universe, policy, log

    def test_fast_path_fires_with_unchanged_statuses(self, setting):
        universe, policy, log = setting
        fast = IncrementalAuditor(universe, policy)
        fast_report = fast.audit_log(log)
        slow = IncrementalAuditor(universe, policy, fast_path=False)
        slow_report = slow.audit_log(log)
        reference = OfflineAuditor(universe, policy)

        assert sum(s.fast_path_hits for s in fast.states.values()) > 0
        assert all(s.fast_path_hits == 0 for s in slow.states.values())
        assert statuses(fast_report) == statuses(slow_report)
        assert statuses(fast_report) == statuses(reference.audit_log(log))
        assert fast.states.keys() == slow.states.keys()
        for user in fast.states:
            status = fast.cumulative_verdict(user).status
            assert status is slow.cumulative_verdict(user).status, user
            assert status is reference.audit_user_cumulative(log, user).verdict.status
