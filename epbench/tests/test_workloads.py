"""The generators: same seed, same inputs; the seed never changes n."""

import loadgen
import workloads

OFFLINE = ("audit-product-stream", "audit-subcubes-stream")


def _events(log):
    return [(e.time, e.user, repr(e.query)) for e in log]


def test_universe_size_is_fixed_per_workload():
    for workload in OFFLINE:
        n = workloads.SIZES[workload]
        universe, _ = workloads.offline_setup(workload, n)
        assert universe.space.n == n
    assert workloads.registry_universe(workloads.GATE_N).space.n == workloads.GATE_N


def test_offline_logs_repeat_per_seed_and_vary_across_seeds():
    for workload in OFFLINE:
        universe, _ = workloads.offline_setup(workload, workloads.SIZES[workload])
        first = _events(workloads.offline_log(workload, universe, 3, 200))
        again = _events(workloads.offline_log(workload, universe, 3, 200))
        other = _events(workloads.offline_log(workload, universe, 4, 200))
        assert first == again
        assert first != other
        assert len(first) == 200


def test_round_seeds_are_distinct_and_fixed():
    seeds = [workloads.round_seed(5, k) for k in range(4)]
    assert len(set(seeds)) == 4
    assert seeds == [workloads.round_seed(5, k) for k in range(4)]
    assert workloads.round_seed(6, 0) not in seeds


def test_subcubes_pool_is_fixed_and_sized():
    universe = workloads.registry_universe(workloads.SUBCUBES_N)
    pool = [repr(q) for q in workloads.subcubes_pool(universe)]
    assert len(pool) == len(set(pool)) == workloads.SUBCUBES_POOL
    assert pool == [repr(q) for q in workloads.subcubes_pool(universe)]


def test_gateway_trace_repeats_and_keeps_tenants_on_one_lane():
    trace = workloads.gateway_trace(9, 3000)
    assert trace == workloads.gateway_trace(9, 3000)
    assert trace != workloads.gateway_trace(10, 3000)
    assert len({e.tenant for e in trace}) <= workloads.GATEWAY_TENANTS
    lanes = loadgen.deal_lanes(trace)
    owners = {}
    for index, lane in enumerate(lanes):
        times = [e.time for e in lane]
        assert times == sorted(times)
        for event in lane:
            assert owners.setdefault(event.tenant, index) == index
