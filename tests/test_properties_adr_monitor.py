"""Property-based invariants of ADR and the monitor protocol."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms import ADRTree
from repro.distributed.monitor_protocol import MonitorProtocol
from repro.network import random_tree_topology
from repro.network.shortest_paths import floyd_warshall
from repro.workload import WorkloadSpec, generate_instance

SETTINGS = settings(max_examples=25, deadline=None)


def _tree_setting(num_sites, num_objects, update_pct, seed):
    topology = random_tree_topology(num_sites, rng=seed)
    cost = floyd_warshall(topology.adjacency_matrix())
    instance = generate_instance(
        WorkloadSpec(
            num_sites=num_sites,
            num_objects=num_objects,
            update_ratio=update_pct / 100.0,
            capacity_ratio=0.5,
        ),
        rng=seed + 1,
        cost=cost,
    )
    return topology, instance


@SETTINGS
@given(
    st.integers(3, 10),
    st.integers(1, 8),
    st.integers(0, 30),
    st.integers(0, 2**15),
)
def test_adr_schemes_always_connected_subtrees(
    num_sites, num_objects, update_pct, seed
):
    topology, instance = _tree_setting(
        num_sites, num_objects, update_pct, seed
    )
    result = ADRTree(topology).run(instance)
    assert result.scheme.is_valid()
    for obj in range(instance.num_objects):
        replicas = set(int(s) for s in result.scheme.replicators(obj))
        assert int(instance.primaries[obj]) in replicas
        start = next(iter(replicas))
        seen = {start}
        stack = [start]
        while stack:
            node = stack.pop()
            for nbr in topology.neighbors(node):
                if nbr in replicas and nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        assert seen == replicas


@SETTINGS
@given(
    st.integers(3, 10),
    st.integers(1, 6),
    st.integers(0, 2**15),
)
def test_adr_never_worse_than_primary_only(num_sites, num_objects, seed):
    topology, instance = _tree_setting(num_sites, num_objects, 10, seed)
    result = ADRTree(topology).run(instance)
    assert result.savings_percent >= -1e-9


@SETTINGS
@given(st.integers(2, 8), st.integers(1, 10), st.integers(0, 2**15))
def test_monitor_incremental_converges_to_truth(
    num_sites, num_objects, seed
):
    instance = generate_instance(
        WorkloadSpec(num_sites=num_sites, num_objects=num_objects,
                     update_ratio=0.1, capacity_ratio=0.3),
        rng=seed,
    )
    protocol = MonitorProtocol(instance, threshold=0.0)
    outcome = protocol.collect(
        instance.reads, instance.writes, mode="incremental"
    )
    assert outcome.monitor_view_exact
    reads, writes = protocol.monitor_view()
    assert np.array_equal(reads, instance.reads)
    assert np.array_equal(writes, instance.writes)
    # incremental never ships more than a full round would
    full_counters = (num_sites - 1) * 2 * num_objects
    assert outcome.counters_shipped <= full_counters
    # a repeat round is silent
    repeat = protocol.collect(
        instance.reads, instance.writes, mode="incremental"
    )
    assert repeat.counters_shipped == 0
