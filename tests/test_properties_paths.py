"""Property-based invariants of the shortest-path routines."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.network.generators import random_mesh_topology, random_tree_topology
from repro.network.shortest_paths import (
    all_pairs_dijkstra,
    floyd_warshall,
    is_metric,
)

SETTINGS = settings(max_examples=30, deadline=None)


@SETTINGS
@given(st.integers(2, 12), st.integers(0, 2**16))
def test_fw_equals_dijkstra_on_meshes(size, seed):
    adjacency = random_mesh_topology(size, rng=seed).adjacency_matrix()
    assert np.allclose(
        floyd_warshall(adjacency), all_pairs_dijkstra(adjacency)
    )


@SETTINGS
@given(st.integers(2, 15), st.integers(0, 2**16))
def test_fw_equals_dijkstra_on_trees(size, seed):
    adjacency = random_tree_topology(size, rng=seed).adjacency_matrix()
    assert np.allclose(
        floyd_warshall(adjacency), all_pairs_dijkstra(adjacency)
    )


@SETTINGS
@given(st.integers(2, 10), st.integers(0, 2**16))
def test_closure_is_metric_symmetric_and_idempotent(size, seed):
    adjacency = random_mesh_topology(size, rng=seed).adjacency_matrix()
    dist = floyd_warshall(adjacency)
    assert is_metric(dist)
    assert np.allclose(dist, dist.T)
    assert np.all(np.diagonal(dist) == 0.0)
    # closure of a closure is itself
    assert np.allclose(floyd_warshall(dist), dist)


@SETTINGS
@given(st.integers(2, 10), st.integers(0, 2**16))
def test_closure_never_exceeds_direct_links(size, seed):
    adjacency = random_mesh_topology(size, rng=seed).adjacency_matrix()
    dist = floyd_warshall(adjacency)
    assert np.all(dist <= adjacency + 1e-12)
    off_diag = dist[~np.eye(size, dtype=bool)]
    assert np.all(off_diag > 0)
