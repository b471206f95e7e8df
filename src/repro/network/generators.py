"""Topology generators.

:func:`paper_cost_matrix` reproduces Section 6.1 exactly: a complete graph
with bidirectional links whose costs are drawn uniformly from ``{1..10}``
(the number of TCP/IP hops), closed under shortest paths so that ``C(i, j)``
is "the cumulative cost of the shortest path" as Section 2 requires.

The remaining generators (tree, ring, star, grid, Waxman) are extensions
used by the examples and by tests that need sparse or structured networks —
e.g. the tree networks in which Wolfson et al.'s adaptive algorithm is
optimal (Related Work, Section 7).
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.network.shortest_paths import floyd_warshall
from repro.network.topology import Topology
from repro.utils.rng import SeedLike, as_generator


def _mesh_links(
    num_sites: int, min_cost: int, max_cost: int, rng: SeedLike
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(rows, cols, costs)`` of every link ``i < j`` of the complete graph.

    Links come in :func:`numpy.triu_indices` (row-major) order and their
    U[min_cost, max_cost] costs are drawn in one call, which consumes the
    generator exactly as one scalar draw per link in that order would.
    """
    if num_sites < 1:
        raise ValidationError(f"num_sites must be >= 1, got {num_sites}")
    if not 0 < min_cost <= max_cost:
        raise ValidationError(
            f"need 0 < min_cost <= max_cost, got ({min_cost}, {max_cost})"
        )
    rows, cols = np.triu_indices(num_sites, k=1)
    costs = as_generator(rng).integers(min_cost, max_cost + 1, size=rows.size)
    return rows, cols, costs


def random_mesh_topology(
    num_sites: int,
    min_cost: int = 1,
    max_cost: int = 10,
    rng: SeedLike = None,
) -> Topology:
    """The paper's network: a complete graph with U[min_cost, max_cost] links."""
    rows, cols, costs = _mesh_links(num_sites, min_cost, max_cost, rng)
    return Topology(
        num_sites, zip(rows.tolist(), cols.tolist(), costs.tolist())
    )


def paper_cost_matrix(
    num_sites: int,
    min_cost: int = 1,
    max_cost: int = 10,
    rng: SeedLike = None,
) -> np.ndarray:
    """Section 6.1 cost matrix: random complete graph, shortest-path closed.

    Returns the symmetric matrix ``C`` with zero diagonal used directly by
    :class:`repro.core.DRPInstance`.  The link costs are those of
    :func:`random_mesh_topology` with the same generator, written straight
    into the adjacency matrix.
    """
    if num_sites == 1:
        return np.zeros((1, 1))
    rows, cols, costs = _mesh_links(num_sites, min_cost, max_cost, rng)
    adjacency = np.zeros((num_sites, num_sites))
    adjacency[rows, cols] = costs
    adjacency[cols, rows] = costs
    return floyd_warshall(adjacency)


def random_tree_topology(
    num_sites: int,
    min_cost: int = 1,
    max_cost: int = 10,
    rng: SeedLike = None,
) -> Topology:
    """A uniformly random labelled tree (random attachment), U-cost links."""
    if num_sites < 1:
        raise ValidationError(f"num_sites must be >= 1, got {num_sites}")
    gen = as_generator(rng)
    topo = Topology(num_sites)
    for node in range(1, num_sites):
        parent = int(gen.integers(node))
        topo.add_link(parent, node, int(gen.integers(min_cost, max_cost + 1)))
    return topo


def ring_topology(num_sites: int, cost: float = 1.0) -> Topology:
    """Sites arranged in a cycle with uniform link cost."""
    if num_sites < 3:
        raise ValidationError(f"a ring needs >= 3 sites, got {num_sites}")
    topo = Topology(num_sites)
    for i in range(num_sites):
        topo.add_link(i, (i + 1) % num_sites, cost)
    return topo


def star_topology(num_sites: int, cost: float = 1.0, hub: int = 0) -> Topology:
    """A hub-and-spoke network; models one well-connected data centre."""
    if num_sites < 2:
        raise ValidationError(f"a star needs >= 2 sites, got {num_sites}")
    if not 0 <= hub < num_sites:
        raise ValidationError(f"hub {hub} out of range [0, {num_sites})")
    topo = Topology(num_sites)
    for i in range(num_sites):
        if i != hub:
            topo.add_link(hub, i, cost)
    return topo


def grid_topology(rows: int, cols: int, cost: float = 1.0) -> Topology:
    """A rows x cols mesh grid with 4-neighbour links."""
    if rows < 1 or cols < 1:
        raise ValidationError(f"grid needs positive dims, got {rows}x{cols}")
    topo = Topology(rows * cols)
    for r in range(rows):
        for c in range(cols):
            node = r * cols + c
            if c + 1 < cols:
                topo.add_link(node, node + 1, cost)
            if r + 1 < rows:
                topo.add_link(node, node + cols, cost)
    return topo


def waxman_topology(
    num_sites: int,
    alpha: float = 0.6,
    beta: float = 0.4,
    scale: float = 10.0,
    rng: SeedLike = None,
    max_attempts: int = 50,
) -> Topology:
    """A Waxman random graph — the classic synthetic-WAN generator.

    Sites are placed uniformly in a unit square; a link between ``i`` and
    ``j`` at Euclidean distance ``d`` exists with probability
    ``alpha * exp(-d / (beta * sqrt(2)))`` and costs ``max(1, d * scale)``.
    Resamples until connected (up to ``max_attempts`` times).
    """
    if num_sites < 2:
        raise ValidationError(f"num_sites must be >= 2, got {num_sites}")
    if not (0 < alpha <= 1 and 0 < beta <= 1):
        raise ValidationError(
            f"alpha and beta must lie in (0, 1], got ({alpha}, {beta})"
        )
    gen = as_generator(rng)
    max_dist = math.sqrt(2.0)
    for _ in range(max_attempts):
        coords = gen.random((num_sites, 2))
        topo = Topology(num_sites)
        for i in range(num_sites):
            for j in range(i + 1, num_sites):
                d = float(np.linalg.norm(coords[i] - coords[j]))
                if gen.random() < alpha * math.exp(-d / (beta * max_dist)):
                    topo.add_link(i, j, max(1.0, d * scale))
        if topo.is_connected():
            return topo
    raise ValidationError(
        "failed to generate a connected Waxman graph; raise alpha/beta"
    )


__all__ = [
    "random_mesh_topology",
    "paper_cost_matrix",
    "random_tree_topology",
    "ring_topology",
    "star_topology",
    "grid_topology",
    "waxman_topology",
]
