"""All-pairs shortest paths, implemented from scratch.

Two interchangeable routines are provided:

* :func:`floyd_warshall` — dense, vectorised over numpy rows; the default
  for the complete random graphs of the paper's workload.
* :func:`all_pairs_dijkstra` — binary-heap Dijkstra per source; better for
  sparse topologies (trees, rings) and used as an independent oracle in the
  test-suite.

Both accept an adjacency matrix with ``inf`` for "no direct link" and return
the shortest-path cost matrix; :func:`floyd_warshall` can also return a
successor matrix for :func:`reconstruct_path`.
"""

from __future__ import annotations

import heapq
from collections import OrderedDict
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import TopologyError, ValidationError


def _validated_adjacency(adjacency: np.ndarray) -> np.ndarray:
    mat = np.asarray(adjacency, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"adjacency matrix must be square, got shape {mat.shape}"
        )
    if np.any(np.diagonal(mat) != 0.0):
        raise ValidationError("adjacency diagonal must be zero")
    off_diag = mat[~np.eye(mat.shape[0], dtype=bool)]
    # NaN links must be rejected explicitly: isfinite() below silently
    # drops them from the positivity check, after which they poison the
    # relaxation arithmetic (NaN distances with finite successors,
    # breaking the nxt == -1  <=>  dist == inf invariant).
    if np.any(np.isnan(off_diag)):
        raise ValidationError(
            "link costs must not be NaN (use inf for a missing link)"
        )
    finite = off_diag[np.isfinite(off_diag)]
    if np.any(finite <= 0):
        raise ValidationError("link costs must be positive")
    return mat


def floyd_warshall(
    adjacency: np.ndarray,
    return_successors: bool = False,
) -> np.ndarray:
    """Dense all-pairs shortest paths in ``O(M^3)`` (row-vectorised).

    Parameters
    ----------
    adjacency:
        Square matrix of direct link costs; ``inf`` means no link and the
        diagonal must be zero.
    return_successors:
        When true, also return the successor matrix ``nxt`` where
        ``nxt[i, j]`` is the first hop on a shortest path from ``i`` to
        ``j`` (``-1`` when unreachable), consumable by
        :func:`reconstruct_path`.
    """
    dist = _validated_adjacency(adjacency).copy()
    n = dist.shape[0]
    if return_successors:
        nxt = np.where(np.isfinite(dist), np.arange(n)[None, :], -1)
        np.fill_diagonal(nxt, np.arange(n))
        for k in range(n):
            via = dist[:, k, None] + dist[None, k, :]
            better = via < dist
            dist = np.where(better, via, dist)
            nxt = np.where(better, nxt[:, k, None], nxt)
        return dist, nxt  # type: ignore[return-value]
    for k in range(n):
        via = dist[:, k, None] + dist[None, k, :]
        np.minimum(dist, via, out=dist)
    return dist


def reconstruct_path(nxt: np.ndarray, source: int, target: int) -> List[int]:
    """Recover the shortest path from the successor matrix of Floyd-Warshall.

    Returns the list of sites ``[source, ..., target]``; raises
    :class:`TopologyError` when ``target`` is unreachable.
    """
    n = nxt.shape[0]
    if not (0 <= source < n and 0 <= target < n):
        raise ValidationError(
            f"path endpoints ({source}, {target}) out of range [0, {n})"
        )
    if source == target:
        return [source]
    if nxt[source, target] < 0:
        raise TopologyError(f"site {target} unreachable from site {source}")
    path = [source]
    node = source
    while node != target:
        node = int(nxt[node, target])
        path.append(node)
        if len(path) > n:
            raise TopologyError("cycle detected while reconstructing path")
    return path


def dijkstra(adjacency: np.ndarray, source: int) -> np.ndarray:
    """Single-source shortest path costs with a binary heap."""
    mat = _validated_adjacency(adjacency)
    n = mat.shape[0]
    if not 0 <= source < n:
        raise ValidationError(f"source {source} out of range [0, {n})")
    # Adjacency lists once per call keeps the heap loop allocation-free.
    neighbors: List[List[Tuple[int, float]]] = [
        [
            (j, mat[i, j])
            for j in range(n)
            if j != i and np.isfinite(mat[i, j])
        ]
        for i in range(n)
    ]
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    done = np.zeros(n, dtype=bool)
    heap: List[Tuple[float, int]] = [(0.0, source)]
    while heap:
        d, node = heapq.heappop(heap)
        if done[node]:
            continue
        done[node] = True
        for nbr, cost in neighbors[node]:
            nd = d + cost
            if nd < dist[nbr]:
                dist[nbr] = nd
                heapq.heappush(heap, (nd, nbr))
    return dist


def all_pairs_dijkstra(adjacency: np.ndarray) -> np.ndarray:
    """All-pairs shortest paths via repeated Dijkstra; good for sparse graphs."""
    mat = _validated_adjacency(adjacency)
    return np.vstack([dijkstra(mat, s) for s in range(mat.shape[0])])


def all_pairs_shortest_paths(
    adjacency: np.ndarray, method: str = "auto"
) -> np.ndarray:
    """Dispatch to the best all-pairs routine.

    ``method`` is one of ``"auto"`` (Dijkstra when the graph is sparse,
    Floyd-Warshall otherwise), ``"floyd-warshall"`` or ``"dijkstra"``.
    """
    mat = _validated_adjacency(adjacency)
    if method == "floyd-warshall":
        return floyd_warshall(mat)
    if method == "dijkstra":
        return all_pairs_dijkstra(mat)
    if method != "auto":
        raise ValidationError(f"unknown shortest-path method {method!r}")
    n = mat.shape[0]
    num_links = int(np.isfinite(mat).sum() - n) // 2
    # Dense graphs (>= ~25% of possible links) favour the vectorised FW.
    if n > 2 and num_links < 0.25 * n * (n - 1) / 2:
        return all_pairs_dijkstra(mat)
    return floyd_warshall(mat)


class ShortestPathRowCache:
    """Memory-bounded all-pairs shortest paths (per-source row LRU).

    Materialising the full ``M x M`` distance *and* successor matrices is
    the scale bottleneck of :func:`floyd_warshall` — ``O(M^2)`` floats
    plus ``O(M^2)`` int64 successors, on top of the ``O(M^3)`` time.
    Most consumers only ever ask for a handful of source rows (the cost
    model gathers whole rows; path reconstruction walks one row), so
    this cache runs one binary-heap Dijkstra per *requested* source and
    keeps at most ``max_rows`` ``(distance, predecessor)`` row pairs in
    an LRU — peak memory ``O(max_rows * M)`` however large the network.

    Distances are computed by the very same heap loop as
    :func:`dijkstra` (identical relaxation order and arithmetic), so
    ``distances(s)`` equals ``dijkstra(adjacency, s)`` bit for bit.
    """

    def __init__(self, adjacency: np.ndarray, max_rows: int = 64) -> None:
        if max_rows < 1:
            raise ValidationError(
                f"max_rows must be >= 1, got {max_rows}"
            )
        self._mat = _validated_adjacency(adjacency)
        n = self._mat.shape[0]
        self._n = n
        # Adjacency lists built once; every cached-row rebuild reuses them.
        self._neighbors: List[List[Tuple[int, float]]] = [
            [
                (j, self._mat[i, j])
                for j in range(n)
                if j != i and np.isfinite(self._mat[i, j])
            ]
            for i in range(n)
        ]
        self._rows: "OrderedDict[int, Tuple[np.ndarray, np.ndarray]]" = (
            OrderedDict()
        )
        self._max_rows = max_rows
        self._hits = 0
        self._misses = 0

    @property
    def num_sites(self) -> int:
        return self._n

    def _row(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        if not 0 <= source < self._n:
            raise ValidationError(
                f"source {source} out of range [0, {self._n})"
            )
        entry = self._rows.get(source)
        if entry is not None:
            self._rows.move_to_end(source)
            self._hits += 1
            return entry
        self._misses += 1
        dist, pred = self._dijkstra_row(source)
        if len(self._rows) >= self._max_rows:
            self._rows.popitem(last=False)
        self._rows[source] = (dist, pred)
        return dist, pred

    def _dijkstra_row(self, source: int) -> Tuple[np.ndarray, np.ndarray]:
        # The heap loop of dijkstra(), with predecessor tracking bolted
        # on (assignments only — the distance arithmetic is untouched,
        # keeping the rows bit-identical to the standalone function).
        n = self._n
        dist = np.full(n, np.inf)
        dist[source] = 0.0
        pred = np.full(n, -1, dtype=np.int64)
        pred[source] = source
        done = np.zeros(n, dtype=bool)
        heap: List[Tuple[float, int]] = [(0.0, source)]
        while heap:
            d, node = heapq.heappop(heap)
            if done[node]:
                continue
            done[node] = True
            for nbr, cost in self._neighbors[node]:
                nd = d + cost
                if nd < dist[nbr]:
                    dist[nbr] = nd
                    pred[nbr] = node
                    heapq.heappush(heap, (nd, nbr))
        return dist, pred

    def distances(self, source: int) -> np.ndarray:
        """Shortest-path costs from ``source`` to every site (a copy)."""
        return self._row(source)[0].copy()

    def distance(self, source: int, target: int) -> float:
        """Shortest-path cost between one pair (``inf`` if unreachable)."""
        if not 0 <= target < self._n:
            raise ValidationError(
                f"target {target} out of range [0, {self._n})"
            )
        return float(self._row(source)[0][target])

    def path(self, source: int, target: int) -> List[int]:
        """Shortest path ``[source, ..., target]`` from the cached row.

        Raises :class:`TopologyError` when ``target`` is unreachable.
        """
        if not 0 <= target < self._n:
            raise ValidationError(
                f"target {target} out of range [0, {self._n})"
            )
        dist, pred = self._row(source)
        if source == target:
            return [source]
        if not np.isfinite(dist[target]):
            raise TopologyError(
                f"site {target} unreachable from site {source}"
            )
        path = [target]
        node = target
        while node != source:
            node = int(pred[node])
            path.append(node)
            if len(path) > self._n:
                raise TopologyError(
                    "cycle detected while reconstructing path"
                )
        path.reverse()
        return path

    def cache_info(self) -> Dict[str, float]:
        """Diagnostics: cached rows, capacity and hit/miss totals."""
        lookups = self._hits + self._misses
        return {
            "rows": len(self._rows),
            "capacity": self._max_rows,
            "hits": self._hits,
            "misses": self._misses,
            "hit_rate": (self._hits / lookups) if lookups else 0.0,
        }


def is_metric(cost_matrix: np.ndarray, tolerance: float = 1e-9) -> bool:
    """True when ``cost_matrix`` satisfies the triangle inequality.

    Shortest-path closures are metric by construction; raw random complete
    graphs generally are not.  The DRP cost model requires a metric ``C``.
    """
    mat = np.asarray(cost_matrix, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError(
            f"cost matrix must be square, got shape {mat.shape}"
        )
    for k in range(mat.shape[0]):
        if np.any(mat[:, k, None] + mat[None, k, :] < mat - tolerance):
            return False
    return True


__all__ = [
    "floyd_warshall",
    "reconstruct_path",
    "dijkstra",
    "all_pairs_dijkstra",
    "all_pairs_shortest_paths",
    "ShortestPathRowCache",
    "is_metric",
]
