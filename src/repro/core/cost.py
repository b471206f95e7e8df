"""The object-transfer cost model of Section 2.2 (Eq. 1-4).

Accounting convention (Eq. 4 of the paper):

* a **non-replicator** site ``i`` pays ``r_ik * o_k * C(i, SN_ik)`` to read
  object ``k`` from its nearest replicator ``SN_ik`` plus
  ``w_ik * o_k * C(i, SP_k)`` to ship its writes to the primary;
* a **replicator** site ``i`` pays ``(sum_x w_xk) * o_k * C(i, SP_k)`` —
  shipping its own writes to the primary and receiving every broadcast
  update from it (both legs cost ``C(i, SP_k)`` per unit since ``C`` is
  symmetric).  The primary itself contributes zero because
  ``C(SP_k, SP_k) = 0``.

The total ``D(X)`` equals the aggregation of Eq. 1 + Eq. 2 over all sites
and objects; the test-suite cross-checks this closed form against a slow
site-by-site reference implementation and against the discrete-event
simulator.

``update_fraction`` (an extension the paper sketches in Section 2.2 —
"we can move only the updated parts") scales every write transfer: 1.0 is
the paper's ship-the-whole-object policy, 0.1 models delta updates that
ship 10% of the object per write.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.holder import observers
from repro.utils.metrics import MetricsRegistry
from repro.utils.validation import check_fraction

SchemeLike = Union[ReplicationScheme, np.ndarray]


class CostModel:
    """Vectorised evaluator of the total network transfer cost ``D``.

    The evaluator precomputes the read/write *weights* (access counts times
    object size) and memoises per-object costs keyed by the object's packed
    replica column, which makes GA population evaluation cheap: columns
    shared between parents and offspring (elitism, survivors of crossover)
    are never recomputed.

    Parameters
    ----------
    instance:
        The problem inputs.
    update_fraction:
        Fraction of an object shipped per write transfer (default 1.0, the
        paper's policy).
    cache_size:
        Maximum number of memoised per-object costs.  The cache is a true
        LRU: when full, the single least-recently-used entry is evicted,
        so a working set one entry over capacity degrades gracefully
        instead of thrashing to a 0% hit rate.  0 disables caching.
    metrics:
        Optional :class:`~repro.utils.metrics.MetricsRegistry`; when given,
        per-call timers (``cost.object_cost``, ``cost.batch``) and cache
        hit/miss/eviction counters are recorded into it.  Hit/miss/eviction
        totals are tracked on the model itself either way and reported by
        :meth:`cache_info`.
    """

    def __init__(
        self,
        instance: DRPInstance,
        update_fraction: float = 1.0,
        cache_size: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if cache_size < 0:
            raise ValidationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        self._instance = instance
        self._uf = check_fraction(
            "update_fraction", update_fraction, allow_zero=True
        )
        # Read weight r_ik * o_k and write weight w_ik * o_k, shape (M, N).
        self._read_weight = instance.reads * instance.sizes[None, :]
        self._write_weight = (
            instance.writes * instance.sizes[None, :] * self._uf
        )
        # Total write weight per object: o_k * sum_x w_xk (already scaled).
        self._total_write_weight = self._write_weight.sum(axis=0)
        # C(i, SP_k) for every (i, k), shape (M, N).
        self._cost_to_primary = instance.cost[:, instance.primaries]
        # A dense model is a single object-column tile.
        self._weights = (
            self._read_weight,
            self._write_weight,
            self._cost_to_primary,
            self._total_write_weight,
        )
        self._cost_t = np.ascontiguousarray(instance.cost.T)
        self._cache: "OrderedDict[Tuple[int, bytes], float]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._metrics = metrics
        self._d_prime_per_object: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> DRPInstance:
        return self._instance

    @property
    def update_fraction(self) -> float:
        return self._uf

    @property
    def metrics(self) -> Optional[MetricsRegistry]:
        """The registry this model records into, if any."""
        return self._metrics

    @property
    def read_weight(self) -> np.ndarray:
        """Read weight ``r_ik * o_k``, shape ``(M, N)`` (do not mutate)."""
        return self._read_weight

    @property
    def write_weight(self) -> np.ndarray:
        """Scaled write weight ``w_ik * o_k * uf``, shape ``(M, N)``."""
        return self._write_weight

    @property
    def total_write_weight(self) -> np.ndarray:
        """Per-object total write weight ``o_k * uf * sum_x w_xk``."""
        return self._total_write_weight

    @property
    def cost_to_primary(self) -> np.ndarray:
        """``C(i, SP_k)`` for every ``(i, k)``, shape ``(M, N)``."""
        return self._cost_to_primary

    #: whether the full ``(M, N)`` weight matrices are materialised —
    #: :class:`SparseCostModel` keeps only object-column tiles instead
    has_dense_weights = True

    # ------------------------------------------------------------------ #
    # weight tiles: ``(read_w, write_w, to_primary, total_w)`` over a run
    # of object columns; a dense model is one tile of all N columns
    # ------------------------------------------------------------------ #
    def _tile(self, obj: int):
        """``(start, weights)`` of the tile holding ``obj``."""
        return 0, self._weights

    def _tiles(self):
        """Every ``(start, stop, weights)`` tile, in object order."""
        yield 0, self._instance.num_objects, self._weights

    # ------------------------------------------------------------------ #
    # per-object weight columns (the kernels consume these or whole
    # tiles, never the full matrices, so tile-backed subclasses can swap
    # the storage)
    # ------------------------------------------------------------------ #
    def read_weight_col(self, obj: int) -> np.ndarray:
        """Read weight column ``r_.k * o_k``, shape ``(M,)``."""
        start, (read_w, _, _, _) = self._tile(obj)
        return read_w[:, obj - start]

    def write_weight_col(self, obj: int) -> np.ndarray:
        """Scaled write weight column ``w_.k * o_k * uf``, shape ``(M,)``."""
        start, (_, write_w, _, _) = self._tile(obj)
        return write_w[:, obj - start]

    def cost_to_primary_col(self, obj: int) -> np.ndarray:
        """``C(., SP_k)`` column, shape ``(M,)``."""
        start, (_, _, to_primary, _) = self._tile(obj)
        return to_primary[:, obj - start]

    def total_write_weight_of(self, obj: int) -> float:
        """Scalar ``o_k * uf * sum_x w_xk`` of one object."""
        start, (_, _, _, total_w) = self._tile(obj)
        return total_w[obj - start]

    # ------------------------------------------------------------------ #
    # per-object costs
    # ------------------------------------------------------------------ #
    def object_cost(self, obj: int, column: np.ndarray) -> float:
        """NTC contributed by object ``obj`` under replica ``column``.

        ``column`` is the boolean length-``M`` replica indicator (the
        paper's ``V_k`` when summed with read and write components).  The
        primary must be a replicator; this is *not* re-checked here for
        speed — schemes enforce it structurally.
        """
        start, weights = self._tile(obj)
        return self._timed_cost(
            np.asarray(column, dtype=bool), obj - start, weights
        )

    def _timed_cost(self, mask: np.ndarray, col: int, weights) -> float:
        if self._metrics is not None:
            with self._metrics.timer("cost.object_cost"):
                return self._column_cost(mask, col, weights)
        return self._column_cost(mask, col, weights)

    def _column_cost(self, mask: np.ndarray, col: int, weights) -> float:
        """Eq. 4 NTC of tile column ``col`` under the replica ``mask``."""
        read_w, write_w, to_primary, total_w = weights
        reps = mask.nonzero()[0]
        # Reads: every site reads from its nearest replicator; replicator
        # rows contribute zero because min cost over reps includes self.
        # The weight column is copied contiguous before the dot: BLAS
        # picks its ddot kernel (and with it the accumulation order) by
        # operand stride, and the dense and tile-backed models store the
        # column at different strides — the copy pins every evaluation
        # path to the unit-stride kernel so costs stay bit-identical on
        # non-integer cost matrices.
        nearest_cost = self._cost_t[reps].min(axis=0)
        read_term = float(
            np.ascontiguousarray(read_w[:, col]) @ nearest_cost
        )
        # Writes: non-replicators ship their own writes to the primary;
        # replicators are charged for all writes (own + received updates).
        to_primary = to_primary[:, col]
        nonrep = ~mask
        nonrep_writes = float(write_w[:, col][nonrep] @ to_primary[nonrep])
        rep_writes = float(to_primary[mask].sum() * total_w[col])
        return read_term + nonrep_writes + rep_writes

    def object_cost_cached(
        self, obj: int, column: np.ndarray, key: Optional[bytes] = None
    ) -> float:
        """Memoised :meth:`object_cost` (keyed by the packed column bits).

        The memo table is LRU: a hit refreshes the entry's recency, and an
        insert into a full cache evicts only the least-recently-used entry.

        ``key`` may pass the column's packed-bit digest when the caller
        already owns one (:meth:`ReplicationScheme.column_digest`), which
        skips the per-lookup ``packbits`` that otherwise dominates the
        cache's hot path.  It must equal
        ``np.packbits(column).tobytes()`` — digests and ad-hoc lookups
        share one key space.
        """
        if self._cache_size == 0:
            return self.object_cost(obj, column)
        if key is None:
            key = np.packbits(np.asarray(column, dtype=bool)).tobytes()
        key = (obj, key)
        hit = self._cache_lookup(key)
        if hit is not None:
            return hit
        value = self.object_cost(obj, column)
        self._cache_insert(key, value)
        return value

    def _cache_lookup(self, key: Tuple[int, bytes]) -> Optional[float]:
        """A memoised cost (refreshing its recency) or ``None``; counted."""
        hit = self._cache.get(key)
        if hit is None:
            self._record_miss()
            return None
        self._cache.move_to_end(key)
        self._record_hit()
        return hit

    def _record_hit(self) -> None:
        self._hits += 1
        if self._metrics is not None:
            self._metrics.increment("cost.cache_hits")

    def _record_miss(self) -> None:
        self._misses += 1
        if self._metrics is not None:
            self._metrics.increment("cost.cache_misses")

    #: evictions between ``cost.cache_pressure`` trace events
    _EVICTION_SAMPLE = 1024

    def _cache_insert(self, key: Tuple[int, bytes], value: float) -> None:
        if len(self._cache) >= self._cache_size:
            self._cache.popitem(last=False)
            self._evictions += 1
            if self._metrics is not None:
                self._metrics.increment("cost.cache_evictions")
            if self._evictions % self._EVICTION_SAMPLE == 1:
                tracer = observers().tracer
                if tracer.enabled:
                    # Sampled: one event per _EVICTION_SAMPLE evictions
                    # marks when (and how hard) the LRU starts thrashing.
                    tracer.event(
                        "cost.cache_pressure",
                        evictions=self._evictions,
                        hits=self._hits,
                        misses=self._misses,
                    )
        self._cache[key] = value

    def object_costs_batch(
        self, obj: int, columns: np.ndarray, chunk: int = 64
    ) -> np.ndarray:
        """Costs of many replica columns of one object at once.

        ``columns`` is a boolean ``(P, M)`` stack.  Duplicate columns are
        collapsed with :func:`numpy.unique`, cached costs are reused, and
        the remaining fresh columns are priced ``chunk`` rows at a time:
        each row's nearest-replicator distances come from a gather over
        its replicator set only, so the peak temporary is the
        ``chunk x M`` nearest table (an earlier revision broadcast a
        ``chunk x M x M`` masked copy of the cost matrix — half a
        gigabyte at M=1024).  Equivalent to calling
        :meth:`object_cost_cached` per row; used by GA population
        evaluation where whole generations share columns.
        """
        columns = np.asarray(columns, dtype=bool)
        if columns.ndim != 2 or columns.shape[1] != self._instance.num_sites:
            raise ValidationError(
                "columns must have shape (P, "
                f"{self._instance.num_sites}), got {columns.shape}"
            )
        tracer = observers().tracer
        if tracer.enabled:
            # One span per batched evaluation: coarse enough to stay
            # cheap, fine enough to localise GA evaluation time.  The
            # profiler ticks inside the span so samples attribute here.
            with tracer.span(
                "cost.batch", obj=obj, rows=int(columns.shape[0])
            ):
                result = self._timed_batch(obj, columns, chunk)
                observers().profiler.tick()
                return result
        return self._timed_batch(obj, columns, chunk)

    def _timed_batch(
        self, obj: int, columns: np.ndarray, chunk: int
    ) -> np.ndarray:
        if self._metrics is not None:
            with self._metrics.timer("cost.batch"):
                return self._object_costs_batch(obj, columns, chunk)
        return self._object_costs_batch(obj, columns, chunk)

    def _object_costs_batch(
        self, obj: int, columns: np.ndarray, chunk: int
    ) -> np.ndarray:
        unique, inverse = np.unique(columns, axis=0, return_inverse=True)
        # NumPy 2.1 returns the inverse with an extra axis under ``axis=``
        # (reverted again in 2.2); flatten so indexing below always yields
        # a (P,) result on every supported NumPy.
        inverse = np.asarray(inverse).reshape(-1)
        unique_costs = np.empty(unique.shape[0])
        misses: list = []
        keys: list = []
        for idx in range(unique.shape[0]):
            key = (obj, np.packbits(unique[idx]).tobytes())
            hit = self._cache_lookup(key) if self._cache_size else None
            if hit is None:
                misses.append(idx)
                keys.append(key)
            else:
                unique_costs[idx] = hit
        cost = self._instance.cost
        m = self._instance.num_sites
        to_primary = self.cost_to_primary_col(obj)
        read_w = self.read_weight_col(obj)
        write_w = self.write_weight_col(obj)
        total_w = self.total_write_weight_of(obj)
        for start in range(0, len(misses), chunk):
            block = misses[start:start + chunk]
            mask = unique[block]  # (b, M)
            # Per-row gather over the replicator set: min over the same
            # value set as the masked broadcast it replaces, so results
            # are bit-identical while peak memory drops from b*M*M to
            # b*M (rows without replicators stay at inf, as before).
            nearest = np.full((len(block), m), np.inf)
            for offset in range(len(block)):
                reps = np.nonzero(mask[offset])[0]
                if reps.size:
                    nearest[offset] = cost[:, reps].min(axis=1)
            read_term = nearest @ read_w
            nonrep = (~mask) @ (write_w * to_primary)
            rep = (mask @ to_primary) * total_w
            values = read_term + nonrep + rep
            for offset, idx in enumerate(block):
                unique_costs[idx] = values[offset]
                if self._cache_size:
                    self._cache_insert(
                        keys[start + offset], float(values[offset])
                    )
        return unique_costs[inverse]

    def object_cost_kernel(self, obj: int, column: np.ndarray) -> float:
        """Price one column through the batched kernel (cache-aware).

        Bit-identical to :meth:`object_costs_batch` on a single-row stack
        but without opening a trace span.
        """
        column = np.asarray(column, dtype=bool)
        return float(self._timed_batch(obj, column[None, :], 1)[0])

    def population_costs(self, matrices) -> np.ndarray:
        """Total ``D`` of every scheme matrix in ``matrices`` (batched)."""
        mats = [self._as_matrix(m) for m in matrices]
        if not mats:
            return np.empty(0)
        totals = np.zeros(len(mats))
        for k in range(self._instance.num_objects):
            columns = np.stack([m[:, k] for m in mats])
            totals += self.object_costs_batch(k, columns)
        return totals

    def primary_only_object_cost(self, obj: int) -> float:
        """``V_prime_k``: NTC of ``obj`` replicated only at its primary."""
        if self._d_prime_per_object is None:
            self._compute_d_prime()
        return float(self._d_prime_per_object[obj])

    def _compute_d_prime(self) -> None:
        m = self._instance.num_sites
        primaries = self._instance.primaries
        per_object = np.empty(self._instance.num_objects)
        column = np.zeros(m, dtype=bool)
        with observers().tracer.span(
            "cost.d_prime", objects=self._instance.num_objects
        ):
            for start, stop, weights in self._tiles():
                for k in range(start, stop):
                    primary = primaries[k]
                    column[primary] = True
                    per_object[k] = self._timed_cost(
                        column, k - start, weights
                    )
                    column[primary] = False
        self._d_prime_per_object = per_object

    # ------------------------------------------------------------------ #
    # totals
    # ------------------------------------------------------------------ #
    def _as_matrix(self, scheme: SchemeLike) -> np.ndarray:
        if isinstance(scheme, ReplicationScheme):
            return scheme.matrix
        mat = np.asarray(scheme, dtype=bool)
        expected = (self._instance.num_sites, self._instance.num_objects)
        if mat.shape != expected:
            raise ValidationError(
                f"scheme matrix must have shape {expected}, got {mat.shape}"
            )
        return mat

    def total_cost(self, scheme: SchemeLike, cached: bool = True) -> float:
        """``D(X)`` — Eq. 4 summed over all objects.

        One walk over the weight tiles; each object is looked up in,
        priced for and inserted into the memo exactly as
        :meth:`object_cost_cached` would, in object order.
        """
        mat = self._as_matrix(scheme)
        if isinstance(scheme, ReplicationScheme):
            # Scheme-owned digests replace the per-lookup packbits key.
            digest = scheme.column_digest
        else:
            def digest(k: int) -> bytes:
                return np.packbits(mat[:, k]).tobytes()
        cached = cached and self._cache_size > 0
        total = 0.0
        for start, stop, weights in self._tiles():
            for k in range(start, stop):
                if cached:
                    key = (k, digest(k))
                    value = self._cache_lookup(key)
                    if value is None:
                        value = self._timed_cost(mat[:, k], k - start, weights)
                        self._cache_insert(key, value)
                else:
                    value = self._timed_cost(mat[:, k], k - start, weights)
                total += value
        return float(total)

    def d_prime(self) -> float:
        """``D_prime`` — NTC of the primary-only allocation (cached)."""
        if self._d_prime_per_object is None:
            self._compute_d_prime()
        return float(self._d_prime_per_object.sum())

    def savings_percent(self, scheme: SchemeLike) -> float:
        """The paper's quality metric: % of ``D_prime`` saved by ``scheme``.

        On degenerate instances where ``D_prime == 0`` the percentage is
        undefined; a scheme that still incurs positive cost reports
        ``-inf`` (strictly worse than primary-only) rather than masking
        the regression as ``0.0``.
        """
        d_prime = self.d_prime()
        cost = self.total_cost(scheme)
        if d_prime == 0.0:
            return 0.0 if cost == 0.0 else float("-inf")
        return 100.0 * (d_prime - cost) / d_prime

    def fitness(self, scheme: SchemeLike) -> float:
        """Normalised GA fitness ``f = (D_prime - D) / D_prime`` (can be < 0).

        ``-inf`` when ``D_prime == 0`` but the scheme's cost is positive
        (see :meth:`savings_percent`).
        """
        d_prime = self.d_prime()
        cost = self.total_cost(scheme)
        if d_prime == 0.0:
            return 0.0 if cost == 0.0 else float("-inf")
        return (d_prime - cost) / d_prime

    # ------------------------------------------------------------------ #
    # incremental deltas
    # ------------------------------------------------------------------ #
    def add_delta(
        self, scheme: ReplicationScheme, site: int, obj: int
    ) -> float:
        """Exact change in ``D`` from adding a replica of ``obj`` at ``site``.

        Negative values mean the addition reduces total cost.  Unlike the
        greedy benefit of Eq. 5 this accounts for *other* sites' reads
        being redirected to the new replica.
        """
        if scheme.holds(site, obj):
            raise ValueError(f"site {site} already holds object {obj}")
        from repro.core.incremental import single_add_delta

        return single_add_delta(self, scheme, site, obj)

    def drop_delta(
        self, scheme: ReplicationScheme, site: int, obj: int
    ) -> float:
        """Exact change in ``D`` from dropping the replica of ``obj`` at ``site``."""
        if not scheme.holds(site, obj):
            raise ValueError(f"site {site} does not hold object {obj}")
        if int(self._instance.primaries[obj]) == int(site):
            raise ValueError(f"cannot drop primary copy of object {obj}")
        from repro.core.incremental import single_drop_delta

        return single_drop_delta(self, scheme, site, obj)

    # ------------------------------------------------------------------ #
    # decomposition (Eq. 1 and Eq. 2, used by tests and the simulator)
    # ------------------------------------------------------------------ #
    def read_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        """``R_ik`` of Eq. 1 for every (site, object) pair, shape (M, N)."""
        mat = self._as_matrix(scheme)
        out = np.empty_like(self._read_weight)
        cost = self._instance.cost
        for k in range(self._instance.num_objects):
            reps = np.nonzero(mat[:, k])[0]
            out[:, k] = self._read_weight[:, k] * cost[:, reps].min(axis=1)
        return out

    def write_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        """``W_ik`` of Eq. 2 for every (site, object) pair, shape (M, N).

        Per the writer-side accounting of Eq. 2, site ``i`` pays for the
        primary shipment *and* the broadcast to every other replicator:
        ``w_ik * o_k * (C(i, SP_k) + sum_{j in R_k, j != i} C(SP_k, j))``.
        Summed over all (i, k) this equals the Eq. 4 write accounting.
        """
        mat = self._as_matrix(scheme)
        out = np.empty_like(self._write_weight)
        cost = self._instance.cost
        for k in range(self._instance.num_objects):
            primary = int(self._instance.primaries[k])
            reps = np.nonzero(mat[:, k])[0]
            broadcast_total = float(cost[primary, reps].sum())
            # Each writer i pays C(i, SP) plus the broadcast excluding the
            # leg back to itself when i is a replicator.
            per_writer = self._cost_to_primary[:, k] + broadcast_total
            per_writer = per_writer - np.where(
                mat[:, k], cost[primary, :], 0.0
            )
            out[:, k] = self._write_weight[:, k] * per_writer
        return out

    def cache_info(self) -> Dict[str, float]:
        """Diagnostics: cache population, capacity and hit/miss totals."""
        lookups = self._hits + self._misses
        return {
            "entries": len(self._cache),
            "capacity": self._cache_size,
            "hits": self._hits,
            "misses": self._misses,
            "evictions": self._evictions,
            "hit_rate": (self._hits / lookups) if lookups else 0.0,
        }

    def clear_cache(self) -> None:
        """Drop every memoised cost (hit/miss totals are kept)."""
        self._cache.clear()


class SparseCostModel(CostModel):
    """Blocked-kernel cost evaluator over a sparse workload.

    Accepts a :class:`~repro.workload.sparse.SparseProblem` (or anything
    whose ``reads``/``writes`` expose ``dense_block``/``column_sums``)
    and prices Eq. 4 without ever materialising the dense ``(M, N)``
    weight matrices: object-column **tiles** of width ``tile`` are
    densified on demand and held in a two-slot LRU, so peak memory is
    ``O(M * tile)`` on top of the inputs instead of ``O(M * N)``.

    Costs are **bit-identical** to :class:`CostModel` on the densified
    problem: tiles are built with the exact elementwise expressions of
    the dense constructor, per-object totals reduce over the same axis
    with the same length (NumPy's pairwise blocking depends only on the
    reduction length ``M``), and tile columns keep a non-unit stride —
    the same BLAS stride class as dense ``(M, N)`` columns — by never
    producing a width-1 tile (a trailing remainder of one column is
    merged into the previous tile).  The per-object LRU memo, the batch
    kernel and the incremental delta machinery are all inherited
    unchanged: they only consume the per-object column accessors.  The
    tile walk of ``total_cost`` and ``d_prime`` is inherited too; it
    builds each tile once per pass through :meth:`_tiles`.
    """

    has_dense_weights = False

    def __init__(
        self,
        problem,
        update_fraction: float = 1.0,
        cache_size: int = 200_000,
        metrics: Optional[MetricsRegistry] = None,
        tile: int = 256,
    ) -> None:
        if cache_size < 0:
            raise ValidationError(
                f"cache_size must be >= 0, got {cache_size}"
            )
        if tile < 2:
            raise ValidationError(
                f"tile width must be >= 2 (width-1 tiles change the "
                f"column stride class), got {tile}"
            )
        reads = getattr(problem, "reads", None)
        if not hasattr(reads, "dense_block"):
            raise ValidationError(
                "SparseCostModel needs a sparse problem (reads/writes "
                "with dense_block); use CostModel for dense instances"
            )
        self._instance = problem
        self._uf = check_fraction(
            "update_fraction", update_fraction, allow_zero=True
        )
        self._cache: "OrderedDict[Tuple[int, bytes], float]" = OrderedDict()
        self._cache_size = cache_size
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._metrics = metrics
        self._d_prime_per_object: Optional[np.ndarray] = None
        n = problem.num_objects
        width = min(int(tile), n)
        starts = list(range(0, n, width))
        # Never leave a width-1 remainder: merge it into the previous
        # tile (contiguous width-1 columns would take BLAS's unit-stride
        # dot kernel whose accumulation differs from the strided one).
        if len(starts) > 1 and n - starts[-1] == 1:
            starts.pop()
        self._tile_starts = starts
        self._tile_cache: "OrderedDict[int, Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]" = OrderedDict()
        self._max_tiles = 2
        self._cost_t = np.ascontiguousarray(problem.cost.T)

    # ------------------------------------------------------------------ #
    # tile machinery
    # ------------------------------------------------------------------ #
    def _tile(self, obj: int):
        """``(start, (rw, ww, ctp, tw))`` of the tile holding ``obj``."""
        starts = self._tile_starts
        lo, hi = 0, len(starts)
        while hi - lo > 1:  # rightmost start <= obj
            mid = (lo + hi) // 2
            if starts[mid] <= obj:
                lo = mid
            else:
                hi = mid
        start = starts[lo]
        entry = self._tile_cache.get(start)
        if entry is None:
            entry = self._build_tile(lo)
            if len(self._tile_cache) >= self._max_tiles:
                self._tile_cache.popitem(last=False)
            self._tile_cache[start] = entry
        else:
            self._tile_cache.move_to_end(start)
        return start, entry

    def _tiles(self):
        starts = self._tile_starts + [self._instance.num_objects]
        for start, stop in zip(starts, starts[1:]):
            yield start, stop, self._tile(start)[1]

    def _build_tile(self, pos: int):
        starts = self._tile_starts
        start = starts[pos]
        stop = (
            starts[pos + 1]
            if pos + 1 < len(starts)
            else self._instance.num_objects
        )
        inst = self._instance
        sizes = inst.sizes[start:stop]
        # The exact elementwise expressions of CostModel.__init__,
        # restricted to the column slice — elementwise products cannot
        # depend on the surrounding columns, so every entry matches the
        # dense weight matrices bit for bit.
        rw = inst.reads.dense_block(start, stop) * sizes[None, :]
        ww = (
            inst.writes.dense_block(start, stop)
            * sizes[None, :]
            * self._uf
        )
        tw = ww.sum(axis=0)
        ctp = inst.cost[:, inst.primaries[start:stop]]
        return rw, ww, ctp, tw

    @property
    def tile_width(self) -> int:
        """Nominal object-column tile width of the blocked kernel."""
        if len(self._tile_starts) > 1:
            return self._tile_starts[1] - self._tile_starts[0]
        return self._instance.num_objects

    # The dense matrix properties would silently re-materialise the
    # O(M*N) arrays this model exists to avoid; fail loudly instead.
    def _no_dense(self, name: str):
        raise ValidationError(
            f"SparseCostModel does not materialise the dense {name} "
            f"matrix; use the per-object column accessors"
        )

    @property
    def read_weight(self) -> np.ndarray:
        self._no_dense("read_weight")

    @property
    def write_weight(self) -> np.ndarray:
        self._no_dense("write_weight")

    @property
    def total_write_weight(self) -> np.ndarray:
        self._no_dense("total_write_weight")

    @property
    def cost_to_primary(self) -> np.ndarray:
        self._no_dense("cost_to_primary")

    def read_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        self._no_dense("read-component")

    def write_cost_components(self, scheme: SchemeLike) -> np.ndarray:
        self._no_dense("write-component")


def cost_model_for(problem, **kwargs) -> CostModel:
    """The right cost evaluator for ``problem``.

    Dense :class:`~repro.core.problem.DRPInstance` inputs get a
    :class:`CostModel`; sparse problems get a :class:`SparseCostModel`.
    ``tile`` is only meaningful for the sparse path and is dropped for
    dense models.
    """
    if isinstance(problem, DRPInstance):
        kwargs.pop("tile", None)
        return CostModel(problem, **kwargs)
    return SparseCostModel(problem, **kwargs)


def reference_total_cost(
    instance: DRPInstance,
    scheme: SchemeLike,
    update_fraction: float = 1.0,
) -> float:
    """Slow, loop-based implementation of Eq. 4 used as a test oracle.

    Mirrors the paper's formula site-by-site and object-by-object with no
    vectorisation or caching; intentionally naive.
    """
    mat = (
        scheme.matrix
        if isinstance(scheme, ReplicationScheme)
        else np.asarray(scheme, dtype=bool)
    )
    total = 0.0
    for k in range(instance.num_objects):
        size = float(instance.sizes[k])
        primary = int(instance.primaries[k])
        reps = [i for i in range(instance.num_sites) if mat[i, k]]
        total_writes = sum(
            float(instance.writes[x, k]) for x in range(instance.num_sites)
        )
        for i in range(instance.num_sites):
            if mat[i, k]:
                total += (
                    update_fraction
                    * total_writes
                    * size
                    * float(instance.cost[i, primary])
                )
            else:
                nearest = min(float(instance.cost[i, j]) for j in reps)
                total += float(instance.reads[i, k]) * size * nearest
                total += (
                    update_fraction
                    * float(instance.writes[i, k])
                    * size
                    * float(instance.cost[i, primary])
                )
    return total


__all__ = [
    "CostModel",
    "SparseCostModel",
    "cost_model_for",
    "reference_total_cost",
]
