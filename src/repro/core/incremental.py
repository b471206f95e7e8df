"""Incremental evaluation of the Eq. 4 cost under single-replica moves.

Every optimisation layer in this reproduction — SRA's greedy scan, the
GA population evaluators, local search, the adaptive loop — explores the
scheme space one replica flip at a time, yet historically priced each
flip with a full per-object recompute (an ``O(M * R_k)`` nearest-replica
min-reduction plus cache-key packing).  The change in Eq. 4 under one
flip only needs the flipped site's write terms and the read terms of the
sites whose nearest replica changed, which is ``O(M)`` once the
nearest-replica structure is maintained incrementally.

:class:`IncrementalCostEvaluator` wraps a :class:`~repro.core.cost.
CostModel` and a :class:`~repro.core.scheme.ReplicationScheme` and
maintains, per object:

* the current per-object cost term of Eq. 4;
* each site's nearest replicator id and distance **and** its
  second-nearest (the two-nearest invariant), so dropping a replica
  repairs the nearest table in ``O(M)`` without a full rescan — only
  rows that pointed at the dropped site fall back to their second
  choice, and only those rows rescan for a new runner-up;
* the object's write-sum (sum of replicator-to-primary costs).

Deltas are **exact**, not estimates: every value is computed with the
same arithmetic expressions (same operand order, same reductions) as
``CostModel._column_cost``, so evaluator costs are bit-identical to the
full recompute.  The property suite pins this equality against
:func:`~repro.core.cost.reference_total_cost`.

Consistency with the wrapped scheme is listener-based: the evaluator
subscribes to the scheme's change notifications, so *any* mutation —
through :meth:`IncrementalCostEvaluator.apply` or a direct
``scheme.add_replica`` — patches the evaluator state atomically with the
mutation.  Priced moves are version-stamped; applying a move priced
against a state that has since changed raises
:class:`~repro.errors.StaleEvaluatorError` instead of silently
mis-accounting.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.scheme import ReplicationScheme
from repro.errors import StaleEvaluatorError, ValidationError
from repro.utils.tracing import current_tracer

#: move kinds understood by :meth:`IncrementalCostEvaluator.apply`
ADD = "add"
DROP = "drop"

#: ``ndarray.sum()`` dispatches here after two wrapper frames; binding
#: the ufunc directly keeps the identical C reduction without them
_add_reduce = np.add.reduce


def eq5_benefit(read_count, nearest_cost, other_writes, cost_to_primary,
                update_fraction: float = 1.0):
    """The Eq. 5 benefit ``B_ik`` (read gain minus attracted updates).

    Accepts scalars or aligned arrays; this is the single definition of
    the benefit arithmetic shared by :mod:`repro.core.benefit`, the SRA
    scan and the distributed :class:`~repro.distributed.node.SiteNode`,
    keeping their values bit-identical by construction.
    """
    return (
        read_count * nearest_cost
        - update_fraction * other_writes * cost_to_primary
    )


@dataclass(frozen=True)
class Move:
    """One priced single-replica move, stamped with the evaluator state.

    ``delta`` is the exact change in total cost ``D`` the move would
    cause; ``version`` identifies the evaluator state the delta was
    priced against (:meth:`IncrementalCostEvaluator.apply` refuses moves
    whose version no longer matches).
    """

    kind: str
    site: int
    obj: int
    delta: float
    version: int


class _Undo:
    """Snapshot of one object's state rows, for :meth:`revert`."""

    __slots__ = ("kind", "site", "obj", "d1", "n1", "d2", "n2", "cost",
                 "version", "col_version")

    def __init__(self, kind, site, obj, d1, n1, d2, n2, cost, version,
                 col_version):
        self.kind = kind
        self.site = site
        self.obj = obj
        self.d1 = d1
        self.n1 = n1
        self.d2 = d2
        self.n2 = n2
        self.cost = cost
        self.version = version
        self.col_version = col_version


def _two_nearest(
    cost: np.ndarray, reps: np.ndarray, rows: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nearest and second-nearest replicator (id, distance) per site.

    Ties break toward the lowest replicator index (``reps`` is sorted and
    argmin returns the first occurrence), matching
    :meth:`ReplicationScheme.nearest_sites`.  With a single replicator
    the second slot is ``(-1, inf)``.
    """
    sub = cost[:, reps] if rows is None else cost[np.ix_(rows, reps)]
    m = sub.shape[0]
    idx = np.arange(m)
    first = np.argmin(sub, axis=1)
    d1 = sub[idx, first]
    n1 = reps[first]
    if reps.size == 1:
        d2 = np.full(m, np.inf)
        n2 = np.full(m, -1, dtype=np.int64)
    else:
        masked = sub.copy()
        masked[idx, first] = np.inf
        second = np.argmin(masked, axis=1)
        d2 = masked[idx, second]
        n2 = reps[second]
    return (
        np.ascontiguousarray(d1),
        np.ascontiguousarray(n1.astype(np.int64)),
        np.ascontiguousarray(d2),
        np.ascontiguousarray(n2.astype(np.int64)),
    )


class IncrementalCostEvaluator:
    """Exact O(M) pricing and maintenance of single-replica moves.

    Parameters
    ----------
    model:
        Cost model supplying the read/write weights (and, when set, the
        :class:`~repro.utils.metrics.MetricsRegistry` the evaluator's
        ``cost.delta_*`` counters and ``cost.delta`` timer flow into).
    scheme:
        The live scheme.  The evaluator attaches a change listener, so
        every mutation — its own :meth:`apply` or direct calls on the
        scheme — updates the cached state atomically.
    max_undo:
        Bounded depth of the :meth:`revert` history (older snapshots are
        discarded silently).
    """

    #: priced deltas between sampled ``cost.delta`` trace events
    _DELTA_SAMPLE = 1024

    def __init__(
        self,
        model: CostModel,
        scheme: ReplicationScheme,
        max_undo: int = 32,
    ) -> None:
        if scheme.instance is not model.instance and (
            scheme.instance != model.instance
        ):
            raise ValidationError(
                "scheme and cost model must share one instance"
            )
        self._model = model
        self._scheme = scheme
        self._instance = model.instance
        self._cost = self._instance.cost
        # Contiguous site-major rows: self._cost_T[site] is the distance
        # vector used by add pricing (elementwise only, so the layout
        # change cannot alter any reduction).
        self._cost_T = np.ascontiguousarray(self._cost.T)
        # Live view of the scheme's X matrix; mutated in place by the
        # scheme, so one lookup serves every delta.
        self._x = scheme.matrix
        self._bind_weights(model)
        m, n = self._instance.num_sites, self._instance.num_objects
        self._d1 = np.empty((n, m))
        self._d2 = np.empty((n, m))
        self._n1 = np.empty((n, m), dtype=np.int64)
        self._n2 = np.empty((n, m), dtype=np.int64)
        self._num_objects = n
        self._obj_cost: List[float] = [0.0] * n
        for k in range(n):
            self._rebuild_object(k)
        # Delta memo: a priced delta stays valid until its object's
        # column changes, so local search re-sampling the same (site,
        # obj) pays one dict probe instead of a re-price.  Hits return
        # the identical float computed earlier against the identical
        # column — bit-equal by construction.  Keys are flat ints
        # (site * N + obj): cheaper to hash than tuples on this path.
        self._primaries_list = [int(p) for p in self._instance.primaries]
        self._col_version: List[int] = [0] * n
        self._col_counter = 0
        self._memo_add: dict = {}
        self._memo_drop: dict = {}
        self._version = 0
        self._undo: Deque[_Undo] = deque(maxlen=max_undo)
        self._suppress = False
        self._priced = 0
        self._applied = 0
        self._reverted = 0
        scheme.attach_listener(self._on_scheme_change)

    def _bind_weights(self, model: CostModel) -> None:
        # Shared references, not copies: _column_cost must index these
        # exactly like CostModel._column_cost does (same views, same
        # strides) so the dot products take the same accumulation path
        # and results stay bit-identical to the full recompute.
        self._dense_weights = getattr(model, "has_dense_weights", True)
        if self._dense_weights:
            self._read_weight = model.read_weight
            self._write_weight = model.write_weight
            self._ctp_all = model.cost_to_primary
            self._total_w = model.total_write_weight
            self._write_totals = self._instance.writes.sum(axis=0)
            # Object-major contiguous rows for the boolean gathers below.
            # Gather outputs are freshly contiguous whatever the source
            # layout, so the dot/sum operands (and hence the bits) are
            # unchanged — only the gather itself gets cheaper.
            self._ww_T = np.ascontiguousarray(self._write_weight.T)
            self._ctp_T = np.ascontiguousarray(self._ctp_all.T)
        else:
            # Sparse-backed model: weights stay tiled inside the model
            # and are fetched per object through the column accessors
            # (tile columns keep the dense columns' stride class, and
            # gather outputs are freshly contiguous either way, so the
            # reductions below are bit-identical to the dense branch).
            self._read_weight = None
            self._write_weight = None
            self._ctp_all = None
            self._total_w = None
            self._ww_T = None
            self._ctp_T = None
            self._write_totals = self._instance.writes.column_sums()
        self._metrics = model.metrics

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def scheme(self) -> ReplicationScheme:
        return self._scheme

    @property
    def model(self) -> CostModel:
        return self._model

    @property
    def version(self) -> int:
        """Monotonic state stamp; bumps per mutation, restored by revert."""
        return self._version

    def total_cost(self) -> float:
        """Current ``D(X)``; summed in the same order as the full path."""
        return float(sum(self._obj_cost))

    def object_cost(self, obj: int) -> float:
        """Current Eq. 4 term of one object."""
        return self._obj_cost[obj]

    def nearest_distance(self, site: int, obj: int) -> float:
        """Maintained ``C(site, SN_site,obj)`` (0 for replicators)."""
        return float(self._d1[obj, site])

    def nearest_distances(self, obj: int) -> np.ndarray:
        """Per-site nearest-replica distances of one object (copy)."""
        return self._d1[obj].copy()

    # ------------------------------------------------------------------ #
    # state construction / repair
    # ------------------------------------------------------------------ #
    def _rebuild_object(self, obj: int) -> None:
        reps = self._scheme.replicators(obj)
        d1, n1, d2, n2 = _two_nearest(self._cost, reps)
        self._d1[obj] = d1
        self._n1[obj] = n1
        self._d2[obj] = d2
        self._n2[obj] = n2
        self._obj_cost[obj] = self._column_cost(
            obj, self._x[:, obj], self._d1[obj]
        )

    def _column_cost(
        self, obj: int, mask: np.ndarray, d1: np.ndarray
    ) -> float:
        """Eq. 4 term from a nearest-distance row.

        Mirrors ``CostModel._column_cost`` expression by expression —
        same operand views, same strides, same reduction order — so the
        result is bit-identical to the full recompute whenever ``d1``
        equals the nearest-replica distances.
        """
        # read_term copies the weight column contiguous before the dot,
        # matching CostModel._column_cost: vector layout steers BLAS
        # onto a different accumulation path, and this is the one term
        # where that matters.
        if self._dense_weights:
            read_term = float(
                np.ascontiguousarray(self._read_weight[:, obj]) @ d1
            )
            to_primary = self._ctp_T[obj]
            write_col = self._ww_T[obj]
            total_w = self._total_w[obj]
        else:
            model = self._model
            read_term = float(
                np.ascontiguousarray(model.read_weight_col(obj)) @ d1
            )
            to_primary = model.cost_to_primary_col(obj)
            write_col = model.write_weight_col(obj)
            total_w = model.total_write_weight_of(obj)
        nonrep = ~mask
        nonrep_writes = float(
            write_col[nonrep] @ to_primary[nonrep]
        )
        rep_writes = float(
            _add_reduce(to_primary[mask]) * total_w
        )
        return read_term + nonrep_writes + rep_writes

    # ------------------------------------------------------------------ #
    # pricing
    # ------------------------------------------------------------------ #
    def delta_add(self, site: int, obj: int) -> float:
        """Exact change in ``D`` from adding a replica of ``obj`` at ``site``."""
        if self._x[site, obj]:
            raise ValueError(f"site {site} already holds object {obj}")
        version = self._col_version[obj]
        key = site * self._num_objects + obj
        hit = self._memo_add.get(key)
        self._priced += 1
        if self._priced % self._DELTA_SAMPLE == 1:
            self._trace_priced()
        if hit is not None and hit[0] == version:
            return hit[1]
        metrics = self._metrics
        if metrics is not None:
            with metrics.timer("cost.delta"):
                delta = self._delta_add(site, obj)
            metrics.increment("cost.delta_add")
        else:
            delta = self._delta_add(site, obj)
        self._memo_add[key] = (version, delta)
        return delta

    def _delta_add(self, site: int, obj: int) -> float:
        d1_new = np.minimum(self._d1[obj], self._cost_T[site])
        mask = self._x[:, obj].copy()
        mask[site] = True
        after = self._column_cost(obj, mask, d1_new)
        return after - self._obj_cost[obj]

    def delta_drop(self, site: int, obj: int) -> float:
        """Exact change in ``D`` from dropping the replica of ``obj`` at ``site``."""
        if not self._x[site, obj]:
            raise ValueError(f"site {site} does not hold object {obj}")
        if self._primaries_list[obj] == site:
            raise ValueError(f"cannot drop primary copy of object {obj}")
        version = self._col_version[obj]
        key = site * self._num_objects + obj
        hit = self._memo_drop.get(key)
        self._priced += 1
        if self._priced % self._DELTA_SAMPLE == 1:
            self._trace_priced()
        if hit is not None and hit[0] == version:
            return hit[1]
        metrics = self._metrics
        if metrics is not None:
            with metrics.timer("cost.delta"):
                delta = self._delta_drop(site, obj)
            metrics.increment("cost.delta_drop")
        else:
            delta = self._delta_drop(site, obj)
        self._memo_drop[key] = (version, delta)
        return delta

    def _delta_drop(self, site: int, obj: int) -> float:
        affected = self._n1[obj] == site
        d1_new = np.where(affected, self._d2[obj], self._d1[obj])
        mask = self._x[:, obj].copy()
        mask[site] = False
        after = self._column_cost(obj, mask, d1_new)
        return after - self._obj_cost[obj]

    def move_add(self, site: int, obj: int) -> Move:
        """Price an add and stamp it for :meth:`apply`."""
        return Move(ADD, site, obj, self.delta_add(site, obj),
                    self._version)

    def move_drop(self, site: int, obj: int) -> Move:
        """Price a drop and stamp it for :meth:`apply`."""
        return Move(DROP, site, obj, self.delta_drop(site, obj),
                    self._version)

    def benefits(self, site: int, objs: np.ndarray) -> np.ndarray:
        """Eq. 5 benefit of replicating each of ``objs`` at ``site``.

        Uses the maintained nearest-distance table; the arithmetic is
        :func:`eq5_benefit`, shared with :mod:`repro.core.benefit`.
        """
        inst = self._instance
        if self._dense_weights:
            reads_row = inst.reads[site, objs]
            writes_row = inst.writes[site, objs]
        else:
            # Integer gathers from densified rows — exact, so the
            # benefit arithmetic below is unchanged bit for bit.
            reads_row = inst.reads.row_dense(site)[objs]
            writes_row = inst.writes.row_dense(site)[objs]
        other_writes = self._write_totals[objs] - writes_row
        return eq5_benefit(
            reads_row,
            self._d1[objs, site],
            other_writes,
            inst.cost[site, inst.primaries[objs]],
            self._model.update_fraction,
        )

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def apply(self, move: Move) -> float:
        """Realise a priced move on the scheme (and, via the listener,
        on the evaluator state).  Returns the move's delta.

        Raises :class:`~repro.errors.StaleEvaluatorError` when the scheme
        mutated since the move was priced.
        """
        if move.version != self._version:
            raise StaleEvaluatorError(move.version, self._version)
        if move.kind == ADD:
            self._scheme.add_replica(move.site, move.obj)
        elif move.kind == DROP:
            self._scheme.drop_replica(move.site, move.obj)
        else:
            raise ValidationError(f"unknown move kind {move.kind!r}")
        return move.delta

    def apply_add(self, site: int, obj: int) -> None:
        """Add a replica through the evaluator (no staleness window)."""
        self._scheme.add_replica(site, obj)

    def apply_drop(self, site: int, obj: int) -> None:
        """Drop a replica through the evaluator (no staleness window)."""
        self._scheme.drop_replica(site, obj)

    def revert(self) -> None:
        """Undo the most recent mutation (evaluator- or scheme-driven).

        Restores the scheme, the cached state *and* the version stamp, so
        moves priced before the reverted mutation become valid again.
        """
        if not self._undo:
            raise ValidationError("nothing to revert")
        record = self._undo.pop()
        self._suppress = True
        try:
            if record.kind == ADD:
                self._scheme.drop_replica(record.site, record.obj)
            else:
                self._scheme.add_replica(record.site, record.obj)
        finally:
            self._suppress = False
        obj = record.obj
        self._d1[obj] = record.d1
        self._n1[obj] = record.n1
        self._d2[obj] = record.d2
        self._n2[obj] = record.n2
        self._obj_cost[obj] = record.cost
        self._version = record.version
        # The column is back to its pre-mutation content, so deltas
        # memoised against it become valid again.
        self._col_version[obj] = record.col_version
        self._reverted += 1
        if self._metrics is not None:
            self._metrics.increment("cost.delta_revert")

    def detach(self) -> None:
        """Stop tracking the scheme (listener removed; state frozen)."""
        self._scheme.detach_listener(self._on_scheme_change)

    # ------------------------------------------------------------------ #
    # listener (single update path for apply() and direct mutations)
    # ------------------------------------------------------------------ #
    def _on_scheme_change(self, kind: str, site: int, obj: int) -> None:
        if self._suppress:
            return
        self._undo.append(
            _Undo(
                kind, site, obj,
                self._d1[obj].copy(), self._n1[obj].copy(),
                self._d2[obj].copy(), self._n2[obj].copy(),
                self._obj_cost[obj], self._version,
                self._col_version[obj],
            )
        )
        # Fresh column version: memoised deltas of this object no longer
        # match.  The counter is never reused, so entries priced against
        # any since-abandoned column can never resurface.
        self._col_counter += 1
        self._col_version[obj] = self._col_counter
        if kind == ADD:
            self._state_add(site, obj)
        else:
            self._state_drop(site, obj)
        self._obj_cost[obj] = self._column_cost(
            obj, self._x[:, obj], self._d1[obj]
        )
        self._version += 1
        self._applied += 1
        if self._metrics is not None:
            self._metrics.increment("cost.delta_apply")

    def _state_add(self, site: int, obj: int) -> None:
        c = self._cost_T[site]
        d1, d2 = self._d1[obj], self._d2[obj]
        n1, n2 = self._n1[obj], self._n2[obj]
        closer = c < d1
        d2[closer] = d1[closer]
        n2[closer] = n1[closer]
        d1[closer] = c[closer]
        n1[closer] = site
        second = ~closer & (c < d2)
        d2[second] = c[second]
        n2[second] = site

    def _state_drop(self, site: int, obj: int) -> None:
        n1, n2 = self._n1[obj], self._n2[obj]
        affected = np.nonzero((n1 == site) | (n2 == site))[0]
        if affected.size == 0:
            return
        reps = self._scheme.replicators(obj)  # post-drop
        d1, r1, d2, r2 = _two_nearest(self._cost, reps, rows=affected)
        self._d1[obj][affected] = d1
        self._n1[obj][affected] = r1
        self._d2[obj][affected] = d2
        self._n2[obj][affected] = r2

    def _trace_priced(self) -> None:
        tracer = current_tracer()
        if tracer.enabled:
            # Sampled: one event per _DELTA_SAMPLE priced deltas keeps
            # `repro trace` able to compare full-kernel vs incremental
            # evaluation volumes without flooding the ring buffer.
            tracer.event(
                "cost.delta",
                priced=self._priced,
                applied=self._applied,
                reverted=self._reverted,
            )

    # ------------------------------------------------------------------ #
    # epoch rebinding and self-checks
    # ------------------------------------------------------------------ #
    def rebind_model(self, model: CostModel) -> None:
        """Adopt a model with new read/write patterns, keeping the
        nearest-replica state.

        The adaptive loop drifts patterns per epoch while the network (cost
        matrix, sizes, primaries) stays fixed; the nearest tables depend
        only on the latter, so only the weights and per-object cost terms
        need recomputing — O(M*N) instead of a full O(M*N*R) rebuild.
        """
        inst = model.instance
        if (
            inst.num_sites != self._instance.num_sites
            or inst.num_objects != self._instance.num_objects
        ):
            raise StaleEvaluatorError(
                message=(
                    f"rebind_model got a problem of shape "
                    f"({inst.num_sites} sites, {inst.num_objects} "
                    f"objects) but the evaluator state was built for "
                    f"({self._instance.num_sites}, "
                    f"{self._instance.num_objects}); build a fresh "
                    f"evaluator and re-price the move"
                )
            )
        if (
            not np.array_equal(inst.cost, self._instance.cost)
            or not np.array_equal(inst.sizes, self._instance.sizes)
            or not np.array_equal(inst.primaries, self._instance.primaries)
        ):
            raise ValidationError(
                "rebind_model requires the same network, sizes and "
                "primaries; only read/write patterns may differ"
            )
        self._model = model
        self._instance = inst
        self._cost = inst.cost
        self._bind_weights(model)
        matrix = self._scheme.matrix
        for k in range(inst.num_objects):
            self._obj_cost[k] = self._column_cost(
                k, matrix[:, k], self._d1[k]
            )
        self._undo.clear()
        # Deltas were priced under the old weights.
        self._memo_add.clear()
        self._memo_drop.clear()
        self._version += 1

    def consistency_check(self) -> None:
        """Assert the cached state matches a from-scratch rebuild (tests)."""
        matrix = self._scheme.matrix
        for k in range(self._instance.num_objects):
            reps = self._scheme.replicators(k)
            d1, _, d2, _ = _two_nearest(self._cost, reps)
            if not np.array_equal(d1, self._d1[k]):
                raise AssertionError(f"object {k}: stale nearest distances")
            if not np.array_equal(d2, self._d2[k]):
                raise AssertionError(f"object {k}: stale second distances")
            expected = self._column_cost(k, matrix[:, k], self._d1[k])
            if expected != self._obj_cost[k]:
                raise AssertionError(f"object {k}: stale cost term")


# --------------------------------------------------------------------- #
# one-shot deltas (no evaluator state): the thin adapters CostModel's
# add_delta/drop_delta collapse onto
# --------------------------------------------------------------------- #
def single_add_delta(
    model: CostModel, scheme: ReplicationScheme, site: int, obj: int
) -> float:
    """Exact add delta computed from scratch in one O(M*R) pass.

    Same arithmetic as :meth:`IncrementalCostEvaluator.delta_add`, so the
    value is bit-identical whether priced here or through a live
    evaluator.
    """
    reps = scheme.replicators(obj)
    cost = model.instance.cost
    d1 = cost[:, reps].min(axis=1)
    mask = scheme.matrix[:, obj].copy()
    before = _adapter_cost(model, obj, mask, d1)
    c = np.ascontiguousarray(cost[:, site])
    mask[site] = True
    after = _adapter_cost(model, obj, mask, np.minimum(d1, c))
    return after - before


def single_drop_delta(
    model: CostModel, scheme: ReplicationScheme, site: int, obj: int
) -> float:
    """Exact drop delta computed from scratch in one O(M*R) pass."""
    reps = scheme.replicators(obj)
    cost = model.instance.cost
    d1 = cost[:, reps].min(axis=1)
    mask = scheme.matrix[:, obj].copy()
    before = _adapter_cost(model, obj, mask, d1)
    mask[site] = False
    remaining = reps[reps != site]
    after = _adapter_cost(
        model, obj, mask, cost[:, remaining].min(axis=1)
    )
    return after - before


def _adapter_cost(
    model: CostModel, obj: int, mask: np.ndarray, d1: np.ndarray
) -> float:
    """``CostModel._column_cost`` with the nearest distances precomputed.

    Goes through the per-object column accessors, so it prices dense
    and sparse-backed (tiled) models alike: for dense models the
    accessors return the very same column views the original expression
    indexed, and tile columns share their stride class, so the value is
    bit-identical either way.
    """
    read_term = float(model.read_weight_col(obj) @ d1)
    to_primary = model.cost_to_primary_col(obj)
    nonrep = ~mask
    nonrep_writes = float(
        model.write_weight_col(obj)[nonrep] @ to_primary[nonrep]
    )
    rep_writes = float(
        to_primary[mask].sum() * model.total_write_weight_of(obj)
    )
    return read_term + nonrep_writes + rep_writes


__all__ = [
    "ADD",
    "DROP",
    "Move",
    "IncrementalCostEvaluator",
    "eq5_benefit",
    "single_add_delta",
    "single_drop_delta",
]
