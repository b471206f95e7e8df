"""Incremental evaluation of the Eq. 4 cost under single-replica moves.

Local search and the adaptive loop explore the scheme space one replica
flip at a time.  A full per-object recompute prices each flip with an
``O(M * R_k)`` nearest-replica min-reduction; the change in Eq. 4 under
one flip only needs the flipped site's write terms and the read terms of
the sites whose nearest replica changed, which is ``O(M)`` once the
nearest-replica structure is maintained incrementally.

:class:`IncrementalCostEvaluator` wraps a :class:`~repro.core.cost.
CostModel` and a :class:`~repro.core.scheme.ReplicationScheme` and
maintains, per object:

* the current per-object cost term of Eq. 4;
* each site's nearest replicator id and distance **and** its
  second-nearest (the two-nearest invariant), so dropping a replica
  repairs the nearest table in ``O(M)`` without a full rescan — only
  rows that pointed at the dropped site fall back to their second
  choice, and only those rows rescan for a new runner-up.

Deltas are **exact**, not estimates: the evaluator prices every column
through the model's one Eq. 4 kernel, :meth:`~repro.core.cost.CostModel.
column_cost`, handing it the maintained nearest distances instead of a
fresh min-reduction.  Evaluator costs are therefore bit-identical to the
full recompute and to the one-shot ``CostModel.add_delta``/``drop_delta``;
the property suite pins this against
:func:`~repro.core.cost.reference_total_cost`.

The API is what the callers use: :meth:`~IncrementalCostEvaluator.
delta_add`/:meth:`~IncrementalCostEvaluator.delta_drop` price a flip,
:meth:`~IncrementalCostEvaluator.apply_add`/:meth:`~IncrementalCostEvaluator.
apply_drop` realise one, :meth:`~IncrementalCostEvaluator.revert` undoes
the latest mutation and :meth:`~IncrementalCostEvaluator.rebind_model`
adopts an epoch's drifted read/write patterns.  Consistency with the
wrapped scheme is listener-based: the evaluator subscribes to the
scheme's change notifications, so *any* mutation — through the evaluator
or a direct ``scheme.add_replica`` — patches the evaluator state
atomically with the mutation.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Optional, Tuple

import numpy as np

from repro.core.cost import CostModel
from repro.core.scheme import ReplicationScheme
from repro.errors import StaleEvaluatorError, ValidationError
from repro.obs.holder import observers

#: scheme change kinds (listener notifications and undo records)
ADD = "add"
DROP = "drop"


class _Undo:
    """Snapshot of one object's state rows, for :meth:`revert`."""

    __slots__ = ("kind", "site", "obj", "d1", "n1", "d2", "n2", "cost",
                 "col_version")

    def __init__(self, kind, site, obj, d1, n1, d2, n2, cost, col_version):
        self.kind = kind
        self.site = site
        self.obj = obj
        self.d1 = d1
        self.n1 = n1
        self.d2 = d2
        self.n2 = n2
        self.cost = cost
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
        every mutation — :meth:`apply_add`/:meth:`apply_drop` or direct
        calls on the scheme — updates the cached state atomically.
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
        self._metrics = model.metrics
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
        self._undo: Deque[_Undo] = deque(maxlen=max_undo)
        self._suppress = False
        self._priced = 0
        self._applied = 0
        self._reverted = 0
        scheme.attach_listener(self._on_scheme_change)

    # ------------------------------------------------------------------ #
    # accessors
    # ------------------------------------------------------------------ #
    @property
    def scheme(self) -> ReplicationScheme:
        return self._scheme

    @property
    def model(self) -> CostModel:
        return self._model

    def total_cost(self) -> float:
        """Current ``D(X)``; summed in the same order as the full path."""
        return float(sum(self._obj_cost))

    def object_cost(self, obj: int) -> float:
        """Current Eq. 4 term of one object."""
        return self._obj_cost[obj]

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
        self._obj_cost[obj] = self._column_cost(obj)

    def _column_cost(self, obj: int) -> float:
        """Eq. 4 term of ``obj``'s current column from the maintained
        nearest distances (bit-identical to the full recompute)."""
        return self._model.column_cost(obj, self._x[:, obj], self._d1[obj])

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
        after = self._model.column_cost(obj, mask, d1_new)
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
        after = self._model.column_cost(obj, mask, d1_new)
        return after - self._obj_cost[obj]

    # ------------------------------------------------------------------ #
    # mutation
    # ------------------------------------------------------------------ #
    def apply_add(self, site: int, obj: int) -> None:
        """Add a replica (the listener patches the evaluator state)."""
        self._scheme.add_replica(site, obj)

    def apply_drop(self, site: int, obj: int) -> None:
        """Drop a replica (the listener patches the evaluator state)."""
        self._scheme.drop_replica(site, obj)

    def revert(self) -> None:
        """Undo the most recent mutation (evaluator- or scheme-driven).

        Restores the scheme and the cached state bitwise, so deltas
        priced before the reverted mutation are served from the memo
        again.
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
    # listener (single update path for every mutation)
    # ------------------------------------------------------------------ #
    def _on_scheme_change(self, kind: str, site: int, obj: int) -> None:
        if self._suppress:
            return
        self._undo.append(
            _Undo(
                kind, site, obj,
                self._d1[obj].copy(), self._n1[obj].copy(),
                self._d2[obj].copy(), self._n2[obj].copy(),
                self._obj_cost[obj], self._col_version[obj],
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
        self._obj_cost[obj] = self._column_cost(obj)
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
        tracer = observers().tracer
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
                f"rebind_model got a problem of shape "
                f"({inst.num_sites} sites, {inst.num_objects} objects) "
                f"but the evaluator state was built for "
                f"({self._instance.num_sites}, "
                f"{self._instance.num_objects}); build a fresh evaluator"
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
        self._metrics = model.metrics
        for k in range(inst.num_objects):
            self._obj_cost[k] = self._column_cost(k)
        self._undo.clear()
        # Deltas were priced under the old weights.
        self._memo_add.clear()
        self._memo_drop.clear()

    def consistency_check(self) -> None:
        """Assert the cached state matches a from-scratch rebuild (tests)."""
        for k in range(self._instance.num_objects):
            reps = self._scheme.replicators(k)
            d1, _, d2, _ = _two_nearest(self._cost, reps)
            if not np.array_equal(d1, self._d1[k]):
                raise AssertionError(f"object {k}: stale nearest distances")
            if not np.array_equal(d2, self._d2[k]):
                raise AssertionError(f"object {k}: stale second distances")
            if self._column_cost(k) != self._obj_cost[k]:
                raise AssertionError(f"object {k}: stale cost term")


__all__ = [
    "ADD",
    "DROP",
    "IncrementalCostEvaluator",
]
