"""The Simple Replication Algorithm (SRA) — Section 3 of the paper.

SRA is a greedy method.  Each site keeps a candidate list ``L_i`` of
objects it could still replicate; sites with a non-empty list form ``LS``.
In every step a site is picked from ``LS`` (round-robin in the paper; the
GRA seeding uses random order for diversity), the Eq. 5 benefit ``B_ik``
of every candidate is computed against the *current* nearest-replica table
``SN``, candidates that no longer fit or have non-positive benefit are
pruned, and the best positive-benefit object is replicated.  Replication
updates the global ``SN`` column so later benefit computations see the new
replica.

Deviation noted from the paper's pseudocode: step (7) as printed would
also select a zero-benefit object (``BMAX <= B`` with ``BMAX = 0``);
we require strictly positive benefit, which is what the prose specifies
("the benefit value is positive") and avoids wasting capacity on
do-nothing replicas.

The implementation is vectorised and keeps each site's candidate list
compact: a site's first visit costs ``O(N)`` numpy work, every later one
``O(|L_i|)`` plus ``O(M)`` for the ``SN`` update of a placement, within
the paper's ``O(M + N)`` per-iteration bound, for an overall
``O(M^2 N + M N^2)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.core.cost import CostModel, cost_model_for
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.holder import observers
from repro.utils.rng import SeedLike, as_generator

#: site-visit orders supported by :class:`SRA`
ORDER_ROUND_ROBIN = "round-robin"
ORDER_RANDOM = "random"


class SRA(ReplicationAlgorithm):
    """Greedy replica placement driven by the Eq. 5 benefit value.

    Parameters
    ----------
    site_order:
        ``"round-robin"`` (the paper's centralised algorithm) or
        ``"random"`` (used when seeding GRA populations, Section 4).
    rng:
        Random source; only consulted when ``site_order="random"``.
    update_fraction:
        Write-transfer scaling forwarded to the cost model (1.0 = paper).
    """

    name = "SRA"
    supports_sparse = True

    def __init__(
        self,
        site_order: str = ORDER_ROUND_ROBIN,
        rng: SeedLike = None,
        update_fraction: float = 1.0,
    ) -> None:
        if site_order not in (ORDER_ROUND_ROBIN, ORDER_RANDOM):
            raise ValidationError(
                f"site_order must be round-robin or random, got {site_order!r}"
            )
        self._site_order = site_order
        self._rng = as_generator(rng)
        self._update_fraction = update_fraction
        if site_order == ORDER_RANDOM:
            self.name = "SRA(random-order)"

    def make_cost_model(self, instance: DRPInstance) -> CostModel:
        return cost_model_for(
            instance, update_fraction=self._update_fraction
        )

    # ------------------------------------------------------------------ #
    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        tracer = observers().tracer
        with tracer.span(
            "sra.solve",
            sites=instance.num_sites,
            objects=instance.num_objects,
            order=self._site_order,
        ) as span:
            scheme, stats = self._solve_traced(instance, tracer)
            span.set(replicas_created=stats["replicas_created"])
        return scheme, stats

    def _solve_traced(
        self, instance, tracer
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        """One greedy scan for dense and sparse problems alike.

        A site's candidate list ``L_i`` is kept compact: on the site's
        first visit its candidates (every object it does not hold) are
        gathered once with their read counts, sizes and the constant
        Eq. 5 update term, and each later visit evaluates and compresses
        only the survivors, so it costs ``O(|L_i|)``.  Dense and sparse
        problems differ only in how that first row is fetched (a view of
        the dense count matrix, or the CSR row densified to the same
        integers), so a sparse problem yields the densified run's scheme
        bit for bit.  Peak extra memory is one ``(N, M)`` float64
        nearest-distance table plus the compact lists.
        """
        ledger = observers().ledger
        m = instance.num_sites
        cost = instance.cost
        sizes = instance.sizes
        reads = instance.reads
        writes = instance.writes
        primaries = instance.primaries
        if isinstance(instance, DRPInstance):
            read_row, write_row = reads.__getitem__, writes.__getitem__
            total_writes = writes.sum(axis=0)
        else:
            read_row, write_row = reads.row_dense, writes.row_dense
            total_writes = writes.column_sums()
        uf = self._update_fraction

        scheme = ReplicationScheme.primary_only(instance)
        remaining = scheme.remaining_capacity()

        # C^T as a copy: cost_t[j] is the column C(., j) laid out
        # contiguously, even for merely near-symmetric cost matrices.
        cost_t = np.ascontiguousarray(cost.T)
        # SN distances, object-major: nearest[k, i] = C(i, SN_ik).  With
        # only primaries placed, SN_ik == SP_k.
        nearest = cost_t[primaries]

        # Per-site compact candidate state (ids ascending, and a (3, L)
        # stack of read counts, sizes and update terms), built on the
        # site's first visit.  Objects already held (primaries) are not
        # candidates, so a site holding every primary has nothing to do.
        state: List[Optional[Tuple[np.ndarray, np.ndarray]]] = [None] * m
        held = np.bincount(primaries, minlength=m)
        active = [i for i in range(m) if held[i] < instance.num_objects]

        steps = 0
        visits = 0
        replicas_created = 0
        benefit_evaluations = 0
        cursor = 0

        while active:
            visits += 1
            if self._site_order == ORDER_RANDOM:
                pos = int(self._rng.integers(len(active)))
            else:
                pos = cursor % len(active)
            site = active[pos]

            if state[site] is None:
                objs = np.flatnonzero(primaries != site)
                other_writes = total_writes[objs] - write_row(site)[objs]
                update_cost = uf * other_writes * cost[site, primaries[objs]]
                # Stacking casts a sparse row's int64 counts to float64,
                # the cast an int64 x float64 product applies anyway, so
                # the benefits below are unchanged bit for bit.
                columns = np.vstack(
                    (read_row(site)[objs], sizes[objs], update_cost)
                )
            else:
                objs, columns = state[site]
            # Benefit of each candidate (Eq. 5, already divided by o_k).
            benefit = columns[0] * nearest[objs, site] - columns[2]
            benefit_evaluations += int(objs.size)

            # Candidates with non-positive benefit, or that no longer fit,
            # can never be replicated here any more: they are dropped.
            keep = (benefit > 0.0) & (columns[1] <= remaining[site] + 1e-9)
            viable = keep.nonzero()[0]

            if viable.size:
                steps += 1
                chosen = int(viable[benefit[viable].argmax()])
                best = int(objs[chosen])
                keep[chosen] = False
                scheme.add_replica(site, best)
                if tracer.enabled:
                    # Eq. 5 benefit of the placement actually taken.
                    tracer.event(
                        "sra.place",
                        site=site,
                        obj=best,
                        benefit=float(benefit[chosen]),
                        step=steps,
                    )
                if ledger.enabled:
                    ledger.record(
                        "add",
                        obj=best,
                        site=site,
                        algorithm="sra",
                        benefit=float(benefit[chosen]),
                        step=steps,
                    )
                replicas_created += 1
                remaining[site] -= sizes[best]
                # Update SN for the new replica's object at every site.
                np.minimum(nearest[best], cost_t[site], out=nearest[best])
                # Objects that no longer fit at this site die lazily on the
                # next visit; the capacity check above handles them.

            # ``keep`` now marks exactly the surviving candidates.
            if viable.size > 1:
                state[site] = (
                    objs.compress(keep), columns.compress(keep, axis=1)
                )
                if self._site_order == ORDER_ROUND_ROBIN:
                    cursor = (pos + 1) % len(active)
            else:
                active.pop(pos)
                # Round-robin continues from the same position (the next
                # site shifted into it).
                if self._site_order == ORDER_ROUND_ROBIN and active:
                    cursor = pos % len(active)

        stats: Dict[str, object] = {
            "site_visits": visits,
            "replication_steps": steps,
            "replicas_created": replicas_created,
            "site_order": self._site_order,
            "benefit_evaluations": benefit_evaluations,
        }
        return scheme, stats


__all__ = ["SRA", "ORDER_ROUND_ROBIN", "ORDER_RANDOM"]
