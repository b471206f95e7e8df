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

The implementation is vectorised: a site visit costs ``O(N)`` numpy work,
matching the paper's ``O(M + N)`` per-iteration bound up to constant
factors, for an overall ``O(M^2 N + M N^2)``.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.core.cost import CostModel, cost_model_for
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.ledger import current_ledger
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tracing import current_tracer

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
        tracer = current_tracer()
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

        The only difference between the two is how a site's read/write
        row is fetched: a view of the dense count matrix, or the CSR row
        densified to the same integers.  The benefit arithmetic below is
        therefore identical, and a sparse problem yields the densified
        run's scheme bit for bit.  Peak extra memory is one ``(M, N)``
        float64 nearest-distance table plus two boolean matrices.
        """
        ledger = current_ledger()
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

        # SN distances: with only primaries placed, SN[:, k] == SP_k.
        # Advanced indexing yields a fresh array, updated in place per
        # placement (the scan only ever consumes the distances).
        nearest_cost = cost[:, primaries]

        # Candidate matrix: L_i as rows.  Objects already held (primaries)
        # are not candidates.
        candidates = ~scheme.matrix.copy()
        active = [i for i in range(m) if candidates[i].any()]

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

            cand = candidates[site]
            objs = np.nonzero(cand)[0]
            # Benefit of each candidate (Eq. 5, already divided by o_k).
            read_gain = read_row(site)[objs] * nearest_cost[site, objs]
            other_writes = total_writes[objs] - write_row(site)[objs]
            update_cost = uf * other_writes * cost[site, primaries[objs]]
            benefit = read_gain - update_cost
            benefit_evaluations += int(objs.size)

            fits = sizes[objs] <= remaining[site] + 1e-9
            viable = (benefit > 0.0) & fits

            # Prune candidates that can never be replicated here any more.
            dead = objs[(benefit <= 0.0) | ~fits]
            candidates[site, dead] = False

            if viable.any():
                steps += 1
                viable_objs = objs[viable]
                best = int(viable_objs[np.argmax(benefit[viable])])
                scheme.add_replica(site, best)
                if tracer.enabled:
                    # Eq. 5 benefit of the placement actually taken.
                    tracer.event(
                        "sra.place",
                        site=site,
                        obj=best,
                        benefit=float(benefit[viable].max()),
                        step=steps,
                    )
                if ledger.enabled:
                    ledger.record(
                        "add",
                        obj=best,
                        site=site,
                        algorithm="sra",
                        benefit=float(benefit[viable].max()),
                        step=steps,
                    )
                replicas_created += 1
                remaining[site] -= sizes[best]
                candidates[site, best] = False
                # Update SN for the new replica's object at every site.
                closer = cost[:, site] < nearest_cost[:, best]
                nearest_cost[closer, best] = cost[closer, site]
                # Objects that no longer fit at this site die lazily on the
                # next visit; the capacity check above handles them.

            if not candidates[site].any():
                active.pop(pos)
                # Round-robin continues from the same position (the next
                # site shifted into it).
                if self._site_order == ORDER_ROUND_ROBIN and active:
                    cursor = pos % len(active)
            elif self._site_order == ORDER_ROUND_ROBIN:
                cursor = (pos + 1) % len(active)

        stats: Dict[str, object] = {
            "site_visits": visits,
            "replication_steps": steps,
            "replicas_created": replicas_created,
            "site_order": self._site_order,
            "benefit_evaluations": benefit_evaluations,
        }
        return scheme, stats


__all__ = ["SRA", "ORDER_ROUND_ROBIN", "ORDER_RANDOM"]
