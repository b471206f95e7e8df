"""Replication benefit (Eq. 5) and deallocation estimate (Eq. 6).

Eq. 5 drives the greedy SRA: the *local* NTC saving per storage unit of
placing a replica of object ``k`` at site ``i``,

``B_ik = ( r_ik * o_k * C(i, SN_ik)  -  (sum_{x != i} w_xk) * o_k * C(i, SP_k) ) / o_k``

i.e. the read traffic the replica eliminates minus the update traffic it
attracts, normalised by object size.  (The published scan garbles the
bracketing; this form is the one consistent both with the verbal
description — "difference between the NTC occurred from the current read
requests ... and the NTC arising due to the updates to that replica" —
and with the local delta of Eq. 4.)

Eq. 6 drives AGRA's fast capacity repair: a cheap O(M) estimate of how
valuable a *currently held* replica is, combining global read/update
totals, capacity-weighted local reads, the site's proportional link
weights and the object's replica degree.  Replicas with the *lowest*
estimate are deallocated first.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError


def eq5_benefit(read_count, nearest_cost, other_writes, cost_to_primary,
                update_fraction: float = 1.0):
    """The Eq. 5 benefit ``B_ik`` (read gain minus attracted updates).

    Accepts scalars or aligned arrays; this is the single definition of
    the benefit arithmetic shared by :func:`replication_benefit`,
    :func:`benefit_matrix` and the distributed
    :class:`~repro.distributed.node.SiteNode`, keeping their values
    bit-identical by construction.
    """
    return (
        read_count * nearest_cost
        - update_fraction * other_writes * cost_to_primary
    )


def replication_benefit(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    site: int,
    obj: int,
    nearest: Optional[int] = None,
    update_fraction: float = 1.0,
) -> float:
    """Eq. 5 benefit ``B_ik`` of replicating ``obj`` at ``site``.

    ``nearest`` may pass a precomputed ``SN_ik`` (SRA maintains the table
    incrementally); otherwise it is derived from ``scheme``.  A positive
    value means the replica reduces the site's locally observed NTC.
    """
    if scheme.holds(site, obj):
        raise ValidationError(
            f"site {site} already holds object {obj}; benefit undefined"
        )
    if nearest is None:
        nearest = int(scheme.nearest_sites(obj)[site])
    other_writes = float(instance.writes[:, obj].sum()) - float(
        instance.writes[site, obj]
    )
    # The arithmetic lives in eq5_benefit, shared with benefit_matrix
    # and the distributed site nodes.
    return eq5_benefit(
        float(instance.reads[site, obj]),
        float(instance.cost[site, nearest]),
        other_writes,
        float(instance.cost[site, instance.primaries[obj]]),
        update_fraction,
    )


def benefit_matrix(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    update_fraction: float = 1.0,
) -> np.ndarray:
    """All ``B_ik`` values at once, shape ``(M, N)``; NaN where already held.

    Vectorised across sites per object; used by tests and by bulk greedy
    variants.
    """
    m, n = instance.num_sites, instance.num_objects
    out = np.full((m, n), np.nan)
    total_writes = instance.writes.sum(axis=0)
    for k in range(n):
        nearest = scheme.nearest_sites(k)
        values = eq5_benefit(
            instance.reads[:, k],
            instance.cost[np.arange(m), nearest],
            total_writes[k] - instance.writes[:, k],
            instance.cost[:, instance.primaries[k]],
            update_fraction,
        )
        held = scheme.matrix[:, k]
        out[:, k] = np.where(held, np.nan, values)
    return out


def deallocation_estimate(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    site: int,
    obj: int,
) -> float:
    """Eq. 6 estimate ``E_ik`` of the value of the replica of ``obj`` at ``site``.

    Higher is more valuable; AGRA's transcription repair drops the replica
    with the *lowest* estimate when a site is over capacity.  ``site`` must
    currently hold ``obj``.
    """
    if not scheme.holds(site, obj):
        raise ValidationError(
            f"site {site} does not hold object {obj}; estimate undefined"
        )
    total_reads = float(instance.reads[:, obj].sum())
    total_writes = float(instance.writes[:, obj].sum())
    local_reads = float(instance.reads[site, obj])
    local_writes = float(instance.writes[site, obj])
    numerator = (
        total_reads
        + local_writes
        - total_writes
        + local_reads
        * float(instance.capacities[site])
        / float(instance.sizes[obj])
    )
    # Proportional link weight: the site's summed shortest-path costs
    # relative to the network-wide per-site average.  Low values mean the
    # site is centrally placed and a good nearest-neighbour for others.
    site_weight = float(instance.cost[site].sum())
    mean_weight = float(instance.cost.sum()) / instance.num_sites
    if mean_weight == 0.0:
        proportional = 1.0  # degenerate single-site / zero-cost network
    else:
        proportional = site_weight / mean_weight
        if proportional == 0.0:
            # A zero-cost site is an infinitely good neighbour; make the
            # replica maximally valuable rather than dividing by zero.
            return np.inf if numerator > 0 else -np.inf if numerator < 0 else 0.0
    degree = scheme.replica_degree(obj)
    return numerator / (proportional * degree)


def deallocation_estimates_for_site(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    site: int,
    droppable_only: bool = True,
) -> np.ndarray:
    """Eq. 6 for every object held at ``site``; shape ``(N,)`` with NaN holes.

    With ``droppable_only`` (default) the primary copies hosted at ``site``
    are also NaN, since they can never be deallocated.  Vectorised across
    the held objects — AGRA's capacity repair calls this in a hot loop.
    """
    out = np.full(instance.num_objects, np.nan)
    held = scheme.objects_at(site)
    if droppable_only:
        held = held[instance.primaries[held] != site]
    if held.size == 0:
        return out
    reads_cols = instance.reads[:, held]
    writes_cols = instance.writes[:, held]
    total_reads = reads_cols.sum(axis=0)
    total_writes = writes_cols.sum(axis=0)
    local_reads = instance.reads[site, held]
    local_writes = instance.writes[site, held]
    numerator = (
        total_reads
        + local_writes
        - total_writes
        + local_reads * float(instance.capacities[site]) / instance.sizes[held]
    )
    mean_weight = float(instance.cost.sum()) / instance.num_sites
    if mean_weight == 0.0:
        proportional = 1.0
    else:
        proportional = float(instance.cost[site].sum()) / mean_weight
    degrees = scheme.matrix[:, held].sum(axis=0)
    if proportional == 0.0:
        with np.errstate(divide="ignore"):
            out[held] = np.where(
                numerator > 0, np.inf,
                np.where(numerator < 0, -np.inf, 0.0),
            )
        return out
    out[held] = numerator / (proportional * degrees)
    return out


__all__ = [
    "eq5_benefit",
    "replication_benefit",
    "benefit_matrix",
    "deallocation_estimate",
    "deallocation_estimates_for_site",
]
