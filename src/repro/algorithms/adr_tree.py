"""Wolfson-style Adaptive Data Replication on tree networks.

Section 7 of the paper contrasts its GA approach with Wolfson, Jajodia &
Huang's ADR algorithm (*An Adaptive Data Replication Algorithm*, ACM
TODS 1997), which converges to the *optimal* single-object replication
scheme on tree networks but "the performance of the scheme for cases
other than the tree networks is not clear".  This module implements an
ADR-style algorithm so that comparison can actually be run.

ADR maintains, per object, a **connected subtree** of replicators and
adjusts its fringe once per epoch with three local tests (all counts are
aggregates of the requests flowing through each tree edge):

* **expansion** — a replicator ``i`` expands to a non-replicating
  neighbour ``j`` when the reads arriving from ``j``'s side exceed the
  writes originating everywhere else (those writes would have to be
  forwarded to the new replica);
* **contraction** — a fringe replicator ``i`` (a leaf of the replication
  subtree) drops its replica when the writes arriving from the subtree
  side exceed the reads ``i`` serves for its own side;
* **switch** — when the scheme is a singleton that would rather live at
  a neighbour (more total requests arrive from that side than from its
  own), it moves there.

Deviations from Wolfson et al., all forced by the DRP setting and
documented here: the primary copy never contracts or switches away (the
paper's primary-copy constraint); an expansion is skipped when the
target site lacks storage capacity (their model is capacity-free); and
every adjustment is applied only if it does not increase the DRP
objective ``D(X)``.  The last gate exists because the two cost models
disagree at the fringe: ADR's local tests assume each request pays each
tree edge it crosses exactly once, while the DRP model reads from the
*nearest* replica and broadcasts every update to *all* replicas — a
locally winning expansion can therefore raise ``D(X)``.  Starting from
the primary-only scheme, the gate makes the final cost monotonically
non-increasing, so ADR can never end up worse than no replication.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import TopologyError, ValidationError
from repro.network.topology import Topology


def _side_masks(topology: Topology) -> Dict[Tuple[int, int], np.ndarray]:
    """For every directed tree edge ``(i, j)``: the sites on ``j``'s side.

    ``mask[(i, j)][x]`` is True when removing edge ``i-j`` leaves ``x``
    in the component containing ``j``.
    """
    m = topology.num_sites
    masks: Dict[Tuple[int, int], np.ndarray] = {}
    for i in range(m):
        for j in topology.neighbors(i):
            mask = np.zeros(m, dtype=bool)
            stack = [j]
            mask[j] = True
            while stack:
                node = stack.pop()
                for nbr in topology.neighbors(node):
                    if nbr == i or mask[nbr]:
                        continue
                    mask[nbr] = True
                    stack.append(nbr)
            masks[(i, j)] = mask
    return masks


class ADRTree(ReplicationAlgorithm):
    """ADR-style replica placement for tree networks.

    Unlike the other algorithms this one needs the *physical* tree, not
    just the cost matrix: pass the :class:`~repro.network.Topology` the
    instance's cost matrix was derived from.

    Parameters
    ----------
    topology:
        A connected tree over the instance's sites.
    max_epochs:
        Upper bound on adjustment rounds; ADR converges on static
        patterns (Wolfson et al. prove geometric convergence), so this
        is a safety valve, not a tuning knob.
    """

    name = "ADR(tree)"

    def __init__(self, topology: Topology, max_epochs: int = 100) -> None:
        if max_epochs < 1:
            raise ValidationError(
                f"max_epochs must be >= 1, got {max_epochs}"
            )
        if not topology.is_connected():
            raise TopologyError("ADR requires a connected topology")
        if topology.num_links != topology.num_sites - 1:
            raise TopologyError(
                "ADR requires a tree: got "
                f"{topology.num_links} links over {topology.num_sites} sites"
            )
        self._topology = topology
        self._max_epochs = max_epochs
        self._masks = _side_masks(topology)

    # ------------------------------------------------------------------ #
    def _epoch_for_object(
        self,
        instance: DRPInstance,
        scheme: ReplicationScheme,
        obj: int,
        model: CostModel,
    ) -> bool:
        """One ADR adjustment round for ``obj``; True if anything changed."""
        reads = instance.reads[:, obj]
        writes = instance.writes[:, obj]
        primary = int(instance.primaries[obj])
        replicas: Set[int] = set(int(s) for s in scheme.replicators(obj))
        remaining = scheme.remaining_capacity()
        size = float(instance.sizes[obj])
        changed = False

        # --- switch test: singleton scheme at the primary ------------- #
        # (kept for completeness; with a pinned primary the scheme can
        # only *expand* toward demand, so the switch becomes an
        # expansion preference and needs no special casing)

        # --- expansion tests ------------------------------------------ #
        for site in sorted(replicas):
            for nbr in sorted(self._topology.neighbors(site)):
                if nbr in replicas:
                    continue
                side = self._masks[(site, nbr)]
                reads_from_side = float(reads[side].sum())
                writes_from_rest = float(writes[~side].sum())
                if reads_from_side > writes_from_rest:
                    if remaining[nbr] + 1e-9 < size:
                        continue  # capacity deviation: skip, do not fail
                    before = model.total_cost(scheme.matrix)
                    scheme.add_replica(nbr, obj)
                    if model.total_cost(scheme.matrix) > before + 1e-9:
                        # D(X) deviation: the edge-local win loses under
                        # read-nearest/write-broadcast accounting
                        scheme.drop_replica(nbr, obj)
                        continue
                    replicas.add(nbr)
                    remaining[nbr] -= size
                    changed = True

        # --- contraction tests ---------------------------------------- #
        for site in sorted(replicas):
            if site == primary or site not in replicas:
                continue
            in_scheme = [
                nbr for nbr in self._topology.neighbors(site)
                if nbr in replicas
            ]
            if len(in_scheme) != 1:
                continue  # only fringe leaves may contract
            anchor = in_scheme[0]
            scheme_side = self._masks[(site, anchor)]
            writes_from_scheme = float(writes[scheme_side].sum())
            reads_served = float(reads[~scheme_side].sum())
            if writes_from_scheme > reads_served:
                before = model.total_cost(scheme.matrix)
                scheme.drop_replica(site, obj)
                if model.total_cost(scheme.matrix) > before + 1e-9:
                    scheme.add_replica(site, obj)  # D(X) deviation: keep
                    continue
                replicas.discard(site)
                remaining[site] += size
                changed = True

        return changed

    # ------------------------------------------------------------------ #
    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        if instance.num_sites != self._topology.num_sites:
            raise ValidationError(
                f"topology has {self._topology.num_sites} sites but the "
                f"instance has {instance.num_sites}"
            )
        scheme = ReplicationScheme.primary_only(instance)
        epochs = 0
        for _ in range(self._max_epochs):
            epochs += 1
            changed = False
            for obj in range(instance.num_objects):
                if self._epoch_for_object(instance, scheme, obj, model):
                    changed = True
            if not changed:
                break
        return scheme, {
            "epochs": epochs,
            "converged": epochs < self._max_epochs,
        }


__all__ = ["ADRTree"]
