"""Exact DRP solver for tiny instances (branch-and-bound).

The DRP is NP-complete, so exact solutions are only tractable at toy
scale; this solver exists as a *quality oracle* for the test-suite and for
calibrating how close SRA/GRA get to optimal on small networks.  It is an
extension, not part of the paper.

Objects are independent in the objective — they couple only through the
per-site capacity constraint — so the search branches per object over all
replica sets containing the primary, ordered by unconstrained cost, with
two prunes:

* **bound**: partial cost + sum of unconstrained per-object minima of the
  remaining objects already exceeds the incumbent;
* **capacity**: a replica set that does not fit in the remaining
  capacities is skipped.
"""

from __future__ import annotations

from itertools import combinations
from typing import List, Optional, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.timers import Stopwatch

#: refuse instances whose exhaustive per-object enumeration would explode
MAX_SITES = 10
MAX_OBJECTS = 12


def _object_options(
    instance: DRPInstance, model: CostModel, obj: int
) -> List[Tuple[float, np.ndarray]]:
    """All replica sets for ``obj`` (primary included) with their costs.

    Returned sorted by cost ascending, as ``(cost, site_index_array)``.
    """
    m = instance.num_sites
    primary = int(instance.primaries[obj])
    others = [i for i in range(m) if i != primary]
    options: List[Tuple[float, np.ndarray]] = []
    column = np.zeros(m, dtype=bool)
    for extra_count in range(len(others) + 1):
        for extras in combinations(others, extra_count):
            column[:] = False
            column[primary] = True
            column[list(extras)] = True
            cost = model.object_cost(obj, column)
            options.append((cost, np.nonzero(column)[0].copy()))
    options.sort(key=lambda item: item[0])
    return options


class _Search:
    """Depth-first branch-and-bound over per-object replica sets."""

    def __init__(
        self,
        instance: DRPInstance,
        model: CostModel,
        options: List[List[Tuple[float, np.ndarray]]],
        order: List[int],
    ) -> None:
        self.instance = instance
        self.model = model
        self.options = options
        self.order = order
        # Optimistic completion bound: cheapest (unconstrained) cost of
        # every object from depth d onward.
        mins = [options[k][0][0] for k in order]
        self.suffix_min = np.concatenate(
            [np.cumsum(mins[::-1])[::-1], [0.0]]
        )
        self.best_cost = np.inf
        self.best_choice: Optional[List[int]] = None
        self.nodes = 0

    def run(self) -> None:
        remaining = self.instance.capacities.astype(float).copy()
        # Reserve primary storage up front; options include primaries, so
        # subtract them again per choice.  Simpler: charge full replica
        # sets against raw capacities.
        self._descend(0, 0.0, remaining, [])

    def _descend(
        self,
        depth: int,
        cost_so_far: float,
        remaining: np.ndarray,
        choice: List[int],
    ) -> None:
        if cost_so_far + self.suffix_min[depth] >= self.best_cost:
            return
        if depth == len(self.order):
            self.best_cost = cost_so_far
            self.best_choice = choice.copy()
            return
        obj = self.order[depth]
        size = float(self.instance.sizes[obj])
        for idx, (cost, sites) in enumerate(self.options[obj]):
            self.nodes += 1
            if cost_so_far + cost + self.suffix_min[depth + 1] >= self.best_cost:
                break  # options sorted by cost: nothing later can help
            if np.any(remaining[sites] < size - 1e-9):
                continue
            remaining[sites] -= size
            choice.append(idx)
            self._descend(depth + 1, cost_so_far + cost, remaining, choice)
            choice.pop()
            remaining[sites] += size


def solve_optimal(
    instance: DRPInstance,
    model: Optional[CostModel] = None,
    force: bool = False,
) -> AlgorithmResult:
    """Exact minimum-``D`` replication scheme by branch-and-bound.

    Refuses instances beyond ``MAX_SITES`` x ``MAX_OBJECTS`` unless
    ``force=True`` (enumeration is exponential in the number of sites).
    """
    if not force and (
        instance.num_sites > MAX_SITES or instance.num_objects > MAX_OBJECTS
    ):
        raise ValidationError(
            f"instance {instance.num_sites}x{instance.num_objects} too large "
            f"for exact search (max {MAX_SITES}x{MAX_OBJECTS}); pass "
            "force=True to override"
        )
    model = model or CostModel(instance)
    watch = Stopwatch()
    with watch:
        options = [
            _object_options(instance, model, k)
            for k in range(instance.num_objects)
        ]
        # Search large objects first: they constrain capacity the most, so
        # infeasible branches die early.
        order = sorted(
            range(instance.num_objects),
            key=lambda k: -float(instance.sizes[k]),
        )
        search = _Search(instance, model, options, order)
        search.run()
        assert search.best_choice is not None, "primary-only is always feasible"
        matrix = np.zeros(
            (instance.num_sites, instance.num_objects), dtype=bool
        )
        for depth, obj in enumerate(order):
            _, sites = options[obj][search.best_choice[depth]]
            matrix[sites, obj] = True
        scheme = ReplicationScheme.from_matrix(instance, matrix)
    return AlgorithmResult(
        scheme=scheme,
        total_cost=model.total_cost(scheme),
        d_prime=model.d_prime(),
        runtime_seconds=watch.elapsed,
        algorithm="Optimal(B&B)",
        stats={"nodes_explored": search.nodes},
    )


__all__ = ["solve_optimal", "MAX_SITES", "MAX_OBJECTS"]
