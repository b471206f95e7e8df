"""Chromosome and population containers with memoised evaluation.

Fitness follows Section 4: ``f = (D_prime - D) / D_prime`` against the
primary-only allocation.  Chromosomes whose fitness would be negative are
reset to the initial allocation (fitness 0), as the paper prescribes.

Evaluation is the GA's hot path; :class:`Population` deduplicates
identical chromosomes (elitist copies, un-crossed parents survive across
generations) through a bytes-keyed cache, then prices the remaining
placements in one batch through :meth:`CostModel.population_costs`,
which collapses the per-object columns that members share and reuses the
cost model's per-object column cache.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError


@dataclass
class Chromosome:
    """One candidate replication scheme inside a GA population."""

    matrix: np.ndarray  # boolean (M, N)
    cost: Optional[float] = None
    fitness: Optional[float] = None

    def copy(self) -> "Chromosome":
        return Chromosome(self.matrix.copy(), self.cost, self.fitness)

    def key(self) -> bytes:
        """Hashable identity of the placement (packed bits)."""
        return np.packbits(self.matrix).tobytes()


def primary_only_matrix(instance: DRPInstance) -> np.ndarray:
    """The initial allocation as a chromosome matrix."""
    matrix = np.zeros(
        (instance.num_sites, instance.num_objects), dtype=bool
    )
    matrix[instance.primaries, np.arange(instance.num_objects)] = True
    return matrix


class Population:
    """A list of chromosomes bound to one instance and cost model."""

    def __init__(
        self,
        instance: DRPInstance,
        model: CostModel,
        members: Optional[Sequence[Chromosome]] = None,
    ) -> None:
        self.instance = instance
        self.model = model
        self.members: List[Chromosome] = list(members or [])
        self._eval_cache: Dict[bytes, float] = {}
        self.evaluations = 0

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    # ------------------------------------------------------------------ #
    def evaluate(self, chromosome: Chromosome) -> Chromosome:
        """Fill in cost and fitness, applying the negative-fitness reset."""
        if chromosome.fitness is not None:
            return chromosome
        key = chromosome.key()
        cost = self._eval_cache.get(key)
        if cost is None:
            cost = self.model.total_cost(chromosome.matrix)
            self._eval_cache[key] = cost
            self.evaluations += 1
        # Paper: negative fitness resets to the initial allocation.
        self._finish(chromosome, cost)
        return chromosome

    def evaluate_all(self) -> None:
        """Evaluate every pending member, batched across the population.

        Batched evaluation collapses duplicate per-object columns across
        members (generations share most columns), then applies the same
        negative-fitness reset as :meth:`evaluate`.
        """
        pending = [m for m in self.members if m.fitness is None]
        if not pending:
            return
        # whole-matrix cache first (elitist copies, surviving parents),
        # then dedup the remaining fresh placements before batch pricing
        fresh: Dict[bytes, List[Chromosome]] = {}
        for member in pending:
            key = member.key()
            cost = self._eval_cache.get(key)
            if cost is None:
                fresh.setdefault(key, []).append(member)
            else:
                self._finish(member, cost)
        if fresh:
            groups = list(fresh.items())
            costs = self.model.population_costs(
                [members[0].matrix for _, members in groups]
            )
            self.evaluations += len(groups)
            for (key, members), cost in zip(groups, costs):
                self._eval_cache[key] = float(cost)
                for member in members:
                    self._finish(member, float(cost))

    def _finish(self, chromosome: Chromosome, cost: float) -> None:
        """Apply fitness (with the paper's negative reset) from a cost."""
        d_prime = self.model.d_prime()
        fitness = 0.0 if d_prime == 0.0 else (d_prime - cost) / d_prime
        if fitness < 0.0:
            chromosome.matrix = primary_only_matrix(self.instance)
            chromosome.cost = d_prime
            chromosome.fitness = 0.0
        else:
            chromosome.cost = cost
            chromosome.fitness = fitness

    def fitness_array(self) -> np.ndarray:
        self.evaluate_all()
        return np.asarray(
            [member.fitness for member in self.members], dtype=float
        )

    # ------------------------------------------------------------------ #
    def best(self) -> Chromosome:
        if not self.members:
            raise ValidationError("population is empty")
        self.evaluate_all()
        return max(self.members, key=lambda c: c.fitness)  # type: ignore[arg-type]

    def worst_index(self) -> int:
        if not self.members:
            raise ValidationError("population is empty")
        self.evaluate_all()
        fitness = self.fitness_array()
        return int(np.argmin(fitness))

    def best_scheme(self) -> ReplicationScheme:
        return ReplicationScheme.from_matrix(
            self.instance, self.best().matrix
        )

    def mean_fitness(self) -> float:
        return float(self.fitness_array().mean())

    def diversity(self) -> float:
        """Fraction of distinct placements in the population (0..1]."""
        if not self.members:
            return 0.0
        keys = {member.key() for member in self.members}
        return len(keys) / len(self.members)


__all__ = ["Chromosome", "Population", "primary_only_matrix"]
