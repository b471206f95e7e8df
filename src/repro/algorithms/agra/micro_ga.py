"""AGRA's per-object micro-GA (Section 5).

Each chromosome is a bit-string of length ``M``: bit ``i`` set means site
``i`` holds a replica of the one object under adaptation.  The micro-GA
optimises the *unconstrained* per-object NTC ``V_k`` (the storage
constraint is deliberately ignored — violations are repaired later during
transcription), with fitness ``f_A = (V_prime - V_k) / V_prime`` against
the primary-only placement.

Design choices from the paper, all implemented here: regular sampling
space (offspring plus untouched parents — not the enlarged ``mu+lambda``
pool of GRA), stochastic remainder selection, single-point crossover with
equal left/right probability, plain bit-flip mutation (primary bit
protected), elitism, negative-fitness chromosomes reset to primary-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.gra.operators import single_point_crossover
from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator


@dataclass
class MicroGAResult:
    """Ranked replica columns for one object, best first."""

    obj: int
    columns: List[np.ndarray]  # boolean (M,) columns, fitness-descending
    fitnesses: List[float]
    generations: int
    evaluations: int

    @property
    def best_column(self) -> np.ndarray:
        return self.columns[0]

    @property
    def best_fitness(self) -> float:
        return self.fitnesses[0]


def _primary_only_column(instance: DRPInstance, obj: int) -> np.ndarray:
    column = np.zeros(instance.num_sites, dtype=bool)
    column[int(instance.primaries[obj])] = True
    return column


def run_micro_ga(
    instance: DRPInstance,
    model: CostModel,
    obj: int,
    current_column: np.ndarray,
    seed_columns: Sequence[np.ndarray] = (),
    params: AGRAParams = PAPER_AGRA_PARAMS,
    rng: SeedLike = None,
) -> MicroGAResult:
    """Evolve replica placements for a single object.

    Parameters
    ----------
    obj:
        The object whose R/W pattern changed.
    current_column:
        The object's column in the network's current replication scheme;
        always copied into the initial population (the paper incorporates
        it into the highest-fitness GRA solution).
    seed_columns:
        Columns extracted from previous GRA solutions; fills the
        non-random half of the initial population (cycled if fewer than
        needed).

    Every column is priced through the model's memoised
    :meth:`~repro.core.cost.CostModel.object_cost_cached`; pass-through
    parents and elitist copies recur across generations, so most
    evaluations are cache hits.
    """
    gen = as_generator(rng)
    m = instance.num_sites
    primary = int(instance.primaries[obj])
    current_column = np.asarray(current_column, dtype=bool)
    if current_column.shape != (m,):
        raise ValidationError(
            f"current_column must have shape ({m},), got {current_column.shape}"
        )
    if not current_column[primary]:
        raise ValidationError(
            f"current_column must include the primary site {primary}"
        )

    v_prime = model.primary_only_object_cost(obj)
    evaluations = 0

    def fitness_of(column: np.ndarray) -> Tuple[float, np.ndarray]:
        """Fitness with the paper's negative reset to primary-only."""
        nonlocal evaluations
        evaluations += 1
        v = model.object_cost_cached(obj, column)
        if v_prime == 0.0:
            return 0.0, column
        f = (v_prime - v) / v_prime
        if f < 0.0:
            return 0.0, _primary_only_column(instance, obj)
        return f, column

    # ------------------------------------------------------------------ #
    # initial population: half random, half from previous GRA solutions,
    # current scheme always present.
    # ------------------------------------------------------------------ #
    pop_size = params.population_size
    num_random = int(round(params.random_init_fraction * pop_size))
    population: List[np.ndarray] = []
    for _ in range(num_random):
        column = gen.random(m) < 0.5
        column[primary] = True
        population.append(column)
    seeds = [np.asarray(c, dtype=bool).copy() for c in seed_columns]
    idx = 0
    while len(population) < pop_size:
        if seeds:
            column = seeds[idx % len(seeds)].copy()
            idx += 1
        else:
            column = gen.random(m) < 0.5
        column[primary] = True
        population.append(column)
    population[-1] = current_column.copy()

    fitness: List[float] = []
    for i, column in enumerate(population):
        f, population[i] = fitness_of(column)
        fitness.append(f)

    elite_f = max(fitness)
    elite = population[int(np.argmax(fitness))].copy()

    # ------------------------------------------------------------------ #
    # generations
    # ------------------------------------------------------------------ #
    for generation in range(params.generations):
        # Crossover: random pairing; untouched parents pass through
        # (regular sampling space).
        order = gen.permutation(pop_size)
        pool: List[np.ndarray] = []
        for pos in range(0, pop_size - 1, 2):
            a = population[int(order[pos])]
            b = population[int(order[pos + 1])]
            if gen.random() < params.crossover_rate:
                child_a, child_b = single_point_crossover(m, a, b, gen)
                child_a[primary] = True
                child_b[primary] = True
                pool.append(child_a)
                pool.append(child_b)
            else:
                pool.append(a.copy())
                pool.append(b.copy())
        if pop_size % 2 == 1:
            pool.append(population[int(order[-1])].copy())

        # Mutation: in-place bit flips on the pool, primary bit protected.
        if params.mutation_rate > 0.0:
            for column in pool:
                flips = gen.random(m) < params.mutation_rate
                flips[primary] = False
                column[flips] = ~column[flips]

        pool_fitness: List[float] = []
        for i, column in enumerate(pool):
            f, pool[i] = fitness_of(column)
            pool_fitness.append(f)

        chosen = stochastic_remainder_selection(
            np.asarray(pool_fitness), pop_size, gen
        )
        population = [pool[i].copy() for i in chosen]
        fitness = [pool_fitness[i] for i in chosen]

        best_idx = int(np.argmax(fitness))
        if fitness[best_idx] > elite_f:
            elite_f = fitness[best_idx]
            elite = population[best_idx].copy()
        if (generation + 1) % params.elite_interval == 0:
            worst = int(np.argmin(fitness))
            population[worst] = elite.copy()
            fitness[worst] = elite_f

    # Guarantee the elite is in the final ranking.
    if elite_f > max(fitness):
        worst = int(np.argmin(fitness))
        population[worst] = elite.copy()
        fitness[worst] = elite_f

    ranked = sorted(
        zip(fitness, population), key=lambda item: item[0], reverse=True
    )
    return MicroGAResult(
        obj=obj,
        columns=[column for _, column in ranked],
        fitnesses=[f for f, _ in ranked],
        generations=params.generations,
        evaluations=evaluations,
    )


__all__ = ["MicroGAResult", "run_micro_ga"]
