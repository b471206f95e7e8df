"""The GRA engine (Section 4).

The evolutionary loop per generation:

1. **crossover subpopulation** — parents are paired at random; each pair
   undergoes two-point crossover with probability ``mu_c`` (copied
   through otherwise);
2. **mutation subpopulation** — every parent is copied and bit-flip
   mutated with rate ``mu_m``;
3. **selection** — under the paper's ``(mu + lambda)`` strategy all three
   subpopulations (``3 * N_p`` chromosomes in the worst case) compete for
   the ``N_p`` slots of the next generation via stochastic-remainder
   proportionate selection;
4. **elitism** — the best chromosome found so far replaces the current
   worst once every ``elite_interval`` generations (paper: 5), which
   preserves progress without causing premature convergence.

The initial population comes from ``N_p`` randomised-order SRA runs, half
of them perturbed in a quarter of their bits (validity preserved), per
Section 4's "Generation of the initial Population".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.algorithms.gra.encoding import (
    perturb_chromosome,
    random_valid_chromosome,
)
from repro.algorithms.gra.operators import mutate, two_point_crossover
from repro.algorithms.gra.params import GAParams, PAPER_PARAMS
from repro.algorithms.gra.population import Chromosome, Population
from repro.algorithms.gra.selection import stochastic_remainder_selection
from repro.algorithms.sra import ORDER_RANDOM, SRA
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.utils.profiler import current_profiler
from repro.utils.rng import SeedLike, as_generator
from repro.utils.tracing import current_tracer


class GRAStats(dict):
    """GRA run diagnostics with a single source of convergence truth.

    The per-generation convergence data lives once, under
    ``convergence_records`` (one dict per generation: ``generation``,
    ``best_fitness``, ``mean_fitness``); :meth:`history` projects any
    record field into the flat list the analysis helpers consume.
    """

    def history(self, field: str) -> List[float]:
        """The per-generation values of ``field`` (index 0 = seeded pop)."""
        return [record[field] for record in self["convergence_records"]]


class GRA(ReplicationAlgorithm):
    """Genetic Replication Algorithm.

    Parameters
    ----------
    params:
        GA control parameters; defaults to the paper's fixed values
        (``N_p=50, N_g=80, mu_c=0.9, mu_m=0.01``).
    rng:
        Random source for all stochastic decisions.
    update_fraction:
        Write-transfer scaling forwarded to the cost model.
    """

    name = "GRA"

    def __init__(
        self,
        params: GAParams = PAPER_PARAMS,
        rng: SeedLike = None,
        update_fraction: float = 1.0,
    ) -> None:
        self.params = params
        self._rng = as_generator(rng)
        self._update_fraction = update_fraction

    def make_cost_model(self, instance: DRPInstance) -> CostModel:
        return CostModel(instance, update_fraction=self._update_fraction)

    # ------------------------------------------------------------------ #
    # initial population
    # ------------------------------------------------------------------ #
    def build_initial_population(
        self,
        instance: DRPInstance,
        model: CostModel,
    ) -> Population:
        """Section 4 seeding: randomised SRA runs, half perturbed."""
        params = self.params
        members: List[Chromosome] = []
        if params.seeded_init:
            for _ in range(params.population_size):
                sra = SRA(
                    site_order=ORDER_RANDOM,
                    rng=self._rng,
                    update_fraction=self._update_fraction,
                )
                result = sra.run(instance, model)
                members.append(Chromosome(result.scheme.matrix.copy()))
        else:
            members = [
                Chromosome(random_valid_chromosome(instance, self._rng))
                for _ in range(params.population_size)
            ]
        num_perturbed = int(round(params.perturbed_fraction * len(members)))
        for idx in range(num_perturbed):
            members[idx] = Chromosome(
                perturb_chromosome(
                    instance,
                    members[idx].matrix,
                    params.perturbation_share,
                    self._rng,
                )
            )
        population = Population(instance, model, members)
        population.evaluate_all()
        return population

    # ------------------------------------------------------------------ #
    # evolution
    # ------------------------------------------------------------------ #
    def _crossover_subpopulation(
        self, instance: DRPInstance, parents: List[Chromosome]
    ) -> List[Chromosome]:
        rng = self._rng
        order = rng.permutation(len(parents))
        offspring: List[Chromosome] = []
        for pos in range(0, len(order) - 1, 2):
            a = parents[order[pos]]
            b = parents[order[pos + 1]]
            if rng.random() < self.params.crossover_rate:
                mat_a, mat_b = two_point_crossover(
                    instance, a.matrix, b.matrix, rng
                )
                offspring.append(Chromosome(mat_a))
                offspring.append(Chromosome(mat_b))
            else:
                offspring.append(a.copy())
                offspring.append(b.copy())
        if len(order) % 2 == 1:
            offspring.append(parents[order[-1]].copy())
        return offspring

    def _mutation_subpopulation(
        self, instance: DRPInstance, parents: List[Chromosome]
    ) -> List[Chromosome]:
        return [
            Chromosome(
                mutate(
                    instance,
                    parent.matrix,
                    self.params.mutation_rate,
                    self._rng,
                )
            )
            for parent in parents
        ]

    def evolve(
        self,
        population: Population,
        generations: int,
    ) -> Dict[str, object]:
        """Evolve ``population`` in place; returns history diagnostics.

        Exposed publicly because AGRA reuses it as the "mini-GRA" over a
        transcripted population (Section 5).

        Convergence is recorded as one trace record per generation (a
        ``gra.generation`` span carrying best/mean fitness — index 0 is
        the seeded population before any evolution).  The returned
        :class:`GRAStats` keeps that data in one place
        (``convergence_records``); project flat lists with
        ``stats.history("best_fitness")``.
        """
        instance = population.instance
        params = self.params
        rng = self._rng
        tracer = current_tracer()
        profiler = current_profiler()

        with tracer.span(
            "gra.evolve",
            generations=generations,
            population_size=len(population.members),
            selection=params.selection,
        ):
            # Record 0: the seeded population, before any evolution.
            with tracer.span("gra.generation") as span:
                population.evaluate_all()
                elite = population.best().copy()
                records: List[Dict[str, float]] = [
                    {
                        "generation": 0,
                        "best_fitness": float(elite.fitness or 0.0),
                        "mean_fitness": population.mean_fitness(),
                    }
                ]
                span.set(
                    index=0,
                    best=records[0]["best_fitness"],
                    mean=records[0]["mean_fitness"],
                )
                profiler.tick()

            for gen in range(generations):
                with tracer.span("gra.generation") as span:
                    parents = population.members
                    cross = self._crossover_subpopulation(instance, parents)
                    mutated = self._mutation_subpopulation(instance, parents)

                    if params.selection == "mu+lambda":
                        pool = [*parents, *cross, *mutated]
                    else:
                        # Simple (SGA-style) sampling space: offspring only.
                        pool = [*cross, *mutated]
                    # batch-evaluate the whole pool (shared columns collapse)
                    survivors = population.members
                    population.members = pool
                    population.evaluate_all()
                    population.members = survivors
                    fitness = np.asarray(
                        [member.fitness for member in pool], dtype=float
                    )
                    chosen = stochastic_remainder_selection(
                        fitness, params.population_size, rng
                    )
                    population.members = [pool[i].copy() for i in chosen]

                    current_best = population.best()
                    if (current_best.fitness or 0.0) > (elite.fitness or 0.0):
                        elite = current_best.copy()
                    if (
                        params.elitism
                        and (gen + 1) % params.elite_interval == 0
                    ):
                        population.members[population.worst_index()] = (
                            elite.copy()
                        )

                    record = {
                        "generation": gen + 1,
                        "best_fitness": float(elite.fitness or 0.0),
                        "mean_fitness": population.mean_fitness(),
                    }
                    records.append(record)
                    span.set(
                        index=gen + 1,
                        best=record["best_fitness"],
                        mean=record["mean_fitness"],
                        pool=len(pool),
                    )
                    profiler.tick()

            # Make sure the best-ever solution is present in the final
            # population regardless of the injection cadence.
            if params.elitism and (elite.fitness or 0.0) > (
                population.best().fitness or 0.0
            ):
                population.members[population.worst_index()] = elite.copy()

        return GRAStats(
            generations=generations,
            convergence_records=records,
            final_diversity=population.diversity(),
        )

    def run_with_population(
        self,
        instance: DRPInstance,
        model: Optional[CostModel] = None,
    ):
        """Like :meth:`run`, but also return the final population.

        The adaptive workflow (Section 5) seeds AGRA's transcription with
        the solutions previously found by GRA; this entry point hands the
        final :class:`Population` back alongside the usual result.
        """
        from repro.algorithms.base import AlgorithmResult
        from repro.utils.timers import Stopwatch

        model = model or self.make_cost_model(instance)
        watch = Stopwatch()
        with watch:
            population = self.build_initial_population(instance, model)
            stats = self.evolve(population, self.params.generations)
            scheme = population.best_scheme()
        if model.metrics is not None:
            model.metrics.observe(f"solve.{self.name}", watch.elapsed)
        result = AlgorithmResult(
            scheme=scheme,
            total_cost=model.total_cost(scheme),
            d_prime=model.d_prime(),
            runtime_seconds=watch.elapsed,
            algorithm=self.name,
            stats=stats,
            extras={
                "solve_seconds": watch.elapsed,
                "cache_info": model.cache_info(),
            },
        )
        return result, population

    # ------------------------------------------------------------------ #
    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        population = self.build_initial_population(instance, model)
        stats = self.evolve(population, self.params.generations)
        stats["evaluations"] = population.evaluations
        stats["population_size"] = self.params.population_size
        stats["selection"] = self.params.selection
        stats["seeded_init"] = self.params.seeded_init
        return population.best_scheme(), stats


__all__ = ["GRA"]
