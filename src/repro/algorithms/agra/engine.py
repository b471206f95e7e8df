"""The AGRA engine (Section 5).

Given the network's *current* replication scheme, the new read/write
patterns, and (optionally) the population from a previous GRA run, AGRA:

1. runs the per-object micro-GA for every changed object, producing a
   ranking of unconstrained replica placements for it;
2. transcribes the ranked placements into the GRA population (best column
   into the top half including the elite/current scheme, the rest
   scattered over the bottom half), repairing capacity violations with
   the Eq. 6 deallocation estimate;
3. optionally refines the transcribed population with a "mini-GRA" of a
   few generations (the paper evaluates 5 and 10).

The result's scheme is the fittest member of the final population.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.algorithms.agra.micro_ga import run_micro_ga
from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.agra.transcription import transcribe_population
from repro.algorithms.base import AlgorithmResult
from repro.algorithms.gra.encoding import perturb_chromosome
from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams, PAPER_PARAMS
from repro.algorithms.gra.population import Chromosome, Population
from repro.core.cost import CostModel
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.holder import observers
from repro.utils.rng import SeedLike, as_generator
from repro.utils.timers import Stopwatch


class AGRA:
    """Adaptive Genetic Replication Algorithm.

    Parameters
    ----------
    params:
        Micro-GA knobs (paper: ``A_p=10, A_g=50``, crossover 0.8,
        mutation 0.01).
    gra_params:
        Parameters of the mini-GRA refinement stage (population size also
        bounds the transcription population).
    rng:
        Random source shared by micro-GAs, transcription and mini-GRA.
    update_fraction:
        Write-transfer scaling forwarded to the cost model.
    """

    name = "AGRA"

    def __init__(
        self,
        params: AGRAParams = PAPER_AGRA_PARAMS,
        gra_params: GAParams = PAPER_PARAMS,
        rng: SeedLike = None,
        update_fraction: float = 1.0,
    ) -> None:
        self.params = params
        self.gra_params = gra_params
        self._rng = as_generator(rng)
        self._update_fraction = update_fraction

    # ------------------------------------------------------------------ #
    def _build_population(
        self,
        instance: DRPInstance,
        model: CostModel,
        current_scheme: ReplicationScheme,
        seed_matrices: Sequence[np.ndarray],
    ) -> Population:
        """The population the micro-GA results are transcribed into.

        The current network scheme is always the first member (it becomes
        the elite); previous GRA solutions fill the remaining slots, topped
        up with validity-preserving perturbations of the current scheme.
        """
        size = self.gra_params.population_size
        members: List[Chromosome] = [
            Chromosome(current_scheme.matrix.copy())
        ]
        for matrix in seed_matrices:
            if len(members) >= size:
                break
            members.append(Chromosome(np.asarray(matrix, dtype=bool).copy()))
        while len(members) < size:
            members.append(
                Chromosome(
                    perturb_chromosome(
                        instance,
                        current_scheme.matrix,
                        self.gra_params.perturbation_share,
                        self._rng,
                    )
                )
            )
        population = Population(instance, model, members)
        population.evaluate_all()
        return population

    # ------------------------------------------------------------------ #
    def adapt(
        self,
        instance: DRPInstance,
        current_scheme: ReplicationScheme,
        changed_objects: Sequence[int],
        seed_matrices: Sequence[np.ndarray] = (),
        mini_gra_generations: int = 0,
    ) -> AlgorithmResult:
        """Re-optimise the replication scheme after a pattern change.

        Parameters
        ----------
        instance:
            The problem with the *new* read/write patterns.
        current_scheme:
            The replica distribution currently deployed in the network
            (typically computed by a static algorithm on the old
            patterns); must be valid for ``instance``'s storage.
        changed_objects:
            Objects whose patterns changed above the monitor threshold.
        seed_matrices:
            Final population of the previous GRA run, if available.
        mini_gra_generations:
            0 runs AGRA stand-alone (the paper's "Current + AGRA"); a
            positive value refines with that many mini-GRA generations
            ("AGRA + 5 GRA", "AGRA + 10 GRA").
        """
        if not isinstance(instance, DRPInstance):
            # Sparse problems densify here: AGRA's micro-GA and
            # transcription index the count matrices densely.
            instance = instance.to_instance()
        changed = sorted({int(k) for k in changed_objects})
        for k in changed:
            if not 0 <= k < instance.num_objects:
                raise ValidationError(
                    f"changed object {k} out of range [0, {instance.num_objects})"
                )
        if mini_gra_generations < 0:
            raise ValidationError(
                "mini_gra_generations must be >= 0, got "
                f"{mini_gra_generations}"
            )
        model = CostModel(instance, update_fraction=self._update_fraction)
        tracer = observers().tracer
        ledger = observers().ledger
        watch = Stopwatch()
        micro_evaluations = 0
        with watch, tracer.span(
            "agra.adapt",
            changed_objects=len(changed),
            mini_gra_generations=mini_gra_generations,
        ):
            population = self._build_population(
                instance, model, current_scheme, seed_matrices
            )
            seed_columns_by_obj = {
                k: [np.asarray(m, dtype=bool)[:, k] for m in seed_matrices]
                for k in changed
            }
            # The paper transcribes against the initial GRA population's
            # fitness ordering; compute it once and reuse it for every
            # changed object (no per-object re-evaluation).
            order = np.argsort(
                [-(member.fitness or 0.0) for member in population.members]
            )
            for k in changed:
                with tracer.span("agra.micro_ga", obj=k) as span:
                    micro = run_micro_ga(
                        instance,
                        model,
                        k,
                        current_column=current_scheme.matrix[:, k],
                        seed_columns=seed_columns_by_obj[k],
                        params=self.params,
                        rng=self._rng,
                    )
                    span.set(evaluations=micro.evaluations)
                micro_evaluations += micro.evaluations
                if tracer.enabled or ledger.enabled:
                    # The allocation decision: the ranked placement the
                    # micro-GA voted best for this changed object.
                    before = int(current_scheme.matrix[:, k].sum())
                    after = int(
                        np.asarray(micro.columns[0], dtype=bool).sum()
                    )
                    if tracer.enabled:
                        tracer.event(
                            "agra.allocate",
                            obj=k,
                            replicas_before=before,
                            replicas_after=after,
                            candidates=len(micro.columns),
                        )
                    if ledger.enabled:
                        ledger.record(
                            "decide",
                            obj=k,
                            algorithm="agra",
                            replicas_before=before,
                            replicas_after=after,
                            candidates=len(micro.columns),
                        )
                with tracer.span("agra.transcribe", obj=k):
                    transcribe_population(
                        population, micro.columns, k, rng=self._rng,
                        order=order,
                    )
            if mini_gra_generations > 0:
                mini = GRA(
                    params=self.gra_params,
                    rng=self._rng,
                    update_fraction=self._update_fraction,
                )
                mini.evolve(population, mini_gra_generations)
            best = population.best_scheme()
        name = self.name
        if mini_gra_generations > 0:
            name = f"AGRA+{mini_gra_generations}GRA"
        return AlgorithmResult(
            scheme=best,
            total_cost=model.total_cost(best),
            d_prime=model.d_prime(),
            runtime_seconds=watch.elapsed,
            algorithm=name,
            stats={
                "changed_objects": changed,
                "micro_evaluations": micro_evaluations,
                "mini_gra_generations": mini_gra_generations,
                "population_size": len(population),
            },
        )


__all__ = ["AGRA"]
