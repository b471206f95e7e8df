"""Local-search comparators: hill climbing and simulated annealing.

Not part of the paper — these are the standard metaheuristic baselines a
GA should be judged against.  Both walk the space of *valid* replication
schemes using three move types:

* **add** — place a replica that fits (exact cost delta via the
  incremental evaluator);
* **drop** — remove a non-primary replica;
* **swap** — drop one replica and add another at the same site (useful
  when the site is full, which pure add/drop search cannot escape).

Hill climbing is steepest-descent over a sampled neighbourhood until no
sampled move improves; simulated annealing accepts worsening moves with
the Metropolis criterion under a geometric cooling schedule.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.algorithms.base import ReplicationAlgorithm
from repro.algorithms.sra import SRA
from repro.core.cost import CostModel
from repro.core.incremental import IncrementalCostEvaluator
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator

#: move kinds explored by the local searches
MOVE_ADD = "add"
MOVE_DROP = "drop"
MOVE_SWAP = "swap"


class _Move(NamedTuple):
    """One candidate neighbourhood move with its exact cost delta."""

    kind: str
    site: int
    add_obj: Optional[int]
    drop_obj: Optional[int]
    delta: float


def _sample_moves(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    rng: np.random.Generator,
    samples: int,
    evaluator: IncrementalCostEvaluator,
) -> List[_Move]:
    """Sample up to ``samples`` random feasible moves with exact deltas.

    The deltas come from the evaluator's O(M) incremental path.
    """
    m, n = instance.num_sites, instance.num_objects
    remaining = scheme.remaining_capacity()
    moves: List[_Move] = []
    # The scheme is static while sampling, so all draws and feasibility
    # checks vectorise: two bulk RNG draws replace 2*samples scalar ones
    # and the held/fits/primary tests become three array ops instead of
    # per-sample scalar indexing.
    sites = rng.integers(m, size=samples)
    objs = rng.integers(n, size=samples)
    held_flags = scheme.matrix[sites, objs]
    fits_flags = remaining[sites] >= instance.sizes[objs]
    primary_flags = instance.primaries[objs] == sites
    swap_pool: Dict[int, List[int]] = {}
    for i in range(samples):
        site = int(sites[i])
        obj = int(objs[i])
        if not held_flags[i]:
            if fits_flags[i]:
                delta = evaluator.delta_add(site, obj)
                moves.append(_Move(MOVE_ADD, site, obj, None, delta))
            else:
                # site full: try swapping out a held non-primary object
                held_objs = swap_pool.get(site)
                if held_objs is None:
                    held_objs = [
                        int(k)
                        for k in scheme.objects_at(site)
                        if int(instance.primaries[k]) != site
                    ]
                    swap_pool[site] = held_objs
                if not held_objs:
                    continue
                victim = int(rng.choice(held_objs))
                freed = remaining[site] + instance.sizes[victim]
                if freed < instance.sizes[obj]:
                    continue
                # victim != obj, so the two deltas touch different
                # object columns and sum exactly without applying the
                # drop first.
                delta = evaluator.delta_drop(site, victim)
                delta += evaluator.delta_add(site, obj)
                moves.append(_Move(MOVE_SWAP, site, obj, victim, delta))
        elif not primary_flags[i]:
            delta = evaluator.delta_drop(site, obj)
            moves.append(_Move(MOVE_DROP, site, None, obj, delta))
    return moves


def _apply(scheme: ReplicationScheme, move: _Move) -> None:
    if move.kind == MOVE_ADD:
        scheme.add_replica(move.site, move.add_obj)
    elif move.kind == MOVE_DROP:
        scheme.drop_replica(move.site, move.drop_obj)
    else:  # swap
        scheme.drop_replica(move.site, move.drop_obj)
        scheme.add_replica(move.site, move.add_obj)


class HillClimbing(ReplicationAlgorithm):
    """Steepest-descent local search over sampled neighbourhoods.

    Parameters
    ----------
    neighbourhood:
        Moves sampled per iteration; the best improving one is applied.
    max_iterations:
        Hard cap on applied moves.
    patience:
        Stop after this many consecutive iterations without an improving
        sampled move (the neighbourhood is sampled, so one dry iteration
        is not proof of a local optimum).
    seed_with_sra:
        Start from the SRA solution (default) or from primary-only.
    """

    name = "HillClimbing"

    def __init__(
        self,
        neighbourhood: int = 64,
        max_iterations: int = 2000,
        patience: int = 5,
        seed_with_sra: bool = True,
        rng: SeedLike = None,
    ) -> None:
        if neighbourhood < 1:
            raise ValidationError(
                f"neighbourhood must be >= 1, got {neighbourhood}"
            )
        if max_iterations < 0:
            raise ValidationError(
                f"max_iterations must be >= 0, got {max_iterations}"
            )
        if patience < 1:
            raise ValidationError(f"patience must be >= 1, got {patience}")
        self._neighbourhood = neighbourhood
        self._max_iterations = max_iterations
        self._patience = patience
        self._seed_with_sra = seed_with_sra
        self._rng = as_generator(rng)

    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        if self._seed_with_sra:
            scheme = SRA().run(instance, model).scheme
        else:
            scheme = ReplicationScheme.primary_only(instance)
        evaluator = IncrementalCostEvaluator(model, scheme)
        iterations = 0
        dry = 0
        while iterations < self._max_iterations and dry < self._patience:
            moves = _sample_moves(
                instance, scheme, self._rng, self._neighbourhood, evaluator
            )
            improving = [mv for mv in moves if mv.delta < -1e-9]
            if not improving:
                dry += 1
                continue
            dry = 0
            best = min(improving, key=lambda mv: mv.delta)
            _apply(scheme, best)
            iterations += 1
        evaluator.detach()
        return scheme, {
            "iterations": iterations,
            "seeded": self._seed_with_sra,
        }


class SimulatedAnnealing(ReplicationAlgorithm):
    """Metropolis local search with geometric cooling.

    Temperature starts at ``initial_temperature`` (relative to
    ``D_prime``, so it transfers across instance magnitudes) and cools by
    ``cooling`` per step; a worsening move of delta ``d > 0`` is accepted
    with probability ``exp(-d / T)``.  The best scheme ever visited is
    returned.
    """

    name = "SimulatedAnnealing"

    def __init__(
        self,
        steps: int = 4000,
        initial_temperature: float = 0.001,
        cooling: float = 0.999,
        seed_with_sra: bool = True,
        rng: SeedLike = None,
    ) -> None:
        if steps < 0:
            raise ValidationError(f"steps must be >= 0, got {steps}")
        if initial_temperature <= 0:
            raise ValidationError(
                "initial_temperature must be > 0, got "
                f"{initial_temperature}"
            )
        if not 0.0 < cooling <= 1.0:
            raise ValidationError(
                f"cooling must lie in (0, 1], got {cooling}"
            )
        self._steps = steps
        self._t0 = initial_temperature
        self._cooling = cooling
        self._seed_with_sra = seed_with_sra
        self._rng = as_generator(rng)

    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> Tuple[ReplicationScheme, Dict[str, object]]:
        if self._seed_with_sra:
            scheme = SRA().run(instance, model).scheme
        else:
            scheme = ReplicationScheme.primary_only(instance)
        rng = self._rng
        evaluator = IncrementalCostEvaluator(model, scheme)
        temperature = self._t0 * model.d_prime()
        best = scheme.copy()
        best_cost = model.total_cost(best)
        current_cost = best_cost
        accepted = 0
        for _ in range(self._steps):
            moves = _sample_moves(instance, scheme, rng, 1, evaluator)
            temperature *= self._cooling
            if not moves:
                continue
            move = moves[0]
            accept = move.delta < 0 or (
                temperature > 0
                and rng.random() < np.exp(-move.delta / temperature)
            )
            if not accept:
                continue
            _apply(scheme, move)
            accepted += 1
            current_cost += move.delta
            if current_cost < best_cost - 1e-9:
                best = scheme.copy()
                best_cost = current_cost
        evaluator.detach()
        return best, {
            "accepted_moves": accepted,
            "final_temperature": temperature,
            "seeded": self._seed_with_sra,
        }


__all__ = ["HillClimbing", "SimulatedAnnealing"]
