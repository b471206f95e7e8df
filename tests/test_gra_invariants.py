"""Long-evolution invariants of the GRA engine.

The per-generation operators are individually tested; these tests assert
the properties that must survive their composition over many
generations.
"""

from __future__ import annotations

import pytest

from repro.algorithms import GAParams, GRA
from repro.algorithms.gra.encoding import chromosome_valid
from repro.core import CostModel
from repro.workload import WorkloadSpec, generate_instance


@pytest.fixture(scope="module")
def instance():
    # tight capacity stresses the repair paths every generation
    return generate_instance(
        WorkloadSpec(num_sites=10, num_objects=20, update_ratio=0.05,
                     capacity_ratio=0.08),
        rng=240,
    )


def test_population_valid_after_long_evolution(instance):
    gra = GRA(GAParams(population_size=10, generations=40), rng=1)
    _, population = gra.run_with_population(instance)
    for member in population.members:
        assert chromosome_valid(instance, member.matrix)
        assert 0.0 <= member.fitness <= 1.0


def test_elite_present_in_final_population(instance):
    gra = GRA(GAParams(population_size=10, generations=25), rng=2)
    result, population = gra.run_with_population(instance)
    best = population.best()
    assert best.fitness == pytest.approx(result.fitness)
    history = result.stats.history("best_fitness")
    assert best.fitness == pytest.approx(history[-1])


def test_fitness_values_internally_consistent(instance):
    gra = GRA(GAParams(population_size=8, generations=15), rng=3)
    _, population = gra.run_with_population(instance)
    model = CostModel(instance)
    d_prime = model.d_prime()
    for member in population.members:
        recomputed = model.total_cost(member.matrix)
        assert member.cost == pytest.approx(recomputed)
        assert member.fitness == pytest.approx(
            (d_prime - recomputed) / d_prime
        )


def test_evolution_improves_or_holds_seeded_quality(instance):
    params = GAParams(population_size=10, generations=0)
    gra0 = GRA(params, rng=4)
    seeded, _ = gra0.run_with_population(instance)
    gra40 = GRA(params.with_overrides(generations=40), rng=4)
    evolved = gra40.run(instance)
    assert evolved.fitness >= seeded.fitness - 1e-9


def test_mu_lambda_evaluates_more_than_simple(instance):
    base = GAParams(population_size=8, generations=10)
    mu_lambda = GRA(base, rng=5).run(instance)
    simple = GRA(
        base.with_overrides(selection="simple"), rng=5
    ).run(instance)
    # enlarged sampling space: strictly more unique evaluations
    assert (
        mu_lambda.stats["evaluations"] >= simple.stats["evaluations"]
    )


def test_same_seed_same_history(instance):
    params = GAParams(population_size=8, generations=12)
    a = GRA(params, rng=6).run(instance)
    b = GRA(params, rng=6).run(instance)
    assert (
        a.stats.history("best_fitness") == b.stats.history("best_fitness")
    )
    assert a.stats.history("mean_fitness") == b.stats.history("mean_fitness")
