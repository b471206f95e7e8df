"""GA parameter sensitivity sweeps."""

from __future__ import annotations

import pytest

from repro.algorithms import GAParams
from repro.analysis import sweep_ga_parameter
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, generate_instances

BASE = GAParams(population_size=8, generations=6)


@pytest.fixture(scope="module")
def instances():
    return generate_instances(
        WorkloadSpec(num_sites=8, num_objects=14, update_ratio=0.05,
                     capacity_ratio=0.15),
        2,
        rng=230,
    )


def test_sweep_structure(instances):
    result = sweep_ga_parameter(
        instances, "mutation_rate", [0.0, 0.01, 0.1], BASE, seed=1
    )
    assert result.parameter == "mutation_rate"
    assert result.values == [0.0, 0.01, 0.1]
    for value in result.values:
        assert result.savings[value].count == 2
        assert result.runtimes[value].mean >= 0.0
    assert result.best_value() in result.values
    assert "mutation_rate" in result.render()


def test_more_generations_never_hurt(instances):
    result = sweep_ga_parameter(
        instances, "generations", [0, 12], BASE, seed=2
    )
    # elitism makes best-so-far monotone in the generation budget
    assert (
        result.savings[12].mean >= result.savings[0].mean - 0.5
    )


def test_runtime_grows_with_population(instances):
    result = sweep_ga_parameter(
        instances, "population_size", [4, 16], BASE, seed=3
    )
    assert result.runtimes[16].mean > result.runtimes[4].mean


def test_paper_mutation_rate_not_dominated_by_none(instances):
    # some mutation restores lost material: the paper's 0.01 is not
    # beaten by switching mutation off
    result = sweep_ga_parameter(
        instances, "mutation_rate", [0.0, 0.01], BASE, seed=6
    )
    assert result.savings[0.01].mean >= result.savings[0.0].mean - 1.0


def test_unsweepable_field_rejected(instances):
    with pytest.raises(ValidationError):
        sweep_ga_parameter(instances, "selection", ["simple"], BASE)
    with pytest.raises(ValidationError):
        sweep_ga_parameter([], "mutation_rate", [0.01], BASE)
    with pytest.raises(ValidationError):
        sweep_ga_parameter(instances, "mutation_rate", [], BASE)


def test_invalid_value_surfaces_validation_error(instances):
    with pytest.raises(ValidationError):
        sweep_ga_parameter(
            instances, "mutation_rate", [2.0], BASE, seed=4
        )


def test_reproducible(instances):
    a = sweep_ga_parameter(
        instances, "crossover_rate", [0.5], BASE, seed=5
    )
    b = sweep_ga_parameter(
        instances, "crossover_rate", [0.5], BASE, seed=5
    )
    assert a.savings[0.5].mean == pytest.approx(b.savings[0.5].mean)
