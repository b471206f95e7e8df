"""AGRA's per-object micro-GA."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import AGRAParams
from repro.algorithms.agra.micro_ga import run_micro_ga
from repro.core import CostModel
from repro.errors import ValidationError

FAST = AGRAParams(population_size=8, generations=15)


def current_column(instance, obj):
    column = np.zeros(instance.num_sites, dtype=bool)
    column[int(instance.primaries[obj])] = True
    return column


def test_result_structure(small_instance, small_model):
    result = run_micro_ga(
        small_instance, small_model, 0,
        current_column(small_instance, 0), params=FAST, rng=1,
    )
    assert result.obj == 0
    assert len(result.columns) == FAST.population_size
    assert len(result.fitnesses) == FAST.population_size
    # ranked best-first
    assert all(
        a >= b for a, b in zip(result.fitnesses, result.fitnesses[1:])
    )
    assert result.evaluations > 0


def test_columns_keep_primary_bit(small_instance, small_model):
    obj = 2
    primary = int(small_instance.primaries[obj])
    result = run_micro_ga(
        small_instance, small_model, obj,
        current_column(small_instance, obj), params=FAST, rng=2,
    )
    for column in result.columns:
        assert column[primary]


def test_fitness_values_consistent(small_instance, small_model):
    obj = 1
    result = run_micro_ga(
        small_instance, small_model, obj,
        current_column(small_instance, obj), params=FAST, rng=3,
    )
    v_prime = small_model.primary_only_object_cost(obj)
    for fitness, column in zip(result.fitnesses, result.columns):
        v = small_model.object_cost(obj, column)
        expected = max(0.0, (v_prime - v) / v_prime)
        assert fitness == pytest.approx(expected)
        assert 0.0 <= fitness <= 1.0


def test_read_heavy_object_gets_replicated(small_instance):
    # crank reads for one object: the unconstrained optimum is wide
    # replication, and the micro-GA should find most of it
    reads = small_instance.reads.copy()
    reads[:, 0] = 500.0
    heavy = small_instance.with_patterns(reads=reads)
    model = CostModel(heavy)
    result = run_micro_ga(
        heavy, model, 0, current_column(heavy, 0),
        params=AGRAParams(population_size=10, generations=30), rng=4,
    )
    assert result.best_column.sum() > heavy.num_sites // 2
    assert result.best_fitness > 0.5


def test_update_heavy_object_stays_primary_only(small_instance):
    writes = small_instance.writes.copy()
    writes[:, 0] = 500.0
    heavy = small_instance.with_patterns(writes=writes)
    model = CostModel(heavy)
    result = run_micro_ga(
        heavy, model, 0, current_column(heavy, 0),
        params=AGRAParams(population_size=10, generations=30), rng=5,
    )
    assert result.best_column.sum() <= 2  # primary, maybe one replica


def test_seed_columns_used(small_instance, small_model):
    obj = 3
    seed = np.ones(small_instance.num_sites, dtype=bool)
    result = run_micro_ga(
        small_instance, small_model, obj,
        current_column(small_instance, obj),
        seed_columns=[seed], params=FAST, rng=6,
    )
    assert len(result.columns) == FAST.population_size


def test_deterministic(small_instance, small_model):
    kwargs = dict(params=FAST, rng=7)
    a = run_micro_ga(
        small_instance, small_model, 0,
        current_column(small_instance, 0), **kwargs,
    )
    b = run_micro_ga(
        small_instance, small_model, 0,
        current_column(small_instance, 0), params=FAST, rng=7,
    )
    assert a.fitnesses == b.fitnesses
    assert all(
        np.array_equal(x, y) for x, y in zip(a.columns, b.columns)
    )


def test_bad_current_column_rejected(small_instance, small_model):
    with pytest.raises(ValidationError):
        run_micro_ga(
            small_instance, small_model, 0,
            np.zeros(small_instance.num_sites, dtype=bool), params=FAST,
        )
    with pytest.raises(ValidationError):
        run_micro_ga(
            small_instance, small_model, 0,
            np.zeros(3, dtype=bool), params=FAST,
        )
