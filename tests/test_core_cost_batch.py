"""Batched population evaluation equals the sequential evaluator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.gra.encoding import random_valid_chromosome
from repro.core import CostModel, DRPInstance
from repro.errors import ValidationError


def random_matrices(instance, rng, count=7):
    return [
        random_valid_chromosome(instance, rng, fill=float(f))
        for f, _ in zip(np.linspace(0.1, 1.0, count), range(count))
    ]


def test_batch_object_costs_match_sequential(small_instance, rng):
    model = CostModel(small_instance, cache_size=0)
    mats = random_matrices(small_instance, rng)
    for obj in range(small_instance.num_objects):
        columns = np.stack([m[:, obj] for m in mats])
        batch = model.object_costs_batch(obj, columns)
        sequential = [model.object_cost(obj, c) for c in columns]
        assert batch.tolist() == sequential


def test_population_costs_match_total_cost(small_instance, rng):
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng)
    batch = model.population_costs(mats)
    sequential = [model.total_cost(m) for m in mats]
    assert np.allclose(batch, sequential)


def test_batch_with_duplicates(small_instance, rng):
    model = CostModel(small_instance)
    base = random_valid_chromosome(small_instance, rng)
    mats = [base, base.copy(), base.copy()]
    costs = model.population_costs(mats)
    assert np.allclose(costs, costs[0])


def test_batch_uses_and_fills_cache(small_instance, rng):
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=3)
    model.population_costs(mats)
    filled = model.cache_info()["entries"]
    assert filled > 0
    # a second pass must not grow the cache (every column is cached)
    model.population_costs(mats)
    assert model.cache_info()["entries"] == filled


def test_batch_empty_population(small_instance):
    model = CostModel(small_instance)
    assert model.population_costs([]).shape == (0,)


def test_batch_shape_validation(small_instance):
    model = CostModel(small_instance)
    with pytest.raises(ValidationError):
        model.object_costs_batch(0, np.zeros((2, 3), dtype=bool))


def test_batch_flat_inverse_still_works(small_instance, rng):
    """The flat (NumPy 1.x / 2.2+) inverse shape stays correct too."""
    model = CostModel(small_instance)
    mats = random_matrices(small_instance, rng, count=5)
    columns = np.stack([m[:, 1] for m in mats] + [mats[0][:, 1]])
    batch = model.object_costs_batch(1, columns)
    assert batch.shape == (columns.shape[0],)
    assert batch[-1] == batch[0]  # duplicate rows share one price


def _float_cost_instance(sites=40, objects=20, seed=5):
    """Euclidean costs x7.3 with float sizes: link costs and weights are
    non-integral, so any difference in summation order shows in the
    last bits of a price."""
    gen = np.random.default_rng(seed)
    points = gen.uniform(0.0, 10.0, size=(sites, 2))
    cost = 7.3 * np.linalg.norm(points[:, None] - points[None, :], axis=2)
    return DRPInstance(
        cost=cost,
        sizes=gen.uniform(0.5, 9.5, size=objects),
        capacities=np.full(sites, 1e6),
        reads=gen.integers(0, 30, size=(sites, objects)).astype(float),
        writes=gen.integers(0, 4, size=(sites, objects)).astype(float),
        primaries=gen.integers(0, sites, size=objects),
    )


def _random_columns(instance, obj, rows, gen):
    columns = gen.random((rows, instance.num_sites)) < gen.uniform(
        0.05, 0.6, size=(rows, 1)
    )
    columns[:, instance.primaries[obj]] = True
    return columns


def test_batch_equals_object_cost_bitwise_on_float_costs():
    """Regression: the batch path used its own matrix-form Eq. 4, which
    disagreed with ``object_cost`` by up to 1 ulp on float inputs (about
    3k of these 8k columns).  Every row must now match bit for bit."""
    instance = _float_cost_instance()
    model = CostModel(instance, cache_size=0)
    gen = np.random.default_rng(11)
    for obj in range(instance.num_objects):
        columns = _random_columns(instance, obj, 400, gen)
        batch = model.object_costs_batch(obj, columns)
        assert batch.tolist() == [model.object_cost(obj, c) for c in columns]


def test_memo_value_independent_of_pricing_path():
    """A column first priced by the batch path is memoised with the same
    bits an uncached ``column_cost`` gives, so what the cache returns no
    longer depends on which path filled it."""
    instance = _float_cost_instance()
    gen = np.random.default_rng(12)
    batch_first = CostModel(instance)
    reference = CostModel(instance, cache_size=0)
    for obj in range(instance.num_objects):
        columns = _random_columns(instance, obj, 50, gen)
        batch_first.object_costs_batch(obj, columns)
        for column in columns:
            nearest = instance.cost[:, column].min(axis=1)
            assert batch_first.object_cost_cached(
                obj, column
            ) == reference.column_cost(obj, column, nearest)
    assert batch_first.cache_info()["hits"] > 0
