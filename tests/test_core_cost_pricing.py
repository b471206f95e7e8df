"""Eq. 4 pricing walks the weight tiles once; it must equal per-object pricing.

``total_cost``, ``d_prime`` and ``primary_only_object_cost`` price every
object in one pass over the object-column tiles.  Each is checked here
against a per-object reference bit for bit (``==``), and the memo's
hit/miss/eviction counters against the same lookups made one object at
a time through :meth:`CostModel.object_cost_cached`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.core import CostModel, DRPInstance, SparseCostModel
from repro.network import waxman_topology
from repro.utils.metrics import MetricsRegistry
from repro.workload import SparseProblem, WorkloadSpec, generate_instance

#: odd, so a width-2 tiling leaves a width-1 remainder to merge
NUM_OBJECTS = 21
NUM_SITES = 9


def reference_object_cost(model, obj, column):
    """Per-object Eq. 4: accessor columns, nearest distances from the
    columns of ``C`` (not its transpose), one object at a time."""
    mask = np.asarray(column, dtype=bool)
    reps = np.nonzero(mask)[0]
    nearest = model.instance.cost[:, reps].min(axis=1)
    read_term = float(
        np.ascontiguousarray(model.read_weight_col(obj)) @ nearest
    )
    to_primary = model.cost_to_primary_col(obj)
    write_w = model.write_weight_col(obj)
    nonrep = float(write_w[~mask] @ to_primary[~mask])
    rep = float(to_primary[mask].sum() * model.total_write_weight_of(obj))
    return read_term + nonrep + rep


def _paper_instance(seed=31, update_ratio=0.2):
    return generate_instance(
        WorkloadSpec(
            num_sites=NUM_SITES,
            num_objects=NUM_OBJECTS,
            update_ratio=update_ratio,
            capacity_ratio=0.3,
        ),
        rng=seed,
    )


def _waxman_instance():
    cost = waxman_topology(NUM_SITES, rng=12).cost_matrix()
    assert not np.array_equal(cost, np.round(cost))  # float link costs
    return generate_instance(
        WorkloadSpec(
            num_sites=NUM_SITES,
            num_objects=NUM_OBJECTS,
            update_ratio=0.2,
            capacity_ratio=0.3,
        ),
        rng=32,
        cost=cost,
    )


def _fractional_instance():
    base = _paper_instance(seed=33)
    return DRPInstance(
        cost=base.cost,
        sizes=base.sizes * 0.75 + 0.125,
        capacities=base.capacities,
        reads=base.reads,
        writes=base.writes,
        primaries=base.primaries,
    )


def _models():
    """``(id, factory)``: each factory builds a fresh model of one case."""
    waxman = _waxman_instance()
    fractional = _fractional_instance()
    paper = _paper_instance()
    return [
        ("waxman", lambda: CostModel(waxman)),
        ("fractional-sizes", lambda: CostModel(fractional)),
        ("uf0.3", lambda: CostModel(paper, update_fraction=0.3)),
        (
            "sparse-tile2",
            lambda: SparseCostModel(
                SparseProblem.from_instance(waxman), tile=2
            ),
        ),
        ("dense-cache5", lambda: CostModel(fractional, cache_size=5)),
    ]


MODELS = _models()


def _schemes(instance):
    """An SRA scheme (scheme digests) and a random matrix (packbits)."""
    scheme = SRA().run(instance).scheme
    rng = np.random.default_rng(4)
    matrix = rng.random((instance.num_sites, instance.num_objects)) < 0.3
    matrix[instance.primaries, np.arange(instance.num_objects)] = True
    return [scheme, matrix]


@pytest.mark.parametrize(
    "make", [case[1] for case in MODELS], ids=[case[0] for case in MODELS]
)
def test_total_cost_equals_per_object_pricing(make):
    model, reference = make(), make()
    schemes = _schemes(model.instance)
    for scheme in schemes + schemes:  # the second pass hits the memo
        matrix = scheme if isinstance(scheme, np.ndarray) else scheme.matrix
        per_object = [
            reference_object_cost(reference, k, matrix[:, k])
            for k in range(NUM_OBJECTS)
        ]
        expected = float(sum(per_object))
        assert model.total_cost(scheme) == expected
        assert model.total_cost(scheme, cached=False) == expected
        # The same lookup sequence, one object at a time.
        for k in range(NUM_OBJECTS):
            assert (
                reference.object_cost_cached(k, matrix[:, k])
                == per_object[k]
            )
    assert model.cache_info() == reference.cache_info()
    assert list(model._cache) == list(reference._cache)


def test_small_cache_evicts_in_lru_order():
    make = dict(MODELS)["dense-cache5"]
    model = make()
    model.total_cost(_schemes(model.instance)[0])
    # Only the five most recently priced objects survive, oldest first.
    assert [key[0] for key in model._cache] == list(
        range(NUM_OBJECTS - 5, NUM_OBJECTS)
    )


def test_sparse_tiling_merges_trailing_width_one_tile():
    model = dict(MODELS)["sparse-tile2"]()
    bounds = model._tile_starts + [NUM_OBJECTS]
    tiles = list(zip(bounds, bounds[1:]))
    assert tiles[-1] == (NUM_OBJECTS - 3, NUM_OBJECTS)
    assert all(stop - start == 2 for start, stop in tiles[:-1])


@pytest.mark.parametrize(
    "make", [case[1] for case in MODELS], ids=[case[0] for case in MODELS]
)
def test_d_prime_equals_per_object_pricing(make):
    model, reference = make(), make()
    instance = model.instance
    per_object = np.empty(NUM_OBJECTS)
    for k in range(NUM_OBJECTS):
        column = np.zeros(NUM_SITES, dtype=bool)
        column[instance.primaries[k]] = True
        per_object[k] = reference_object_cost(reference, k, column)
    assert model.d_prime() == float(per_object.sum())
    for k in range(NUM_OBJECTS):
        assert model.primary_only_object_cost(k) == per_object[k]


def test_tile_walk_times_every_priced_object():
    metrics = MetricsRegistry()
    model = CostModel(_paper_instance(), metrics=metrics)
    matrix = np.zeros((NUM_SITES, NUM_OBJECTS), dtype=bool)
    matrix[model.instance.primaries, np.arange(NUM_OBJECTS)] = True
    model.total_cost(matrix)
    model.total_cost(matrix)  # all hits: nothing is priced again
    model.d_prime()
    assert metrics.timers["cost.object_cost"]["calls"] == 2 * NUM_OBJECTS
    assert metrics.counters["cost.cache_misses"] == NUM_OBJECTS
    assert metrics.counters["cost.cache_hits"] == NUM_OBJECTS
