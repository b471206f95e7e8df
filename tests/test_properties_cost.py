"""Property-based invariants of the cost model (Eq. 1-4)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.sim import ReplicaSystem
from repro.workload import generate_trace
from tests.strategies import drp_instances, instances_with_schemes

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(instances_with_schemes())
def test_vectorised_matches_reference(pair):
    instance, scheme = pair
    model = CostModel(instance)
    assert model.total_cost(scheme) == pytest.approx(
        reference_total_cost(instance, scheme)
    )


@SETTINGS
@given(instances_with_schemes())
def test_cost_non_negative_and_fitness_bounded(pair):
    instance, scheme = pair
    model = CostModel(instance)
    d = model.total_cost(scheme)
    assert d >= 0.0
    assert model.fitness(scheme) <= 1.0


@SETTINGS
@given(instances_with_schemes())
def test_primary_only_is_d_prime(pair):
    instance, _ = pair
    model = CostModel(instance)
    primary = ReplicationScheme.primary_only(instance)
    assert model.total_cost(primary) == pytest.approx(model.d_prime())
    assert model.savings_percent(primary) == pytest.approx(0.0)


@SETTINGS
@given(drp_instances(max_update_ratio=0.0), st.integers(0, 2**16))
def test_read_only_replication_never_hurts(instance, seed):
    # with zero writes, every added replica weakly decreases D
    model = CostModel(instance)
    scheme = ReplicationScheme.primary_only(instance)
    rng = np.random.default_rng(seed)
    cost = model.total_cost(scheme)
    for _ in range(10):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if scheme.holds(site, obj):
            continue
        if scheme.remaining_capacity()[site] < instance.sizes[obj]:
            continue
        scheme.add_replica(site, obj)
        new_cost = model.total_cost(scheme)
        assert new_cost <= cost + 1e-9
        cost = new_cost


@SETTINGS
@given(instances_with_schemes())
def test_write_only_replication_never_helps(pair):
    # with zero reads, any extra replica weakly increases D
    instance, scheme = pair
    silent = instance.with_patterns(reads=np.zeros_like(instance.reads))
    model = CostModel(silent)
    primary = ReplicationScheme.primary_only(silent)
    base = model.total_cost(primary)
    replicated = ReplicationScheme.from_matrix(silent, scheme.matrix)
    assert model.total_cost(replicated) >= base - 1e-9


@SETTINGS
@given(instances_with_schemes())
def test_add_delta_consistent(pair):
    instance, scheme = pair
    model = CostModel(instance)
    remaining = scheme.remaining_capacity()
    for site in range(instance.num_sites):
        for obj in range(instance.num_objects):
            if scheme.holds(site, obj):
                continue
            if remaining[site] < instance.sizes[obj]:
                continue
            before = model.total_cost(scheme)
            delta = model.add_delta(scheme, site, obj)
            clone = scheme.copy()
            clone.add_replica(site, obj)
            assert model.total_cost(clone) == pytest.approx(before + delta)
            return  # one pair per example is plenty


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_simulator_equals_analytic(pair, seed):
    instance, scheme = pair
    model = CostModel(instance)
    system = ReplicaSystem(instance, scheme)
    system.replay(generate_trace(instance, rng=seed))
    assert system.metrics.request_ntc == pytest.approx(
        model.total_cost(scheme)
    )


@SETTINGS
@given(instances_with_schemes())
def test_eq1_eq2_decomposition(pair):
    instance, scheme = pair
    model = CostModel(instance)
    total = (
        model.read_cost_components(scheme).sum()
        + model.write_cost_components(scheme).sum()
    )
    assert total == pytest.approx(model.total_cost(scheme))


@SETTINGS
@given(
    instances_with_schemes(),
    st.sampled_from([1.0, 0.4]),
    st.booleans(),
)
def test_batch_equals_scalar_equals_reference(pair, update_fraction, cached):
    """Three derivations of every per-object price must agree: the
    batch path, the scalar kernel (cached and uncached), and
    the naive Eq. 4 oracle summed over objects — with and without the
    memo cache and under partial-update accounting."""
    instance, scheme = pair
    model = CostModel(
        instance,
        update_fraction=update_fraction,
        cache_size=64 if cached else 0,
    )
    mat = scheme.matrix
    primary_only = ReplicationScheme.primary_only(instance).matrix
    total = 0.0
    for k in range(instance.num_objects):
        columns = np.stack([mat[:, k], primary_only[:, k], mat[:, k]])
        batch = model.object_costs_batch(k, columns)
        assert batch.shape == (3,)
        assert batch[0] == pytest.approx(batch[2])  # duplicates collapse
        per_row = [model.object_cost(k, c) for c in columns]
        assert batch.tolist() == per_row
        cached_row = [model.object_cost_cached(k, c) for c in columns]
        assert batch.tolist() == cached_row
        total += float(batch[0])
    assert total == pytest.approx(
        reference_total_cost(
            instance, scheme, update_fraction=update_fraction
        )
    )
