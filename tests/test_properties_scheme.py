"""Property-based invariants of replication schemes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ReplicationScheme
from tests.strategies import instances_with_schemes

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(instances_with_schemes())
def test_storage_tally_matches_matrix(pair):
    instance, scheme = pair
    expected = scheme.matrix.astype(float) @ instance.sizes
    assert np.allclose(scheme.used_storage(), expected)
    assert np.allclose(
        scheme.remaining_capacity(), instance.capacities - expected
    )


@SETTINGS
@given(instances_with_schemes())
def test_primaries_always_present(pair):
    instance, scheme = pair
    n = instance.num_objects
    assert np.all(scheme.matrix[instance.primaries, np.arange(n)])


@SETTINGS
@given(instances_with_schemes())
def test_nearest_site_is_cheapest_replicator(pair):
    instance, scheme = pair
    for obj in range(instance.num_objects):
        reps = scheme.replicators(obj)
        nearest = scheme.nearest_sites(obj)
        for site in range(instance.num_sites):
            chosen = instance.cost[site, nearest[site]]
            best = instance.cost[site, reps].min()
            assert chosen == pytest.approx(best)
            assert nearest[site] in reps


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_add_drop_roundtrip(pair, seed):
    instance, scheme = pair
    rng = np.random.default_rng(seed)
    before = scheme.matrix.copy()
    site = int(rng.integers(instance.num_sites))
    obj = int(rng.integers(instance.num_objects))
    if scheme.holds(site, obj):
        return
    if scheme.remaining_capacity()[site] < instance.sizes[obj]:
        return
    scheme.add_replica(site, obj)
    scheme.drop_replica(site, obj)
    assert np.array_equal(scheme.matrix, before)


@SETTINGS
@given(instances_with_schemes())
def test_replica_counts_consistent(pair):
    instance, scheme = pair
    assert scheme.total_replicas() == int(scheme.matrix.sum())
    assert (
        scheme.extra_replicas()
        == scheme.total_replicas() - instance.num_objects
    )
    assert scheme.extra_replicas() >= 0
    degrees = scheme.replica_degrees()
    assert np.all(degrees >= 1)
    assert degrees.sum() == scheme.total_replicas()


@SETTINGS
@given(instances_with_schemes())
def test_copy_equality_roundtrip(pair):
    _, scheme = pair
    clone = scheme.copy()
    assert clone == scheme
    assert ReplicationScheme.from_dict(
        scheme.instance, scheme.to_dict()
    ) == scheme
