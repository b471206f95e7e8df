"""Property-based invariants of the extension modules.

Strategies, availability, the load model and link routing all restate
facts about the same traffic; these properties pin the relationships
between them on random instances.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, ReplicationScheme
from repro.core.availability import failure_report, harden_scheme
from repro.core.strategies import WriteStrategy, total_cost
from repro.sim import ReplicaSystem
from repro.sim.loadmodel import served_units
from repro.workload import generate_trace
from tests.strategies import instances_with_schemes

SETTINGS = settings(max_examples=30, deadline=None)


@SETTINGS
@given(instances_with_schemes())
def test_broadcast_strategy_equals_cost_model(pair):
    instance, scheme = pair
    model = CostModel(instance)
    assert total_cost(
        instance, scheme, WriteStrategy.PRIMARY_BROADCAST
    ) == pytest.approx(model.total_cost(scheme))


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_multicast_simulator_exact(pair, seed):
    instance, scheme = pair
    system = ReplicaSystem(
        instance, scheme, write_strategy=WriteStrategy.WRITER_MULTICAST
    )
    system.replay(generate_trace(instance, rng=seed))
    assert system.metrics.request_ntc == pytest.approx(
        total_cost(instance, scheme, WriteStrategy.WRITER_MULTICAST)
    )


@SETTINGS
@given(instances_with_schemes())
def test_strategies_coincide_without_writes(pair):
    instance, scheme = pair
    silent = instance.with_patterns(writes=np.zeros_like(instance.writes))
    s = ReplicationScheme.from_matrix(silent, scheme.matrix)
    costs = [
        total_cost(silent, s, strategy) for strategy in WriteStrategy
    ]
    assert costs[0] == pytest.approx(costs[1])
    assert costs[0] == pytest.approx(costs[2])


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_invalidation_sim_never_exceeds_broadcast_sim(pair, seed):
    # invalidation only defers shipments to reads that actually happen,
    # and a refetch from the primary costs what the broadcast leg to
    # that replica would have: per replica and per write interval it
    # pays at most once what broadcast pays exactly once
    instance, scheme = pair
    results = {}
    for strategy in (
        WriteStrategy.PRIMARY_BROADCAST,
        WriteStrategy.INVALIDATION,
    ):
        system = ReplicaSystem(instance, scheme, write_strategy=strategy)
        system.replay(generate_trace(instance, rng=seed))
        results[strategy] = system.metrics.request_ntc
    # non-replicator reads route the same way; only replica maintenance
    # differs, and lazy maintenance is never dearer on the same trace...
    # except a non-holder read served by a stale nearest replica pays the
    # refresh leg too, so allow that bounded overshoot.
    broadcast = results[WriteStrategy.PRIMARY_BROADCAST]
    invalidation = results[WriteStrategy.INVALIDATION]
    assert invalidation <= broadcast * 1.5 + 1e-6


@SETTINGS
@given(instances_with_schemes())
def test_failure_reports_consistent(pair):
    instance, scheme = pair
    for site in range(instance.num_sites):
        report = failure_report(instance, scheme, site)
        # an object is lost iff its only replica lived on the dead site
        for obj in range(instance.num_objects):
            sole = (
                scheme.replica_degree(obj) == 1
                and scheme.holds(site, obj)
            )
            assert (obj in report.lost_objects) == sole
        # promotions only happen for the failed site's primaries
        for obj, new_primary in report.promoted_primaries.items():
            assert int(instance.primaries[obj]) == site
            assert scheme.holds(new_primary, obj)
            assert new_primary != site
        # with the primary unchanged, losing replicas can only raise the
        # survivors' cost; when a primary is *promoted*, cost may even
        # drop (the new primary can sit closer to the writers — found by
        # hypothesis, a genuine property of the model)
        if not report.promoted_primaries:
            assert report.cost_increase >= -1e-6


@SETTINGS
@given(instances_with_schemes(), st.integers(1, 3))
def test_hardening_properties(pair, degree):
    instance, scheme = pair
    result = harden_scheme(instance, scheme, min_degree=degree)
    assert result.scheme.is_valid()
    # the "premium" may be negative: on read-heavy objects the cheapest
    # resilience replica also lowers NTC (replication's whole point)
    unmet = set(result.unmet_objects)
    for obj in range(instance.num_objects):
        if obj not in unmet:
            assert result.scheme.replica_degree(obj) >= degree
    # hardening only adds replicas
    assert np.all(result.scheme.matrix >= scheme.matrix)


@SETTINGS
@given(instances_with_schemes())
def test_served_units_conservation(pair):
    # every transferred unit is served by exactly one site, so total
    # served units equal total units in flight: reads by non-holders
    # plus write shipments plus broadcast copies
    instance, scheme = pair
    units = served_units(instance, scheme)
    expected = 0.0
    for obj in range(instance.num_objects):
        size = float(instance.sizes[obj])
        primary = int(instance.primaries[obj])
        holders = scheme.matrix[:, obj]
        degree = int(holders.sum())
        for site in range(instance.num_sites):
            if not holders[site]:
                expected += float(instance.reads[site, obj]) * size
            writes = float(instance.writes[site, obj])
            if writes:
                legs = 0
                if site != primary:
                    legs += 1  # shipment to the primary
                # broadcast to every replicator that is neither primary
                # nor the writer itself
                legs += degree - 1 - (
                    1 if holders[site] and site != primary else 0
                )
                expected += writes * size * legs
    assert units.sum() == pytest.approx(expected)
