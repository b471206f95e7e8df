"""The per-request protocol and its equivalence with the analytic model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.core import CostModel, ReplicationScheme
from repro.errors import ValidationError
from repro.sim import ReplicaSystem, Simulator
from repro.sim.metrics import UPDATE_BROADCAST
from repro.workload import WorkloadSpec, generate_instance, generate_trace


@pytest.fixture(scope="module")
def setup():
    inst = generate_instance(
        WorkloadSpec(num_sites=8, num_objects=12, update_ratio=0.08,
                     capacity_ratio=0.15),
        rng=110,
    )
    scheme = SRA().run(inst).scheme
    return inst, scheme


def test_replay_equals_analytic_cost(setup):
    inst, scheme = setup
    model = CostModel(inst)
    trace = generate_trace(inst, rng=1)
    system = ReplicaSystem(inst, scheme)
    system.replay(trace)
    assert system.metrics.request_ntc == pytest.approx(
        model.total_cost(scheme)
    )


def test_event_driven_equals_replay(setup):
    inst, scheme = setup
    trace = generate_trace(inst, rng=2)
    direct = ReplicaSystem(inst, scheme)
    direct.replay(trace)
    event_driven = ReplicaSystem(inst, scheme)
    sim = Simulator()
    event_driven.attach(sim, trace)
    sim.run()
    assert sim.events_processed == len(trace)
    assert event_driven.metrics.request_ntc == pytest.approx(
        direct.metrics.request_ntc
    )


def test_primary_only_equals_d_prime(setup):
    inst, _ = setup
    model = CostModel(inst)
    scheme = ReplicationScheme.primary_only(inst)
    system = ReplicaSystem(inst, scheme)
    system.replay(generate_trace(inst, rng=3))
    assert system.metrics.request_ntc == pytest.approx(model.d_prime())


def test_local_read_is_free(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    system = ReplicaSystem(manual_instance, scheme)
    latency = system.handle_read(0, 0)  # site 0 is object 0's primary
    assert latency == 0.0
    assert system.metrics.local_reads == 1
    assert system.metrics.total_ntc == 0.0


def test_remote_read_cost_by_hand(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    system = ReplicaSystem(manual_instance, scheme)
    system.handle_read(2, 0)  # size 2 * C(2,0)=3 -> 6
    assert system.metrics.total_ntc == pytest.approx(6.0)


def test_write_broadcast_by_hand(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(manual_instance, scheme)
    # write from site 1 to object 0: ship to primary 0 (3 * 2 ... wait,
    # size 2 * C(1,0)=1 -> 2) then broadcast to replicator 2 (2 * 3 -> 6)
    system.handle_write(1, 0)
    assert system.metrics.total_ntc == pytest.approx(2.0 + 6.0)
    assert system.metrics.ntc_by_cause[UPDATE_BROADCAST] == pytest.approx(6.0)


def test_writer_not_rebroadcast_to_itself(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    scheme.add_replica(2, 0)
    system = ReplicaSystem(manual_instance, scheme)
    # the writer IS the replicator: only the primary shipment is paid
    system.handle_write(2, 0)
    assert system.metrics.ntc_by_cause[UPDATE_BROADCAST] == 0.0


def test_update_fraction(manual_instance):
    scheme = ReplicationScheme.primary_only(manual_instance)
    system = ReplicaSystem(manual_instance, scheme, update_fraction=0.5)
    system.handle_write(2, 1)  # size 3 * 0.5 * C(2,1)=2 -> 3
    assert system.metrics.total_ntc == pytest.approx(3.0)
    with pytest.raises(ValidationError):
        ReplicaSystem(manual_instance, scheme, update_fraction=2.0)


def test_realize_scheme_migration(setup):
    inst, scheme = setup
    system = ReplicaSystem(inst, ReplicationScheme.primary_only(inst))
    migrations = system.realize_scheme(scheme)
    assert migrations == scheme.extra_replicas()
    assert np.array_equal(system.scheme.matrix, scheme.matrix)
    assert system.metrics.ntc_by_cause["migration"] > 0
    # migration traffic does not pollute the request NTC
    assert system.metrics.request_ntc == 0.0


def test_realize_scheme_drops(setup):
    inst, scheme = setup
    system = ReplicaSystem(inst, scheme)
    primary_only = ReplicationScheme.primary_only(inst)
    migrations = system.realize_scheme(primary_only)
    assert migrations == 0  # drops are free
    assert np.array_equal(system.scheme.matrix, primary_only.matrix)


def test_scheme_copied_at_construction(setup):
    inst, scheme = setup
    system = ReplicaSystem(inst, scheme)
    assert system.scheme is not scheme
