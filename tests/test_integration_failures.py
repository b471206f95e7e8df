"""Integration: failure + recovery during live traffic, with hardening.

Crosses the availability analytics with the simulator's failure
injection: the analytic failure report must agree with what the
simulator actually observes when the site goes down mid-trace, and a
hardened scheme must keep every object readable through any single
failure.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.core import CostModel
from repro.core.availability import failure_report, harden_scheme
from repro.sim import ReplicaSystem
from repro.workload import WorkloadSpec, generate_instance, generate_trace
from repro.workload.trace import READ


@pytest.fixture(scope="module")
def setting():
    instance = generate_instance(
        WorkloadSpec(num_sites=9, num_objects=14, update_ratio=0.2,
                     capacity_ratio=0.3),
        rng=210,
    )
    scheme = SRA().run(instance).scheme
    return instance, scheme


def test_simulator_rejections_match_analytic_loss(setting):
    instance, scheme = setting
    trace = generate_trace(instance, rng=1)
    for failed in range(instance.num_sites):
        report = failure_report(instance, scheme, failed)
        lost = set(report.lost_objects)
        system = ReplicaSystem(instance, scheme)
        system.fail_site(failed)
        system.replay(trace)
        # every read of a lost object from an alive site is rejected
        expected_rejected_reads = sum(
            1
            for req in trace
            if req.kind == READ
            and req.site != failed
            and req.obj in lost
        )
        # reads from the failed site itself are also rejected
        expected_rejected_reads += sum(
            1 for req in trace
            if req.kind == READ and req.site == failed
        )
        assert system.metrics.rejected_reads == expected_rejected_reads


def test_hardened_scheme_keeps_serving(setting):
    instance, scheme = setting
    hardened = harden_scheme(instance, scheme, min_degree=2)
    if hardened.unmet_objects:
        pytest.skip("fixture too tight to harden fully")
    trace = generate_trace(instance, rng=2)
    for failed in range(instance.num_sites):
        system = ReplicaSystem(instance, hardened.scheme)
        system.fail_site(failed)
        system.replay(trace)
        # only the failed site's own requests are rejected
        own = sum(1 for req in trace if req.site == failed)
        primary_writes_lost = sum(
            1
            for req in trace
            if req.kind != READ
            and req.site != failed
            and int(instance.primaries[req.obj]) == failed
        )
        rejected = (
            system.metrics.rejected_reads + system.metrics.rejected_writes
        )
        assert rejected == own + primary_writes_lost


def test_recovery_restores_costs(setting):
    instance, scheme = setting
    model = CostModel(instance)
    trace = generate_trace(instance, rng=3)
    system = ReplicaSystem(instance, scheme)
    busiest = int(np.argmax(scheme.matrix.sum(axis=1)))
    system.fail_site(busiest)
    system.recover_site(busiest)
    # after recovery the system serves a full trace at the analytic cost
    before = system.metrics.request_ntc
    system.replay(trace)
    measured = system.metrics.request_ntc - before
    assert measured == pytest.approx(model.total_cost(scheme))
