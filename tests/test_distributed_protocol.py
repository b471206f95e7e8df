"""Distributed SRA: equivalence with the centralised algorithm and
message-complexity accounting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.distributed import DistributedSRA, MessageKind, RetryPolicy
from repro.distributed.node import LeaderNode, SiteNode
from repro.errors import (
    ProtocolError,
    RetryExhaustedError,
    ValidationError,
)
from repro.sim.faults import CrashWindow, FaultPlan, MessageFaultSpec
from repro.workload import WorkloadSpec, generate_instance


@pytest.mark.parametrize("seed", [1, 7, 23, 42])
def test_matches_centralised_sra(seed):
    inst = generate_instance(
        WorkloadSpec(num_sites=10, num_objects=18, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=seed,
    )
    central = SRA().run(inst)
    distributed = DistributedSRA().run(inst)
    assert np.array_equal(
        central.scheme.matrix, distributed.scheme.matrix
    )


def test_message_accounting(small_instance):
    report = DistributedSRA().run(small_instance)
    log = report.log
    m = small_instance.num_sites
    # one STATS per site
    assert log.count_by_kind[MessageKind.STATS] == m
    # one TOKEN and one TOKEN_RETURN per round
    assert log.count_by_kind[MessageKind.TOKEN] == report.token_rounds
    assert (
        log.count_by_kind[MessageKind.TOKEN_RETURN] == report.token_rounds
    )
    # each replication broadcasts to M-1 sites and ships one payload
    assert log.count_by_kind[MessageKind.REPLICATE] == (
        report.replications * (m - 1)
    )
    assert (
        log.count_by_kind[MessageKind.OBJECT_TRANSFER]
        == report.replications
    )


def test_replication_count_matches_scheme(small_instance):
    report = DistributedSRA().run(small_instance)
    assert report.replications == report.scheme.extra_replicas()


def test_data_cost_accounts_payload_sizes(small_instance):
    report = DistributedSRA().run(small_instance)
    assert report.log.data_cost >= 0.0
    if report.replications:
        assert report.log.data_cost > 0.0
    # control traffic is free in cost units (size 0), just counted
    assert report.log.control_cost == 0.0


def test_leader_site_configurable(small_instance):
    report = DistributedSRA(leader_site=2).run(small_instance)
    stats_msgs = [
        msg
        for msg in report.log.messages
        if msg.kind is MessageKind.STATS
    ]
    assert all(msg.sender == 2 for msg in stats_msgs)


def test_invalid_leader_rejected(small_instance):
    with pytest.raises(ValidationError):
        DistributedSRA(leader_site=99).run(small_instance)


def test_round_limit_guards_termination(small_instance):
    with pytest.raises(ProtocolError):
        DistributedSRA(max_rounds=1).run(small_instance)


def test_message_volume_grows_with_sites():
    totals = [
        DistributedSRA().run(
            generate_instance(
                WorkloadSpec(num_sites=sites, num_objects=15,
                             update_ratio=0.05, capacity_ratio=0.15),
                rng=202,
            )
        ).log.total_messages
        for sites in (6, 10)
    ]
    assert totals[-1] > totals[0]


def test_summary_keys(small_instance):
    report = DistributedSRA().run(small_instance)
    summary = report.summary()
    assert "token_rounds" in summary
    assert "replications" in summary
    assert "total_messages" in summary


class TestHardenedProtocol:
    def test_none_plan_is_byte_identical_to_default(self, small_instance):
        baseline = DistributedSRA().run(small_instance)
        explicit = DistributedSRA(fault_plan=None).run(small_instance)
        assert np.array_equal(
            baseline.scheme.matrix, explicit.scheme.matrix
        )
        assert [
            (m.kind, m.sender, m.receiver, m.size_units)
            for m in baseline.log.messages
        ] == [
            (m.kind, m.sender, m.receiver, m.size_units)
            for m in explicit.log.messages
        ]
        assert baseline.summary() == explicit.summary()

    def test_empty_plan_matches_none_plan(self, small_instance):
        baseline = DistributedSRA().run(small_instance)
        hardened = DistributedSRA(fault_plan=FaultPlan.empty()).run(
            small_instance
        )
        assert np.array_equal(
            baseline.scheme.matrix, hardened.scheme.matrix
        )
        assert hardened.elections == 0
        assert hardened.retries == 0

    def test_leader_crash_triggers_exactly_one_election(
        self, small_instance
    ):
        plan = FaultPlan(crashes=(CrashWindow(site=0, start=2.0),))
        report = DistributedSRA(leader_site=0, fault_plan=plan).run(
            small_instance
        )
        assert report.elections == 1
        assert report.leader_history == [0, 1]  # lowest alive site wins
        election_msgs = [
            m
            for m in report.log.messages
            if m.kind is MessageKind.ELECTION
        ]
        assert election_msgs
        assert all(m.sender == 1 for m in election_msgs)

    def test_retry_gives_up_with_typed_error(self, small_instance):
        plan = FaultPlan(messages=MessageFaultSpec(loss=1.0), seed=3)
        algo = DistributedSRA(
            fault_plan=plan,
            retry=RetryPolicy(max_attempts=4, on_exhaust="raise"),
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            algo.run(small_instance)
        assert excinfo.value.attempts == 4

    def test_retry_suspects_unresponsive_sites_by_default(
        self, small_instance
    ):
        plan = FaultPlan(messages=MessageFaultSpec(loss=1.0), seed=3)
        report = DistributedSRA(
            fault_plan=plan, retry=RetryPolicy(max_attempts=2)
        ).run(small_instance)
        assert report.suspected_sites  # every peer drops off eventually
        assert report.retries > 0
        assert report.total_backoff > 0.0

    def test_lossy_run_is_deterministic(self, small_instance):
        plan = FaultPlan(
            messages=MessageFaultSpec(loss=0.2, duplicate=0.1), seed=7
        )
        reports = [
            DistributedSRA(fault_plan=plan).run(small_instance)
            for _ in range(2)
        ]
        assert reports[0].summary() == reports[1].summary()
        assert np.array_equal(
            reports[0].scheme.matrix, reports[1].scheme.matrix
        )

    def test_crash_and_recovery_resyncs_site(self, small_instance):
        # site 3 is down for rounds [2, 6) and then rejoins
        plan = FaultPlan(crashes=(CrashWindow(site=3, start=2.0, end=6.0),))
        report = DistributedSRA(fault_plan=plan).run(small_instance)
        central = SRA().run(small_instance)
        # the run still terminates with a capacity-feasible scheme and
        # no more replicas than the undisturbed greedy places
        assert report.scheme.extra_replicas() <= central.scheme.extra_replicas()
        resync_stats = [
            m
            for m in report.log.messages
            if m.kind is MessageKind.STATS and m.receiver == 3
        ]
        assert len(resync_stats) >= 2  # initial distribution + resync


class TestNodes:
    def test_site_node_requires_stats(self, small_instance):
        node = SiteNode(0, small_instance)
        with pytest.raises(ProtocolError):
            node.benefit(0)

    def test_leader_round_robin(self):
        leader = LeaderNode(0, 3)
        order = []
        for _ in range(6):
            order.append(leader.next_site())
            leader.advance()
        assert order == [0, 1, 2, 0, 1, 2]

    def test_leader_retire(self):
        leader = LeaderNode(0, 3)
        leader.retire(1)
        assert leader.active == [0, 2]
        leader.retire(0)
        leader.retire(2)
        assert leader.done
        assert leader.next_site() is None
