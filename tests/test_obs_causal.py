"""The happens-before DAG: construction, remap invariance, attribution."""

from __future__ import annotations

import pytest

from repro.distributed import DistributedSRA
from repro.distributed.monitor_protocol import MonitorProtocol
from repro.experiments.parallel import ParallelRunner
from repro.obs.causal import (
    RECV_EVENT,
    SEND_EVENT,
    build_dag,
    causal_sections,
    dsra_rounds,
    message_flow,
    monitor_rounds,
)
from repro.obs.holder import observing
from repro.sim import CrashWindow, FaultPlan, LinkDegradation
from repro.utils.tracing import Tracer
from repro.workload import WorkloadSpec, generate_instance

SPEC = WorkloadSpec(
    num_sites=8, num_objects=12, update_ratio=0.05, capacity_ratio=0.15
)


@pytest.fixture(scope="module")
def instance():
    return generate_instance(SPEC, rng=77)


@pytest.fixture(scope="module")
def dsra_trace(instance):
    """Records and a picklable snapshot of one traced DSRA run."""
    tracer = Tracer()
    with observing(tracer=tracer):
        DistributedSRA().run(instance)
        return tracer.records(), tracer.snapshot()


# --------------------------------------------------------------------- #
# DAG construction and validation
# --------------------------------------------------------------------- #
def test_dsra_dag_is_well_formed(dsra_trace):
    records, _snapshot = dsra_trace
    dag = build_dag(records)
    assert dag.nodes
    assert dag.validate() == []
    labels = {label for _a, _b, label in dag.edges}
    # all three happens-before edge families are exercised
    assert {"msg", "site", "scope"} <= labels
    # every message was delivered: sends and receives pair up exactly
    sends = sum(1 for n in dag.nodes if n.name == SEND_EVENT)
    recvs = sum(1 for n in dag.nodes if n.name == RECV_EVENT)
    msg_edges = sum(1 for _a, _b, label in dag.edges if label == "msg")
    assert sends == recvs == msg_edges
    assert sends > 0


def test_edges_respect_event_order(dsra_trace):
    records, _snapshot = dsra_trace
    dag = build_dag(records)
    for src, dst, _label in dag.edges:
        assert src < dst  # events are appended in causal order


def test_unmatched_receive_detected():
    records = [
        {
            "type": "event",
            "name": RECV_EVENT,
            "parent": None,
            "time": 0.0,
            "attrs": {"src": 0, "dst": 1, "kind": "STATS",
                      "seq": 0, "clock": 2, "flow": "0->1#0",
                      "flow_phase": "f"},
        }
    ]
    dag = build_dag(records)
    assert len(dag.unmatched_receives) == 1
    assert any("matching send" in p for p in dag.validate())


def test_lost_message_is_send_without_receive():
    import numpy as np

    from repro.distributed.messages import Message, MessageKind, MessageLog

    tracer = Tracer()
    with observing(tracer=tracer):
        log = MessageLog(np.ones((2, 2)))
        log.record(
            Message(sender=0, receiver=1, kind=MessageKind.STATS,
                    size_units=1.0, payload=None),
            lost=True,
        )
        dag = build_dag(tracer.records())
    assert [n.name for n in dag.nodes] == [SEND_EVENT]
    assert dag.nodes[0].attrs["lost"] is True
    assert dag.validate() == []  # a lost send is legal causal history


# --------------------------------------------------------------------- #
# remap invariance: canonical forms survive worker merges
# --------------------------------------------------------------------- #
def test_canonical_dag_invariant_under_snapshot_merge(dsra_trace):
    records, snapshot = dsra_trace
    direct = build_dag(records).canonical()
    parent = Tracer()
    # pre-existing records force the merge to remap every shipped id
    with parent.span("unrelated.warmup"):
        pass
    parent.merge_snapshot(snapshot)
    merged = build_dag(parent.records()).canonical()
    assert merged == direct


def _chaos_plan():
    return FaultPlan(
        crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
        degradations=(
            LinkDegradation(src=0, dst=2, factor=4.0, start=0.1, end=0.9),
        ),
        seed=9,
    )


def test_chaos_replay_dag_identical_serial_vs_parallel():
    canonicals = []
    for workers in (1, 2):
        tracer = Tracer()
        with observing(tracer=tracer):
            ParallelRunner(max_workers=workers).chaos_replay_runs(
                SPEC, _chaos_plan(), instances=2, seed=47
            )
            canonicals.append(build_dag(tracer.records()).canonical())
    serial, parallel = canonicals
    assert serial == parallel
    assert serial["nodes"]  # fault events actually made it into the DAG


# --------------------------------------------------------------------- #
# critical path
# --------------------------------------------------------------------- #
def test_critical_path_follows_message_hops(dsra_trace):
    records, _snapshot = dsra_trace
    dag = build_dag(records)
    path = dag.critical_path()
    assert path
    hops = [n for n in path if n.name in (SEND_EVENT, RECV_EVENT)]
    assert hops  # the longest chain rides the token, not local order
    indices = [n.index for n in path]
    assert indices == sorted(indices)  # consistent with causal order


def test_critical_path_empty_dag():
    dag = build_dag([])
    assert dag.critical_path() == []
    assert dag.validate() == []


# --------------------------------------------------------------------- #
# per-round attribution
# --------------------------------------------------------------------- #
def test_dsra_round_attribution(dsra_trace, instance):
    records, _snapshot = dsra_trace
    rows = dsra_rounds(records)
    assert rows
    # token rounds are 1-indexed on the wire
    assert [row["round"] for row in rows] == list(range(1, len(rows) + 1))
    for row in rows:
        assert row["wall_seconds"] >= row["compute_seconds"] >= 0.0
        assert row["wall_seconds"] >= row["messaging_seconds"] >= 0.0
        assert row["retries"] == 0  # unhardened run simulates no retries
    assert sum(row["messages"] for row in rows) > 0


def test_monitor_round_attribution(instance):
    tracer = Tracer()
    with observing(tracer=tracer):
        protocol = MonitorProtocol(instance, monitor_site=0)
        protocol.collect(instance.reads, instance.writes, mode="full")
        protocol.collect(instance.reads, instance.writes, mode="full")
        rows = monitor_rounds(tracer.records())
    assert [row["round"] for row in rows] == [0, 1]
    assert all(row["mode"] == "full" for row in rows)
    assert all(row["messages"] == instance.num_sites - 1 for row in rows)
    assert all(row["retransmissions"] == 0 for row in rows)
    assert all(row["missing"] == 0 for row in rows)


def test_message_flow_statistics(dsra_trace, instance):
    records, _snapshot = dsra_trace
    flow = message_flow(records)
    assert flow["total"] > 0
    assert flow["lost"] == 0
    # one stats broadcast per site opens the protocol
    assert flow["by_kind"]["stats"] == instance.num_sites
    assert sum(flow["by_pair"].values()) == flow["total"]


# --------------------------------------------------------------------- #
# the `repro trace --causal` report body
# --------------------------------------------------------------------- #
def test_causal_sections_report(dsra_trace):
    records, _snapshot = dsra_trace
    report = causal_sections(records)
    assert "acyclic" in report
    assert "0 unmatched receives" in report
    assert "message flow:" in report
    assert "DSRA token rounds" in report
    assert "critical path:" in report
    assert "VIOLATION" not in report


def test_causal_sections_accepts_trace_path(dsra_trace, tmp_path):
    _records, snapshot = dsra_trace
    tracer = Tracer()
    tracer.merge_snapshot(snapshot)
    path = str(tmp_path / "trace.jsonl")
    tracer.write(path)
    assert "DSRA token rounds" in causal_sections(path)


def test_causal_sections_empty_trace_hint():
    report = causal_sections([])
    assert "no message events" in report
