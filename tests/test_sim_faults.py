"""The fault-injection subsystem: plans, transitions, and the injector."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ReplicationScheme
from repro.errors import FaultPlanError, SimulationError
from repro.sim import (
    CrashWindow,
    FaultInjector,
    FaultPlan,
    LinkDegradation,
    MessageFaultSpec,
    PartitionWindow,
    ReplicaSystem,
    Simulator,
    load_fault_plan,
)
from repro.sim.faults import CRASH, MessageFaults, ProtocolFaults, RECOVER
from repro.workload import generate_trace


def make_system(instance):
    scheme = ReplicationScheme.primary_only(instance)
    scheme.add_replica(2, 0)  # object 0 replicated at {0, 2}
    return ReplicaSystem(instance, scheme)


SAMPLE_PLAN = FaultPlan(
    crashes=(CrashWindow(site=1, start=0.2, end=0.7),),
    degradations=(
        LinkDegradation(src=0, dst=2, factor=4.0, start=0.1, end=0.9),
    ),
    partitions=(PartitionWindow(group=(2,), start=0.4, end=0.6),),
    messages=MessageFaultSpec(loss=0.1, duplicate=0.05, delay_mean=0.2),
    seed=9,
)


# --------------------------------------------------------------------- #
# plan construction and validation
# --------------------------------------------------------------------- #
class TestPlanValidation:
    def test_empty_plan_is_empty(self):
        assert FaultPlan.empty().is_empty
        assert not SAMPLE_PLAN.is_empty

    def test_message_spec_alone_makes_plan_non_empty(self):
        plan = FaultPlan(messages=MessageFaultSpec(loss=0.5))
        assert not plan.is_empty

    def test_negative_site_rejected(self):
        with pytest.raises(FaultPlanError):
            CrashWindow(site=-1)

    def test_inverted_window_rejected(self):
        with pytest.raises(FaultPlanError):
            CrashWindow(site=0, start=2.0, end=1.0)

    def test_zero_length_window_rejected(self):
        with pytest.raises(FaultPlanError):
            PartitionWindow(group=(0,), start=1.0, end=1.0)

    def test_self_loop_degradation_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkDegradation(src=1, dst=1, factor=2.0)

    def test_non_positive_factor_rejected(self):
        with pytest.raises(FaultPlanError):
            LinkDegradation(src=0, dst=1, factor=0.0)

    def test_probabilities_bounded(self):
        with pytest.raises(FaultPlanError):
            MessageFaultSpec(loss=1.5)
        with pytest.raises(FaultPlanError):
            MessageFaultSpec(duplicate=-0.1)
        with pytest.raises(FaultPlanError):
            MessageFaultSpec(delay_mean=-1.0)

    def test_duplicate_partition_members_rejected(self):
        with pytest.raises(FaultPlanError):
            PartitionWindow(group=(0, 0))

    def test_validate_checks_site_ranges(self):
        FaultPlan(crashes=(CrashWindow(site=2),)).validate(3)
        with pytest.raises(FaultPlanError):
            FaultPlan(crashes=(CrashWindow(site=3),)).validate(3)
        with pytest.raises(FaultPlanError):
            FaultPlan(
                degradations=(LinkDegradation(src=0, dst=5, factor=2.0),)
            ).validate(3)

    def test_partition_must_leave_someone_outside(self):
        plan = FaultPlan(partitions=(PartitionWindow(group=(0, 1, 2)),))
        with pytest.raises(FaultPlanError):
            plan.validate(3)


# --------------------------------------------------------------------- #
# serialisation
# --------------------------------------------------------------------- #
class TestSerialisation:
    def test_round_trip_through_dict(self):
        assert FaultPlan.from_dict(SAMPLE_PLAN.to_dict()) == SAMPLE_PLAN

    def test_round_trip_through_file(self, tmp_path):
        path = str(tmp_path / "plan.json")
        SAMPLE_PLAN.save(path)
        assert load_fault_plan(path) == SAMPLE_PLAN

    def test_missing_file(self, tmp_path):
        with pytest.raises(FaultPlanError, match="no such fault plan"):
            load_fault_plan(str(tmp_path / "nope.json"))

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(FaultPlanError, match="not valid JSON"):
            load_fault_plan(str(path))

    def test_unknown_keys_rejected(self):
        with pytest.raises(FaultPlanError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"crashs": []})

    def test_malformed_entries_rejected(self):
        with pytest.raises(FaultPlanError, match="malformed fault plan"):
            FaultPlan.from_dict({"crashes": [{"start": 0.0}]})  # no site

    def test_defaults_fill_in(self):
        plan = FaultPlan.from_dict({})
        assert plan == FaultPlan.empty()


# --------------------------------------------------------------------- #
# transition ordering
# --------------------------------------------------------------------- #
class TestTransitions:
    def test_sorted_by_time(self):
        times = [t.time for t in SAMPLE_PLAN.transitions()]
        assert times == sorted(times)

    def test_ends_precede_starts_at_equal_times(self):
        # back-to-back windows on the same site: the recovery at t=1
        # must apply before the second crash at t=1
        plan = FaultPlan(
            crashes=(
                CrashWindow(site=0, start=1.0, end=2.0),
                CrashWindow(site=0, start=0.0, end=1.0),
            )
        )
        at_one = [t for t in plan.transitions() if t.time == 1.0]
        assert [t.kind for t in at_one] == [RECOVER, CRASH]

    def test_open_ended_window_has_no_end_transition(self):
        plan = FaultPlan(crashes=(CrashWindow(site=0, start=0.5),))
        assert [t.kind for t in plan.transitions()] == [CRASH]

    def test_overlap_depth_keeps_site_down(self, manual_instance):
        # two overlapping crash windows: the site recovers only when the
        # *last* one closes
        plan = FaultPlan(
            crashes=(
                CrashWindow(site=1, start=0.0, end=2.0),
                CrashWindow(site=1, start=1.0, end=3.0),
            )
        )
        system = make_system(manual_instance)
        injector = FaultInjector(plan)
        injector.advance_to(2.5, system)
        assert system.failed_sites == frozenset({1})
        injector.drain(system)
        assert system.failed_sites == frozenset()
        # one observable crash + one observable recovery, not two of each
        assert system.metrics.fault_events == {
            "site_crash": 1,
            "site_recovery": 1,
        }


# --------------------------------------------------------------------- #
# the injector: pull mode, push mode, misuse
# --------------------------------------------------------------------- #
class TestInjector:
    def test_pull_applies_due_transitions(self, manual_instance):
        system = make_system(manual_instance)
        injector = FaultInjector(
            FaultPlan(crashes=(CrashWindow(site=1, start=0.5, end=0.8),))
        )
        assert injector.advance_to(0.4, system) == 0
        assert injector.advance_to(0.5, system) == 1  # <= semantics
        assert system.failed_sites == frozenset({1})
        assert injector.advance_to(0.9, system) == 1
        assert system.failed_sites == frozenset()
        assert injector.exhausted

    def test_push_and_pull_agree(self, manual_instance):
        trace = generate_trace(manual_instance, rng=5)

        pulled = make_system(manual_instance)
        FaultInjector(SAMPLE_PLAN)  # constructing one is side-effect free
        pulled.replay(trace, injector=FaultInjector(SAMPLE_PLAN))

        pushed = make_system(manual_instance)
        simulator = Simulator()
        injector = FaultInjector(SAMPLE_PLAN)
        scheduled = injector.install(simulator, pushed)
        assert scheduled == len(SAMPLE_PLAN.transitions())
        pushed.attach(simulator, trace)
        simulator.run()

        assert pulled.metrics.summary() == pushed.metrics.summary()

    def test_install_twice_rejected(self, manual_instance):
        system = make_system(manual_instance)
        injector = FaultInjector(SAMPLE_PLAN)
        injector.install(Simulator(), system)
        with pytest.raises(SimulationError):
            injector.install(Simulator(), system)

    def test_advance_after_install_rejected(self, manual_instance):
        system = make_system(manual_instance)
        injector = FaultInjector(SAMPLE_PLAN)
        injector.install(Simulator(), system)
        with pytest.raises(SimulationError):
            injector.advance_to(1.0, system)

    def test_plan_validated_against_system(self, manual_instance):
        system = make_system(manual_instance)  # 3 sites
        injector = FaultInjector(
            FaultPlan(crashes=(CrashWindow(site=7, start=0.0),))
        )
        with pytest.raises(FaultPlanError):
            injector.advance_to(1.0, system)

    def test_events_counted_in_metrics(self, manual_instance):
        system = make_system(manual_instance)
        injector = FaultInjector(SAMPLE_PLAN)
        injector.drain(system)
        assert injector.events_applied == 6
        assert system.metrics.fault_events == {
            "site_crash": 1,
            "site_recovery": 1,
            "link_degradation": 1,
            "link_restoration": 1,
            "partition": 1,
            "partition_heal": 1,
        }
        summary = system.metrics.summary()
        assert summary["faults[site_crash]"] == 1.0
        assert summary["faults[partition_heal]"] == 1.0


# --------------------------------------------------------------------- #
# link faults: degradation scales costs, restore is bit-exact
# --------------------------------------------------------------------- #
class TestLinkFaults:
    def test_degradation_scales_read_cost(self, manual_instance):
        plan = FaultPlan(
            degradations=(
                LinkDegradation(src=0, dst=1, factor=1.5, start=0.0, end=1.0),
            )
        )
        system = make_system(manual_instance)
        FaultInjector(plan).advance_to(0.0, system)
        system.handle_read(1, 0)  # nearest copy still site 0: 1.5 < C(1,2)=2
        assert system.metrics.total_ntc == pytest.approx(2.0 * 1.5)

    def test_degradation_reroutes_to_cheaper_replica(self, manual_instance):
        plan = FaultPlan(
            degradations=(
                LinkDegradation(src=0, dst=1, factor=3.0, start=0.0, end=1.0),
            )
        )
        system = make_system(manual_instance)
        FaultInjector(plan).advance_to(0.0, system)
        system.handle_read(1, 0)  # C(1,0) now 3 > C(1,2)=2: fetch from 2
        assert system.metrics.total_ntc == pytest.approx(2.0 * 2.0)

    def test_asymmetric_degradation_only_hits_one_direction(
        self, manual_instance
    ):
        plan = FaultPlan(
            degradations=(
                LinkDegradation(
                    src=1, dst=0, factor=5.0, start=0.0, symmetric=False
                ),
            )
        )
        system = make_system(manual_instance)
        FaultInjector(plan).advance_to(0.0, system)
        cost = system.effective_cost
        assert cost[1, 0] == pytest.approx(5.0)
        assert cost[0, 1] == pytest.approx(1.0)

    def test_restore_returns_pristine_cost_matrix(self, manual_instance):
        plan = FaultPlan(
            degradations=(
                LinkDegradation(src=0, dst=2, factor=1.7, start=0.0, end=1.0),
                LinkDegradation(src=1, dst=2, factor=2.3, start=0.5, end=2.0),
            )
        )
        system = make_system(manual_instance)
        base = system.effective_cost.copy()
        injector = FaultInjector(plan)
        injector.advance_to(0.6, system)
        assert not np.array_equal(system.effective_cost, base)
        injector.drain(system)
        assert np.array_equal(system.effective_cost, base)  # bit-exact
        assert not system.has_link_faults

    def test_partition_blocks_cross_cut_reads(self, manual_instance):
        plan = FaultPlan(
            partitions=(PartitionWindow(group=(2,), start=0.0, end=1.0),)
        )
        system = make_system(manual_instance)
        FaultInjector(plan).advance_to(0.0, system)
        # site 2 still serves object 0 from its own replica...
        assert system.handle_read(2, 0) == system.metrics.base_latency
        # ...but cannot reach object 1's only copy at site 1
        assert system.handle_read(2, 1) == 0.0
        assert system.metrics.rejected_reads == 1


# --------------------------------------------------------------------- #
# empty-plan identity
# --------------------------------------------------------------------- #
class TestEmptyPlanIdentity:
    def test_replay_identical_to_no_injector(self, manual_instance):
        trace = generate_trace(manual_instance, rng=11)
        plain = make_system(manual_instance)
        plain.replay(trace)
        injected = make_system(manual_instance)
        injected.replay(trace, injector=FaultInjector(FaultPlan.empty()))
        assert plain.metrics.summary() == injected.metrics.summary()

    def test_empty_plan_summary_has_no_fault_keys(self, manual_instance):
        trace = generate_trace(manual_instance, rng=11)
        system = make_system(manual_instance)
        system.replay(trace, injector=FaultInjector(FaultPlan.empty()))
        assert not any(
            key.startswith("faults[") for key in system.metrics.summary()
        )


# --------------------------------------------------------------------- #
# message faults and the protocol clock
# --------------------------------------------------------------------- #
class TestMessageFaults:
    def test_inactive_spec_draws_nothing(self):
        faults = MessageFaults(MessageFaultSpec(), seed=3)
        assert faults.judge() == (False, False, 0.0)
        assert faults.losses == 0 and faults.duplicates == 0

    def test_same_seed_same_decision_stream(self):
        spec = MessageFaultSpec(loss=0.3, duplicate=0.2, delay_mean=0.5)
        a = [MessageFaults(spec, seed=42).judge() for _ in range(1)]
        streams = []
        for _ in range(2):
            faults = MessageFaults(spec, seed=42)
            streams.append([faults.judge() for _ in range(200)])
        assert streams[0] == streams[1]
        assert a[0] == streams[0][0]

    def test_counters_track_decisions(self):
        faults = MessageFaults(MessageFaultSpec(loss=1.0), seed=0)
        for _ in range(5):
            faults.judge()
        assert faults.losses == 5

    def test_protocol_faults_round_clock(self):
        plan = FaultPlan(crashes=(CrashWindow(site=1, start=2.0, end=4.0),))
        clock = ProtocolFaults(plan, num_sites=3)
        assert clock.advance_to(1.0) == []
        assert clock.advance_to(2.0) == [(CRASH, 1)]
        assert clock.crashed == {1}
        assert clock.advance_to(3.0) == []
        assert clock.advance_to(10.0) == [(RECOVER, 1)]
        assert clock.crashed == set()


# --------------------------------------------------------------------- #
# non-finite degradation factors (scale-path bugfix sweep)
# --------------------------------------------------------------------- #
class TestSeveredLinks:
    def test_infinite_factor_is_a_valid_severed_link(self):
        # Regression: an infinite degradation (a severed link) used to be
        # rejected at construction even though the injector can model it.
        link = LinkDegradation(src=0, dst=1, factor=float("inf"))
        assert link.factor == float("inf")

    def test_nan_zero_and_negative_factors_rejected(self):
        for bad in (float("nan"), 0.0, -2.0):
            with pytest.raises(FaultPlanError):
                LinkDegradation(src=0, dst=1, factor=bad)

    def test_round_trip_preserves_infinite_factor(self, tmp_path):
        plan = FaultPlan(
            degradations=(
                LinkDegradation(
                    src=0, dst=2, factor=float("inf"), start=0.1, end=0.9
                ),
                LinkDegradation(src=1, dst=2, factor=3.0),
            ),
        )
        path = str(tmp_path / "severed.json")
        plan.save(path)
        assert load_fault_plan(path) == plan

    def test_saved_json_is_strictly_valid(self, tmp_path):
        # Regression: ``json.dump`` emits the bare token ``Infinity``,
        # which is not valid JSON; the plan must serialise a sentinel
        # that any strict parser accepts.
        import json

        plan = FaultPlan(
            degradations=(
                LinkDegradation(src=0, dst=1, factor=float("inf")),
            ),
        )
        path = str(tmp_path / "strict.json")
        plan.save(path)
        text = open(path).read()
        assert "Infinity" not in text
        json.loads(
            text,
            parse_constant=lambda token: pytest.fail(
                f"non-strict JSON token {token!r} in saved plan"
            ),
        )

    def test_severed_link_marks_unreachable(self, manual_instance):
        # Regression: an inf multiplier used to leave the link formally
        # reachable at infinite cost, so reads accounted inf transfer
        # cost instead of routing around the severed link.
        system = make_system(manual_instance)
        plan = FaultPlan(
            degradations=(
                LinkDegradation(
                    src=0, dst=1, factor=float("inf"), start=0.1, end=0.9
                ),
            ),
        )
        injector = FaultInjector(plan)
        injector.advance_to(0.5, system)
        assert not system._reachable(0, 1)
        assert not system._reachable(1, 0)  # symmetric by default
        assert system._reachable(0, 2)
        injector.drain(system)
        assert system._reachable(0, 1)
        assert not system.has_link_faults

    def test_finite_degradation_stays_reachable(self, manual_instance):
        system = make_system(manual_instance)
        plan = FaultPlan(
            degradations=(
                LinkDegradation(
                    src=0, dst=1, factor=9.0, start=0.1, end=0.9
                ),
            ),
        )
        FaultInjector(plan).advance_to(0.5, system)
        assert system._reachable(0, 1)
        assert system.effective_cost[0, 1] == pytest.approx(
            manual_instance.cost[0, 1] * 9.0
        )
