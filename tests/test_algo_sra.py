"""SRA: greedy behaviour, invariants, and paper-expected properties."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA, NoReplication
from repro.core import CostModel
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, generate_instance


def test_result_packaging(small_instance):
    result = SRA().run(small_instance)
    assert result.algorithm == "SRA"
    assert result.runtime_seconds >= 0.0
    assert result.d_prime > 0.0
    assert result.scheme.is_valid()
    assert "replicas_created" in result.stats


def test_never_violates_capacity():
    for seed in range(8):
        inst = generate_instance(
            WorkloadSpec(num_sites=10, num_objects=20, update_ratio=0.05,
                         capacity_ratio=0.1),
            rng=seed,
        )
        result = SRA().run(inst)
        assert result.scheme.is_valid()


def test_never_worse_than_no_replication(small_instance):
    model = CostModel(small_instance)
    sra = SRA().run(small_instance, model)
    base = NoReplication().run(small_instance, model)
    assert sra.total_cost <= base.total_cost + 1e-9
    assert sra.savings_percent >= 0.0


def test_deterministic_round_robin(small_instance):
    a = SRA().run(small_instance)
    b = SRA().run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_random_order_uses_rng(medium_instance):
    a = SRA(site_order="random", rng=1).run(medium_instance)
    b = SRA(site_order="random", rng=2).run(medium_instance)
    # different orders almost surely give different schemes on a medium
    # instance (but both remain valid)
    assert a.scheme.is_valid() and b.scheme.is_valid()
    assert not np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_random_order_deterministic_per_seed(small_instance):
    a = SRA(site_order="random", rng=7).run(small_instance)
    b = SRA(site_order="random", rng=7).run(small_instance)
    assert np.array_equal(a.scheme.matrix, b.scheme.matrix)


def test_invalid_site_order():
    with pytest.raises(ValidationError):
        SRA(site_order="zigzag")


def test_no_replication_when_writes_dominate(manual_instance):
    # make every object overwhelmingly update-heavy
    writes = manual_instance.writes + 1000.0
    heavy = manual_instance.with_patterns(writes=writes)
    result = SRA().run(heavy)
    assert result.extra_replicas == 0
    assert result.savings_percent == pytest.approx(0.0)


def test_full_replication_when_read_only_and_roomy():
    # no writes + abundant capacity -> replicate everything everywhere
    inst = generate_instance(
        WorkloadSpec(num_sites=5, num_objects=6, update_ratio=0.0,
                     capacity_ratio=3.0),
        rng=11,
    )
    result = SRA().run(inst)
    assert result.extra_replicas == (
        inst.num_sites * inst.num_objects - inst.num_objects
    )
    # every read is now local: 100% of the read cost saved
    assert result.savings_percent == pytest.approx(100.0)


def test_greedy_step_chooses_best_benefit(manual_instance):
    # On the manual instance, the single most beneficial replica is
    # object 0 at site 2 (benefit 15 per unit).  SRA must create it.
    result = SRA().run(manual_instance)
    assert result.scheme.holds(2, 0)


def test_savings_decrease_with_update_ratio():
    base_spec = WorkloadSpec(
        num_sites=12, num_objects=25, capacity_ratio=0.15, update_ratio=0.01
    )
    savings = []
    for ratio in (0.01, 0.1, 0.3):
        inst = generate_instance(
            base_spec.with_overrides(update_ratio=ratio), rng=21
        )
        savings.append(SRA().run(inst).savings_percent)
    assert savings[0] > savings[1] > savings[2] - 1e-9


def test_stats_counters_consistent(small_instance):
    result = SRA().run(small_instance)
    assert result.stats["replicas_created"] == result.extra_replicas
    assert result.stats["site_visits"] >= result.stats["replication_steps"]
