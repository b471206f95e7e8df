"""The Section 6.1 workload generator."""

from __future__ import annotations

import numpy as np

from repro.network.shortest_paths import is_metric
from repro.workload import WorkloadSpec, generate_instance, generate_instances


SPEC = WorkloadSpec(
    num_sites=12, num_objects=30, update_ratio=0.05, capacity_ratio=0.15
)


def test_shapes_and_types():
    inst = generate_instance(SPEC, rng=1)
    assert inst.num_sites == 12
    assert inst.num_objects == 30
    assert inst.reads.shape == (12, 30)
    assert inst.writes.shape == (12, 30)
    assert inst.cost.shape == (12, 12)


def test_reads_within_paper_bounds():
    inst = generate_instance(SPEC, rng=2)
    assert np.all(inst.reads >= SPEC.read_low)
    assert np.all(inst.reads <= SPEC.read_high)


def test_cost_matrix_is_metric():
    inst = generate_instance(SPEC, rng=3)
    assert is_metric(inst.cost)


def test_sizes_uniform_with_requested_mean():
    spec = SPEC.with_overrides(num_objects=4000)
    inst = generate_instance(spec, rng=4)
    assert np.all(inst.sizes >= 1)
    assert np.all(inst.sizes <= 2 * spec.size_mean - 1)
    assert abs(float(inst.sizes.mean()) - spec.size_mean) < 1.5


def test_update_ratio_honoured_in_expectation():
    # Per object: E[updates] = U * total_reads (jitter is mean-preserving).
    spec = SPEC.with_overrides(num_objects=400, update_ratio=0.10)
    inst = generate_instance(spec, rng=5)
    ratio = inst.writes.sum() / inst.reads.sum()
    assert 0.07 < ratio < 0.13


def test_update_jitter_within_bounds():
    inst = generate_instance(SPEC, rng=6)
    total_reads = inst.reads.sum(axis=0)
    total_writes = inst.writes.sum(axis=0)
    base = SPEC.update_ratio * total_reads
    # allow rounding slack of 1 on each side
    assert np.all(total_writes >= np.floor(base / 2.0) - 1)
    assert np.all(total_writes <= np.ceil(3.0 * base / 2.0) + 1)


def test_zero_update_ratio_means_no_writes():
    inst = generate_instance(SPEC.with_overrides(update_ratio=0.0), rng=7)
    assert inst.writes.sum() == 0


def test_capacities_within_bounds():
    inst = generate_instance(SPEC, rng=8)
    total = float(inst.sizes.sum())
    low = SPEC.capacity_ratio * total / 2.0
    high = 3.0 * SPEC.capacity_ratio * total / 2.0
    # primaries may have inflated a capacity, so only check the lower bound
    # strictly and the upper bound loosely.
    assert np.all(inst.capacities >= np.floor(low))
    assert np.all(inst.capacities <= np.ceil(high) + inst.sizes.max())


def test_primary_copies_fit():
    # The DRPInstance constructor would raise otherwise, but assert the
    # invariant explicitly across several seeds.
    for seed in range(10):
        inst = generate_instance(SPEC, rng=seed)
        assert np.all(inst.primary_load() <= inst.capacities)


def test_determinism():
    a = generate_instance(SPEC, rng=42)
    b = generate_instance(SPEC, rng=42)
    assert a == b


def test_different_seeds_differ():
    a = generate_instance(SPEC, rng=1)
    b = generate_instance(SPEC, rng=2)
    assert a != b


def test_generate_instances_independent():
    instances = generate_instances(SPEC, 3, rng=9)
    assert len(instances) == 3
    assert instances[0] != instances[1]
    again = generate_instances(SPEC, 3, rng=9)
    assert instances == again


def test_tight_capacity_still_feasible():
    # Tiny capacity ratio forces the primary-assignment repair path.
    spec = WorkloadSpec(
        num_sites=4, num_objects=40, update_ratio=0.05, capacity_ratio=0.02
    )
    inst = generate_instance(spec, rng=10)
    assert np.all(inst.primary_load() <= inst.capacities)
