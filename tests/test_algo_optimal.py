"""Exact branch-and-bound solver (quality oracle)."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro.algorithms import SRA, RandomReplication, solve_optimal
from repro.core import CostModel
from repro.errors import ValidationError
from repro.workload import WorkloadSpec, generate_instance


def brute_force_cost(instance, model):
    """Fully exhaustive minimum over ALL valid schemes (very tiny only)."""
    m, n = instance.num_sites, instance.num_objects
    best = np.inf
    per_object_columns = []
    for k in range(n):
        primary = int(instance.primaries[k])
        others = [i for i in range(m) if i != primary]
        cols = []
        for r in range(len(others) + 1):
            for extras in itertools.combinations(others, r):
                col = np.zeros(m, dtype=bool)
                col[primary] = True
                col[list(extras)] = True
                cols.append(col)
        per_object_columns.append(cols)
    for combo in itertools.product(*per_object_columns):
        matrix = np.stack(combo, axis=1)
        loads = matrix.astype(float) @ instance.sizes
        if np.any(loads > instance.capacities + 1e-9):
            continue
        best = min(best, model.total_cost(matrix, cached=False))
    return best


def test_matches_brute_force():
    inst = generate_instance(
        WorkloadSpec(num_sites=3, num_objects=3, update_ratio=0.1,
                     capacity_ratio=0.5),
        rng=41,
    )
    model = CostModel(inst)
    result = solve_optimal(inst, model)
    assert result.total_cost == pytest.approx(brute_force_cost(inst, model))


def test_never_worse_than_heuristics(tiny_instance):
    model = CostModel(tiny_instance)
    optimal = solve_optimal(tiny_instance, model)
    for heuristic in (SRA(), RandomReplication(rng=1)):
        result = heuristic.run(tiny_instance, model)
        assert optimal.total_cost <= result.total_cost + 1e-9


def test_scheme_is_valid(tiny_instance):
    result = solve_optimal(tiny_instance)
    assert result.scheme.is_valid()
    assert result.stats["nodes_explored"] > 0


def test_size_guard():
    inst = generate_instance(
        WorkloadSpec(num_sites=12, num_objects=20), rng=42
    )
    with pytest.raises(ValidationError):
        solve_optimal(inst)


def test_read_only_roomy_instance_fully_replicates():
    inst = generate_instance(
        WorkloadSpec(num_sites=4, num_objects=4, update_ratio=0.0,
                     capacity_ratio=2.0),
        rng=43,
    )
    result = solve_optimal(inst)
    assert result.savings_percent == pytest.approx(100.0)


def test_write_heavy_instance_keeps_primaries_only(manual_instance):
    heavy = manual_instance.with_patterns(
        writes=manual_instance.writes + 500.0
    )
    result = solve_optimal(heavy)
    assert result.extra_replicas == 0
