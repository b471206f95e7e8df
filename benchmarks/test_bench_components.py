"""Micro-benchmarks of the library's hot paths.

Unlike the figure benchmarks (one-shot sweeps), these use
pytest-benchmark's normal multi-round timing: they are real
micro-benchmarks of the cost model, SRA, the GA operators and the
shortest-path routines, useful for tracking performance regressions.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import SRA
from repro.algorithms.gra.operators import mutate, two_point_crossover
from repro.core import CostModel
from repro.network.generators import random_mesh_topology
from repro.network.shortest_paths import all_pairs_dijkstra, floyd_warshall
from repro.workload import WorkloadSpec, generate_instance, generate_trace
from repro.sim import ReplicaSystem


@pytest.fixture(scope="module")
def instance():
    return generate_instance(
        WorkloadSpec(num_sites=30, num_objects=60, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=77,
    )


@pytest.fixture(scope="module")
def scheme(instance):
    return SRA().run(instance).scheme


def test_bench_cost_model_total_cost(benchmark, instance, scheme):
    model = CostModel(instance, cache_size=0)  # honest, uncached timing
    result = benchmark(model.total_cost, scheme)
    assert result > 0


def test_bench_cost_model_cached(benchmark, instance, scheme):
    model = CostModel(instance)
    model.total_cost(scheme)  # warm the per-column cache
    result = benchmark(model.total_cost, scheme)
    assert result > 0


def test_bench_sra(benchmark, instance):
    result = benchmark(lambda: SRA().run(instance))
    assert result.savings_percent > 0


def test_bench_crossover(benchmark, instance, scheme):
    rng = np.random.default_rng(3)
    other = SRA(site_order="random", rng=1).run(instance).scheme
    a, b = scheme.matrix.copy(), other.matrix.copy()
    benchmark(two_point_crossover, instance, a, b, rng)


def test_bench_mutation(benchmark, instance, scheme):
    rng = np.random.default_rng(4)
    matrix = scheme.matrix.copy()
    benchmark(mutate, instance, matrix, 0.01, rng)


def test_bench_floyd_warshall(benchmark):
    adjacency = random_mesh_topology(60, rng=5).adjacency_matrix()
    benchmark(floyd_warshall, adjacency)


def test_bench_all_pairs_dijkstra(benchmark):
    adjacency = random_mesh_topology(60, rng=5).adjacency_matrix()
    benchmark(all_pairs_dijkstra, adjacency)


def test_bench_trace_replay(benchmark, instance, scheme):
    trace = generate_trace(instance, rng=9)

    def replay():
        system = ReplicaSystem(instance, scheme)
        system.replay(trace)
        return system.metrics.request_ntc

    result = benchmark.pedantic(replay, rounds=3, iterations=1)
    assert result > 0


def test_bench_population_costs_batched(benchmark, instance):
    """Batched population pricing vs per-matrix total_cost."""
    from repro.algorithms.gra.encoding import random_valid_chromosome

    rng = np.random.default_rng(11)
    mats = [random_valid_chromosome(instance, rng) for _ in range(20)]
    model = CostModel(instance, cache_size=0)  # honest, uncached
    result = benchmark(model.population_costs, mats)
    assert len(result) == 20
