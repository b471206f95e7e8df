"""SRA's greedy scan checked against a deliberately naive reference.

The reference below re-implements Section 3 with Python loops and
scalar Eq. 5 arithmetic: no numpy row operations, no candidate matrix,
no shared code with :mod:`repro.algorithms.sra`.  It consumes the RNG
exactly as the paper's random site order needs (one draw per visit) and
breaks benefit ties toward the lowest object index.  The kept scan must
match it bit for bit — the same scheme and the same ``total_cost`` — on
dense and sparse inputs alike.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms.sra import ORDER_RANDOM, ORDER_ROUND_ROBIN, SRA
from repro.core import CostModel, DRPInstance, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.workload.scale import ScaleSpec, generate_scale_problem
from repro.obs.holder import observing
from repro.obs.ledger import PlacementLedger
from repro.workload import SparseProblem, WorkloadSpec, generate_instance

#: site 1 fits one of the two 1.5-unit objects (2.9 < 3.0)
FRACTIONAL = DRPInstance(
    cost=np.array([[0.0, 1.0], [1.0, 0.0]]),
    sizes=np.array([1.5, 1.5]),
    capacities=np.array([3.0, 2.9]),
    reads=np.array([[0, 0], [5, 5]]),
    writes=np.zeros((2, 2), dtype=int),
    primaries=np.array([0, 0]),
)


def naive_sra(instance, order, rng=None, update_fraction=1.0):
    """Loop-based SRA; returns the replica matrix it builds and its
    visit, benefit-evaluation and replica counts."""
    m, n = instance.num_sites, instance.num_objects
    cost = instance.cost.tolist()
    sizes = instance.sizes.tolist()
    reads = instance.reads.tolist()
    writes = instance.writes.tolist()
    primaries = [int(p) for p in instance.primaries]

    held = [[primaries[k] == i for k in range(n)] for i in range(m)]
    remaining = [float(instance.capacities[i]) for i in range(m)]
    for k in range(n):
        remaining[primaries[k]] -= sizes[k]
    # SN distances: the nearest replicator is the primary at the start.
    nearest = [[cost[i][primaries[k]] for k in range(n)] for i in range(m)]
    total_writes = [sum(writes[i][k] for i in range(m)) for k in range(n)]
    candidates = [[k for k in range(n) if not held[i][k]] for i in range(m)]
    active = [i for i in range(m) if candidates[i]]

    cursor = 0
    stats = dict.fromkeys(
        ("site_visits", "benefit_evaluations", "replicas_created"), 0
    )
    while active:
        if order == ORDER_RANDOM:
            pos = int(rng.integers(len(active)))
        else:
            pos = cursor % len(active)
        site = active[pos]
        stats["site_visits"] += 1
        stats["benefit_evaluations"] += len(candidates[site])

        best, best_benefit = None, 0.0
        survivors = []
        for k in candidates[site]:
            read_gain = reads[site][k] * nearest[site][k]
            other_writes = total_writes[k] - writes[site][k]
            update_cost = (
                update_fraction * other_writes * cost[site][primaries[k]]
            )
            benefit = read_gain - update_cost
            if benefit <= 0.0 or sizes[k] > remaining[site] + 1e-9:
                continue  # pruned for good
            survivors.append(k)
            if best is None or benefit > best_benefit:
                best, best_benefit = k, benefit
        if best is not None:
            stats["replicas_created"] += 1
            held[site][best] = True
            remaining[site] -= sizes[best]
            survivors.remove(best)
            for i in range(m):
                if cost[i][site] < nearest[i][best]:
                    nearest[i][best] = cost[i][site]
        candidates[site] = survivors

        if not survivors:
            active.pop(pos)
            if order == ORDER_ROUND_ROBIN and active:
                cursor = pos % len(active)
        elif order == ORDER_ROUND_ROBIN:
            cursor = (pos + 1) % len(active)
    return np.array(held, dtype=bool), stats


def _cases():
    """``(id, instance, update_fraction)`` inputs for the comparison."""
    cases = [("fractional", FRACTIONAL, 1.0)]
    for seed, update_ratio in ((3, 0.05), (17, 0.05), (29, 0.3)):
        instance = generate_instance(
            WorkloadSpec(
                num_sites=8,
                num_objects=15,
                update_ratio=update_ratio,
                capacity_ratio=0.2,
            ),
            rng=seed,
        )
        cases.append((f"seed{seed}", instance, 1.0))
    cases.append(("seed29-uf0.5", instance, 0.5))
    return cases


CASES = _cases()


@pytest.mark.parametrize("order", [ORDER_ROUND_ROBIN, ORDER_RANDOM])
@pytest.mark.parametrize(
    "instance,update_fraction",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_sra_matches_naive_reference(instance, update_fraction, order):
    expected, _ = naive_sra(
        instance, order, np.random.default_rng(5), update_fraction
    )
    model = CostModel(instance, update_fraction=update_fraction)
    expected_cost = model.total_cost(expected)
    assert expected_cost == pytest.approx(
        reference_total_cost(instance, expected, update_fraction)
    )
    for problem in (instance, SparseProblem.from_instance(instance)):
        result = SRA(
            site_order=order,
            rng=np.random.default_rng(5),
            update_fraction=update_fraction,
        ).run(problem)
        assert np.array_equal(result.scheme.matrix, expected)
        assert result.total_cost == expected_cost


#: Sparse scale instances: six reads per site over 300 objects, so most
#: of a site's candidates die on its first visit.
SCALE_CASES = [
    generate_scale_problem(
        ScaleSpec(num_sites=24, num_objects=300, reads_per_site=6),
        rng=seed,
    )
    for seed in (8, 9)
]


@pytest.mark.parametrize("order", [ORDER_ROUND_ROBIN, ORDER_RANDOM])
@pytest.mark.parametrize("problem", SCALE_CASES, ids=["scale8", "scale9"])
def test_sra_matches_naive_reference_on_scale_problem(problem, order):
    dense = problem.to_instance()
    expected, expected_stats = naive_sra(
        dense, order, np.random.default_rng(5)
    )
    assert expected_stats["replicas_created"] > 0
    for instance in (dense, problem):
        ledger = PlacementLedger()
        with observing(ledger=ledger):
            result = SRA(
                site_order=order, rng=np.random.default_rng(5)
            ).run(instance)
        assert np.array_equal(result.scheme.matrix, expected)
        for key, value in expected_stats.items():
            assert result.stats[key] == value, key
        # Replaying the recorded placements rebuilds the scheme.
        replayed = ReplicationScheme.primary_only(dense)
        for action, site, obj in ledger.replay_ops():
            assert action == "add"
            replayed.add_replica(site, obj)
        assert np.array_equal(replayed.matrix, expected)
