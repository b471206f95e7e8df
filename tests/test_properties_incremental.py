"""Property-based invariants of the incremental evaluator.

The central claim of the delta-evaluation refactor: after *any*
interleaving of adds, drops and reverts, the evaluator's maintained total
equals the Eq. 1-4 reference recompute — including capacity-edge schemes
(full sites force drops/swaps) and single-replica objects (a drop's
two-nearest repair must fall back to ``(inf, -1)`` second slots).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import CostModel, ReplicationScheme
from repro.core.cost import reference_total_cost
from repro.core.incremental import IncrementalCostEvaluator
from tests.strategies import drp_instances, instances_with_schemes

SETTINGS = settings(max_examples=30, deadline=None)


def _check(instance, model, scheme, ev):
    # Exact vs the vectorised kernel (same arithmetic by construction)…
    assert ev.total_cost() == CostModel(
        instance, cache_size=0
    ).total_cost(scheme)
    # …and numerically vs the Eq. 1-4 loop reference.
    assert ev.total_cost() == pytest.approx(
        reference_total_cost(instance, scheme)
    )


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_interleaved_walk_matches_reference(pair, seed):
    instance, scheme = pair
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    mutations = 0
    for _ in range(25):
        action = int(rng.integers(3))
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if action == 0:
            if (
                not scheme.holds(site, obj)
                and scheme.remaining_capacity()[site]
                >= instance.sizes[obj]
            ):
                delta = ev.delta_add(site, obj)
                before = ev.total_cost()
                ev.apply_add(site, obj)
                assert ev.total_cost() == pytest.approx(before + delta)
                mutations += 1
        elif action == 1:
            if (
                scheme.holds(site, obj)
                and int(instance.primaries[obj]) != site
            ):
                delta = ev.delta_drop(site, obj)
                before = ev.total_cost()
                ev.apply_drop(site, obj)
                assert ev.total_cost() == pytest.approx(before + delta)
                mutations += 1
        elif mutations > 0:
            ev.revert()
            mutations -= 1
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(drp_instances(max_update_ratio=0.3), st.integers(0, 2**16))
def test_single_replica_objects_survive_drop_repair(instance, seed):
    """Grow one object to two replicas and drop back to one, repeatedly.

    With a single replica the second-nearest slots hold ``(inf, -1)``;
    the drop repair must rebuild rows from that degenerate state without
    ever selecting the sentinel.
    """
    scheme = ReplicationScheme.primary_only(instance)
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    obj = int(rng.integers(instance.num_objects))
    primary = int(instance.primaries[obj])
    for _ in range(6):
        site = int(rng.integers(instance.num_sites))
        if site == primary:
            continue
        if scheme.remaining_capacity()[site] < instance.sizes[obj]:
            continue
        ev.apply_add(site, obj)
        _check(instance, model, scheme, ev)
        ev.apply_drop(site, obj)
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(drp_instances(), st.integers(0, 2**16))
def test_capacity_edge_fill_then_churn(instance, seed):
    """Fill sites to the brim, then churn via drop+add at full capacity."""
    scheme = ReplicationScheme.primary_only(instance)
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    # Greedy fill: add until nothing fits anywhere.
    for site in range(instance.num_sites):
        for obj in range(instance.num_objects):
            if scheme.holds(site, obj):
                continue
            if scheme.remaining_capacity()[site] >= instance.sizes[obj]:
                ev.apply_add(site, obj)
    _check(instance, model, scheme, ev)
    # Churn: drop a non-primary replica, re-add something that now fits.
    for _ in range(10):
        held = [
            (s, k)
            for s in range(instance.num_sites)
            for k in scheme.objects_at(s)
            if int(instance.primaries[k]) != s
        ]
        if not held:
            break
        site, obj = held[int(rng.integers(len(held)))]
        ev.apply_drop(site, int(obj))
        _check(instance, model, scheme, ev)
        for k in range(instance.num_objects):
            if not scheme.holds(site, k) and (
                scheme.remaining_capacity()[site] >= instance.sizes[k]
            ):
                ev.apply_add(site, k)
                break
        _check(instance, model, scheme, ev)
    ev.consistency_check()


@SETTINGS
@given(instances_with_schemes(), st.integers(0, 2**16))
def test_revert_restores_totals_bitwise(pair, seed):
    instance, scheme = pair
    model = CostModel(instance)
    ev = IncrementalCostEvaluator(model, scheme)
    rng = np.random.default_rng(seed)
    snapshot = ev.total_cost()
    applied = 0
    for _ in range(8):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if (
            not scheme.holds(site, obj)
            and scheme.remaining_capacity()[site] >= instance.sizes[obj]
        ):
            ev.apply_add(site, obj)
            applied += 1
    for _ in range(applied):
        ev.revert()
    assert ev.total_cost() == snapshot
    ev.consistency_check()
