"""Unit tests of the incremental cost evaluator (deltas, undo, guards)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostModel, ReplicationScheme
from repro.core.benefit import replication_benefit
from repro.core.incremental import (
    IncrementalCostEvaluator,
    eq5_benefit,
    single_add_delta,
    single_drop_delta,
)
from repro.errors import StaleEvaluatorError, ValidationError


def _fresh(instance):
    model = CostModel(instance)
    scheme = ReplicationScheme.primary_only(instance)
    return model, scheme, IncrementalCostEvaluator(model, scheme)


def _feasible_add(instance, scheme, rng):
    """A random (site, obj) the scheme can accept, or None."""
    remaining = scheme.remaining_capacity()
    options = [
        (s, k)
        for s in range(instance.num_sites)
        for k in range(instance.num_objects)
        if not scheme.holds(s, k) and remaining[s] >= instance.sizes[k]
    ]
    if not options:
        return None
    return options[int(rng.integers(len(options)))]


# --------------------------------------------------------------------- #
# delta exactness
# --------------------------------------------------------------------- #
def test_delta_add_matches_full_recompute(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(0)
    pick = _feasible_add(small_instance, scheme, rng)
    assert pick is not None
    site, obj = pick
    delta = ev.delta_add(site, obj)
    before = model.total_cost(scheme)
    scheme.add_replica(site, obj)
    after = model.total_cost(scheme)
    assert delta == pytest.approx(after - before)
    # The maintained total tracks the mutation exactly.
    assert ev.total_cost() == model.total_cost(scheme)


def test_delta_drop_matches_full_recompute(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(1)
    for _ in range(6):
        pick = _feasible_add(small_instance, scheme, rng)
        if pick is None:
            break
        scheme.add_replica(*pick)
    site, obj = next(
        (s, k)
        for s in range(small_instance.num_sites)
        for k in range(small_instance.num_objects)
        if scheme.holds(s, k) and int(small_instance.primaries[k]) != s
    )
    delta = ev.delta_drop(site, obj)
    before = model.total_cost(scheme)
    scheme.drop_replica(site, obj)
    after = model.total_cost(scheme)
    assert delta == pytest.approx(after - before)
    assert ev.total_cost() == model.total_cost(scheme)


def test_cost_model_delta_adapters_agree_with_evaluator(small_instance):
    """Satellite: CostModel.add_delta/drop_delta are thin adapters."""
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(2)
    site, obj = _feasible_add(small_instance, scheme, rng)
    assert model.add_delta(scheme, site, obj) == ev.delta_add(site, obj)
    assert single_add_delta(model, scheme, site, obj) == ev.delta_add(
        site, obj
    )
    scheme.add_replica(site, obj)
    assert model.drop_delta(scheme, site, obj) == ev.delta_drop(site, obj)
    assert single_drop_delta(model, scheme, site, obj) == ev.delta_drop(
        site, obj
    )


def test_delta_validation_errors(small_instance):
    _, scheme, ev = _fresh(small_instance)
    obj = 0
    primary = int(small_instance.primaries[obj])
    with pytest.raises(ValueError, match="already holds"):
        ev.delta_add(primary, obj)
    other = (primary + 1) % small_instance.num_sites
    with pytest.raises(ValueError, match="does not hold"):
        ev.delta_drop(other, obj)
    with pytest.raises(ValueError, match="primary copy"):
        ev.delta_drop(primary, obj)


# --------------------------------------------------------------------- #
# apply / revert / staleness
# --------------------------------------------------------------------- #
def test_apply_and_revert_roundtrip(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(3)
    site, obj = _feasible_add(small_instance, scheme, rng)
    total0 = ev.total_cost()
    version0 = ev.version
    move = ev.move_add(site, obj)
    assert ev.apply(move) == move.delta
    assert scheme.holds(site, obj)
    assert ev.version == version0 + 1
    ev.revert()
    assert not scheme.holds(site, obj)
    assert ev.version == version0
    assert ev.total_cost() == total0
    ev.consistency_check()
    # The version was restored, so the pre-mutation move is valid again.
    assert ev.apply(move) == move.delta


def test_stale_move_raises(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(4)
    site, obj = _feasible_add(small_instance, scheme, rng)
    move = ev.move_add(site, obj)
    # Direct mutation between pricing and apply invalidates the move.
    other_site, other_obj = next(
        pick
        for pick in (
            _feasible_add(small_instance, scheme, rng) for _ in range(50)
        )
        if pick is not None and pick != (site, obj)
    )
    scheme.add_replica(other_site, other_obj)
    with pytest.raises(StaleEvaluatorError) as err:
        ev.apply(move)
    assert "re-price" in str(err.value)


def test_direct_scheme_mutations_patch_evaluator(small_instance):
    """Listener flow: mutations bypassing the evaluator keep it exact."""
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(5)
    for _ in range(8):
        pick = _feasible_add(small_instance, scheme, rng)
        if pick is None:
            break
        scheme.add_replica(*pick)
        assert ev.total_cost() == model.total_cost(scheme)
    ev.consistency_check()


def test_detach_freezes_state(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(6)
    site, obj = _feasible_add(small_instance, scheme, rng)
    ev.detach()
    frozen = ev.total_cost()
    scheme.add_replica(site, obj)
    assert ev.total_cost() == frozen  # no listener, no update


# --------------------------------------------------------------------- #
# Eq. 5 dedup regression (satellite): one arithmetic, two entry points
# --------------------------------------------------------------------- #
def test_eq5_entry_points_identical(small_instance):
    model, scheme, ev = _fresh(small_instance)
    objs = np.arange(small_instance.num_objects)
    for site in range(small_instance.num_sites):
        via_evaluator = ev.benefits(site, objs)
        for k in objs:
            if scheme.holds(site, int(k)):
                continue
            direct = replication_benefit(
                small_instance, scheme, site, int(k)
            )
            assert direct == via_evaluator[k]


def test_eq5_benefit_formula():
    # 3 reads saving distance 5, 2 foreign writes attracted over cost 4.
    assert eq5_benefit(3.0, 5.0, 2.0, 4.0) == 3.0 * 5.0 - 2.0 * 4.0
    assert eq5_benefit(3.0, 5.0, 2.0, 4.0, update_fraction=0.5) == (
        3.0 * 5.0 - 0.5 * 2.0 * 4.0
    )


# --------------------------------------------------------------------- #
# rebind_model (adaptive-loop epochs)
# --------------------------------------------------------------------- #
def test_rebind_model_adopts_new_patterns(small_instance):
    from repro.core.problem import DRPInstance

    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(7)
    for _ in range(4):
        pick = _feasible_add(small_instance, scheme, rng)
        if pick:
            scheme.add_replica(*pick)
    drifted = DRPInstance(
        cost=small_instance.cost,
        sizes=small_instance.sizes,
        capacities=small_instance.capacities,
        reads=small_instance.reads * 2.0,
        writes=small_instance.writes,
        primaries=small_instance.primaries,
    )
    new_model = CostModel(drifted)
    ev.rebind_model(new_model)
    assert ev.total_cost() == new_model.total_cost(scheme)
    ev.consistency_check()
    # Different network must be refused.
    bad = DRPInstance(
        cost=small_instance.cost * 2.0,
        sizes=small_instance.sizes,
        capacities=small_instance.capacities,
        reads=small_instance.reads,
        writes=small_instance.writes,
        primaries=small_instance.primaries,
    )
    with pytest.raises(ValidationError, match="same network"):
        ev.rebind_model(CostModel(bad))


def test_rebind_model_shape_change_raises_stale_error(small_instance):
    """Regression: a grown/shrunk problem used to hit the array_equal
    network check (raising ValidationError, or worse, broadcasting);
    a shape change means the evaluator state is stale by definition."""
    from repro.core.problem import DRPInstance
    from repro.workload import WorkloadSpec, generate_instance

    _, _, ev = _fresh(small_instance)
    grown = generate_instance(
        WorkloadSpec(
            num_sites=small_instance.num_sites + 2,
            num_objects=small_instance.num_objects + 3,
            update_ratio=0.05,
            capacity_ratio=0.3,
        ),
        rng=7,
    )
    with pytest.raises(StaleEvaluatorError, match="fresh evaluator"):
        ev.rebind_model(CostModel(grown))

    shrunk = DRPInstance(
        cost=small_instance.cost[:-1, :-1],
        sizes=small_instance.sizes,
        capacities=small_instance.capacities[:-1] + 1000,
        reads=small_instance.reads[:-1],
        writes=small_instance.writes[:-1],
        primaries=np.zeros_like(small_instance.primaries),
    )
    with pytest.raises(StaleEvaluatorError, match="fresh evaluator"):
        ev.rebind_model(CostModel(shrunk))
    # The evaluator is still usable against its original problem.
    ev.consistency_check()
