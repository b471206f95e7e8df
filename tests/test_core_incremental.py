"""Unit tests of the incremental cost evaluator (deltas, undo, guards)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CostModel, ReplicationScheme
from repro.conformance.corpus import default_corpus
from repro.core.benefit import (
    benefit_matrix,
    eq5_benefit,
    replication_benefit,
)
from repro.core.incremental import IncrementalCostEvaluator
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


def _waxman_instance():
    """The conformance corpus's float-cost Waxman scenario (10x15)."""
    return next(
        scenario for scenario in default_corpus()
        if scenario.name == "waxman-topology"
    ).build()


@pytest.mark.parametrize("case", ["small", "waxman"])
def test_cost_model_delta_adapters_agree_with_evaluator(case, small_instance):
    """CostModel.add_delta/drop_delta and the evaluator price through one
    Eq. 4 kernel, so they agree bit for bit — on float costs too."""
    instance = small_instance if case == "small" else _waxman_instance()
    model, scheme, ev = _fresh(instance)
    remaining = scheme.remaining_capacity()
    for site in range(instance.num_sites):
        for obj in range(instance.num_objects):
            if (
                not scheme.holds(site, obj)
                and remaining[site] >= instance.sizes[obj]
            ):
                assert model.add_delta(scheme, site, obj) == ev.delta_add(
                    site, obj
                )
    rng = np.random.default_rng(2)
    for _ in range(4):
        pick = _feasible_add(instance, scheme, rng)
        if pick is not None:
            scheme.add_replica(*pick)
    droppable = [
        (site, obj)
        for site in range(instance.num_sites)
        for obj in range(instance.num_objects)
        if scheme.holds(site, obj) and int(instance.primaries[obj]) != site
    ]
    assert droppable
    for site, obj in droppable:
        assert model.drop_delta(scheme, site, obj) == ev.delta_drop(site, obj)


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
# apply / revert
# --------------------------------------------------------------------- #
def test_apply_and_revert_roundtrip(small_instance):
    model, scheme, ev = _fresh(small_instance)
    rng = np.random.default_rng(3)
    site, obj = _feasible_add(small_instance, scheme, rng)
    total0 = ev.total_cost()
    delta = ev.delta_add(site, obj)
    ev.apply_add(site, obj)
    assert scheme.holds(site, obj)
    assert ev.total_cost() == model.total_cost(scheme)
    ev.revert()
    assert not scheme.holds(site, obj)
    assert ev.total_cost() == total0
    ev.consistency_check()
    # The column is back to the one the delta was priced against.
    assert ev.delta_add(site, obj) == delta


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
# Eq. 5: one arithmetic, two entry points
# --------------------------------------------------------------------- #
def test_eq5_entry_points_identical(small_instance):
    scheme = ReplicationScheme.primary_only(small_instance)
    matrix = benefit_matrix(small_instance, scheme)
    for site in range(small_instance.num_sites):
        for k in range(small_instance.num_objects):
            if scheme.holds(site, k):
                assert np.isnan(matrix[site, k])
                continue
            direct = replication_benefit(small_instance, scheme, site, k)
            assert direct == matrix[site, k]


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
