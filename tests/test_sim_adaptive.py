"""The Section 5 adaptive monitor loop."""

from __future__ import annotations

import pytest

from repro.algorithms import AGRAParams, GAParams, GRA
from repro.errors import ValidationError
from repro.sim import AdaptiveReplicationLoop
from repro.workload import WorkloadSpec, apply_pattern_change, generate_instance

FAST_GRA = GAParams(population_size=8, generations=6)
FAST_AGRA = AGRAParams(population_size=6, generations=8)


@pytest.fixture(scope="module")
def setting():
    instance = generate_instance(
        WorkloadSpec(num_sites=10, num_objects=18, update_ratio=0.05,
                     capacity_ratio=0.15),
        rng=120,
    )
    gra = GRA(FAST_GRA, rng=121)
    result, population = gra.run_with_population(instance)
    seeds = [member.matrix for member in population.members]
    return instance, result.scheme, seeds


def make_loop(instance, scheme, seeds, **kwargs):
    defaults = dict(
        mini_gra_generations=3,
        agra_params=FAST_AGRA,
        gra_params=FAST_GRA,
        seed_matrices=seeds,
        rng=7,
    )
    defaults.update(kwargs)
    return AdaptiveReplicationLoop(instance, scheme, **defaults)


def test_stable_epochs_do_not_adapt(setting):
    instance, scheme, seeds = setting
    loop = make_loop(instance, scheme, seeds)
    report = loop.run([instance, instance])
    assert report.adaptations == 0
    assert report.total_migrations == 0
    assert all(not r.changed_objects for r in report.epochs)


def test_drift_triggers_adaptation(setting):
    instance, scheme, seeds = setting
    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 1.0, rng=122)
    loop = make_loop(instance, scheme, seeds)
    report = loop.run([instance, drifted])
    assert report.epochs[1].changed_objects
    # adaptation only happens when AGRA actually improves the cost, but
    # with a 600% read surge that is essentially guaranteed
    assert report.epochs[1].adapted
    assert report.total_migrations > 0


def test_adaptation_improves_next_epoch(setting):
    instance, scheme, seeds = setting
    drifted, _ = apply_pattern_change(instance, 6.0, 0.3, 1.0, rng=123)
    loop = make_loop(instance, scheme, seeds)
    report = loop.run([drifted, drifted])
    # epoch 0 runs the stale scheme; epoch 1 runs the adapted one
    if report.epochs[0].adapted:
        assert (
            report.epochs[1].savings_percent
            >= report.epochs[0].savings_percent - 1e-9
        )


def test_measured_ntc_positive(setting):
    instance, scheme, seeds = setting
    loop = make_loop(instance, scheme, seeds)
    report = loop.run([instance])
    assert report.epochs[0].measured_ntc > 0.0
    assert report.metrics.request_ntc == pytest.approx(
        report.epochs[0].measured_ntc
    )


def test_incompatible_epoch_rejected(setting):
    instance, scheme, seeds = setting
    other = generate_instance(
        WorkloadSpec(num_sites=10, num_objects=18), rng=999
    )
    loop = make_loop(instance, scheme, seeds)
    with pytest.raises(ValidationError):
        loop.run([other])


def test_threshold_validation(setting):
    instance, scheme, seeds = setting
    with pytest.raises(ValidationError):
        make_loop(instance, scheme, seeds, threshold=-0.5)


def test_final_scheme_valid(setting):
    instance, scheme, seeds = setting
    drifted, _ = apply_pattern_change(instance, 6.0, 0.4, 0.5, rng=124)
    loop = make_loop(instance, scheme, seeds)
    report = loop.run([instance, drifted, drifted])
    assert report.final_scheme.is_valid()
    assert len(report.epochs) == 3
    assert report.savings_series() == [
        r.savings_percent for r in report.epochs
    ]
