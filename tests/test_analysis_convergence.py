"""Convergence diagnostics."""

from __future__ import annotations

import pytest

from repro.algorithms import GAParams, GRA
from repro.analysis import analyze_convergence
from repro.errors import ValidationError


def test_basic_history():
    history = [0.1, 0.2, 0.3, 0.4, 0.4, 0.4]
    report = analyze_convergence(history, stall_window=2)
    assert report.generations == 5
    assert report.initial_fitness == pytest.approx(0.1)
    assert report.final_fitness == pytest.approx(0.4)
    assert report.improvement == pytest.approx(0.3)
    # 95% of the gain (0.385) is first reached at index 3
    assert report.generations_to_95pct == 3
    assert report.stalled_from == 3
    assert report.seeding_share == pytest.approx(0.25)


def test_flat_history():
    report = analyze_convergence([0.5, 0.5, 0.5])
    assert report.improvement == 0.0
    assert report.generations_to_95pct == 0
    assert report.stalled_from == 0
    assert report.seeding_share == pytest.approx(1.0)


def test_improving_to_the_end_never_stalls():
    report = analyze_convergence([0.0, 0.1, 0.2, 0.3], stall_window=5)
    assert report.stalled_from is None


def test_zero_final_fitness():
    report = analyze_convergence([0.0, 0.0])
    assert report.seeding_share == 0.0


def test_validation():
    with pytest.raises(ValidationError):
        analyze_convergence([])
    with pytest.raises(ValidationError):
        analyze_convergence([0.5, 0.4])  # decreasing
    with pytest.raises(ValidationError):
        analyze_convergence([0.1], stall_window=0)


def test_summary_renders():
    text = analyze_convergence([0.1, 0.3, 0.3]).summary()
    assert "generations" in text


def test_on_real_gra_history(small_instance):
    result = GRA(
        GAParams(population_size=8, generations=10), rng=1
    ).run(small_instance)
    report = analyze_convergence(result.stats.history("best_fitness"))
    assert report.generations == 10
    assert report.final_fitness == pytest.approx(result.fitness)
    assert report.final_fitness >= report.initial_fitness
    assert 0.0 <= report.seeding_share <= 1.0
