"""Figure definitions, run end-to-end at a micro scale."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.algorithms import AGRAParams, GAParams
from repro.errors import ValidationError
from repro.experiments import FIGURES, run_figure
from repro.experiments.config import ScaleProfile
from repro.experiments.figures import clear_cache, _CACHE

MICRO = ScaleProfile(
    name="micro-test",
    instances=1,
    gra=GAParams(population_size=6, generations=3),
    agra=AGRAParams(population_size=4, generations=4),
    fig1_sites=(6, 10),
    fig1_num_objects=10,
    fig1_update_ratios=(0.02, 0.10),
    fig1_capacity_ratio=0.15,
    fig1c_num_sites=8,
    fig1c_objects=(8, 14),
    fig3a_update_ratios=(0.02, 0.10),
    fig3a_num_sites=8,
    fig3a_num_objects=12,
    fig3b_capacity_ratios=(0.10, 0.25),
    fig3b_update_ratio=0.05,
    fig4_num_sites=7,
    fig4_num_objects=10,
    fig4_update_ratio=0.05,
    fig4_capacity_ratio=0.15,
    fig4_change_percent=6.0,
    fig4_object_shares=(0.2, 0.4),
    fig4c_read_shares=(0.0, 1.0),
    fig4c_object_share=0.3,
    fig4_static_generations=(3, 5),
    fig4_mini_generations=(2, 3),
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_cache()
    yield
    clear_cache()


def test_registry_covers_every_paper_figure():
    expected = {
        "fig1a", "fig1b", "fig1c", "fig1d",
        "fig2a", "fig2b", "fig3a", "fig3b",
        "fig4a", "fig4b", "fig4c", "fig4d",
    }
    assert set(FIGURES) == expected


def test_unknown_figure_rejected():
    with pytest.raises(ValidationError):
        run_figure("fig9z", MICRO)


@pytest.mark.parametrize("figure_id", ["fig1a", "fig1b", "fig2a", "fig2b"])
def test_sites_family_structure(figure_id):
    result = run_figure(figure_id, MICRO, seed=1)
    assert result.figure_id == figure_id
    assert result.x_values == [6, 10]
    for values in result.series.values():
        assert len(values) == 2
        assert all(np.isfinite(values))
    assert result.render()  # renders without error


def test_sites_family_shares_sweep():
    run_figure("fig1a", MICRO, seed=1)
    size_after_first = len(_CACHE)
    run_figure("fig1b", MICRO, seed=1)
    run_figure("fig2a", MICRO, seed=1)
    assert len(_CACHE) == size_after_first  # no recomputation


def test_fig2_runtimes_grow_with_sites():
    # generous: the largest network may not take under half the time of
    # the smallest.  Sites span 6 to 30 here: at MICRO's 6 to 10, SRA
    # takes well under a millisecond and a GC pause could flip the order.
    wide = dataclasses.replace(MICRO, fig1_sites=(6, 30))
    for figure_id in ("fig2a", "fig2b"):
        for values in run_figure(figure_id, wide, seed=1).series.values():
            assert values[-1] > values[0] * 0.5, (figure_id, values)


@pytest.mark.parametrize("figure_id", ["fig1c", "fig1d"])
def test_objects_family(figure_id):
    result = run_figure(figure_id, MICRO, seed=1)
    assert result.x_values == [8, 14]
    assert {"SRA U=2%", "GRA U=10%"} <= set(result.series)


def test_fig1d_gra_replicates_at_least_as_much_as_sra():
    # at the highest update ratio SRA gives up while GRA keeps exploring
    result = run_figure("fig1d", MICRO, seed=1)
    high = max(MICRO.fig1_update_ratios) * 100
    gra = result.series[f"GRA U={high:g}%"]
    sra = result.series[f"SRA U={high:g}%"]
    assert float(np.mean(gra)) >= float(np.mean(sra)) - 1.0


def test_fig3a_series():
    result = run_figure("fig3a", MICRO, seed=1)
    assert set(result.series) == {"SRA", "GRA"}
    assert result.x_values == [2.0, 10.0]
    assert float(np.mean(result.series["GRA"])) >= float(
        np.mean(result.series["SRA"])
    ) - 0.5


def test_fig3b_series():
    result = run_figure("fig3b", MICRO, seed=1)
    assert result.x_values == [10.0, 25.0]


@pytest.mark.parametrize("figure_id", ["fig4a", "fig4b", "fig4c"])
def test_fig4_policies_present(figure_id):
    result = run_figure(figure_id, MICRO, seed=1)
    assert "Current" in result.series
    assert "Current + AGRA" in result.series
    assert "AGRA + 2 GRA" in result.series
    assert "Current + 3 GRA" in result.series
    assert "5 GRA" in result.series
    for values in result.series.values():
        assert all(v <= 100.0 for v in values)


def test_fig4d_runtime_series():
    result = run_figure("fig4d", MICRO, seed=1)
    assert "Current" not in result.series
    for values in result.series.values():
        assert all(v >= 0.0 for v in values)
    # stand-alone AGRA stays well under 5x a from-scratch GRA re-run
    agra = float(np.mean(result.series["Current + AGRA"]))
    fresh = float(np.mean(result.series["5 GRA"]))
    assert agra < fresh * 5.0, (agra, fresh)


def test_fig4a_and_fig4d_share_sweep():
    run_figure("fig4a", MICRO, seed=1)
    size_after = len(_CACHE)
    run_figure("fig4d", MICRO, seed=1)
    assert len(_CACHE) == size_after


def test_deterministic_per_seed():
    a = run_figure("fig3a", MICRO, seed=4)
    clear_cache()
    b = run_figure("fig3a", MICRO, seed=4)
    assert a.series == b.series


def test_to_dict_roundtrip_fields():
    result = run_figure("fig3a", MICRO, seed=1)
    data = result.to_dict()
    assert data["figure_id"] == "fig3a"
    assert data["x_values"] == result.x_values
    assert set(data["series"]) == set(result.series)
