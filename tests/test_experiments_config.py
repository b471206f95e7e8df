"""Scale profiles and their resolution."""

from __future__ import annotations

import pytest

from repro.errors import ValidationError
from repro.experiments import PAPER_PROFILE, QUICK_PROFILE, get_profile
from repro.experiments.config import PROFILE_ENV_VAR


def test_quick_is_default(monkeypatch):
    monkeypatch.delenv(PROFILE_ENV_VAR, raising=False)
    assert get_profile() is QUICK_PROFILE


def test_env_var_respected(monkeypatch):
    monkeypatch.setenv(PROFILE_ENV_VAR, "paper")
    assert get_profile() is PAPER_PROFILE


def test_explicit_name_wins(monkeypatch):
    monkeypatch.setenv(PROFILE_ENV_VAR, "paper")
    assert get_profile("quick") is QUICK_PROFILE


def test_unknown_profile_rejected():
    with pytest.raises(ValidationError):
        get_profile("gigantic")


def test_paper_profile_matches_paper():
    p = PAPER_PROFILE
    assert p.instances == 15
    assert p.gra.population_size == 50
    assert p.gra.generations == 80
    assert p.agra.population_size == 10
    assert p.agra.generations == 50
    assert p.fig1_num_objects == 150
    assert p.fig1_update_ratios == (0.02, 0.05, 0.10)
    assert p.fig1_capacity_ratio == 0.15
    assert p.fig4_num_sites == 50
    assert p.fig4_num_objects == 200
    assert p.fig4_change_percent == 6.0  # Ch = 600%
    assert p.fig4_static_generations == (80, 150)
    assert p.fig4_mini_generations == (5, 10)


def test_quick_profile_is_smaller():
    q, p = QUICK_PROFILE, PAPER_PROFILE
    assert q.instances < p.instances
    assert q.gra.population_size < p.gra.population_size
    assert max(q.fig1_sites) < max(p.fig1_sites)


def test_with_overrides():
    tweaked = QUICK_PROFILE.with_overrides(instances=1)
    assert tweaked.instances == 1
    assert QUICK_PROFILE.instances != 1


def test_instances_validated():
    with pytest.raises(ValidationError):
        QUICK_PROFILE.with_overrides(instances=0)
