"""Property-based invariants of the genetic operators."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.algorithms.gra.encoding import (
    chromosome_valid,
    perturb_chromosome,
    random_valid_chromosome,
)
from repro.algorithms.gra.operators import mutate, two_point_crossover
from tests.strategies import drp_instances

SETTINGS = settings(max_examples=40, deadline=None)


@SETTINGS
@given(
    drp_instances(),
    st.integers(0, 2**16),
    st.floats(0.3, 1.0),
)
def test_crossover_validity_and_conservation(instance, seed, fill):
    rng = np.random.default_rng(seed)
    a = random_valid_chromosome(instance, rng, fill=fill)
    b = random_valid_chromosome(instance, rng, fill=fill)
    ca, cb = two_point_crossover(instance, a, b, rng)
    assert chromosome_valid(instance, ca)
    assert chromosome_valid(instance, cb)
    assert np.array_equal(
        ca.astype(int) + cb.astype(int), a.astype(int) + b.astype(int)
    )


@SETTINGS
@given(
    drp_instances(),
    st.integers(0, 2**16),
    st.floats(0.0, 0.5),
)
def test_mutation_validity(instance, seed, rate):
    rng = np.random.default_rng(seed)
    base = random_valid_chromosome(instance, rng, fill=1.0)
    mutated = mutate(instance, base, rate, rng)
    assert chromosome_valid(instance, mutated)
    # input untouched
    assert chromosome_valid(instance, base)


@SETTINGS
@given(
    drp_instances(),
    st.integers(0, 2**16),
    st.floats(0.0, 1.0),
)
def test_perturbation_validity(instance, seed, share):
    rng = np.random.default_rng(seed)
    base = random_valid_chromosome(instance, rng)
    perturbed = perturb_chromosome(instance, base, share, rng)
    assert chromosome_valid(instance, perturbed)


@SETTINGS
@given(drp_instances(), st.integers(0, 2**16))
def test_random_chromosome_always_valid(instance, seed):
    rng = np.random.default_rng(seed)
    assert chromosome_valid(
        instance, random_valid_chromosome(instance, rng, fill=1.0)
    )
