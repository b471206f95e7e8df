"""Hypothesis strategies shared by the property-based tests.

Instances are drawn by dimension + seed and realised through the Section
6.1 generator, which keeps examples shrinkable (hypothesis shrinks the
dimensions and seed) while exercising realistic structure.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import ReplicationScheme
from repro.workload import WorkloadSpec, generate_instance


@st.composite
def drp_instances(
    draw,
    max_sites: int = 6,
    max_objects: int = 6,
    max_update_ratio: float = 0.3,
):
    """A small random DRP instance."""
    num_sites = draw(st.integers(2, max_sites))
    num_objects = draw(st.integers(1, max_objects))
    update_pct = draw(st.integers(0, int(max_update_ratio * 100)))
    capacity_pct = draw(st.integers(10, 60))
    seed = draw(st.integers(0, 2**16))
    spec = WorkloadSpec(
        num_sites=num_sites,
        num_objects=num_objects,
        update_ratio=update_pct / 100.0,
        capacity_ratio=capacity_pct / 100.0,
        size_mean=draw(st.integers(2, 12)),
    )
    return generate_instance(spec, rng=seed)


@st.composite
def instances_with_schemes(draw, **kwargs):
    """An instance plus a random valid replication scheme on it."""
    instance = draw(drp_instances(**kwargs))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    scheme = ReplicationScheme.primary_only(instance)
    attempts = draw(st.integers(0, 20))
    for _ in range(attempts):
        site = int(rng.integers(instance.num_sites))
        obj = int(rng.integers(instance.num_objects))
        if scheme.holds(site, obj):
            continue
        if scheme.remaining_capacity()[site] >= instance.sizes[obj]:
            scheme.add_replica(site, obj)
    return instance, scheme


__all__ = ["drp_instances", "instances_with_schemes"]
