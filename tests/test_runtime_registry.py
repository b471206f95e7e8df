"""SolverRegistry: registration, capability queries, factory parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.runtime import SolverRegistry, SolverSpec, default_registry


def test_default_registry_contents_and_capabilities():
    registry = default_registry()
    assert sorted(registry.names()) == [
        "adr-tree",
        "agra",
        "annealing",
        "distributed-sra",
        "gra",
        "hill-climbing",
        "none",
        "optimal",
        "random",
        "read-only-greedy",
        "sra",
    ]
    assert registry.names(supports_sparse=True) == ["sra"]
    assert registry.names(supports_faults=True) == ["distributed-sra"]
    assert "optimal" in registry.names(deterministic=True)
    assert "gra" not in registry.names(deterministic=True)
    # the CLI's solve menu: anything runnable on a bare instance
    standalone = registry.names(standalone=True)
    assert "agra" not in standalone and "adr-tree" not in standalone
    assert {"sra", "gra", "optimal"} <= set(standalone)
    caps = registry.get("sra").capabilities
    assert caps["supports_sparse"] and caps["deterministic"]


def test_unknown_names_and_capabilities_error_clearly():
    registry = default_registry()
    with pytest.raises(ValidationError, match="registered:"):
        registry.get("gradient-descent")
    with pytest.raises(ValidationError, match="unknown capability"):
        registry.names(parallel_safe=True)


def test_register_duplicate_requires_replace():
    registry = SolverRegistry()
    spec = SolverSpec(name="x", factory=lambda seed, **kw: object())
    registry.register(spec)
    with pytest.raises(ValidationError, match="already registered"):
        registry.register(spec)
    registry.register(spec, replace=True)
    assert len(registry) == 1 and "x" in registry
    assert [s.name for s in registry] == ["x"]


def test_factories_mirror_direct_construction(small_instance):
    """Registry-built solvers equal directly-built ones bit for bit."""
    from repro.algorithms import GAParams, GRA, SRA

    registry = default_registry()
    direct = SRA().run(small_instance)
    resolved = registry.create("sra").run(small_instance)
    assert np.array_equal(direct.scheme.matrix, resolved.scheme.matrix)

    params = GAParams(population_size=8, generations=3)
    direct = GRA(params, rng=7).run(small_instance)
    resolved = registry.create("gra", seed=7, params=params).run(
        small_instance
    )
    assert np.array_equal(direct.scheme.matrix, resolved.scheme.matrix)
    assert direct.total_cost == resolved.total_cost

    # the CLI's --generations override path
    assert registry.create("gra", generations=5).params.generations == 5
    assert (
        registry.create("gra").params.generations
        == GAParams().generations
    )


def test_optimal_adapter_and_adr_tree_topology_guard(tiny_instance):
    registry = default_registry()
    result = registry.create("optimal").run(tiny_instance)
    assert result.scheme.is_valid()
    with pytest.raises(ValidationError, match="topology"):
        registry.create("adr-tree")


def test_distributed_sra_resolves_with_options(tiny_instance):
    report = default_registry().create(
        "distributed-sra", leader_site=0
    ).run(tiny_instance)
    assert report.scheme.is_valid()
