"""Capability-declaring solver registry.

Every replication algorithm registers here once, with a factory and a
set of declared capabilities; consumers (CLI, experiment harness,
conformance oracle, adaptive loop) resolve solvers by name instead of
hard-coding constructors:

>>> from repro.runtime import default_registry
>>> registry = default_registry()
>>> sorted(registry.names(standalone=True))[:3]
['annealing', 'gra', 'hill-climbing']
>>> registry.get("sra").supports_sparse
True
>>> algorithm = registry.create("gra", seed=7, generations=5)
>>> algorithm.params.generations
5

Capabilities
------------
``supports_sparse``
    Accepts :class:`~repro.workload.sparse.SparseProblem` inputs
    natively (no densification).
``supports_faults``
    Consumes a fault plan (degraded-mode execution).
``deterministic``
    Output depends only on the instance — no RNG stream is consumed
    under default options.
``standalone``
    Runs on a bare instance via ``run(instance[, model])`` and returns
    an :class:`~repro.algorithms.base.AlgorithmResult`; non-standalone
    entries (AGRA's adapt-in-place, the distributed protocol emulation,
    the tree heuristic needing a topology) take extra inputs.

Factories import their algorithm lazily so this module stays below
``algorithms`` in the layer order and importing the runtime costs
nothing until a solver is actually built.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ValidationError

Factory = Callable[..., object]


@dataclass(frozen=True)
class SolverSpec:
    """One registered algorithm: factory + declared capabilities."""

    name: str
    factory: Factory
    description: str = ""
    supports_sparse: bool = False
    supports_faults: bool = False
    deterministic: bool = True
    standalone: bool = True

    def create(self, seed=None, **options):
        """Build a fresh solver; ``seed`` feeds its RNG where it has one."""
        return self.factory(seed, **options)

    @property
    def capabilities(self) -> Dict[str, bool]:
        return {
            "supports_sparse": self.supports_sparse,
            "supports_faults": self.supports_faults,
            "deterministic": self.deterministic,
            "standalone": self.standalone,
        }


class SolverRegistry:
    """Name -> :class:`SolverSpec` with capability queries."""

    def __init__(self) -> None:
        self._specs: Dict[str, SolverSpec] = {}

    def register(self, spec: SolverSpec, replace: bool = False) -> SolverSpec:
        if not replace and spec.name in self._specs:
            raise ValidationError(
                f"solver {spec.name!r} is already registered"
            )
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> SolverSpec:
        try:
            return self._specs[name]
        except KeyError:
            known = ", ".join(sorted(self._specs))
            raise ValidationError(
                f"unknown solver {name!r}; registered: {known}"
            ) from None

    def create(self, name: str, seed=None, **options):
        """Resolve ``name`` and build a fresh solver instance."""
        return self.get(name).create(seed, **options)

    def names(self, **capabilities: bool) -> List[str]:
        """Registered names, optionally filtered by capability values.

        >>> default_registry().names(supports_sparse=True)
        ['sra']
        """
        return [spec.name for spec in self.select(**capabilities)]

    def select(self, **capabilities: bool) -> List[SolverSpec]:
        """Specs whose declared capabilities match every given value."""
        out = []
        for name in sorted(self._specs):
            spec = self._specs[name]
            caps = spec.capabilities
            for key, wanted in capabilities.items():
                if key not in caps:
                    raise ValidationError(
                        f"unknown capability {key!r}; one of "
                        f"{sorted(caps)}"
                    )
                if caps[key] != wanted:
                    break
            else:
                out.append(spec)
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(
            self._specs[name] for name in sorted(self._specs)
        )

    def __len__(self) -> int:
        return len(self._specs)


# --------------------------------------------------------------------- #
# factories — construction mirrors the former CLI lambdas exactly, so
# resolving through the registry is byte-identical to the old wiring
# --------------------------------------------------------------------- #
def _make_sra(seed=None, **options):
    from repro.algorithms.sra import SRA

    # the greedy consumes no randomness under the default round-robin
    # site order; callers opting into site_order="random" pass rng=...
    del seed
    return SRA(**options)


def _make_gra(seed=None, generations: int = 0, params=None, **options):
    from repro.algorithms.gra.engine import GRA
    from repro.algorithms.gra.params import GAParams

    if params is None:
        params = GAParams(generations=generations) if generations else GAParams()
    return GRA(params, rng=seed, **options)


def _make_agra(seed=None, params=None, gra_params=None, **options):
    from repro.algorithms.agra.engine import AGRA

    kwargs = dict(options)
    if params is not None:
        kwargs["params"] = params
    if gra_params is not None:
        kwargs["gra_params"] = gra_params
    return AGRA(rng=seed, **kwargs)


def _make_hill_climbing(seed=None, **options):
    from repro.algorithms.localsearch import HillClimbing

    return HillClimbing(rng=seed, **options)


def _make_annealing(seed=None, **options):
    from repro.algorithms.localsearch import SimulatedAnnealing

    return SimulatedAnnealing(rng=seed, **options)


def _make_random(seed=None, **options):
    from repro.algorithms.baselines import RandomReplication

    return RandomReplication(rng=seed, **options)


def _make_read_only_greedy(seed=None, **options):
    from repro.algorithms.baselines import ReadOnlyGreedy

    del seed
    return ReadOnlyGreedy(**options)


def _make_none(seed=None, **options):
    from repro.algorithms.baselines import NoReplication

    del seed
    return NoReplication(**options)


class OptimalSolver:
    """Registry adapter giving branch-and-bound the ``run()`` shape."""

    name = "optimal"

    def __init__(self, force: bool = False) -> None:
        self.force = force

    def run(self, instance, model=None):
        from repro.algorithms.optimal import solve_optimal

        return solve_optimal(instance, model, force=self.force)


def _make_optimal(seed=None, **options):
    del seed
    return OptimalSolver(**options)


def _make_adr_tree(seed=None, topology=None, **options):
    from repro.algorithms.adr_tree import ADRTree

    del seed
    if topology is None:
        raise ValidationError(
            "adr-tree requires a topology= option (a Topology tree)"
        )
    return ADRTree(topology, **options)


def _make_distributed_sra(seed=None, **options):
    from repro.distributed.sra_protocol import DistributedSRA

    del seed
    return DistributedSRA(**options)


def _build_default_registry() -> SolverRegistry:
    registry = SolverRegistry()
    registry.register(SolverSpec(
        name="sra",
        factory=_make_sra,
        description="greedy benefit-ordered static replication (paper SRA)",
        supports_sparse=True,
    ))
    registry.register(SolverSpec(
        name="gra",
        factory=_make_gra,
        description="genetic replication algorithm (paper GRA)",
        deterministic=False,
    ))
    registry.register(SolverSpec(
        name="agra",
        factory=_make_agra,
        description="adaptive micro-GA + mini-GRA refinement (paper AGRA)",
        deterministic=False,
        standalone=False,
    ))
    registry.register(SolverSpec(
        name="hill-climbing",
        factory=_make_hill_climbing,
        description="steepest-descent local search over sampled moves",
        deterministic=False,
    ))
    registry.register(SolverSpec(
        name="annealing",
        factory=_make_annealing,
        description="Metropolis local search with geometric cooling",
        deterministic=False,
    ))
    registry.register(SolverSpec(
        name="random",
        factory=_make_random,
        description="capacity-respecting random placement baseline",
        deterministic=False,
    ))
    registry.register(SolverSpec(
        name="read-only-greedy",
        factory=_make_read_only_greedy,
        description="replicate-everywhere-it-reads baseline",
    ))
    registry.register(SolverSpec(
        name="none",
        factory=_make_none,
        description="primary-copies-only baseline",
    ))
    registry.register(SolverSpec(
        name="optimal",
        factory=_make_optimal,
        description="exact branch-and-bound minimum-D scheme",
    ))
    registry.register(SolverSpec(
        name="adr-tree",
        factory=_make_adr_tree,
        description="ADR-style tree placement heuristic (needs topology=)",
        standalone=False,
    ))
    registry.register(SolverSpec(
        name="distributed-sra",
        factory=_make_distributed_sra,
        description="message-passing emulation of SRA with fault handling",
        supports_faults=True,
        standalone=False,
    ))
    return registry


_DEFAULT: Optional[SolverRegistry] = None


def default_registry() -> SolverRegistry:
    """The process-wide registry with every built-in solver installed."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = _build_default_registry()
    return _DEFAULT


__all__ = [
    "Factory",
    "OptimalSolver",
    "SolverRegistry",
    "SolverSpec",
    "default_registry",
]
