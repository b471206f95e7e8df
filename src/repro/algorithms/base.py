"""Common interface of every replica placement algorithm."""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.cost import CostModel, cost_model_for
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.utils.timers import Stopwatch


@dataclass
class AlgorithmResult:
    """Outcome of one algorithm run.

    Attributes
    ----------
    scheme:
        The replication scheme found (always valid).
    total_cost:
        ``D`` of the scheme under the run's cost model.
    d_prime:
        ``D_prime`` (primary-only NTC) of the instance.
    runtime_seconds:
        Wall-clock spent inside :meth:`ReplicationAlgorithm.run`.
    algorithm:
        Human-readable algorithm name.
    stats:
        Algorithm-specific diagnostics (iterations, generations, ...).
    extras:
        Harness-level instrumentation: cost-model cache hit/miss counters
        (``cache_info``), the ``_solve`` wall-clock (``solve_seconds``)
        and, when a metrics registry is attached to the model, a full
        counter/timer snapshot (``metrics``).
    """

    scheme: ReplicationScheme
    total_cost: float
    d_prime: float
    runtime_seconds: float
    algorithm: str
    stats: Dict[str, object] = field(default_factory=dict)
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def savings_percent(self) -> float:
        """The paper's quality metric: % NTC saved vs primary-only.

        ``-inf`` on degenerate instances where ``D_prime == 0`` but the
        scheme's cost is positive (negative savings must not read as 0).
        """
        if self.d_prime == 0.0:
            return 0.0 if self.total_cost == 0.0 else float("-inf")
        return 100.0 * (self.d_prime - self.total_cost) / self.d_prime

    @property
    def fitness(self) -> float:
        """Normalised fitness ``f = (D_prime - D) / D_prime``."""
        if self.d_prime == 0.0:
            return 0.0 if self.total_cost == 0.0 else float("-inf")
        return (self.d_prime - self.total_cost) / self.d_prime

    @property
    def extra_replicas(self) -> int:
        """Replicas created beyond the mandatory primaries (Fig. 1b/1d)."""
        return self.scheme.extra_replicas()

    def summary(self) -> str:
        return (
            f"{self.algorithm}: savings={self.savings_percent:.2f}% "
            f"replicas=+{self.extra_replicas} "
            f"time={self.runtime_seconds:.4f}s"
        )


class ReplicationAlgorithm(abc.ABC):
    """Base class: configure once, run on many instances.

    Subclasses implement :meth:`_solve`; :meth:`run` wraps it with timing
    and result packaging so every algorithm reports uniformly.
    """

    name: str = "algorithm"

    #: Whether :meth:`_solve` can consume a sparse problem directly.
    #: Algorithms without a sparse path get the problem densified by
    #: :meth:`run` — correct on any size that fits in memory, just not
    #: memory-bounded.
    supports_sparse: bool = False

    @abc.abstractmethod
    def _solve(
        self, instance: DRPInstance, model: CostModel
    ) -> "tuple[ReplicationScheme, Dict[str, object]]":
        """Produce a valid scheme plus diagnostics for ``instance``."""

    def make_cost_model(self, instance: DRPInstance) -> CostModel:
        """Cost model used for this run; override to change accounting."""
        return cost_model_for(instance)

    def run(
        self,
        instance: DRPInstance,
        model: Optional[CostModel] = None,
    ) -> AlgorithmResult:
        """Solve ``instance`` and package the outcome.

        A pre-built ``model`` may be passed to share its per-object cost
        cache across runs on the same instance (the experiment harness
        does this when comparing algorithms).

        Sparse problems are accepted by every algorithm: those with
        ``supports_sparse`` solve them in their memory-bounded path;
        the rest transparently densify first (any pre-built sparse
        model is rebuilt against the densified instance so model and
        scheme keep sharing one instance).
        """
        if not isinstance(instance, DRPInstance) and not self.supports_sparse:
            instance = instance.to_instance()
            if model is not None and not getattr(
                model, "has_dense_weights", True
            ):
                model = None
        model = model or self.make_cost_model(instance)
        watch = Stopwatch()
        with watch:
            scheme, stats = self._solve(instance, model)
        scheme.validate()
        extras: Dict[str, object] = {
            "solve_seconds": watch.elapsed,
            "cache_info": model.cache_info(),
        }
        metrics = model.metrics
        if metrics is not None:
            metrics.observe(f"solve.{self.name}", watch.elapsed)
            extras["metrics"] = metrics.snapshot()
        return AlgorithmResult(
            scheme=scheme,
            total_cost=model.total_cost(scheme),
            d_prime=model.d_prime(),
            runtime_seconds=watch.elapsed,
            algorithm=self.name,
            stats=stats,
            extras=extras,
        )


__all__ = ["AlgorithmResult", "ReplicationAlgorithm"]
