"""Differential oracle: one scenario, every evaluation path, one verdict.

The repo prices the paper's Eq. 4 objective through four independent
code paths.  For any scheme they are promised **bit-identical** — same
floats, not merely close — because each sums the same per-object terms
computed by the same column arithmetic:

========================  ============================================
path                      implementation
========================  ============================================
``dense-cached``          :class:`~repro.core.cost.CostModel` with the
                          per-object LRU memo engaged
``dense-uncached``        the same model, memo bypassed
``sparse-tiled``          :class:`~repro.core.cost.SparseCostModel`
                          over ``SparseProblem.from_instance`` with a
                          deliberately tiny tile (width
                          :data:`ORACLE_TILE`) so every multi-object
                          scenario crosses at least one tile boundary
``incremental-replay``    :class:`~repro.core.incremental.\
IncrementalCostEvaluator` attached to the primary-only scheme, the
                          target scheme replayed replica by replica
``sparse-sra-solve``      SRA re-run on the sparse problem; the scheme
                          digest and cost must match the dense solve
========================  ============================================

One documented tolerance exists: ``reference-loop``, the intentionally
naive site-by-site loop (:func:`~repro.core.cost.reference_total_cost`),
accumulates in a different order and is compared within
:data:`REFERENCE_RTOL` relative error instead of bit-identity.

Every path also reports a **scheme digest** (SHA-256 of the packed
``X`` matrix) so scheme-producing paths are compared structurally, not
just by cost.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.conformance.corpus import Scenario
from repro.conformance.invariants import (
    ConformanceContext,
    Violation,
    run_invariants,
)
from repro.core.cost import CostModel, SparseCostModel, reference_total_cost
from repro.core.incremental import IncrementalCostEvaluator
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.obs.holder import observers
from repro.runtime.registry import default_registry
from repro.utils.metrics import MetricsRegistry
from repro.workload.sparse import SparseProblem

#: tile width the oracle forces on the sparse path.  Deliberately tiny:
#: with width 2 any scenario of >= 4 objects exercises multi-tile
#: gathers and the trailing-tile merge, which is exactly where blocked
#: kernels harbour off-by-one bugs.
ORACLE_TILE = 2

#: relative tolerance for the naive reference loop (different summation
#: order than the vectorised paths; everything else is bit-identical)
REFERENCE_RTOL = 1e-9


def scheme_digest(matrix: np.ndarray) -> str:
    """Short SHA-256 digest of a boolean replication matrix."""
    packed = np.packbits(np.ascontiguousarray(matrix, dtype=bool), axis=None)
    h = hashlib.sha256()
    h.update(str(matrix.shape).encode("ascii"))
    h.update(packed.tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class PathResult:
    """Cost (and optionally scheme digest) from one evaluation path."""

    path: str
    total_cost: float
    digest: Optional[str] = None
    exact: bool = True

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "path": self.path,
            "total_cost": self.total_cost,
            "exact": self.exact,
        }
        if self.digest is not None:
            data["digest"] = self.digest
        return data


@dataclass
class ScenarioReport:
    """Everything the oracle concluded about one scenario."""

    name: str
    num_sites: int
    num_objects: int
    paths: List[PathResult] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    violations: List[Violation] = field(default_factory=list)
    scenario: Optional[Scenario] = None

    @property
    def passed(self) -> bool:
        return not self.failures and not self.violations

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "name": self.name,
            "num_sites": self.num_sites,
            "num_objects": self.num_objects,
            "passed": self.passed,
            "paths": [p.to_dict() for p in self.paths],
            "failures": list(self.failures),
            "violations": [v.to_dict() for v in self.violations],
        }
        if self.scenario is not None:
            data["scenario"] = self.scenario.to_dict()
        return data

    def all_failures(self) -> List[str]:
        """Path mismatches and invariant violations as one flat list."""
        return list(self.failures) + [
            f"[{v.invariant}] {v.message}" for v in self.violations
        ]


@dataclass
class CorpusReport:
    """Aggregate verdict over a corpus run."""

    reports: List[ScenarioReport] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def failing(self) -> List[ScenarioReport]:
        return [r for r in self.reports if not r.passed]

    def to_dict(self) -> Dict[str, object]:
        return {
            "passed": self.passed,
            "scenarios": len(self.reports),
            "failing": len(self.failing),
            "reports": [r.to_dict() for r in self.reports],
        }


# --------------------------------------------------------------------- #
def evaluate_paths(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    update_fraction: float = 1.0,
    model: Optional[CostModel] = None,
) -> List[PathResult]:
    """Price one scheme through every evaluation path.

    Returns the per-path results; comparison against the reference path
    is :func:`compare_paths`' job so callers can report *all* divergent
    paths, not just the first.
    """
    if model is None:
        model = CostModel(instance, update_fraction=update_fraction)
    results = [
        PathResult(
            "dense-cached",
            model.total_cost(scheme, cached=True),
            digest=scheme_digest(scheme.matrix),
        ),
        PathResult(
            "dense-uncached",
            model.total_cost(scheme, cached=False),
            digest=scheme_digest(scheme.matrix),
        ),
    ]

    sparse = SparseProblem.from_instance(instance)
    sparse_model = SparseCostModel(
        sparse, update_fraction=update_fraction, tile=ORACLE_TILE
    )
    results.append(
        PathResult(
            "sparse-tiled",
            sparse_model.total_cost(scheme.matrix, cached=False),
            digest=scheme_digest(scheme.matrix),
        )
    )

    # Replay the target scheme replica-by-replica through the evaluator:
    # exercises every delta kernel, must land on the same floats.
    replay_scheme = ReplicationScheme.primary_only(instance)
    evaluator = IncrementalCostEvaluator(model, replay_scheme)
    try:
        target = scheme.matrix
        base = replay_scheme.matrix.copy()
        extra_sites, extra_objs = np.nonzero(target & ~base)
        for site, obj in zip(extra_sites, extra_objs):
            evaluator.apply_add(int(site), int(obj))
        results.append(
            PathResult(
                "incremental-replay",
                evaluator.total_cost(),
                digest=scheme_digest(replay_scheme.matrix),
            )
        )
    finally:
        evaluator.detach()

    results.append(
        PathResult(
            "reference-loop",
            reference_total_cost(
                instance, scheme, update_fraction=update_fraction
            ),
            exact=False,
        )
    )
    return results


def compare_paths(results: Sequence[PathResult]) -> List[str]:
    """Failures from comparing every path against the first (reference).

    Exact paths must match bit for bit; inexact paths within
    :data:`REFERENCE_RTOL`.  Paths carrying a scheme digest must agree
    on it exactly.
    """
    if not results:
        return []
    ref = results[0]
    failures: List[str] = []
    for result in results[1:]:
        if result.exact:
            if result.total_cost != ref.total_cost:
                failures.append(
                    f"path {result.path} cost {result.total_cost!r} != "
                    f"{ref.path} cost {ref.total_cost!r} "
                    f"(delta {result.total_cost - ref.total_cost:.3e})"
                )
        else:
            scale = max(1.0, abs(ref.total_cost))
            if abs(result.total_cost - ref.total_cost) > REFERENCE_RTOL * scale:
                failures.append(
                    f"path {result.path} cost {result.total_cost!r} "
                    f"outside rtol {REFERENCE_RTOL:g} of {ref.path} cost "
                    f"{ref.total_cost!r}"
                )
        if (
            result.digest is not None
            and ref.digest is not None
            and result.digest != ref.digest
        ):
            failures.append(
                f"path {result.path} scheme digest {result.digest} != "
                f"{ref.path} digest {ref.digest}"
            )
    return failures


def _sparse_solve_result(
    ctx: ConformanceContext,
) -> PathResult:
    """SRA re-solved on the sparse problem (same seed-free settings)."""
    sparse = SparseProblem.from_instance(ctx.instance)
    result = default_registry().create(
        "sra", update_fraction=ctx.update_fraction
    ).run(sparse)
    return PathResult(
        "sparse-sra-solve",
        result.total_cost,
        digest=scheme_digest(np.asarray(result.scheme.matrix, dtype=bool)),
    )


def run_instance(
    instance: DRPInstance,
    name: str = "adhoc",
    fault_plan=None,
    seed: int = 0,
    invariant_names: Optional[Sequence[str]] = None,
    scenario: Optional[Scenario] = None,
) -> ScenarioReport:
    """Full oracle verdict for one instance: all paths + all invariants."""
    tracer = observers().tracer
    with tracer.span(
        "conform.scenario",
        scenario=name,
        sites=instance.num_sites,
        objects=instance.num_objects,
    ) as span:
        ctx = ConformanceContext(instance, fault_plan=fault_plan, seed=seed)
        report = ScenarioReport(
            name=name,
            num_sites=instance.num_sites,
            num_objects=instance.num_objects,
            scenario=scenario,
        )
        report.paths = evaluate_paths(
            instance,
            ctx.scheme,
            update_fraction=ctx.update_fraction,
            model=ctx.model,
        )
        report.paths.append(_sparse_solve_result(ctx))
        report.failures = compare_paths(report.paths)
        report.violations = run_invariants(ctx, invariant_names)
        span.set(
            passed=report.passed,
            path_failures=len(report.failures),
            violations=len(report.violations),
        )
        for message in report.all_failures():
            tracer.event("conform.failure", scenario=name, message=message)
    return report


def run_scenario(
    scenario: Scenario,
    invariant_names: Optional[Sequence[str]] = None,
) -> ScenarioReport:
    """Rebuild a scenario deterministically and run the full oracle."""
    return run_instance(
        scenario.build(),
        name=scenario.name,
        fault_plan=scenario.fault_plan,
        seed=scenario.seed,
        invariant_names=invariant_names,
        scenario=scenario,
    )


def run_corpus(
    scenarios: Sequence[Scenario],
    invariant_names: Optional[Sequence[str]] = None,
    registry: Optional[MetricsRegistry] = None,
    progress: Optional[Callable[[ScenarioReport], None]] = None,
) -> CorpusReport:
    """Run the oracle over a corpus, with tracing/telemetry along the way."""
    tracer = observers().tracer
    corpus = CorpusReport()
    with tracer.span("conform.corpus", scenarios=len(scenarios)) as span:
        for scenario in scenarios:
            report = run_scenario(scenario, invariant_names)
            corpus.reports.append(report)
            if registry is not None:
                registry.increment("repro_conform_scenarios_total")
                if not report.passed:
                    registry.increment("repro_conform_failures_total")
            if progress is not None:
                progress(report)
        span.set(passed=corpus.passed, failing=len(corpus.failing))
    return corpus


__all__ = [
    "ORACLE_TILE",
    "REFERENCE_RTOL",
    "CorpusReport",
    "PathResult",
    "ScenarioReport",
    "compare_paths",
    "evaluate_paths",
    "run_corpus",
    "run_instance",
    "run_scenario",
    "scheme_digest",
]
