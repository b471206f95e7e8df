"""Process-pool fan-out of the experiment harness.

The paper averages every data point over 15 independently generated
networks; serially that makes Figures 1-4 wall-clock bound by a single
core.  :class:`ParallelRunner` fans the ``(instance_seed x
algorithm_factory)`` grid of :func:`~repro.experiments.harness.
average_static_runs` out over a :class:`concurrent.futures.
ProcessPoolExecutor` while keeping the results **bit-identical** to the
serial harness:

* the per-instance :class:`numpy.random.SeedSequence` children are
  derived exactly as the serial loop derives them (each task re-spawns
  ``instances + algorithms`` children from its own pickled copy of the
  instance seed, whose spawn counter is still zero), so instance
  generation and every stochastic algorithm see the same streams
  regardless of worker count or scheduling order;
* cost evaluation is an exact deterministic function of the instance, so
  sharing (serial) versus not sharing (parallel) a
  :class:`~repro.core.cost.CostModel` cache cannot change any number —
  on float costs and sizes as well as integer ones, because every path
  that fills the cache (batch, cached scalar, full recompute) prices a
  column through the one Eq. 4 expression and memoises the same bits.

Cross-cutting state rides on the runtime layer: every task carries an
uninstalled :meth:`~repro.runtime.context.RunContext.fork` child of the
ambient context, and the fork's ``install()`` performs the per-worker
tracer setup (fresh per-task tracer in a pool worker, straight into the
live tracer in-process) that this module used to hand-roll with pid
checks.

Robustness: each task gets a soft per-task timeout, and any task whose
worker crashes (``BrokenProcessPool``), times out, or cannot be shipped
to a worker in the first place (unpicklable factory, e.g. a lambda) is
retried **once, in-process** — the retry computes the same seeds, so the
fall-back changes wall-clock only, never results.

A default worker count comes from the active
:class:`~repro.runtime.context.RunContext`'s ``max_workers`` (the CLI
``--parallel N`` flag sets it) or the ``REPRO_PARALLEL`` environment
variable; ``average_static_runs`` picks it up when no explicit
``max_workers`` is passed, so every figure sweep inherits the fan-out
without touching figure code.
"""

from __future__ import annotations

import pickle
import warnings
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.algorithms.base import AlgorithmResult
from repro.algorithms.gra.engine import GRA
from repro.algorithms.gra.params import GAParams
from repro.algorithms.sra import SRA
from repro.core.cost import CostModel
from repro.errors import ValidationError
from repro.obs.holder import observers
from repro.runtime.context import (
    PARALLEL_ENV_VAR,
    RunContext,
    ambient_context,
    resolve_max_workers,
)
from repro.runtime.registry import default_registry
from repro.utils.metrics import MetricsRegistry, Snapshot
from repro.utils.rng import SeedLike, spawn_seeds
from repro.utils.tracing import Record
from repro.workload.generator import generate_instance
from repro.workload.spec import WorkloadSpec


# --------------------------------------------------------------------- #
# picklable algorithm factories (lambdas cannot cross process borders)
# --------------------------------------------------------------------- #
class SRAFactory:
    """Picklable ``AlgorithmFactory`` building a fresh :class:`SRA`."""

    def __call__(self, seed: np.random.SeedSequence) -> SRA:
        return default_registry().create("sra")


class GRAFactory:
    """Picklable ``AlgorithmFactory`` building a fresh :class:`GRA`."""

    def __init__(self, params: Optional[GAParams] = None) -> None:
        self.params = params or GAParams()

    def __call__(self, seed: np.random.SeedSequence) -> GRA:
        return default_registry().create("gra", seed=seed, params=self.params)


# --------------------------------------------------------------------- #
# the unit of fan-out
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class _Task:
    """One (instance seed x algorithm) cell of the harness grid."""

    spec: WorkloadSpec
    label: str
    factory: object
    factory_index: int
    num_factories: int
    instance_index: int
    instance_seed: np.random.SeedSequence
    collect_metrics: bool
    fork: RunContext


def _run_task(
    task: _Task,
) -> Tuple[int, str, AlgorithmResult, Optional[Snapshot], Optional[Record]]:
    """Execute one grid cell; top-level so worker processes can import it.

    Spawns the same ``num_factories + 1`` children the serial harness
    spawns from this instance seed: child 0 generates the network, child
    ``1 + factory_index`` drives the algorithm.  Identical seeds in every
    execution mode is what makes serial and parallel runs bit-identical.

    The seed is re-derived from its entropy/spawn-key state rather than
    spawned directly: several tasks share one instance seed, and
    ``SeedSequence.spawn`` mutates its spawn counter — re-deriving resets
    the counter to zero so every task sees the same children whether it
    runs in a worker (fresh pickled copy) or in-process (shared object).

    The task's :class:`RunContext` fork decides — by pid, inside its
    ``install()`` — whether this call runs in a pool worker (fresh
    per-task tracer whose snapshot ships back for re-parenting) or
    in-process (records straight into the live tracer, ships ``None``).
    """
    seq = task.instance_seed
    seq = np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
    )
    children = seq.spawn(task.num_factories + 1)
    fork = task.fork
    with fork.activate():
        with fork.tracer.span(
            "harness.task",
            label=task.label,
            instance=task.instance_index,
        ):
            instance = generate_instance(task.spec, rng=children[0])
            registry = MetricsRegistry() if task.collect_metrics else None
            model = CostModel(instance, metrics=registry)
            algorithm = task.factory(children[1 + task.factory_index])
            result = algorithm.run(instance, model)
        snapshot = registry.snapshot() if registry is not None else None
        trace = fork.trace_snapshot()
    return task.instance_index, task.label, result, snapshot, trace


@dataclass(frozen=True)
class _ReplayTask:
    """One chaos-replay cell: SRA scheme + faulty trace replay."""

    spec: WorkloadSpec
    plan: object  # repro.sim.faults.FaultPlan (picklable frozen dataclass)
    instance_index: int
    instance_seed: np.random.SeedSequence
    fork: RunContext


def _run_replay_task(
    task: _ReplayTask,
) -> Tuple[int, Dict[str, float], Optional[Snapshot], Optional[Record]]:
    """Execute one chaos-replay cell; top-level for worker import.

    Spawns exactly two children from the (re-derived) instance seed:
    child 0 generates the network, child 1 shuffles the request trace —
    the same derivation in every execution mode, so serial and parallel
    chaos runs produce identical metrics.  Tracer handling rides on the
    fork exactly as in :func:`_run_task`.
    """
    from repro.sim.faults import FaultInjector
    from repro.sim.protocol import ReplicaSystem
    from repro.workload.trace import generate_trace

    seq = task.instance_seed
    seq = np.random.SeedSequence(
        entropy=seq.entropy,
        spawn_key=seq.spawn_key,
        pool_size=seq.pool_size,
    )
    children = seq.spawn(2)
    fork = task.fork
    with fork.activate():
        with fork.tracer.span(
            "harness.chaos_task", instance=task.instance_index
        ):
            instance = generate_instance(task.spec, rng=children[0])
            result = default_registry().create("sra").run(instance)
            trace = generate_trace(instance, rng=children[1])
            system = ReplicaSystem(instance, result.scheme)
            injector = FaultInjector(task.plan)
            system.replay(trace, injector=injector)
            summary = system.metrics.summary()
        trace_snapshot = fork.trace_snapshot()
    return task.instance_index, summary, None, trace_snapshot


class ParallelRunner:
    """Fans harness grids over worker processes; falls back to serial.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` resolves via :func:`resolve_max_workers`
        (explicit > the active context > ``$REPRO_PARALLEL`` > serial).
        ``1`` runs everything in-process with no executor at all, so CI
        and small runs behave exactly as before.
    task_timeout:
        Soft per-task seconds to wait for a worker's result before the
        task is re-run in-process (``None`` waits forever).
    """

    def __init__(
        self,
        max_workers: Optional[int] = None,
        task_timeout: Optional[float] = None,
    ) -> None:
        self.max_workers = resolve_max_workers(max_workers)
        if task_timeout is not None and task_timeout <= 0:
            raise ValidationError(
                f"task_timeout must be > 0, got {task_timeout}"
            )
        self.task_timeout = task_timeout

    @property
    def serial(self) -> bool:
        return self.max_workers <= 1

    # ------------------------------------------------------------------ #
    def average_static_runs(
        self,
        spec: WorkloadSpec,
        factories: Dict[str, object],
        instances: int,
        seed: SeedLike = None,
        metrics: Optional[MetricsRegistry] = None,
    ):
        """Parallel drop-in for :func:`~repro.experiments.harness.average_static_runs`.

        Same paired-instance design and the same seed derivation; returns
        the same ``{label: InstanceAverages}`` mapping, bit-identical to
        the serial harness for any worker count (runtimes excepted — they
        are wall-clock measurements, not derived quantities).
        """
        from repro.experiments.harness import InstanceAverages

        if instances < 1:
            raise ValidationError(
                f"instances must be >= 1, got {instances}"
            )
        if not factories:
            raise ValidationError("need at least one algorithm factory")
        metrics = metrics if metrics is not None else observers().metrics
        ctx = ambient_context()
        tracer = observers().tracer
        labels = list(factories)
        instance_seeds = spawn_seeds(seed, instances)
        tasks = [
            _Task(
                spec=spec,
                label=label,
                factory=factories[label],
                factory_index=j,
                num_factories=len(labels),
                instance_index=i,
                instance_seed=inst_seed,
                collect_metrics=metrics is not None,
                fork=ctx.fork(i * len(labels) + j),
            )
            for i, inst_seed in enumerate(instance_seeds)
            for j, label in enumerate(labels)
        ]
        with tracer.span(
            "harness.average_static_runs",
            instances=instances,
            algorithms=len(labels),
            workers=self.max_workers,
        ) as root:
            outcomes = self._run_tasks(tasks)
            results: Dict[str, List[AlgorithmResult]] = {
                label: [] for label in labels
            }
            # Merging in task order keeps the re-assigned span ids (and
            # therefore the exported trace) deterministic for any worker
            # count or completion order.
            for _index, label, result, snapshot, trace in outcomes:
                results[label].append(result)
                if metrics is not None and snapshot is not None:
                    metrics.merge_snapshot(snapshot)
                if trace is not None:
                    tracer.merge_snapshot(trace, parent_id=root.id)
        if metrics is not None:
            metrics.increment("harness.instances", instances)
            metrics.increment("harness.tasks", len(tasks))
        return {
            label: InstanceAverages.from_results(runs)
            for label, runs in results.items()
        }

    # ------------------------------------------------------------------ #
    def chaos_replay_runs(
        self,
        spec: WorkloadSpec,
        plan,
        instances: int,
        seed: SeedLike = None,
    ) -> List[Dict[str, float]]:
        """Replay SRA schemes under a fault plan on fresh networks.

        For each of ``instances`` generated networks: solve with SRA,
        generate the matching request trace, and replay it through a
        :class:`~repro.sim.faults.FaultInjector` driven by ``plan``.
        Returns the per-instance ``SimulationMetrics.summary()`` dicts in
        instance order — bit-identical for any worker count (the chaos
        determinism guarantee the fault test-suite asserts).
        """
        if instances < 1:
            raise ValidationError(
                f"instances must be >= 1, got {instances}"
            )
        ctx = ambient_context()
        tracer = observers().tracer
        tasks = [
            _ReplayTask(
                spec=spec,
                plan=plan,
                instance_index=i,
                instance_seed=inst_seed,
                fork=ctx.fork(i),
            )
            for i, inst_seed in enumerate(spawn_seeds(seed, instances))
        ]
        with tracer.span(
            "harness.chaos_replay_runs",
            instances=instances,
            workers=self.max_workers,
        ) as root:
            outcomes = self._run_tasks(tasks, fn=_run_replay_task)
            summaries: List[Dict[str, float]] = [None] * len(tasks)
            for index, summary, _snapshot, trace in outcomes:
                summaries[index] = summary
                if trace is not None:
                    tracer.merge_snapshot(trace, parent_id=root.id)
        return summaries

    # ------------------------------------------------------------------ #
    def _run_tasks(self, tasks: List, fn=_run_task) -> List[Tuple]:
        """Run every task, preserving order; retry failures in-process."""
        if self.serial or len(tasks) <= 1:
            return [fn(task) for task in tasks]
        if not self._picklable(tasks):
            warnings.warn(
                "algorithm factories are not picklable (lambdas?); "
                "running serially — use module-level factories such as "
                "repro.experiments.parallel.SRAFactory/GRAFactory to "
                "enable process fan-out",
                RuntimeWarning,
                stacklevel=3,
            )
            return [fn(task) for task in tasks]
        outcomes: List[Optional[Tuple]] = [None] * len(tasks)
        workers = min(self.max_workers, len(tasks))
        executor = ProcessPoolExecutor(max_workers=workers)
        try:
            futures = {
                i: executor.submit(fn, task)
                for i, task in enumerate(tasks)
            }
            for i, future in futures.items():
                try:
                    outcomes[i] = future.result(timeout=self.task_timeout)
                except (BrokenExecutor, FutureTimeoutError, OSError):
                    outcomes[i] = None  # retried below, in-process
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                # retry-once: same seeds, same numbers, just local CPU
                outcomes[i] = fn(tasks[i])
        return outcomes  # type: ignore[return-value]

    @staticmethod
    def _picklable(tasks: List) -> bool:
        seen = set()
        for task in tasks:
            # replay tasks carry no factory; their payload (a frozen
            # FaultPlan) is always picklable
            factory = getattr(task, "factory", None)
            if factory is None:
                continue
            marker = id(factory)
            if marker in seen:
                continue
            seen.add(marker)
            try:
                pickle.dumps(factory)
            except Exception:
                return False
        return True


def parallel_average_static_runs(
    spec: WorkloadSpec,
    factories: Dict[str, object],
    instances: int,
    seed: SeedLike = None,
    max_workers: Optional[int] = None,
    task_timeout: Optional[float] = None,
    metrics: Optional[MetricsRegistry] = None,
):
    """One-shot convenience wrapper around :class:`ParallelRunner`."""
    runner = ParallelRunner(max_workers=max_workers, task_timeout=task_timeout)
    return runner.average_static_runs(
        spec, factories, instances, seed=seed, metrics=metrics
    )


__all__ = [
    "PARALLEL_ENV_VAR",
    "ParallelRunner",
    "SRAFactory",
    "GRAFactory",
    "resolve_max_workers",
    "parallel_average_static_runs",
]
