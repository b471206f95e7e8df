"""The adaptive monitor loop of Section 5, end to end.

The paper's operational story: a monitor site collects per-object R/W
statistics every few minutes; when an object's pattern drifts past a
threshold, AGRA computes a new replication scheme quickly enough to be
realised on-line (object migration and deallocation), so the network stays
tuned between the nightly full redistributions.

:class:`AdaptiveReplicationLoop` simulates that loop over a sequence of
*epochs*.  Each epoch carries its own (possibly drifted) read/write
patterns; its traffic is replayed through :class:`~repro.sim.protocol.
ReplicaSystem`, and at the epoch boundary the monitor compares observed
totals against the patterns the current scheme was computed for,
triggering AGRA (optionally with a mini-GRA) on the objects that moved.
Scheme realisation costs (migrations) are accounted so the loop's benefit
can be judged net of its overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.algorithms.agra.params import AGRAParams, PAPER_AGRA_PARAMS
from repro.algorithms.gra.params import GAParams, PAPER_PARAMS
from repro.core.cost import CostModel
from repro.core.incremental import IncrementalCostEvaluator
from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError
from repro.obs.holder import observers
from repro.runtime.registry import default_registry
from repro.sim.faults import FaultInjector, FaultPlan
from repro.sim.metrics import SimulationMetrics
from repro.sim.protocol import ReplicaSystem
from repro.utils.rng import SeedLike, as_generator
from repro.workload.mutation import detect_changed_objects
from repro.workload.trace import generate_trace


@dataclass
class EpochRecord:
    """What happened during one monitored epoch."""

    epoch: int
    savings_percent: float
    measured_ntc: float
    changed_objects: List[int]
    adapted: bool
    migrations: int
    adaptation_seconds: float
    # Degraded-mode bookkeeping (defaults keep fault-free construction
    # sites unchanged).
    failed_sites: List[int] = field(default_factory=list)
    deferred_replicas: int = 0
    resumed_migrations: int = 0


@dataclass
class AdaptiveLoopReport:
    """Outcome of a full adaptive-loop simulation."""

    epochs: List[EpochRecord]
    metrics: SimulationMetrics
    final_scheme: ReplicationScheme

    @property
    def adaptations(self) -> int:
        return sum(1 for record in self.epochs if record.adapted)

    @property
    def total_migrations(self) -> int:
        return sum(record.migrations for record in self.epochs)

    def savings_series(self) -> List[float]:
        return [record.savings_percent for record in self.epochs]


class AdaptiveReplicationLoop:
    """Monitor-site loop: observe traffic, detect drift, adapt with AGRA.

    Parameters
    ----------
    instance:
        The patterns the initial scheme was computed for (the "night
        estimate").
    initial_scheme:
        The deployed scheme at epoch 0 (typically from GRA).
    threshold:
        Relative drift in an object's total reads or writes that triggers
        adaptation (Section 5's "threshold value"); 0.5 == 50%.
    mini_gra_generations:
        Refinement budget handed to AGRA per adaptation (paper evaluates
        0, 5 and 10).
    seed_matrices:
        Final population of the GRA run that produced ``initial_scheme``
        (improves AGRA's transcription).
    fault_plan:
        Optional :class:`~repro.sim.faults.FaultPlan` whose transition
        times are interpreted as **epoch numbers**: transitions due at
        or before epoch ``i`` apply at the start of epoch ``i``.  While
        sites are down, AGRA reallocation onto them is deferred and
        re-realised once they recover.

    The deployed scheme is priced by one live
    :class:`~repro.core.incremental.IncrementalCostEvaluator` kept across
    all epochs: scheme realisations update it through the change listener
    and each epoch's drifted patterns are adopted with ``rebind_model``
    (O(M*N)) instead of pricing the deployed scheme from scratch.
    """

    def __init__(
        self,
        instance: DRPInstance,
        initial_scheme: ReplicationScheme,
        threshold: float = 0.5,
        mini_gra_generations: int = 5,
        agra_params: AGRAParams = PAPER_AGRA_PARAMS,
        gra_params: GAParams = PAPER_PARAMS,
        seed_matrices: Sequence[np.ndarray] = (),
        rng: SeedLike = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if threshold < 0:
            raise ValidationError(f"threshold must be >= 0, got {threshold}")
        self._assumed = instance
        self._threshold = threshold
        self._mini = mini_gra_generations
        self._agra_params = agra_params
        self._gra_params = gra_params
        self._seed_matrices = [
            np.asarray(m, dtype=bool).copy() for m in seed_matrices
        ]
        self._rng = as_generator(rng)
        self.system = ReplicaSystem(instance, initial_scheme)
        self._injector = (
            FaultInjector(fault_plan)
            if fault_plan is not None and not fault_plan.is_empty
            else None
        )
        # A target scheme whose realisation was cut short by failures;
        # retried at every epoch boundary until it fully lands.
        self._pending: Optional[ReplicationScheme] = None
        self._evaluator: Optional[IncrementalCostEvaluator] = None

    # ------------------------------------------------------------------ #
    def run(self, epochs: Sequence[DRPInstance]) -> AdaptiveLoopReport:
        """Simulate ``epochs`` of traffic with adaptation at boundaries.

        Every epoch instance must share the assumed instance's network,
        sizes, capacities and primaries — only patterns may differ.
        """
        records: List[EpochRecord] = []
        sink = observers().sink
        profiler = observers().profiler
        for index, epoch_instance in enumerate(epochs):
            self._check_compatible(epoch_instance)
            # Apply fault transitions due at this epoch boundary, then
            # retry any adaptation that previous failures cut short.
            if self._injector is not None:
                self._injector.advance_to(float(index), self.system)
            resumed = self._resume_pending(index)
            # Replay this epoch's traffic against the deployed scheme.
            trace = generate_trace(epoch_instance, rng=self._rng)
            self.system.instance = epoch_instance  # costs use new patterns
            before_ntc = self.system.metrics.request_ntc
            self.system.replay(trace)
            measured = self.system.metrics.request_ntc - before_ntc

            model = CostModel(epoch_instance)
            current_cost = self._deployed_cost(model)
            savings = self._savings_percent(model, current_cost)

            # Monitor: compare observed patterns with the assumed ones.
            changed = detect_changed_objects(
                self._assumed, epoch_instance, threshold=self._threshold
            )
            adapted = False
            migrations = 0
            deferred = 0
            adaptation_seconds = 0.0
            if changed:
                agra = default_registry().create(
                    "agra",
                    seed=self._rng,
                    params=self._agra_params,
                    gra_params=self._gra_params,
                )
                with observers().ledger.scope(
                    algorithm="agra",
                    epoch=index,
                    trigger="pattern-drift",
                    changed_objects=len(changed),
                ):
                    result = agra.adapt(
                        epoch_instance,
                        self.system.scheme,
                        changed_objects=changed,
                        seed_matrices=self._seed_matrices,
                        mini_gra_generations=self._mini,
                    )
                    adaptation_seconds = result.runtime_seconds
                    # Only realise schemes that actually improve the new
                    # cost.
                    if result.total_cost < current_cost:
                        migrations, deferred = self._realize(
                            result.scheme, index
                        )
                        adapted = True
                        self._assumed = epoch_instance

            records.append(
                EpochRecord(
                    epoch=index,
                    savings_percent=savings,
                    measured_ntc=measured,
                    changed_objects=changed,
                    adapted=adapted,
                    migrations=migrations,
                    adaptation_seconds=adaptation_seconds,
                    failed_sites=sorted(self.system.failed_sites),
                    deferred_replicas=deferred,
                    resumed_migrations=resumed,
                )
            )
            profiler.tick()
            if sink.enabled:
                # One snapshot per epoch gives the JSONL exporter the
                # per-epoch time series the paper's Fig. 4 is about; the
                # OpenMetrics file ends up holding the latest epoch.
                sink.set_gauge("repro_adaptive_epoch", index)
                sink.set_gauge("repro_adaptive_epoch_ntc", measured)
                sink.set_gauge("repro_adaptive_savings_percent", savings)
                sink.set_gauge(
                    "repro_adaptive_changed_objects", len(changed)
                )
                sink.set_gauge("repro_adaptive_adapted", int(adapted))
                sink.set_gauge("repro_adaptive_migrations", migrations)
                sink.set_gauge(
                    "repro_adaptive_deferred_replicas", deferred
                )
                sink.set_gauge(
                    "repro_adaptive_resumed_migrations", resumed
                )
                sink.set_gauge(
                    "repro_adaptive_failed_sites",
                    len(self.system.failed_sites),
                )
                self.system.metrics.publish(sink)
                sink.snapshot(tick=index)
        return AdaptiveLoopReport(
            epochs=records,
            metrics=self.system.metrics,
            final_scheme=self.system.scheme.copy(),
        )

    # ------------------------------------------------------------------ #
    def _deployed_cost(self, model: CostModel) -> float:
        """``D`` of the deployed scheme under this epoch's patterns.

        The live evaluator already maintains the deployed scheme's
        per-object terms; adopting the epoch's model is one
        ``rebind_model`` (the network is fixed across epochs — only
        patterns drift).
        """
        if self._evaluator is None:
            # The evaluator must be born against the scheme's own
            # instance; the epoch's drifted patterns are adopted right
            # after through the rebind below.
            self._evaluator = IncrementalCostEvaluator(
                CostModel(self.system.scheme.instance),
                self.system.scheme,
            )
        self._evaluator.rebind_model(model)
        return self._evaluator.total_cost()

    def _savings_percent(self, model: CostModel, cost: float) -> float:
        """``CostModel.savings_percent`` from an already-known total."""
        d_prime = model.d_prime()
        if d_prime == 0.0:
            return 0.0 if cost == 0.0 else float("-inf")
        return 100.0 * (d_prime - cost) / d_prime

    def _realize(
        self, target: ReplicationScheme, epoch: int
    ) -> "tuple[int, int]":
        """Realise ``target``, deferring what failures make impossible.

        Returns ``(migrations, deferred_replicas)``.  A partial
        realisation parks the target in ``self._pending`` for retry at
        later epoch boundaries.
        """
        degraded = bool(self.system.failed_sites) or self.system.has_link_faults
        migrations = self.system.realize_scheme(
            target, skip_unreachable=degraded
        )
        deferred = int(
            np.sum(self.system.scheme.matrix != target.matrix)
        )
        if deferred:
            self._pending = target.copy()
            observers().tracer.event(
                "adaptive.defer",
                epoch=epoch,
                deferred_replicas=deferred,
                failed_sites=sorted(self.system.failed_sites),
            )
        else:
            self._pending = None
        return migrations, deferred

    def _resume_pending(self, epoch: int) -> int:
        """Retry a deferred realisation; returns migrations performed."""
        if self._pending is None:
            return 0
        ledger = observers().ledger
        with ledger.scope(
            algorithm="agra", epoch=epoch, trigger="fault-recovery"
        ):
            migrations = self.system.realize_scheme(
                self._pending, skip_unreachable=True
            )
        if np.array_equal(self.system.scheme.matrix, self._pending.matrix):
            self._pending = None
        if migrations:
            observers().tracer.event(
                "adaptive.resume",
                epoch=epoch,
                migrations=migrations,
                complete=self._pending is None,
            )
            if ledger.enabled:
                ledger.record(
                    "resume",
                    epoch=epoch,
                    migrations=migrations,
                    complete=self._pending is None,
                )
        return migrations

    # ------------------------------------------------------------------ #
    def _check_compatible(self, other: DRPInstance) -> None:
        base = self._assumed
        if (
            other.num_sites != base.num_sites
            or other.num_objects != base.num_objects
            or not np.array_equal(other.cost, base.cost)
            or not np.array_equal(other.sizes, base.sizes)
            or not np.array_equal(other.capacities, base.capacities)
            or not np.array_equal(other.primaries, base.primaries)
        ):
            raise ValidationError(
                "epoch instance must differ from the assumed instance only "
                "in read/write patterns"
            )


__all__ = ["EpochRecord", "AdaptiveLoopReport", "AdaptiveReplicationLoop"]
