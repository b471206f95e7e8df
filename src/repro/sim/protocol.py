"""The read/write protocol of Section 2.1, executed per request.

* **Read**: site ``i`` addresses its nearest replicator ``SN_ik`` and
  fetches the object (one transfer of ``o_k`` units over ``C(i, SN_ik)``);
  a local replica serves at zero transfer cost.
* **Write**: site ``i`` ships the updated object to the primary ``SP_k``
  (``o_k`` units over ``C(i, SP_k)``), which then broadcasts it to every
  other replicator ``j`` (``o_k`` units over ``C(SP_k, j)`` each).  The
  writer itself, if a replicator, is not re-sent the update it authored.

Summing these per-request costs over a trace whose counts match the
instance's (r, w) matrices reproduces the analytic ``D(X)`` exactly.

Scheme *realisation* (the nightly redistribution of Section 5) is also
modelled: migrating a replica to a new site pulls the payload from the
nearest pre-existing replica, and its cost is accounted separately as
``MIGRATION`` traffic.

Degraded operation (:mod:`repro.sim.faults`) layers on top: sites crash
and recover over scheduled windows, link costs degrade by multiplicative
factors, and partitions make whole site groups mutually unreachable.
Requests route around all of it — reads fall back to the nearest *alive,
reachable* replica, writes reject when the primary is unavailable, and
realisation pulls payloads only from sources that can actually be
contacted.  With no faults injected every one of those paths reduces to
the original cost-exact protocol.
"""

from __future__ import annotations

from typing import Iterable, Optional, TYPE_CHECKING

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import SimulationError, ValidationError
from repro.obs.holder import observers
from repro.sim.engine import Simulator
from repro.sim.metrics import (
    MIGRATION,
    READ_FETCH,
    UPDATE_BROADCAST,
    WRITE_TO_PRIMARY,
    SimulationMetrics,
)
from repro.workload.trace import READ, Request

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.faults import FaultInjector


class ReplicaSystem:
    """Simulated sites serving reads and writes under a replication scheme.

    Parameters
    ----------
    instance:
        Network, sizes and primaries (its count matrices are *not* used —
        traffic comes from the request trace).
    scheme:
        The deployed replica placement; adopted (copied) at construction
        and mutable afterwards via :meth:`realize_scheme`.
    update_fraction:
        Fraction of the object shipped per write (1.0 = paper's policy).
    """

    def __init__(
        self,
        instance: DRPInstance,
        scheme: ReplicationScheme,
        metrics: Optional[SimulationMetrics] = None,
        update_fraction: float = 1.0,
        write_strategy: "WriteStrategy | str" = None,
    ) -> None:
        from repro.core.strategies import WriteStrategy

        if not 0.0 <= update_fraction <= 1.0:
            raise ValidationError(
                f"update_fraction must lie in [0, 1], got {update_fraction}"
            )
        # Link-fault state must exist before the ``instance`` setter runs.
        self._multipliers: Optional[np.ndarray] = None
        self._unreachable: Optional[np.ndarray] = None
        self.instance = instance
        self.scheme = scheme.copy()
        # A scheme computed against drifted patterns of the same physical
        # system is fine; a different network or storage layout is not.
        self._check_storage_compatible(scheme.instance)
        self.metrics = metrics or SimulationMetrics(
            instance.num_sites, instance.num_objects
        )
        self._uf = update_fraction
        self.write_strategy = WriteStrategy(
            write_strategy or WriteStrategy.PRIMARY_BROADCAST
        )
        # Per-replica freshness for the invalidation strategy; primaries
        # are always fresh.
        self._valid = np.ones(
            (instance.num_sites, instance.num_objects), dtype=bool
        )
        # Failed (down) sites: serve nothing, issue nothing, miss updates.
        self._failed: set = set()

    # ------------------------------------------------------------------ #
    # link faults (degradation / partition)
    # ------------------------------------------------------------------ #
    @property
    def instance(self) -> DRPInstance:
        return self._instance

    @instance.setter
    def instance(self, value: DRPInstance) -> None:
        # The adaptive loop swaps in drifted-pattern instances of the
        # same physical network; keep the effective cost matrix in sync
        # with whatever link faults are currently active.
        self._instance = value
        self._cost = (
            value.cost
            if self._multipliers is None
            else value.cost * self._multipliers
        )

    @property
    def effective_cost(self) -> np.ndarray:
        """The per-unit cost matrix currently in force (faults applied)."""
        return self._cost

    def set_link_faults(
        self,
        multipliers: Optional[np.ndarray],
        unreachable: Optional[np.ndarray],
    ) -> None:
        """Install (or clear, with ``None``) link-level fault state.

        ``multipliers`` scales the base cost matrix element-wise;
        ``unreachable[i, j]`` marks the ``i -> j`` link as delivering
        nothing at all (partition).  Called by
        :class:`~repro.sim.faults.FaultInjector`; passing ``None`` for
        both restores the pristine base matrix exactly.
        """
        m = self._instance.num_sites
        for matrix, name in ((multipliers, "multipliers"),
                             (unreachable, "unreachable")):
            if matrix is not None and matrix.shape != (m, m):
                raise ValidationError(
                    f"{name} must have shape {(m, m)}, got {matrix.shape}"
                )
        self._multipliers = multipliers
        self._unreachable = unreachable
        self._cost = (
            self._instance.cost
            if multipliers is None
            else self._instance.cost * multipliers
        )

    @property
    def has_link_faults(self) -> bool:
        """True while any degradation or partition is in force."""
        return self._multipliers is not None or self._unreachable is not None

    def _reachable(self, src: int, dst: int) -> bool:
        """True when a transfer ``src -> dst`` can currently be delivered."""
        return self._unreachable is None or not self._unreachable[src, dst]

    # ------------------------------------------------------------------ #
    # failure injection
    # ------------------------------------------------------------------ #
    def fail_site(self, site: int) -> None:
        """Take a site down: it serves nothing and misses all updates."""
        if not 0 <= site < self.instance.num_sites:
            raise ValidationError(
                f"site {site} out of range [0, {self.instance.num_sites})"
            )
        self._failed.add(site)

    def recover_site(self, site: int) -> int:
        """Bring a site back; its replicas resynchronise.

        Under the invalidation strategy recovered replicas are simply
        marked stale (they refetch lazily on the next read); under the
        eager strategies each replica refetches immediately from its
        object's primary, accounted as ``MIGRATION`` (recovery) traffic.
        Returns the number of immediate refetches.
        """
        if site not in self._failed:
            raise ValidationError(f"site {site} is not failed")
        from repro.core.strategies import WriteStrategy

        self._failed.discard(site)
        refetches = 0
        for obj in self.scheme.objects_at(site):
            k = int(obj)
            primary = int(self.instance.primaries[k])
            if primary == site:
                continue  # the primary copy is authoritative by definition
            if (
                self.write_strategy is WriteStrategy.INVALIDATION
                or primary in self._failed
                or not self._reachable(site, primary)
            ):
                # No eager refetch possible (or wanted): mark stale so an
                # invalidation read refreshes lazily once the primary is
                # reachable again.  Eager strategies served from such a
                # copy are stale-but-available, as during a primary
                # outage.
                self._valid[site, k] = False
            else:
                self.metrics.record_transfer(
                    MIGRATION,
                    site,
                    k,
                    float(self.instance.sizes[k]),
                    float(self._cost[site, primary]),
                )
                self._valid[site, k] = True
                refetches += 1
        return refetches

    @property
    def failed_sites(self) -> frozenset:
        return frozenset(self._failed)

    def _alive_nearest(self, site: int, obj: int) -> Optional[int]:
        """Nearest alive, *reachable* replicator of ``obj`` from ``site``."""
        reps = [
            int(j)
            for j in self.scheme.replicators(obj)
            if int(j) not in self._failed
        ]
        if self._unreachable is not None:
            reps = [
                j for j in reps if j == site or not self._unreachable[site, j]
            ]
        if not reps:
            return None
        costs = self._cost[site, reps]
        return reps[int(np.argmin(costs))]

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    def _refresh_replica(self, site: int, obj: int) -> float:
        """Refetch a stale replica from the primary; returns its latency."""
        primary = int(self.instance.primaries[obj])
        latency = self.metrics.record_transfer(
            READ_FETCH,
            site,
            obj,
            float(self.instance.sizes[obj]),
            float(self._cost[site, primary]),
        )
        self._valid[site, obj] = True
        return latency

    def _can_refresh(self, holder: int, obj: int) -> bool:
        """Can ``holder`` refetch ``obj`` from its primary right now?"""
        primary = int(self.instance.primaries[obj])
        return primary not in self._failed and self._reachable(holder, primary)

    def handle_read(self, site: int, obj: int) -> float:
        """Serve a read; returns its latency.

        Under the invalidation strategy a stale replica (local or
        nearest) first refetches the current version from the primary.
        """
        from repro.core.strategies import WriteStrategy

        if site in self._failed:
            self.metrics.record_rejected_read()
            return 0.0
        invalidation = self.write_strategy is WriteStrategy.INVALIDATION
        if self.scheme.holds(site, obj):
            if invalidation and not self._valid[site, obj]:
                if self._can_refresh(site, obj):
                    latency = self._refresh_replica(site, obj)
                    self.metrics.record_read_latency(latency)
                    return latency
                # primary down or unreachable: serve the stale copy
                # (availability over freshness during the outage)
                self.metrics.record_served_stale()
            self.metrics.record_local_read()
            return self.metrics.base_latency
        nearest = self._alive_nearest(site, obj)
        if nearest is None:
            self.metrics.record_rejected_read()  # object unavailable
            return 0.0
        latency = 0.0
        if invalidation and not self._valid[nearest, obj]:
            if self._can_refresh(nearest, obj):
                latency += self._refresh_replica(nearest, obj)
            else:
                # the nearest holder cannot refresh either: the fetched
                # copy is stale-but-available
                self.metrics.record_served_stale()
        latency += self.metrics.record_transfer(
            READ_FETCH,
            site,
            obj,
            float(self.instance.sizes[obj]),
            float(self._cost[site, nearest]),
        )
        self.metrics.record_read_latency(latency)
        return latency

    def handle_write(self, site: int, obj: int) -> float:
        """Apply a write; returns the writer-visible latency.

        * primary-broadcast (paper): ship to the primary, which
          broadcasts to the other replicators — the writer waits only for
          the primary leg;
        * writer-multicast: the writer ships directly to every
          replicator and waits for the slowest leg;
        * invalidation: ship to the primary; all other replicas are
          marked stale (invalidation messages are cost-free control
          traffic).
        """
        from repro.core.strategies import WriteStrategy

        if site in self._failed:
            self.metrics.record_rejected_write()
            return 0.0
        size = self._uf * float(self.instance.sizes[obj])
        primary = int(self.instance.primaries[obj])

        if self.write_strategy is WriteStrategy.WRITER_MULTICAST:
            latency = self.metrics.base_latency
            for replicator in self.scheme.replicators(obj):
                j = int(replicator)
                if j == site or j in self._failed:
                    continue  # down replicas miss updates
                if not self._reachable(site, j):
                    # partitioned replicas miss updates too: the copy
                    # goes stale until the partition heals
                    self._valid[j, obj] = False
                    continue
                leg = self.metrics.record_transfer(
                    UPDATE_BROADCAST,
                    j,
                    obj,
                    size,
                    float(self._cost[site, j]),
                )
                latency = max(latency, leg)
            self.metrics.record_write_latency(latency)
            return latency

        if primary in self._failed or not self._reachable(site, primary):
            # the primary-copy protocol cannot apply writes while the
            # primary is down or unreachable (no automatic failover in
            # the paper's model)
            self.metrics.record_rejected_write()
            return 0.0
        latency = self.metrics.record_transfer(
            WRITE_TO_PRIMARY,
            site,
            obj,
            size,
            float(self._cost[site, primary]),
        )
        if self.write_strategy is WriteStrategy.INVALIDATION:
            # stale-mark every replica except the primary and the writer
            # (which authored the new version locally, if it holds one);
            # replicas the primary cannot reach are stale-marked too —
            # they would have missed this invalidation, and marking them
            # keeps the freshness matrix conservative
            for replicator in self.scheme.replicators(obj):
                j = int(replicator)
                if j in (primary, site):
                    continue
                self._valid[j, obj] = False
        else:  # PRIMARY_BROADCAST (the paper's Eq. 4 accounting)
            for replicator in self.scheme.replicators(obj):
                j = int(replicator)
                if j == site or j == primary or j in self._failed:
                    continue
                if not self._reachable(primary, j):
                    self._valid[j, obj] = False  # missed this update
                    continue
                self.metrics.record_transfer(
                    UPDATE_BROADCAST,
                    j,
                    obj,
                    size,
                    float(self._cost[primary, j]),
                )
        self.metrics.record_write_latency(latency)
        return latency

    def handle_request(self, request: Request) -> float:
        if request.kind == READ:
            return self.handle_read(request.site, request.obj)
        return self.handle_write(request.site, request.obj)

    # ------------------------------------------------------------------ #
    # trace replay
    # ------------------------------------------------------------------ #
    def replay(
        self,
        trace: Iterable[Request],
        injector: "Optional[FaultInjector]" = None,
    ) -> SimulationMetrics:
        """Replay a whole trace immediately (no event scheduling).

        With an ``injector``, fault transitions scheduled at or before
        each request's timestamp are applied first, and any remaining
        transitions are drained after the last request — so a replay
        sees exactly the fault timeline a scheduled run would.  With
        ``injector=None`` this is the original zero-overhead loop.
        """
        if injector is None:
            for request in trace:
                self.handle_request(request)
            return self.metrics
        for request in trace:
            injector.advance_to(request.time, self)
            self.handle_request(request)
        injector.drain(self)
        return self.metrics

    def attach(self, simulator: Simulator, trace: Iterable[Request]) -> None:
        """Schedule every request of ``trace`` onto ``simulator``."""
        for request in trace:
            simulator.schedule(
                request.time,
                lambda req=request: self.handle_request(req),
            )

    # ------------------------------------------------------------------ #
    # scheme realisation
    # ------------------------------------------------------------------ #
    def realize_scheme(
        self,
        target: ReplicationScheme,
        skip_unreachable: bool = False,
    ) -> int:
        """Migrate to ``target``: create missing replicas, drop stale ones.

        New replicas pull their payload from the nearest *pre-existing*
        replica (accounted as ``MIGRATION`` traffic); deallocation is
        free.  Returns the number of migrations performed.

        With ``skip_unreachable=True`` (the adaptive loop's degraded
        mode) any part of the migration that cannot currently be carried
        out — a drop or add at a failed site, or an add whose every
        source replica is dead or partitioned away — is silently
        deferred instead of raising, and the final convergence check is
        relaxed accordingly.  Without it, attempting to place a replica
        at a failed site raises :class:`SimulationError`.
        """
        self._check_storage_compatible(target.instance)
        current = self.scheme.matrix
        desired = target.matrix
        migrations = 0
        degraded = bool(self._failed) or self._unreachable is not None
        deferred = False
        ledger = observers().ledger
        # Drops first so capacity frees up before additions land.
        for site, obj in zip(*np.nonzero(current & ~desired)):
            site, obj = int(site), int(obj)
            if skip_unreachable and site in self._failed:
                deferred = True  # cannot instruct a dead site to drop
                if ledger.enabled:
                    ledger.record(
                        "defer", obj=obj, site=site,
                        reason="drop-at-failed-site",
                    )
                continue
            self.scheme.drop_replica(site, obj)
            if ledger.enabled:
                ledger.record("drop", obj=obj, site=site)
        for site, obj in zip(*np.nonzero(desired & ~current)):
            site, obj = int(site), int(obj)
            if site in self._failed:
                if skip_unreachable:
                    deferred = True
                    if ledger.enabled:
                        ledger.record(
                            "defer", obj=obj, site=site,
                            reason="add-at-failed-site",
                        )
                    continue
                raise SimulationError(
                    f"cannot place a replica at failed site {site}; "
                    "use skip_unreachable=True to defer it"
                )
            if degraded:
                source = self._alive_nearest(site, obj)
                if source is None:
                    if skip_unreachable:
                        deferred = True  # no live source right now
                        if ledger.enabled:
                            ledger.record(
                                "defer", obj=obj, site=site,
                                reason="no-reachable-source",
                            )
                        continue
                    raise SimulationError(
                        f"no reachable source replica for object {obj} "
                        f"to populate site {site}"
                    )
            else:
                source = int(self.scheme.nearest_sites(obj)[site])
            self.metrics.record_transfer(
                MIGRATION,
                site,
                obj,
                float(self.instance.sizes[obj]),
                float(self._cost[site, source]),
            )
            self.scheme.add_replica(site, obj)
            if ledger.enabled:
                ledger.record("add", obj=obj, site=site, source=source)
            self._valid[site, obj] = True  # migrated copies are current
            migrations += 1
        if not deferred and not np.array_equal(
            self.scheme.matrix, target.matrix
        ):
            raise SimulationError(
                "scheme realisation did not converge to the target"
            )
        return migrations

    def _check_storage_compatible(self, other: DRPInstance) -> None:
        """Same network/storage layout; patterns are allowed to differ.

        The adaptive loop (Section 5) realises schemes computed against
        drifted patterns on the same physical system.
        """
        base = self.instance
        if (
            other.num_sites != base.num_sites
            or other.num_objects != base.num_objects
            or not np.array_equal(other.cost, base.cost)
            or not np.array_equal(other.sizes, base.sizes)
            or not np.array_equal(other.capacities, base.capacities)
            or not np.array_equal(other.primaries, base.primaries)
        ):
            raise ValidationError(
                "target scheme's instance has a different network or "
                "storage layout"
            )


__all__ = ["ReplicaSystem"]
