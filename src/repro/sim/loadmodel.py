"""Server-load and response-time estimation (M/M/1 capacity planning).

NTC measures *bytes x distance*; users feel *time*.  Beyond the linear
latency of :class:`~repro.sim.metrics.SimulationMetrics`, this module
estimates queueing delay at the sites themselves: each site is an M/M/1
server draining the data units it must serve per unit time (reads fetched
from it, write shipments it emits, broadcasts its primaries fan out).

Given a statistics window of ``duration`` seconds and a per-site service
rate (units/second), it reports utilisation, the bottleneck site, and a
mean response-time estimate combining network transfer latency and the
M/M/1 sojourn time ``1 / (mu - lambda)``.  Sites at or beyond capacity
make the system infeasible (response times diverge) — the capacity
question the paper's storage constraint does not ask.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from repro.core.problem import DRPInstance
from repro.core.scheme import ReplicationScheme
from repro.errors import ValidationError


@dataclass(frozen=True)
class LoadReport:
    """Utilisation and response estimate of one scheme under load."""

    served_units: np.ndarray  # per-site data units served in the window
    utilization: np.ndarray  # per-site rho = lambda / mu
    bottleneck_site: int
    feasible: bool  # every site's rho < 1
    mean_read_response: float  # seconds; inf when infeasible
    mean_queueing_delay: float  # seconds; inf when infeasible

    @property
    def peak_utilization(self) -> float:
        return float(self.utilization[self.bottleneck_site])


def served_units(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    update_fraction: float = 1.0,
) -> np.ndarray:
    """Data units each site must *serve* over the statistics window.

    * a read by a non-holder is served by its nearest replicator;
    * a write shipment is served by the writer (it uploads the object);
    * update broadcasts are served by the primary (one copy per other
      replicator per write).

    Local reads are free (no transfer), matching the cost model.
    """
    m = instance.num_sites
    load = np.zeros(m)
    for obj in range(instance.num_objects):
        size = float(instance.sizes[obj])
        wsize = update_fraction * size
        primary = int(instance.primaries[obj])
        nearest = scheme.nearest_sites(obj)
        holders = scheme.matrix[:, obj]
        degree = int(holders.sum())
        total_writes = float(instance.writes[:, obj].sum())
        for site in range(m):
            reads = float(instance.reads[site, obj])
            if reads and not holders[site]:
                load[int(nearest[site])] += reads * size
            writes = float(instance.writes[site, obj])
            if writes and site != primary:
                load[site] += writes * wsize
        # the primary fans each write out to every other replicator
        # (minus the leg back to a writing replicator, which the writer
        # covered by shipping the fresh copy -- accounted above)
        if degree > 1 and total_writes:
            fanout = degree - 1
            load[primary] += total_writes * wsize * fanout
            # subtract the self-legs: a writing replicator is not re-sent
            writers_holding = float(
                instance.writes[holders & (np.arange(m) != primary), obj].sum()
            )
            load[primary] -= writers_holding * wsize
    return load


def estimate_load(
    instance: DRPInstance,
    scheme: ReplicationScheme,
    duration: float,
    service_rate: Union[float, np.ndarray],
    unit_latency: float = 0.0,
    update_fraction: float = 1.0,
) -> LoadReport:
    """M/M/1 utilisation and response-time estimate.

    Parameters
    ----------
    duration:
        Length in seconds of the window the instance's counts cover.
    service_rate:
        Units/second each site can serve (scalar or per-site array).
    unit_latency:
        Seconds per cost-weighted data unit in flight (network part of
        the response time); 0 isolates the queueing component.
    """
    if duration <= 0:
        raise ValidationError(f"duration must be > 0, got {duration}")
    rates = np.broadcast_to(
        np.asarray(service_rate, dtype=float), (instance.num_sites,)
    ).copy()
    if np.any(rates <= 0):
        raise ValidationError("service_rate must be positive")

    units = served_units(instance, scheme, update_fraction)
    arrival_rates = units / duration
    utilization = arrival_rates / rates
    bottleneck = int(np.argmax(utilization))
    feasible = bool(np.all(utilization < 1.0))

    # mean sojourn time at each site: 1 / (mu - lambda) (M/M/1, per unit)
    if feasible:
        sojourn = 1.0 / (rates - arrival_rates)
    else:
        sojourn = np.where(
            utilization < 1.0, 1.0 / (rates - arrival_rates), np.inf
        )

    # aggregate read response: per non-local read, network latency plus
    # the serving site's queueing delay weighted by the transfer size
    total_reads = 0.0
    total_response = 0.0
    total_delay = 0.0
    for obj in range(instance.num_objects):
        size = float(instance.sizes[obj])
        nearest = scheme.nearest_sites(obj)
        holders = scheme.matrix[:, obj]
        for site in range(instance.num_sites):
            reads = float(instance.reads[site, obj])
            if reads == 0.0:
                continue
            total_reads += reads
            if holders[site]:
                continue  # local read: zero transfer and queueing
            server = int(nearest[site])
            network = (
                unit_latency * size * float(instance.cost[site, server])
            )
            queueing = float(sojourn[server]) * size
            total_response += reads * (network + queueing)
            total_delay += reads * queueing
    mean_response = total_response / total_reads if total_reads else 0.0
    mean_delay = total_delay / total_reads if total_reads else 0.0

    return LoadReport(
        served_units=units,
        utilization=utilization,
        bottleneck_site=bottleneck,
        feasible=feasible,
        mean_read_response=float(mean_response),
        mean_queueing_delay=float(mean_delay),
    )


__all__ = ["LoadReport", "served_units", "estimate_load"]
