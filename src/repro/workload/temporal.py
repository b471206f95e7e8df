"""Temporal workloads: diurnal cycles feeding the adaptive loop.

Section 5 motivates AGRA with patterns that "differ largely from the
night time estimations" during the day.  This module generates such a
day: a sequence of epoch instances (same network and storage, drifting
patterns) for :class:`repro.sim.AdaptiveReplicationLoop`, combining

* a **diurnal intensity curve** — total traffic swells and ebbs
  sinusoidally over the day (peak at mid-day by default);
* **rotating hot sets** — each day a random subset of objects becomes
  read-hot for a few epochs and cools back down (the flash-crowd shape);
* optional **write storms** — a smaller subset turns update-heavy,
  clustered on a neighbourhood of sites (reusing the paper's clustered
  normal assignment).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.problem import DRPInstance
from repro.errors import ValidationError
from repro.utils.rng import SeedLike, as_generator
from repro.workload.mutation import _clustered_sites, _scatter_uniform


@dataclass(frozen=True)
class DiurnalSpec:
    """Shape of one simulated day of traffic.

    Attributes
    ----------
    epochs:
        Number of monitoring epochs per day.
    amplitude:
        Peak-to-trough swing of the diurnal curve as a fraction of the
        base intensity (0.5 = traffic varies between 0.5x and 1.5x).
    hot_fraction:
        Share of objects in each day's read-hot set.
    hot_multiplier:
        Read intensity multiplier applied to the hot set at its peak.
    storm_fraction:
        Share of objects hit by the (optional) write storm; 0 disables.
    storm_multiplier:
        Write intensity multiplier at the storm's peak.
    peak_epoch:
        Epoch index (fractional allowed) of the diurnal maximum.
    """

    epochs: int = 8
    amplitude: float = 0.4
    hot_fraction: float = 0.2
    hot_multiplier: float = 6.0
    storm_fraction: float = 0.1
    storm_multiplier: float = 6.0
    peak_epoch: Optional[float] = None

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValidationError(f"epochs must be >= 1, got {self.epochs}")
        if not 0.0 <= self.amplitude < 1.0:
            raise ValidationError(
                f"amplitude must lie in [0, 1), got {self.amplitude}"
            )
        for name, value in (
            ("hot_fraction", self.hot_fraction),
            ("storm_fraction", self.storm_fraction),
        ):
            if not 0.0 <= value <= 1.0:
                raise ValidationError(
                    f"{name} must lie in [0, 1], got {value}"
                )
        if self.hot_multiplier < 1.0 or self.storm_multiplier < 1.0:
            raise ValidationError("multipliers must be >= 1")


def _scale_counts(
    counts: np.ndarray, factor: float, rng: np.random.Generator
) -> np.ndarray:
    """Scale integer counts by ``factor``, redistributing the surplus.

    Shrinking keeps the per-site shape (floor + stochastic remainder);
    growing adds the surplus one request at a time to random sites, the
    paper's drift procedure.
    """
    counts = counts.astype(np.int64)
    total = int(counts.sum())
    target = int(round(factor * total))
    if target == total or total == 0:
        return counts.copy()
    if target > total:
        extra = _scatter_uniform(target - total, counts.shape[0], rng)
        return counts + extra
    keep = counts * target // max(total, 1)
    deficit = target - int(keep.sum())
    out = keep.astype(np.int64)
    while deficit > 0:
        candidates = np.nonzero(counts - out > 0)[0]
        if candidates.size == 0:
            break
        site = int(rng.choice(candidates))
        out[site] += 1
        deficit -= 1
    return out


def diurnal_epochs(
    base: DRPInstance,
    spec: DiurnalSpec = DiurnalSpec(),
    rng: SeedLike = None,
) -> Tuple[List[DRPInstance], dict]:
    """One day of epoch instances derived from ``base``.

    Returns the epoch list plus a manifest describing the day: the hot
    object set, the storm set (possibly empty), its centre site, and the
    per-epoch intensity factors.
    """
    gen = as_generator(rng)
    n = base.num_objects
    m = base.num_sites

    num_hot = int(round(spec.hot_fraction * n))
    hot = sorted(int(k) for k in gen.choice(n, size=num_hot, replace=False))
    cold = [k for k in range(n) if k not in set(hot)]
    num_storm = int(round(spec.storm_fraction * n))
    storm = sorted(
        int(k) for k in gen.choice(cold or range(n), size=min(
            num_storm, len(cold) or n), replace=False)
    )
    storm_centre = int(gen.integers(m))

    peak = (
        spec.peak_epoch
        if spec.peak_epoch is not None
        else (spec.epochs - 1) / 2.0
    )
    epochs: List[DRPInstance] = []
    factors: List[float] = []
    for epoch in range(spec.epochs):
        # cosine bump centred on the peak epoch
        phase = (epoch - peak) / max(spec.epochs, 1) * 2.0 * math.pi
        intensity = 1.0 + spec.amplitude * math.cos(phase)
        factors.append(intensity)
        # how "on" the hot/storm effects are this epoch (same bump)
        effect = max(0.0, math.cos(phase))

        reads = base.reads.astype(np.int64).copy()
        writes = base.writes.astype(np.int64).copy()
        for k in range(n):
            factor = intensity
            if k in hot:
                factor *= 1.0 + (spec.hot_multiplier - 1.0) * effect
            reads[:, k] = _scale_counts(base.reads[:, k], factor, gen)
        for k in storm:
            surge = 1.0 + (spec.storm_multiplier - 1.0) * effect
            target = int(round(surge * float(base.writes[:, k].sum())))
            extra = target - int(base.writes[:, k].sum())
            if extra > 0:
                sites = _clustered_sites(extra, m, gen)
                np.add.at(writes[:, k], sites, 1)
        epochs.append(base.with_patterns(reads=reads, writes=writes))

    manifest = {
        "hot_objects": hot,
        "storm_objects": storm,
        "storm_centre": storm_centre,
        "intensity_factors": factors,
    }
    return epochs, manifest


__all__ = ["DiurnalSpec", "diurnal_epochs"]
