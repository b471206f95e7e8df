"""Definitions of every figure in Section 6.

Each ``figN`` function reproduces one figure as a :class:`FigureResult` —
the x axis, and one y series per legend entry — at the requested scale
profile.  Figures that share a parameter sweep (1a/1b/2a/2b share the
sites sweep; 1c/1d the objects sweep; 4a/4d the reads-increase sweep)
share one cached computation, keyed by profile name and master seed, so
regenerating a whole figure family costs one sweep.

Quality is reported exactly as in the paper: the mean percentage of NTC
saved relative to the primary-only allocation over ``profile.instances``
independently generated networks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.agra.policies import run_adaptation
from repro.algorithms.gra.engine import GRA
from repro.errors import ValidationError
from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.harness import InstanceAverages, average_static_runs
from repro.experiments.parallel import GRAFactory, SRAFactory
from repro.utils.rng import spawn_seeds
from repro.utils.tables import format_series
from repro.workload.generator import generate_instance
from repro.workload.mutation import apply_pattern_change, detect_changed_objects
from repro.workload.spec import WorkloadSpec

#: master seed of the whole evaluation; change to re-roll every network
DEFAULT_SEED = 20_000


@dataclass
class FigureResult:
    """One reproduced figure: x axis plus one y series per legend entry."""

    figure_id: str
    title: str
    x_label: str
    y_label: str
    x_values: List[float]
    series: Dict[str, List[float]]
    meta: Dict[str, object] = field(default_factory=dict)

    def render(self, precision: int = 2) -> str:
        header = f"[{self.figure_id}] {self.title}  (y: {self.y_label})"
        return format_series(
            self.x_label,
            self.x_values,
            self.series,
            precision=precision,
            title=header,
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "figure_id": self.figure_id,
            "title": self.title,
            "x_label": self.x_label,
            "y_label": self.y_label,
            "x_values": list(self.x_values),
            "series": {k: list(v) for k, v in self.series.items()},
            "meta": dict(self.meta),
        }


# --------------------------------------------------------------------- #
# shared sweeps (cached)
# --------------------------------------------------------------------- #
_CACHE: Dict[Tuple[str, str, int], object] = {}


def clear_cache() -> None:
    """Drop all cached sweeps (mostly for tests)."""
    _CACHE.clear()


def _static_factories(profile: ScaleProfile):
    """SRA + GRA factories used by every static sweep.

    Instances of picklable factory classes (not lambdas) so the sweeps
    can fan out over worker processes under ``--parallel``.
    """
    return {
        "SRA": SRAFactory(),
        "GRA": GRAFactory(profile.gra),
    }


StaticSweep = Dict[Tuple[float, int], Dict[str, InstanceAverages]]


def _sites_sweep(profile: ScaleProfile, seed: int) -> StaticSweep:
    """Static algorithms over (update ratio, number of sites)."""
    key = ("sites", profile.name, seed)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    sweep: StaticSweep = {}
    point_seeds = spawn_seeds(
        seed, len(profile.fig1_update_ratios) * len(profile.fig1_sites)
    )
    idx = 0
    for ratio in profile.fig1_update_ratios:
        for num_sites in profile.fig1_sites:
            spec = WorkloadSpec(
                num_sites=num_sites,
                num_objects=profile.fig1_num_objects,
                update_ratio=ratio,
                capacity_ratio=profile.fig1_capacity_ratio,
            )
            sweep[(ratio, num_sites)] = average_static_runs(
                spec,
                _static_factories(profile),
                profile.instances,
                seed=point_seeds[idx],
            )
            idx += 1
    _CACHE[key] = sweep
    return sweep


def _objects_sweep(profile: ScaleProfile, seed: int) -> StaticSweep:
    """Static algorithms over (update ratio, number of objects)."""
    key = ("objects", profile.name, seed)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]
    sweep: StaticSweep = {}
    point_seeds = spawn_seeds(
        seed + 1,
        len(profile.fig1_update_ratios) * len(profile.fig1c_objects),
    )
    idx = 0
    for ratio in profile.fig1_update_ratios:
        for num_objects in profile.fig1c_objects:
            spec = WorkloadSpec(
                num_sites=profile.fig1c_num_sites,
                num_objects=num_objects,
                update_ratio=ratio,
                capacity_ratio=profile.fig1_capacity_ratio,
            )
            sweep[(ratio, num_objects)] = average_static_runs(
                spec,
                _static_factories(profile),
                profile.instances,
                seed=point_seeds[idx],
            )
            idx += 1
    _CACHE[key] = sweep
    return sweep


def _ratio_label(ratio: float) -> str:
    return f"U={ratio * 100:g}%"


def _series_from_sweep(
    sweep: StaticSweep,
    ratios: Sequence[float],
    x_values: Sequence[int],
    metric: str,
) -> Dict[str, List[float]]:
    series: Dict[str, List[float]] = {}
    for algorithm in ("SRA", "GRA"):
        for ratio in ratios:
            label = f"{algorithm} {_ratio_label(ratio)}"
            series[label] = [
                float(getattr(sweep[(ratio, x)][algorithm], metric))
                for x in x_values
            ]
    return series


# --------------------------------------------------------------------- #
# Figures 1(a)-(d), 2(a)-(b): static algorithms
# --------------------------------------------------------------------- #
def fig1a(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 1(a): % NTC savings versus the number of sites."""
    profile = profile or get_profile()
    sweep = _sites_sweep(profile, seed)
    return FigureResult(
        figure_id="fig1a",
        title="Savings in network cost versus the number of sites",
        x_label="sites",
        y_label="% NTC saved",
        x_values=list(profile.fig1_sites),
        series=_series_from_sweep(
            sweep, profile.fig1_update_ratios, profile.fig1_sites,
            "savings_percent",
        ),
        meta={"profile": profile.name, "objects": profile.fig1_num_objects},
    )


def fig1b(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 1(b): replicas created versus the number of sites."""
    profile = profile or get_profile()
    sweep = _sites_sweep(profile, seed)
    return FigureResult(
        figure_id="fig1b",
        title="Number of replicas generated versus the number of sites",
        x_label="sites",
        y_label="replicas beyond primaries",
        x_values=list(profile.fig1_sites),
        series=_series_from_sweep(
            sweep, profile.fig1_update_ratios, profile.fig1_sites,
            "extra_replicas",
        ),
        meta={"profile": profile.name, "objects": profile.fig1_num_objects},
    )


def fig1c(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 1(c): % NTC savings versus the number of objects."""
    profile = profile or get_profile()
    sweep = _objects_sweep(profile, seed)
    return FigureResult(
        figure_id="fig1c",
        title="Savings in network cost versus the number of objects",
        x_label="objects",
        y_label="% NTC saved",
        x_values=list(profile.fig1c_objects),
        series=_series_from_sweep(
            sweep, profile.fig1_update_ratios, profile.fig1c_objects,
            "savings_percent",
        ),
        meta={"profile": profile.name, "sites": profile.fig1c_num_sites},
    )


def fig1d(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 1(d): replicas created versus the number of objects."""
    profile = profile or get_profile()
    sweep = _objects_sweep(profile, seed)
    return FigureResult(
        figure_id="fig1d",
        title="Number of replicas generated versus the number of objects",
        x_label="objects",
        y_label="replicas beyond primaries",
        x_values=list(profile.fig1c_objects),
        series=_series_from_sweep(
            sweep, profile.fig1_update_ratios, profile.fig1c_objects,
            "extra_replicas",
        ),
        meta={"profile": profile.name, "sites": profile.fig1c_num_sites},
    )


def fig2a(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 2(a): SRA execution time versus the number of sites."""
    profile = profile or get_profile()
    sweep = _sites_sweep(profile, seed)
    series = {
        f"SRA {_ratio_label(ratio)}": [
            sweep[(ratio, m)]["SRA"].runtime_seconds
            for m in profile.fig1_sites
        ]
        for ratio in profile.fig1_update_ratios
    }
    return FigureResult(
        figure_id="fig2a",
        title="Execution time of SRA versus the number of sites",
        x_label="sites",
        y_label="seconds",
        x_values=list(profile.fig1_sites),
        series=series,
        meta={"profile": profile.name},
    )


def fig2b(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 2(b): GRA execution time versus the number of sites."""
    profile = profile or get_profile()
    sweep = _sites_sweep(profile, seed)
    series = {
        f"GRA {_ratio_label(ratio)}": [
            sweep[(ratio, m)]["GRA"].runtime_seconds
            for m in profile.fig1_sites
        ]
        for ratio in profile.fig1_update_ratios
    }
    return FigureResult(
        figure_id="fig2b",
        title="Execution time of GRA versus the number of sites",
        x_label="sites",
        y_label="seconds",
        x_values=list(profile.fig1_sites),
        series=series,
        meta={"profile": profile.name},
    )


# --------------------------------------------------------------------- #
# Figures 3(a)-(b): update ratio and capacity
# --------------------------------------------------------------------- #
def fig3a(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 3(a): % NTC savings versus the update ratio."""
    profile = profile or get_profile()
    key = ("fig3a", profile.name, seed)
    cached = _CACHE.get(key)
    if cached is None:
        cached = {}
        point_seeds = spawn_seeds(seed + 2, len(profile.fig3a_update_ratios))
        for ratio, pseed in zip(profile.fig3a_update_ratios, point_seeds):
            spec = WorkloadSpec(
                num_sites=profile.fig3a_num_sites,
                num_objects=profile.fig3a_num_objects,
                update_ratio=ratio,
                capacity_ratio=profile.fig1_capacity_ratio,
            )
            cached[ratio] = average_static_runs(
                spec, _static_factories(profile), profile.instances,
                seed=pseed,
            )
        _CACHE[key] = cached
    x_values = [ratio * 100.0 for ratio in profile.fig3a_update_ratios]
    series = {
        algorithm: [
            cached[ratio][algorithm].savings_percent
            for ratio in profile.fig3a_update_ratios
        ]
        for algorithm in ("SRA", "GRA")
    }
    return FigureResult(
        figure_id="fig3a",
        title="Savings in network cost versus the update ratio",
        x_label="update ratio (%)",
        y_label="% NTC saved",
        x_values=x_values,
        series=series,
        meta={"profile": profile.name},
    )


def fig3b(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 3(b): % NTC savings versus the capacity of sites."""
    profile = profile or get_profile()
    key = ("fig3b", profile.name, seed)
    cached = _CACHE.get(key)
    if cached is None:
        cached = {}
        point_seeds = spawn_seeds(
            seed + 3, len(profile.fig3b_capacity_ratios)
        )
        for cap, pseed in zip(profile.fig3b_capacity_ratios, point_seeds):
            spec = WorkloadSpec(
                num_sites=profile.fig3a_num_sites,
                num_objects=profile.fig3a_num_objects,
                update_ratio=profile.fig3b_update_ratio,
                capacity_ratio=cap,
            )
            cached[cap] = average_static_runs(
                spec, _static_factories(profile), profile.instances,
                seed=pseed,
            )
        _CACHE[key] = cached
    x_values = [cap * 100.0 for cap in profile.fig3b_capacity_ratios]
    series = {
        algorithm: [
            cached[cap][algorithm].savings_percent
            for cap in profile.fig3b_capacity_ratios
        ]
        for algorithm in ("SRA", "GRA")
    }
    return FigureResult(
        figure_id="fig3b",
        title="Savings in network cost versus the capacity of sites",
        x_label="capacity ratio (%)",
        y_label="% NTC saved",
        x_values=x_values,
        series=series,
        meta={"profile": profile.name},
    )


# --------------------------------------------------------------------- #
# Figures 4(a)-(d): AGRA under pattern change
# --------------------------------------------------------------------- #
def _policy_specs(profile: ScaleProfile) -> List[Tuple[str, str, int]]:
    """(label, kind, generations) for every Fig. 4 legend entry."""
    mini1, mini2 = profile.fig4_mini_generations
    static1, static2 = profile.fig4_static_generations
    return [
        ("Current", "current", 0),
        ("Current + AGRA", "agra", 0),
        (f"AGRA + {mini1} GRA", "agra", mini1),
        (f"AGRA + {mini2} GRA", "agra", mini2),
        (f"Current + {static1} GRA", "current+gra", static1),
        (f"Current + {static2} GRA", "current+gra", static2),
        (f"{static2} GRA", "fresh-gra", static2),
    ]


AdaptiveSweep = Dict[float, Dict[str, Tuple[float, float]]]


def _adaptive_sweep(
    profile: ScaleProfile,
    seed: int,
    x_values: Sequence[float],
    sweep_name: str,
    drift_of_x: Callable[[float], Tuple[float, float]],
) -> AdaptiveSweep:
    """Shared machinery of figures 4(a)-(d).

    For every instance: run GRA on the original patterns (keeping its final
    population), then for every x drift the patterns with
    ``object_share, read_share = drift_of_x(x)`` and run every policy.
    Returns mean ``(savings %, runtime seconds)`` per policy per x.
    """
    key = (f"fig4-{sweep_name}", profile.name, seed)
    cached = _CACHE.get(key)
    if cached is not None:
        return cached  # type: ignore[return-value]

    spec = WorkloadSpec(
        num_sites=profile.fig4_num_sites,
        num_objects=profile.fig4_num_objects,
        update_ratio=profile.fig4_update_ratio,
        capacity_ratio=profile.fig4_capacity_ratio,
    )
    specs = _policy_specs(profile)
    accum: Dict[float, Dict[str, List[Tuple[float, float]]]] = {
        x: {label: [] for label, _, _ in specs} for x in x_values
    }
    instance_seeds = spawn_seeds(seed + 4, profile.instances)
    for inst_seed in instance_seeds:
        children = inst_seed.spawn(3 + len(x_values))
        instance = generate_instance(spec, rng=children[0])
        gra = GRA(params=profile.gra, rng=children[1])
        static_result, population = gra.run_with_population(instance)
        seed_matrices = [member.matrix for member in population.members]
        for x, drift_child in zip(x_values, children[3:]):
            object_share, read_share = drift_of_x(x)
            drifted, _change = apply_pattern_change(
                instance,
                profile.fig4_change_percent,
                object_share,
                read_share,
                rng=drift_child,
            )
            changed = detect_changed_objects(instance, drifted)
            policy_children = drift_child.spawn(len(specs))
            for (label, kind, generations), pol_seed in zip(
                specs, policy_children
            ):
                outcome = run_adaptation(
                    kind,
                    drifted,
                    static_result.scheme,
                    generations=generations,
                    changed_objects=changed,
                    seed_matrices=seed_matrices,
                    gra_params=profile.gra,
                    agra_params=profile.agra,
                    rng=pol_seed,
                    label=label,
                )
                accum[x][label].append(
                    (outcome.savings_percent, outcome.runtime_seconds)
                )

    sweep: AdaptiveSweep = {
        x: {
            label: (
                float(np.mean([s for s, _ in outcomes])),
                float(np.mean([t for _, t in outcomes])),
            )
            for label, outcomes in by_policy.items()
        }
        for x, by_policy in accum.items()
    }
    _CACHE[key] = sweep
    return sweep


def fig4a(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 4(a): savings versus the share of objects with reads increased."""
    profile = profile or get_profile()
    x_values = [share * 100.0 for share in profile.fig4_object_shares]
    sweep = _adaptive_sweep(
        profile,
        seed,
        list(profile.fig4_object_shares),
        "reads-up",
        lambda share: (share, 1.0),
    )
    series = {
        label: [sweep[share][label][0] for share in profile.fig4_object_shares]
        for label, _, _ in _policy_specs(profile)
    }
    return FigureResult(
        figure_id="fig4a",
        title=(
            "Savings versus the number of objects having their reads "
            "increased"
        ),
        x_label="OCh (%)",
        y_label="% NTC saved",
        x_values=x_values,
        series=series,
        meta={"profile": profile.name, "Ch%": profile.fig4_change_percent * 100},
    )


def fig4b(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 4(b): savings versus the share of objects with updates increased."""
    profile = profile or get_profile()
    x_values = [share * 100.0 for share in profile.fig4_object_shares]
    sweep = _adaptive_sweep(
        profile,
        seed,
        list(profile.fig4_object_shares),
        "updates-up",
        lambda share: (share, 0.0),
    )
    series = {
        label: [sweep[share][label][0] for share in profile.fig4_object_shares]
        for label, _, _ in _policy_specs(profile)
    }
    return FigureResult(
        figure_id="fig4b",
        title=(
            "Savings versus the number of objects having their updates "
            "increased"
        ),
        x_label="OCh (%)",
        y_label="% NTC saved",
        x_values=x_values,
        series=series,
        meta={"profile": profile.name, "Ch%": profile.fig4_change_percent * 100},
    )


def fig4c(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 4(c): savings versus the read/update mix of the pattern change."""
    profile = profile or get_profile()
    x_values = [share * 100.0 for share in profile.fig4c_read_shares]
    sweep = _adaptive_sweep(
        profile,
        seed,
        list(profile.fig4c_read_shares),
        "mix",
        lambda read_share: (profile.fig4c_object_share, read_share),
    )
    series = {
        label: [
            sweep[share][label][0] for share in profile.fig4c_read_shares
        ]
        for label, _, _ in _policy_specs(profile)
    }
    return FigureResult(
        figure_id="fig4c",
        title="Savings versus the kind of pattern change (updates -> reads)",
        x_label="reads share of changes (%)",
        y_label="% NTC saved",
        x_values=x_values,
        series=series,
        meta={
            "profile": profile.name,
            "OCh%": profile.fig4c_object_share * 100,
        },
    )


def fig4d(
    profile: Optional[ScaleProfile] = None, seed: int = DEFAULT_SEED
) -> FigureResult:
    """Fig. 4(d): execution time of the AGRA/GRA policy variants."""
    profile = profile or get_profile()
    x_values = [share * 100.0 for share in profile.fig4_object_shares]
    sweep = _adaptive_sweep(
        profile,
        seed,
        list(profile.fig4_object_shares),
        "reads-up",
        lambda share: (share, 1.0),
    )
    series = {
        label: [sweep[share][label][1] for share in profile.fig4_object_shares]
        for label, _, _ in _policy_specs(profile)
        if label != "Current"
    }
    return FigureResult(
        figure_id="fig4d",
        title="Execution time of AGRA versions",
        x_label="OCh (%)",
        y_label="seconds",
        x_values=x_values,
        series=series,
        meta={"profile": profile.name},
    )


#: registry used by the CLI runner, the claims and the tests
FIGURES: Dict[str, Callable[..., FigureResult]] = {
    "fig1a": fig1a,
    "fig1b": fig1b,
    "fig1c": fig1c,
    "fig1d": fig1d,
    "fig2a": fig2a,
    "fig2b": fig2b,
    "fig3a": fig3a,
    "fig3b": fig3b,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig4c": fig4c,
    "fig4d": fig4d,
}


def run_figure(
    figure_id: str,
    profile: Optional[ScaleProfile] = None,
    seed: int = DEFAULT_SEED,
) -> FigureResult:
    """Reproduce one figure by id (``fig1a`` ... ``fig4d``)."""
    try:
        fn = FIGURES[figure_id]
    except KeyError:
        raise ValidationError(
            f"unknown figure {figure_id!r}; choose from {sorted(FIGURES)}"
        ) from None
    return fn(profile, seed)


__all__ = [
    "DEFAULT_SEED",
    "FigureResult",
    "FIGURES",
    "run_figure",
    "clear_cache",
    "fig1a",
    "fig1b",
    "fig1c",
    "fig1d",
    "fig2a",
    "fig2b",
    "fig3a",
    "fig3b",
    "fig4a",
    "fig4b",
    "fig4c",
    "fig4d",
]
