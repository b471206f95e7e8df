"""The paper's claims as executable checks.

`EXPERIMENTS.md` argues in prose that each figure's *shape* reproduces;
this module makes the argument executable: every claim of Section 6 is a
predicate over the reproduced figure data, and :func:`verify_claims`
returns a verdict table.  ``repro-experiments --verify-claims`` prints
it and exits 1 when any claim is NOT REPRODUCED.

Checks use tolerances because the points are means over few sampled
networks; a claim's check encodes the *trend*, not the paper's absolute
numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.experiments.config import ScaleProfile, get_profile
from repro.experiments.figures import (
    DEFAULT_SEED,
    FigureResult,
    run_figure,
)
from repro.utils.tables import format_table

#: verdict labels
REPRODUCED = "REPRODUCED"
NOT_REPRODUCED = "NOT REPRODUCED"
SCALE_DEPENDENT = "SCALE-DEPENDENT"


@dataclass(frozen=True)
class ClaimResult:
    """Outcome of checking one claim."""

    claim_id: str
    description: str
    verdict: str
    detail: str


Check = Callable[[Dict[str, FigureResult]], Tuple[bool, str]]


def _series(fig: FigureResult, prefix: str) -> Dict[str, List[float]]:
    return {
        label: values
        for label, values in fig.series.items()
        if label.startswith(prefix)
    }


def _check_gra_dominates(figs: Dict[str, FigureResult]) -> Tuple[bool, str]:
    worst_gap = np.inf
    where = ""
    for fig_id in ("fig1a", "fig1c"):
        fig = figs[fig_id]
        for label, values in _series(fig, "GRA").items():
            sra = fig.series[label.replace("GRA", "SRA")]
            gap = float(np.mean(np.asarray(values) - np.asarray(sra)))
            if gap < worst_gap:
                worst_gap = gap
                where = f"{fig_id} {label}"
    ok = worst_gap >= -0.75
    return ok, f"min mean(GRA - SRA) = {worst_gap:+.2f} points ({where})"


def _check_sra_decays_gra_flat(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    fig = figs["fig1a"]
    ratios = sorted(
        {label.split("U=")[1] for label in fig.series},
        key=lambda s: float(s.rstrip("%")),
    )
    top = ratios[-1]
    sra = fig.series[f"SRA U={top}"]
    gra = fig.series[f"GRA U={top}"]
    sra_drop = sra[0] - sra[-1]
    gra_drop = gra[0] - gra[-1]
    ok = sra_drop >= gra_drop - 0.75
    return ok, (
        f"at U={top}: SRA drops {sra_drop:.2f} points across the sites "
        f"sweep vs GRA {gra_drop:.2f}"
    )


def _check_gra_exploits_capacity(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    fig = figs["fig1b"]
    ratios = sorted(
        {label.split("U=")[1] for label in fig.series},
        key=lambda s: float(s.rstrip("%")),
    )
    low = ratios[0]
    gra = fig.series[f"GRA U={low}"]
    ok = gra[-1] > gra[0]
    return ok, (
        f"GRA replicas at U={low}: {gra[0]:.0f} -> {gra[-1]:.0f} as sites "
        "grow"
    )


def _check_runtime_gap(figs: Dict[str, FigureResult]) -> Tuple[bool, str]:
    sra = figs["fig2a"]
    gra = figs["fig2b"]
    sra_mean = float(np.mean([np.mean(v) for v in sra.series.values()]))
    gra_mean = float(np.mean([np.mean(v) for v in gra.series.values()]))
    ratio = gra_mean / max(sra_mean, 1e-12)
    ok = ratio > 10.0
    return ok, (
        f"GRA/SRA mean runtime ratio {ratio:.0f}x (paper: 10^3-10^4 at "
        "full scale)"
    )


def _check_update_ratio_decay(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    fig = figs["fig3a"]
    details = []
    ok = True
    for label in ("SRA", "GRA"):
        values = fig.series[label]
        ok = ok and values[0] > values[-1]
        details.append(f"{label} {values[0]:.1f} -> {values[-1]:.1f}")
    return ok, "; ".join(details)


def _check_capacity_saturation(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    gra = figs["fig3b"].series["GRA"]
    first_step = gra[1] - gra[0]
    last_step = gra[-1] - gra[-2]
    ok = first_step >= last_step - 0.75 and gra[-1] >= gra[0] - 0.75
    return ok, (
        f"first capacity step buys {first_step:.2f} points, last buys "
        f"{last_step:.2f}"
    )


def _check_stale_scheme_degrades(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    current = figs["fig4b"].series["Current"]
    ok = current[0] > current[-1]
    return ok, (
        f"stale scheme under update drift: {current[0]:.1f}% -> "
        f"{current[-1]:.1f}%"
    )


def _check_agra_recovers(figs: Dict[str, FigureResult]) -> Tuple[bool, str]:
    gains = []
    for fig_id in ("fig4a", "fig4b", "fig4c"):
        fig = figs[fig_id]
        current = np.asarray(fig.series["Current"])
        agra = np.asarray(fig.series["Current + AGRA"])
        gains.append(float(np.mean(agra - current)))
    ok = all(g > 0 for g in gains)
    return ok, (
        "mean AGRA gain over Current: "
        + ", ".join(
            f"{fig_id}={g:+.2f}" for fig_id, g in
            zip(("fig4a", "fig4b", "fig4c"), gains)
        )
    )


def _check_agra_beats_current_gra(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    fig = figs["fig4c"]
    agra_labels = [l for l in fig.series if l.startswith("AGRA +")]
    static_labels = [l for l in fig.series if l.startswith("Current +")
                     and "AGRA" not in l]
    agra_best = np.max(
        [np.mean(fig.series[l]) for l in agra_labels]
    )
    static_best = np.max(
        [np.mean(fig.series[l]) for l in static_labels]
    )
    ok = agra_best >= static_best - 0.5
    return ok, (
        f"best AGRA+mini mean {agra_best:.2f}% vs best Current+GRA "
        f"{static_best:.2f}% (fig4c)"
    )


def _check_mix_shift_helps(
    figs: Dict[str, FigureResult]
) -> Tuple[bool, str]:
    fig = figs["fig4c"]
    bad = [
        label
        for label, values in fig.series.items()
        if not values[-1] > values[0] - 0.75
    ]
    ok = not bad
    return ok, (
        "all policies improve toward the all-reads end"
        if ok
        else f"flat/declining: {bad}"
    )


@dataclass(frozen=True)
class Claim:
    claim_id: str
    description: str
    figures: Tuple[str, ...]
    check: Check
    scale_dependent: bool = False


CLAIMS: Tuple[Claim, ...] = (
    Claim(
        "gra-dominates",
        "GRA's savings dominate SRA's across system sizes",
        ("fig1a", "fig1c"),
        _check_gra_dominates,
    ),
    Claim(
        "sra-decays",
        "SRA's savings decay with sites at high U; GRA stays flatter",
        ("fig1a",),
        _check_sra_decays_gra_flat,
    ),
    Claim(
        "gra-exploits-capacity",
        "GRA's replica count grows with added sites (low U)",
        ("fig1b",),
        _check_gra_exploits_capacity,
    ),
    Claim(
        "runtime-gap",
        "GRA is orders of magnitude slower than SRA",
        ("fig2a", "fig2b"),
        _check_runtime_gap,
        scale_dependent=True,
    ),
    Claim(
        "update-decay",
        "savings decay steeply with the update ratio",
        ("fig3a",),
        _check_update_ratio_decay,
    ),
    Claim(
        "capacity-saturation",
        "capacity helps then saturates",
        ("fig3b",),
        _check_capacity_saturation,
    ),
    Claim(
        "stale-degrades",
        "a stale static scheme degrades under update drift",
        ("fig4b",),
        _check_stale_scheme_degrades,
    ),
    Claim(
        "agra-recovers",
        "AGRA recovers savings the drift destroyed",
        ("fig4a", "fig4b", "fig4c"),
        _check_agra_recovers,
    ),
    Claim(
        "agra-vs-current-gra",
        "AGRA + mini-GRA matches/beats GRA re-runs from the current scheme",
        ("fig4c",),
        _check_agra_beats_current_gra,
        scale_dependent=True,
    ),
    Claim(
        "mix-shift",
        "savings rise as changes shift from updates to reads",
        ("fig4c",),
        _check_mix_shift_helps,
    ),
)


def verify_claims(
    profile: Optional[ScaleProfile] = None,
    seed: int = DEFAULT_SEED,
    claim_ids: Optional[List[str]] = None,
) -> List[ClaimResult]:
    """Check every (or the selected) claim against reproduced figures."""
    profile = profile or get_profile()
    selected = [
        claim
        for claim in CLAIMS
        if claim_ids is None or claim.claim_id in claim_ids
    ]
    if claim_ids is not None:
        known = {claim.claim_id for claim in CLAIMS}
        unknown = set(claim_ids) - known
        if unknown:
            raise ValidationError(
                f"unknown claims: {sorted(unknown)}; choose from "
                f"{sorted(known)}"
            )
    needed = sorted({fig for claim in selected for fig in claim.figures})
    figures = {
        fig_id: run_figure(fig_id, profile, seed=seed) for fig_id in needed
    }
    results: List[ClaimResult] = []
    for claim in selected:
        ok, detail = claim.check(figures)
        if ok:
            verdict = REPRODUCED
        elif claim.scale_dependent:
            verdict = SCALE_DEPENDENT
        else:
            verdict = NOT_REPRODUCED
        results.append(
            ClaimResult(claim.claim_id, claim.description, verdict, detail)
        )
    return results


def render_verdicts(results: List[ClaimResult]) -> str:
    return format_table(
        ["claim", "verdict", "evidence"],
        [[r.claim_id, r.verdict, r.detail] for r in results],
        title="Paper claims, checked against the reproduced figures",
    )


__all__ = [
    "REPRODUCED",
    "NOT_REPRODUCED",
    "SCALE_DEPENDENT",
    "Claim",
    "ClaimResult",
    "CLAIMS",
    "verify_claims",
    "render_verdicts",
]
