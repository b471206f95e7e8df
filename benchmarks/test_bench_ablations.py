"""Ablation benchmarks for the design choices Section 4 argues for.

Not figures of the paper — these quantify the paper's *design rationale*:

* SRA-seeded initial population versus random initialisation;
* the enlarged ``(mu + lambda)`` sampling space versus SGA-style simple
  selection;
* elitism on versus off;
* the Eq. 5 write-penalty term (SRA) versus a read-only greedy.
"""

from __future__ import annotations

from repro.algorithms import GRA, ReadOnlyGreedy, SRA
from repro.experiments.harness import average_static_runs
from repro.utils.tables import format_table
from repro.workload import WorkloadSpec

SEED = 9_100


def _spec(profile) -> WorkloadSpec:
    return WorkloadSpec(
        num_sites=profile.fig3a_num_sites,
        num_objects=profile.fig3a_num_objects,
        update_ratio=0.05,
        capacity_ratio=0.15,
    )


def test_ablation_gra_design_choices(benchmark, profile):
    """GRA variants: seeding, sampling space, elitism."""
    factories = {
        "GRA (paper)": lambda seed: GRA(params=profile.gra, rng=seed),
        "GRA random-init": lambda seed: GRA(
            params=profile.gra.with_overrides(seeded_init=False), rng=seed
        ),
        "GRA simple-selection": lambda seed: GRA(
            params=profile.gra.with_overrides(selection="simple"), rng=seed
        ),
        "GRA no-elitism": lambda seed: GRA(
            params=profile.gra.with_overrides(elitism=False), rng=seed
        ),
    }
    averages = benchmark.pedantic(
        lambda: average_static_runs(
            _spec(profile), factories, profile.instances, seed=SEED
        ),
        rounds=1,
        iterations=1,
    )
    rows = [
        [label, avg.savings_percent, avg.extra_replicas, avg.runtime_seconds]
        for label, avg in averages.items()
    ]
    print()
    print(
        format_table(
            ["variant", "savings %", "replicas", "seconds"], rows,
            precision=3,
            title="GRA design-choice ablation (U=5%, C=15%)",
        )
    )
    paper = averages["GRA (paper)"].savings_percent
    for label, avg in averages.items():
        assert avg.savings_percent <= paper + 3.0, (
            f"{label} unexpectedly dominates the paper configuration"
        )


def test_ablation_write_penalty(benchmark, profile):
    """Eq. 5's update term matters: read-only greed loses as U grows."""
    update_ratios = (0.02, 0.10, 0.20)

    def run():
        rows = []
        for ratio in update_ratios:
            spec = _spec(profile).with_overrides(update_ratio=ratio)
            averages = average_static_runs(
                spec,
                {
                    "SRA": lambda seed: SRA(),
                    "ReadOnlyGreedy": lambda seed: ReadOnlyGreedy(),
                },
                profile.instances,
                seed=SEED + 1,
            )
            rows.append(
                (
                    ratio,
                    averages["SRA"].savings_percent,
                    averages["ReadOnlyGreedy"].savings_percent,
                )
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["update ratio", "SRA savings %", "read-only savings %"],
            [[f"{r * 100:g}%", sra, rog] for r, sra, rog in rows],
            title="Write-penalty ablation",
        )
    )
    # At the highest update ratio the write-aware greedy must win clearly.
    _, sra_high, rog_high = rows[-1]
    assert sra_high >= rog_high, (
        f"SRA ({sra_high:.2f}%) should beat read-only greed "
        f"({rog_high:.2f}%) at high update ratios"
    )
