"""Benchmarks of the extensions beyond the paper.

* consistency strategies — the same placement costed under
  primary-broadcast, writer-multicast and invalidation writes across
  update ratios (Section 2.2's "various strategies" claim made
  runnable);
* GA convergence — how many generations the quick-profile GRA needs to
  bank 95% of its final gain, and what the SRA seeding contributes;
* local-search comparators — hill climbing and simulated annealing vs
  SRA/GRA on the fig3a workload;
* distributed SRA — protocol message volume as the network grows.
"""

from __future__ import annotations

from repro.algorithms import GRA, HillClimbing, SRA, SimulatedAnnealing
from repro.analysis import analyze_convergence
from repro.core.strategies import WriteStrategy, total_cost
from repro.distributed import DistributedSRA
from repro.experiments.harness import average_static_runs
from repro.utils.tables import format_table
from repro.workload import WorkloadSpec, generate_instance

SEED = 9_200


def test_bench_consistency_strategies(benchmark, profile):
    update_ratios = (0.01, 0.05, 0.20)

    def run():
        from repro.sim import ReplicaSystem
        from repro.workload import generate_trace

        rows = []
        for ratio in update_ratios:
            instance = generate_instance(
                WorkloadSpec(
                    num_sites=profile.fig3a_num_sites,
                    num_objects=profile.fig3a_num_objects,
                    update_ratio=ratio,
                    capacity_ratio=0.15,
                ),
                rng=SEED,
            )
            scheme = SRA().run(instance).scheme
            analytic = [
                total_cost(instance, scheme, strategy)
                for strategy in WriteStrategy
            ]
            # invalidation depends on interleaving: simulate ground truth
            system = ReplicaSystem(
                instance, scheme,
                write_strategy=WriteStrategy.INVALIDATION,
            )
            system.replay(generate_trace(instance, rng=SEED + 10))
            rows.append(
                [f"{ratio * 100:g}%", *analytic,
                 system.metrics.request_ntc]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["update ratio", *(s.value for s in WriteStrategy),
             "invalidation (sim)"],
            rows,
            precision=0,
            title="Same placement, three write strategies (NTC)",
        )
    )
    # simulated invalidation's advantage over broadcast grows with the
    # update ratio (the eager-vs-lazy crossover)
    first_ratio = rows[0][4] / rows[0][1]
    last_ratio = rows[-1][4] / rows[-1][1]
    assert last_ratio <= first_ratio + 0.02, (
        "invalidation should gain on broadcast as updates grow: "
        f"{first_ratio:.4f} -> {last_ratio:.4f}"
    )


def test_bench_gra_convergence(benchmark, profile):
    instance = generate_instance(
        WorkloadSpec(
            num_sites=profile.fig3a_num_sites,
            num_objects=profile.fig3a_num_objects,
            update_ratio=0.05,
            capacity_ratio=0.15,
        ),
        rng=SEED + 1,
    )

    def run():
        result = GRA(profile.gra, rng=3).run(instance)
        return analyze_convergence(result.stats.history("best_fitness"))

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(f"GRA convergence: {report.summary()}")
    assert report.final_fitness >= report.initial_fitness
    assert 0.0 <= report.seeding_share <= 1.0


def test_bench_local_search_comparators(benchmark, profile):
    spec = WorkloadSpec(
        num_sites=profile.fig3a_num_sites,
        num_objects=profile.fig3a_num_objects,
        update_ratio=0.05,
        capacity_ratio=0.15,
    )
    factories = {
        "SRA": lambda seed: SRA(),
        "HillClimbing": lambda seed: HillClimbing(rng=seed),
        "Annealing": lambda seed: SimulatedAnnealing(steps=2000, rng=seed),
        "GRA": lambda seed: GRA(profile.gra, rng=seed),
    }
    averages = benchmark.pedantic(
        lambda: average_static_runs(
            spec, factories, profile.instances, seed=SEED + 2
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            ["algorithm", "savings %", "replicas", "seconds"],
            [
                [label, avg.savings_percent, avg.extra_replicas,
                 avg.runtime_seconds]
                for label, avg in averages.items()
            ],
            precision=3,
            title="Metaheuristic comparators (U=5%, C=15%)",
        )
    )
    # local search must improve on its SRA seed
    assert (
        averages["HillClimbing"].savings_percent
        >= averages["SRA"].savings_percent - 1e-9
    )


def test_bench_distributed_sra_messages(benchmark, profile):
    sizes = profile.fig1_sites

    def run():
        rows = []
        for num_sites in sizes:
            instance = generate_instance(
                WorkloadSpec(
                    num_sites=num_sites,
                    num_objects=profile.fig1_num_objects,
                    update_ratio=0.05,
                    capacity_ratio=0.15,
                ),
                rng=SEED + 3,
            )
            report = DistributedSRA().run(instance)
            rows.append(
                [
                    num_sites,
                    report.token_rounds,
                    report.replications,
                    report.log.total_messages,
                    report.log.data_cost,
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print(
        format_table(
            ["sites", "token rounds", "replications", "messages",
             "payload NTC"],
            rows,
            precision=0,
            title="Distributed SRA protocol traffic vs network size",
        )
    )
    messages = [row[3] for row in rows]
    assert messages[-1] > messages[0]  # traffic grows with the network


def test_bench_ga_parameter_sensitivity(benchmark, profile):
    """The paper's parameter-tuning series (mu_m), rerun on demand."""
    from repro.analysis import sweep_ga_parameter
    from repro.workload import generate_instances

    instances = generate_instances(
        WorkloadSpec(
            num_sites=profile.fig3a_num_sites,
            num_objects=profile.fig3a_num_objects,
            update_ratio=0.05,
            capacity_ratio=0.15,
        ),
        profile.instances,
        rng=SEED + 21,
    )
    result = benchmark.pedantic(
        lambda: sweep_ga_parameter(
            instances,
            "mutation_rate",
            [0.0, 0.001, 0.01, 0.05],
            profile.gra,
            seed=SEED + 22,
        ),
        rounds=1,
        iterations=1,
    )
    print()
    print(result.render())
    print(f"best mutation rate at this scale: {result.best_value()}")
    # some mutation beats none (lost-material restoration), and the
    # paper's 0.01 should not be dominated by the extremes
    paper_rate = result.savings[0.01].mean
    assert paper_rate >= result.savings[0.0].mean - 1.0
