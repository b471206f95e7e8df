"""The three benchmark workloads: set-up, measured work, and checks.

Every workload is a closed-loop batch job: one caller, one process, the
next iteration starting when the previous one ends.  An iteration builds
the problem from the seed (``setup``) and then does the measured work
(``work``); the same seed gives the same inputs and the same outputs on
every iteration.

The program is called through module attributes (``generator.
generate_instance``, not a name imported into this file) so the hooks a
:class:`~probe.Probe` swaps into those modules see the calls.

Why each workload was chosen is in ``BENCHMARK.json``; the metrics named
for it and the layer each metric covers are in ``layers.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.algorithms import sra as sra_mod
from repro.algorithms.agra.params import AGRAParams
from repro.algorithms.gra import engine as gra_engine
from repro.algorithms.gra.params import GAParams
from repro.core import cost as cost_mod
from repro.experiments import scale
from repro.sim import adaptive
from repro.sim import metrics as sim_metrics
from repro.workload import generator, mutation
from repro.workload.spec import WorkloadSpec

from probe import Hook, Probe


_LAYER_HOOKS: Tuple[Hook, ...] = (
    Hook("repro.network.generators:random_mesh_topology", "network.mesh"),
    Hook("repro.network.generators:floyd_warshall", "network.floyd_warshall"),
    Hook("repro.workload.generator:generate_instance", "workload.generate"),
    Hook("repro.experiments.scale:generate_scale_problem", "workload.generate"),
    Hook("repro.workload.mutation:apply_pattern_change", "workload.generate"),
    Hook(
        "repro.core.cost:CostModel.object_costs_batch",
        "core.batch",
        lambda a, k, r: {
            "core.batch_calls": 1,
            "core.batch_columns": len(r),
        },
    ),
    Hook(
        "repro.core.cost:CostModel.object_cost_kernel",
        "core.batch",
        lambda a, k, r: {
            "core.batch_calls": 1,
            "core.batch_columns": 1,
            "core.kernel_calls": 1,
        },
    ),
    Hook("repro.core.cost:CostModel.total_cost", "core.price"),
    Hook("repro.core.cost:CostModel.d_prime", "core.price"),
    Hook("repro.algorithms.sra:SRA.run", "sra.self"),
    Hook("repro.algorithms.gra.engine:GRA.build_initial_population", "gra.init"),
    Hook(
        "repro.algorithms.gra.engine:GRA.evolve",
        "gra.evolve",
        lambda a, k, r: {"gra.generations": r["generations"]},
    ),
    Hook(
        "repro.core.incremental:IncrementalCostEvaluator.rebind_model",
        "core.rebind",
    ),
    Hook("repro.sim.adaptive:detect_changed_objects", "adaptive.detect"),
    # One count per transfer, no span: a span per simulated request
    # would swamp the replay it measures.
    Hook(
        "repro.sim.metrics:SimulationMetrics.record_transfer",
        "sim.transfer",
        lambda a, k, r: (
            {"sim.update_broadcasts": 1}
            if a[1] == sim_metrics.UPDATE_BROADCAST
            else {}
        ),
        span=False,
    ),
)


def layer_hooks(models: List[object]) -> Tuple[Hook, ...]:
    """Per-layer hooks, installed only on traced iterations.

    Span names are the layers of the per-layer metrics (``<name>_s`` is
    their self time).  Every cost model built while the hooks are in is
    appended to ``models``, for the cache hit ratio.
    """

    def built(args, kwargs, result):
        models.append(args[0])
        return {}

    return _LAYER_HOOKS + (
        Hook("repro.core.cost:CostModel.__init__", "core.cost_model", built),
        Hook(
            "repro.core.cost:SparseCostModel.__init__", "core.cost_model", built
        ),
    )


@dataclass(frozen=True)
class Check:
    """One correctness check on a workload's outputs."""

    name: str
    ok: bool
    detail: str = ""


def feasible(name: str, instance, matrix: np.ndarray) -> Check:
    """Capacity and primary-copy constraints, checked from the inputs."""
    matrix = np.asarray(matrix, dtype=bool)
    used = matrix.astype(float) @ np.asarray(instance.sizes, dtype=float)
    over = np.nonzero(used > np.asarray(instance.capacities) + 1e-9)[0]
    primaries = np.asarray(instance.primaries)
    missing = np.nonzero(~matrix[primaries, np.arange(matrix.shape[1])])[0]
    ok = not (over.size or missing.size)
    return Check(
        name,
        ok,
        "" if ok else f"over capacity at sites {over[:5].tolist()}, "
        f"primary copy missing for objects {missing[:5].tolist()}",
    )


def repriced(name: str, reported: float, price, *args) -> Check:
    """``reported`` against an independent re-price, to rtol 1e-9."""
    try:
        expected = price(*args)
    except ValueError as exc:  # an object left with no replica at all
        return Check(name, False, f"cannot re-price: {exc}")
    ok = bool(np.isclose(reported, expected, rtol=1e-9, atol=0.0))
    return Check(
        name, ok, "" if ok else f"reported {reported!r}, re-priced {expected!r}"
    )


# ---------------------------------------------------------------------- #
# paper-static
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class PaperStatic:
    """Section 6.1 dense instance at the Fig. 3(a) point, SRA then GRA."""

    num_sites: int = 50
    num_objects: int = 150
    population: int = 50
    generations: int = 2
    instances: int = 4

    name = "paper-static"

    def hooks(self, capture: Dict[str, list]) -> Tuple[Hook, ...]:
        return ()

    def setup(self, seed: int, index: int):
        inst_seed, gra_seed = _seeds(seed, index, 2)
        spec = WorkloadSpec(
            self.num_sites,
            self.num_objects,
            update_ratio=0.05,
            capacity_ratio=0.15,
        )
        instance = generator.generate_instance(
            spec, rng=np.random.default_rng(inst_seed)
        )
        models = (cost_mod.CostModel(instance), cost_mod.CostModel(instance))
        return instance, models, gra_seed

    def work(self, state, probe: Probe, capture) -> Dict[str, object]:
        instance, (sra_model, gra_model), gra_seed = state
        with probe.span("solve.sra") as sra_span:
            sra = sra_mod.SRA().run(instance, sra_model)
        params = GAParams(
            population_size=self.population, generations=self.generations
        )
        with probe.span("solve.gra") as gra_span:
            gra = gra_engine.GRA(
                params, rng=np.random.default_rng(gra_seed)
            ).run(instance, gra_model)
        return {
            "run_s": sra_span.seconds + gra_span.seconds,
            "sra_solve_s": sra_span.seconds,
            "gra_solve_s": gra_span.seconds,
            "sra": sra,
            "gra": gra,
            "quality": gra.savings_percent,
            "sra_savings_pct": sra.savings_percent,
            "gra_savings_pct": gra.savings_percent,
        }

    def fingerprint(self, outcome) -> Tuple[float, ...]:
        return (outcome["sra"].total_cost, outcome["gra"].total_cost)

    def checks(self, state, outcome) -> List[Check]:
        instance = state[0]
        primary_only = np.zeros(
            (instance.num_sites, instance.num_objects), dtype=bool
        )
        primary_only[instance.primaries, np.arange(instance.num_objects)] = True
        d_prime = cost_mod.reference_total_cost(instance, primary_only)
        out: List[Check] = []
        for label in ("sra", "gra"):
            result = outcome[label]
            matrix = result.scheme.matrix
            out += [
                feasible(f"{label}.feasible", instance, matrix),
                repriced(
                    f"{label}.cost",
                    result.total_cost,
                    cost_mod.reference_total_cost,
                    instance,
                    matrix,
                ),
                repriced(f"{label}.d_prime", result.d_prime, lambda: d_prime),
            ]
        return out


# ---------------------------------------------------------------------- #
# scale-sparse
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class ScaleSparse:
    """The ``--scale medium`` tier (M=512, N=10k, sparse) by sparse SRA."""

    num_sites: int = 512
    num_objects: int = 10_000
    reads_per_site: int = 64
    writers_per_object: int = 8
    instances: int = 4

    name = "scale-sparse"

    def hooks(self, capture: Dict[str, list]) -> Tuple[Hook, ...]:
        return ()

    def setup(self, seed: int, index: int):
        (problem_seed,) = _seeds(seed, index, 1)
        spec = scale.ScaleSpec(
            num_sites=self.num_sites,
            num_objects=self.num_objects,
            reads_per_site=self.reads_per_site,
            writers_per_object=self.writers_per_object,
        )
        problem = scale.generate_scale_problem(
            spec, rng=np.random.default_rng(problem_seed)
        )
        return problem, cost_mod.cost_model_for(problem)

    def work(self, state, probe: Probe, capture) -> Dict[str, object]:
        problem, model = state
        with probe.span("solve.sra") as span:
            sra = sra_mod.SRA().run(problem, model)
        return {
            "run_s": span.seconds,
            "sra_solve_s": span.seconds,
            "sra": sra,
            "quality": sra.savings_percent,
            "sra_savings_pct": sra.savings_percent,
        }

    def fingerprint(self, outcome) -> Tuple[float, ...]:
        return (outcome["sra"].total_cost,)

    def checks(self, state, outcome) -> List[Check]:
        problem = state[0]
        result = outcome["sra"]
        matrix = result.scheme.matrix
        # An independent dense re-price of the sparse solve.
        dense = cost_mod.CostModel(problem.to_instance())
        return [
            feasible("sra.feasible", problem, matrix),
            repriced("sra.cost", result.total_cost, dense.total_cost, matrix),
            repriced("sra.d_prime", result.d_prime, dense.d_prime),
        ]


# ---------------------------------------------------------------------- #
# adaptive-writes
# ---------------------------------------------------------------------- #
@dataclass(frozen=True)
class AdaptiveWrites:
    """A Fig. 4-style day: overnight GRA, then monitored drift epochs.

    The day is calm, flash crowd twice, write storm twice.  Each drift
    lasts two epochs so the scheme AGRA adapts at the end of the first
    serves the second.
    """

    num_sites: int = 20
    num_objects: int = 100
    update_ratio: float = 0.20
    read_high: int = 10
    change: float = 6.0  # Ch = 600%: the changed requests rise x7
    object_share: float = 0.2
    overnight_population: int = 10
    overnight_generations: int = 3
    agra_generations: int = 20
    mini_gra_generations: int = 2
    day: str = "cffss"
    instances: int = 6

    name = "adaptive-writes"

    def hooks(self, capture: Dict[str, list]) -> Tuple[Hook, ...]:
        def replayed(args, kwargs, result):
            system, trace = args[0], args[1]
            capture["deployed"].append(
                (system.instance, system.scheme.matrix.copy())
            )
            return {"sim.requests": len(trace)}

        def adapted(args, kwargs, result):
            capture["adaptations"].append(
                (len(capture["deployed"]) - 1, result)
            )
            return {"agra.adapt_calls": 1}

        return (
            Hook(
                "repro.sim.adaptive:generate_trace",
                "workload.trace",
                lambda a, k, r: {"workload.trace_requests": len(r)},
            ),
            Hook("repro.sim.protocol:ReplicaSystem.replay", "sim.replay", replayed),
            Hook("repro.algorithms.agra.engine:AGRA.adapt", "agra.adapt", adapted),
        )

    def _gra_params(self) -> GAParams:
        return GAParams(
            population_size=self.overnight_population,
            generations=self.overnight_generations,
        )

    def setup(self, seed: int, index: int):
        inst_seed, gra_seed, flash_seed, storm_seed, loop_seed = _seeds(
            seed, index, 5
        )
        spec = WorkloadSpec(
            self.num_sites,
            self.num_objects,
            update_ratio=self.update_ratio,
            capacity_ratio=0.15,
            read_high=self.read_high,
        )
        instance = generator.generate_instance(
            spec, rng=np.random.default_rng(inst_seed)
        )
        model = cost_mod.CostModel(instance)
        started = time.perf_counter()
        overnight, population = gra_engine.GRA(
            self._gra_params(), rng=np.random.default_rng(gra_seed)
        ).run_with_population(instance, model)
        gra_solve_s = time.perf_counter() - started
        flash, _ = mutation.apply_pattern_change(
            instance, self.change, self.object_share, 1.0,
            rng=np.random.default_rng(flash_seed),
        )
        storm, _ = mutation.apply_pattern_change(
            instance, self.change, self.object_share, 0.0,
            rng=np.random.default_rng(storm_seed),
        )
        return {
            "instance": instance,
            "overnight": overnight,
            "gra_solve_s": gra_solve_s,
            "seed_matrices": [m.matrix for m in population.members],
            "epochs": [
                {"c": instance, "f": flash, "s": storm}[c] for c in self.day
            ],
            "loop_seed": loop_seed,
        }

    def work(self, state, probe: Probe, capture) -> Dict[str, object]:
        capture["deployed"].clear()
        capture["adaptations"].clear()
        with probe.span("solve.day") as span:
            loop = adaptive.AdaptiveReplicationLoop(
                state["instance"],
                state["overnight"].scheme,
                mini_gra_generations=self.mini_gra_generations,
                agra_params=AGRAParams(generations=self.agra_generations),
                gra_params=self._gra_params(),
                seed_matrices=state["seed_matrices"],
                rng=np.random.default_rng(state["loop_seed"]),
            )
            report = loop.run(state["epochs"])
        deployed = list(capture["deployed"])
        adaptations = list(capture["adaptations"])
        # NTC an adaptation saves against keeping the deployed scheme
        # for the patterns it adapted to (both priced by Eq. 4).
        gains = [
            100.0 * (report.epochs[e].measured_ntc - r.total_cost)
            / report.epochs[e].measured_ntc
            for e, r in adaptations
        ]
        return {
            "run_s": span.seconds,
            "report": report,
            "deployed": deployed,
            "adaptations": adaptations,
            "quality": float(np.mean(gains)),
            "adaptive_savings_pct": float(
                np.mean(report.savings_series())
            ),
            "gra_solve_s": state["gra_solve_s"],
            "gra_savings_pct": state["overnight"].savings_percent,
            "sim_rejected": report.metrics.rejected_reads
            + report.metrics.rejected_writes,
            "migrations": report.total_migrations,
        }

    def fingerprint(self, outcome) -> Tuple[float, ...]:
        return tuple(e.measured_ntc for e in outcome["report"].epochs) + tuple(
            r.total_cost for _, r in outcome["adaptations"]
        )

    def checks(self, state, outcome) -> List[Check]:
        instance, overnight = state["instance"], state["overnight"]
        epochs, report = state["epochs"], outcome["report"]
        reference = cost_mod.reference_total_cost
        replays = len(outcome["deployed"])
        out: List[Check] = [
            feasible("overnight.feasible", instance, overnight.scheme.matrix),
            repriced(
                "overnight.cost",
                overnight.total_cost,
                reference,
                instance,
                overnight.scheme.matrix,
            ),
            feasible("final.feasible", instance, report.final_scheme.matrix),
            Check(
                "epochs.replayed",
                replays == len(epochs),
                f"{replays} replays for {len(epochs)} epochs",
            ),
        ]
        # The simulator's NTC for an epoch equals Eq. 4 for the scheme
        # deployed during it, priced on that epoch's patterns.
        for index, (epoch_instance, matrix) in enumerate(outcome["deployed"]):
            out.append(
                repriced(
                    f"epoch{index}.ntc",
                    report.epochs[index].measured_ntc,
                    reference,
                    epoch_instance,
                    matrix,
                )
            )
        for epoch, result in outcome["adaptations"]:
            matrix = result.scheme.matrix
            out += [
                feasible(f"adapt{epoch}.feasible", epochs[epoch], matrix),
                repriced(
                    f"adapt{epoch}.cost",
                    result.total_cost,
                    reference,
                    epochs[epoch],
                    matrix,
                ),
            ]
        return out


def _seeds(seed: int, index: int, count: int) -> List[np.random.SeedSequence]:
    """Seeds of instance ``index`` of a run: fixed by ``(seed, index)``."""
    return np.random.SeedSequence(seed, spawn_key=(index,)).spawn(count)


#: full-size workloads, by name
WORKLOADS: Dict[str, Callable[[], object]] = {
    "paper-static": PaperStatic,
    "scale-sparse": ScaleSparse,
    "adaptive-writes": AdaptiveWrites,
}

#: seconds-scale versions for the benchmark's own tests
TINY: Dict[str, Callable[[], object]] = {
    "paper-static": lambda: PaperStatic(
        num_sites=8, num_objects=12, population=6, generations=1
    ),
    "scale-sparse": lambda: ScaleSparse(
        num_sites=16, num_objects=200, reads_per_site=8, writers_per_object=3
    ),
    "adaptive-writes": lambda: AdaptiveWrites(
        num_sites=6,
        num_objects=12,
        overnight_population=4,
        overnight_generations=1,
        agra_generations=2,
        mini_gra_generations=1,
        object_share=0.5,
    ),
}
