#!/usr/bin/env python3
"""Layered end-to-end benchmark of the DRP reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper-static --seed 1 --seconds 30 --trace 0

Workloads: ``paper-static``, ``scale-sparse``, ``adaptive-writes`` (why
each, in ``BENCHMARK.json``; what each builds, in ``workloads.py``).  A
run cycles over the workload's problems built from ``--seed``, covering
each at least once, until another iteration would end past
``--seconds``.  Every output is checked after the timed work; failed
checks over checks attempted is the error rate.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
instance it reaches twice, untraced and traced in alternating order, and
reports the per-layer metrics of the traced runs (self time per layer,
work counts) plus the tracing overhead, twice: measured, as the median
of traced minus untraced end-to-end time over the pairs
(``trace.overhead_s``), and estimated, as the wrapper calls made times
the cost of one wrapper timed on a no-op (``trace.overhead_est_s``).
Spans go to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it are a human-readable report, which also lists the per-workload
metrics named in ``perfbench/layers.json``.  The full record (machine
fingerprint, BLAS thread pin, seed, every metric) is written to
``perfbench/out/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from statistics import median
from typing import Dict, List

from probe import Probe, durations, self_times, wrapper_costs, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: untraced set-ups repeat within an iteration until they took this long
MIN_SETUP_S = 0.25

#: BLAS/OpenMP pools pinned to one thread in this process's environment
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
#: per-layer metrics: ``<layer>_s`` is the layer's self time, any other
#: name not computed in ``Run._layers`` is a probe counter
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

NAMED_UNITS = {
    "setup_s": "s",
    "sra_solve_s": "s",
    "gra_solve_s": "s",
    "adapt_s": "s",
    "replay_rps": "1/s",
    "sra_savings_pct": "%",
    "gra_savings_pct": "%",
    "adaptive_savings_pct": "%",
    "peak_rss_mb": "MB",
    "error_rate": "ratio",
}


#: per-iteration fields kept for every iteration (the rest is dropped)
KEPT = (
    "index",
    "setup_s",
    "run_s",
    "e2e_s",
    "iteration_s",
    "sra_solve_s",
    "gra_solve_s",
    "adapt_times",
    "replay_rps",
    "layers",
)


def pin_blas() -> None:
    """Pin BLAS to one thread; must run before NumPy is first imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


class Run:
    """One workload run: measure, then check, then summarise."""

    def __init__(self, workload, seed: int, seconds: float, traced: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.run_id = f"{workload.name}:seed{seed}:trace{int(traced)}:{os.getpid()}"
        self.probe = Probe(self.run_id)
        self.capture: Dict[str, list] = {"deployed": [], "adaptations": []}
        self.plain: List[dict] = []  # untraced iterations
        self.layered: List[dict] = []  # traced iterations
        self.states: Dict[int, object] = {}
        self.outcomes: Dict[int, dict] = {}
        self.span_batches: list = []
        #: seconds a span / a count-only wrapper adds to one call
        self.wrapper_cost = wrapper_costs() if traced else (0.0, 0.0)

    # ------------------------------------------------------------------ #
    def _iteration(self, index: int, traced: bool) -> dict:
        # imported late: workloads loads NumPy, which must see the BLAS pin
        from workloads import layer_hooks

        models: list = []
        hooks = layer_hooks(models) if traced else ()
        started = time.perf_counter()
        setups = []
        with self.probe.installed(hooks):
            # A cheap set-up is repeated (untraced) so its median rests
            # on more than a few milliseconds of samples.
            while not setups or (not traced and sum(setups) < MIN_SETUP_S):
                with self.probe.span("setup") as setup:
                    state = self.workload.setup(self.seed, index)
                setups.append(setup.seconds)
            outcome = self.workload.work(state, self.probe, self.capture)
        outcome["iteration_s"] = time.perf_counter() - started
        outcome["setup_s"] = setups
        outcome["e2e_s"] = median(setups) + outcome["run_s"]
        outcome["index"] = index
        counted_calls = self.probe.counted_calls
        spans, counters = self.probe.take()
        outcome["adapt_times"] = durations(spans, "agra.adapt")
        moved = sum(durations(spans, "workload.trace")) + sum(
            durations(spans, "sim.replay")
        )
        if moved > 0:
            outcome["replay_rps"] = counters.get("sim.requests", 0) / moved
        if traced:
            outcome["layers"] = self._layers(
                spans, counters, models, outcome, counted_calls
            )
            self.span_batches.append(spans)
        elif index not in self.outcomes:
            # Only the first outcome per instance keeps its schemes, for
            # the checks: memory must not grow with the iteration count.
            self.states[index] = state
            self.outcomes[index] = outcome
        kept = {key: outcome[key] for key in KEPT if key in outcome}
        kept["fingerprint"] = self.workload.fingerprint(outcome)
        return kept

    def _layers(
        self, spans, counters, models, outcome, counted_calls
    ) -> Dict[str, float]:
        hits = sum(m.cache_info()["hits"] for m in models)
        lookups = hits + sum(m.cache_info()["misses"] for m in models)
        per_span, per_count = self.wrapper_cost
        values = {
            "core.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "sim.rejected": float(outcome.get("sim_rejected", 0)),
            "adaptive.migrations": float(outcome.get("migrations", 0)),
            "trace.spans": float(len(spans)),
            "trace.overhead_est_s": len(spans) * per_span
            + counted_calls * per_count,
        }
        selfs = self_times(spans)
        for name in LAYER_UNITS:
            if name in values or name == "trace.overhead_s":
                continue
            if name.endswith("_s"):
                values[name] = selfs.get(name[: -len("_s")], 0.0)
            else:
                values[name] = float(counters.get(name, 0))
        return values

    def measure(self) -> None:
        """Cycle over the instances, one untraced iteration (or an
        untraced/traced pair) at a time, until the next would end past
        the deadline.  Untraced runs always cover every instance once.
        A pair runs untraced first on even turns and traced first on odd
        ones, so the overhead is not a running-order effect."""
        started = time.perf_counter()
        deadline = started + self.seconds
        minimum = 1 if self.traced else self.workload.instances
        done = 0
        with self.probe.installed(self.workload.hooks(self.capture)):
            while True:
                instance = done % self.workload.instances
                order = (False, True) if self.traced else (False,)
                if done % 2:
                    order = order[::-1]
                for traced in order:
                    kept = self._iteration(instance, traced=traced)
                    (self.layered if traced else self.plain).append(kept)
                done += 1
                now = time.perf_counter()
                if done >= minimum and now + (now - started) / done > deadline:
                    break

    # ------------------------------------------------------------------ #
    def check(self) -> List[Check]:
        """Check every distinct instance's outputs, and that repeated
        iterations of one instance reproduced them exactly."""
        from workloads import Check

        results = [
            Check(f"instance{index}.{item.name}", item.ok, item.detail)
            for index in sorted(self.outcomes)
            for item in self.workload.checks(
                self.states[index], self.outcomes[index]
            )
        ]
        seen = set()
        for kept in self.plain + self.layered:
            index = kept["index"]
            if index not in seen:  # the first iteration is the reference
                seen.add(index)
                continue
            same = kept["fingerprint"] == self.workload.fingerprint(
                self.outcomes[index]
            )
            results.append(
                Check(
                    f"instance{index}.repeatable",
                    same,
                    "" if same else "a repeated iteration gave other outputs",
                )
            )
        return results

    # ------------------------------------------------------------------ #
    def end_to_end(self, peak_rss_mb: float) -> Dict[str, float]:
        firsts = [self.outcomes[i] for i in sorted(self.outcomes)]
        return {
            "setup_s": median(t for o in self.plain for t in o["setup_s"]),
            "run_s": median(o["run_s"] for o in self.plain),
            "ntc_saved_pct": sum(o["quality"] for o in firsts) / len(firsts),
            "peak_rss_mb": peak_rss_mb,
        }

    def per_layer(self) -> Dict[str, float]:
        overhead = median(
            t["e2e_s"] - p["e2e_s"] for p, t in zip(self.plain, self.layered)
        )
        return {
            name: overhead
            if name == "trace.overhead_s"
            else median(o["layers"][name] for o in self.layered)
            for name in LAYER_UNITS
        }

    def named(self, e2e: Dict[str, float], rate: float) -> Dict[str, float]:
        """The per-workload metrics of ``layers.json``, where they apply."""
        firsts = [self.outcomes[i] for i in sorted(self.outcomes)]
        values = {"setup_s": e2e["setup_s"]}
        for key in ("sra_solve_s", "gra_solve_s"):
            if key in self.plain[0]:
                values[key] = median(o[key] for o in self.plain)
        adapt = [t for o in self.plain for t in o["adapt_times"]]
        if adapt:
            values["adapt_s"] = median(adapt)
        if "replay_rps" in self.plain[0]:
            values["replay_rps"] = median(o["replay_rps"] for o in self.plain)
        for key in ("sra_savings_pct", "gra_savings_pct", "adaptive_savings_pct"):
            if key in firsts[0]:
                values[key] = sum(o[key] for o in firsts) / len(firsts)
        values["peak_rss_mb"] = e2e["peak_rss_mb"]
        values["error_rate"] = rate
        return values


def error_rate(checks) -> float:
    """Failed correctness checks over checks attempted."""
    return sum(not c.ok for c in checks) / len(checks)


def execute(name: str, seed: int, seconds: float, traced: bool, tiny: bool = False) -> dict:
    """Run one workload and return its full record (see the module doc)."""
    from repro.analysis.regression import machine_info
    from workloads import TINY, WORKLOADS

    workload = (TINY if tiny else WORKLOADS)[name]()
    run = Run(workload, seed, seconds, traced)
    started = time.perf_counter()
    run.measure()
    measured_s = time.perf_counter() - started
    # ru_maxrss is KiB on Linux; read it before the checks allocate.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = run.check()
    failed = [c for c in checks if not c.ok]
    rate = error_rate(checks)
    e2e = run.end_to_end(peak_rss_mb)
    if traced:
        metrics = run.per_layer()
        units = LAYER_UNITS
    else:
        metrics = e2e
        units = E2E_UNITS
    record = {
        "workload": name,
        "seed": seed,
        "trace": int(traced),
        "run_id": run.run_id,
        "size": "tiny" if tiny else "full",
        "seconds": seconds,
        "measured_s": measured_s,
        "instances": len(run.outcomes),
        "iterations": [
            {
                "instance": o["index"],
                "traced": "layers" in o,
                "setup_s": median(o["setup_s"]),
                "run_s": o["run_s"],
                "iteration_s": o["iteration_s"],
            }
            for o in run.plain + run.layered
        ],
        "machine": machine_info(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "error_rate": rate,
        "failed_checks": [{"name": c.name, "detail": c.detail} for c in failed],
        "named": run.named(e2e, rate),
        "result": {
            "correct": not failed,
            "attempted": len(checks),
            "failed": len(failed),
            "metrics": {
                key: {"value": value, "unit": units[key]}
                for key, value in metrics.items()
            },
        },
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(traced)}"
    if traced:
        spans = OUT / f"{stem}.spans.jsonl"
        record["spans_written"] = write_spans(spans, run.span_batches)
        record["spans_file"] = str(spans.relative_to(ROOT))
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def report(record: dict) -> str:
    lines = [
        f"perfbench {record['workload']} seed={record['seed']} "
        f"trace={record['trace']} instances={record['instances']} "
        f"iterations={len(record['iterations'])} measured={record['measured_s']:.1f}s",
        "  per-workload metrics:",
    ]
    for key, value in record["named"].items():
        lines.append(f"    {key:<22} {value:.6g} {NAMED_UNITS[key]}")
    lines.append("  reported metrics:")
    for key, entry in record["result"]["metrics"].items():
        lines.append(f"    {key:<28} {entry['value']:.6g} {entry['unit']}")
    for failure in record["failed_checks"]:
        lines.append(f"  FAILED {failure['name']}: {failure['detail']}")
    lines.append(f"  machine={json.dumps(record['machine'], sort_keys=True)}")
    lines.append(f"  blas_threads={json.dumps(record['blas_threads'])}")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        choices=("paper-static", "scale-sparse", "adaptive-writes"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size",
        choices=("full", "tiny"),
        default="full",
        help="tiny: seconds-scale problems for the benchmark's own tests",
    )
    args = parser.parse_args(argv)
    pin_blas()
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = execute(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        tiny=args.size == "tiny",
    )
    print(report(record))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
