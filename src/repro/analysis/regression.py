"""The benchmark ledger: record wall-clock history, watch for regressions.

The repo's performance claims (the sparse scale path, GA throughput)
are only checkable over *time* — a single ``BENCH_*.json`` artifact says
what one commit did on one machine, not whether the next commit got
slower.  This module adds the missing axis:

* :func:`write_bench_artifact` — the one writer the pytest benchmark
  suites go through, so every ``BENCH_*.json`` artifact shares a schema
  (``benchmark``/``algorithms``/``results``).
  :func:`normalize_bench_artifact` fills in missing fields on read.
* ``BENCH_history.jsonl`` — one JSON line per ``repro bench record``
  run: machine fingerprint, profile tier, and median-of-k wall-clock
  for every micro-benchmark in :data:`BENCH_SUITE`.
* :func:`compare_entries` — noise-aware deltas of the newest entry
  against a baseline.  The noise floor per benchmark is the median
  absolute deviation (MAD) over that machine's history, so a benchmark
  that naturally jitters by 10% does not page anyone at +12%, while a
  stable one does.
* :func:`render_report` — a markdown trend table for humans and CI job
  summaries.

``repro bench record | report | check`` is the CLI surface;
``check`` exits non-zero when any benchmark regressed beyond the
threshold *and* above its noise floor.
"""

from __future__ import annotations

import json
import os
import platform
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ValidationError

#: schema version stamped on every history line
HISTORY_VERSION = 1

#: default ledger location (repo root; committed so trends survive)
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: a regression must exceed both the ratio threshold and the noise floor
DEFAULT_THRESHOLD = 1.25

#: per-benchmark repeats; the median is recorded
DEFAULT_REPEATS = 3

#: absolute slack (seconds) under which a slowdown is never flagged —
#: protects millisecond-scale benchmarks from scheduler jitter before
#: the history is deep enough for a MAD estimate
DEFAULT_MIN_DELTA = 0.010


# --------------------------------------------------------------------- #
# shared BENCH_*.json artifact writer
# --------------------------------------------------------------------- #
def write_bench_artifact(
    path: str,
    benchmark: str,
    algorithms: Sequence[str],
    results: List[Dict[str, object]],
    extra: Optional[Dict[str, object]] = None,
    merge_on: Optional[str] = None,
) -> str:
    """Write a benchmark artifact in the unified schema; returns ``path``.

    ``algorithms`` is always a list.  With ``merge_on`` set to a result key, records already in
    the file whose key value is not being rewritten are preserved — the
    scale suite uses this so the slow ``large`` tier accumulates next to
    the quick tiers instead of clobbering them.
    """
    payload: Dict[str, object] = {
        "benchmark": benchmark,
        "algorithms": list(algorithms),
        "results": results,
    }
    if extra:
        payload.update(extra)
    if merge_on is not None and os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as fp:
                existing = normalize_bench_artifact(json.load(fp))
        except (ValueError, OSError):
            existing = {"results": []}
        seen = {record.get(merge_on) for record in results}
        payload["results"] = [
            record
            for record in existing.get("results", [])
            if record.get(merge_on) not in seen
        ] + results
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(payload, fp, indent=2, sort_keys=True)
    return path


def normalize_bench_artifact(
    payload: Dict[str, object],
) -> Dict[str, object]:
    """A copy of a unified-schema artifact with both list fields present."""
    out = dict(payload)
    out["algorithms"] = list(out.get("algorithms", []))
    out.setdefault("results", [])
    return out


# --------------------------------------------------------------------- #
# the recorded micro-benchmark suite
# --------------------------------------------------------------------- #
def _bench_sra_solve() -> None:
    from repro.algorithms.sra import SRA
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(
        WorkloadSpec(num_sites=30, num_objects=60), rng=11
    )
    SRA().run(instance)


def _bench_sra_scale_small() -> None:
    from repro.algorithms.sra import SRA
    from repro.workload.scale import (
        SCALE_TIERS,
        ScaleSpec,
        generate_scale_problem,
    )

    sites, objects = SCALE_TIERS["small"]
    problem = generate_scale_problem(
        ScaleSpec(num_sites=sites, num_objects=objects), rng=11
    )
    SRA().run(problem)


def _bench_gra_evolve() -> None:
    from repro.algorithms import GAParams, GRA
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(
        WorkloadSpec(num_sites=12, num_objects=24), rng=11
    )
    GRA(GAParams(generations=20, population_size=30), rng=3).run(instance)


def _bench_hill_climb_incremental() -> None:
    from repro.algorithms.localsearch import HillClimbing
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(
        WorkloadSpec(num_sites=25, num_objects=50, capacity_ratio=0.25),
        rng=11,
    )
    HillClimbing(rng=7).run(instance)


def _bench_sim_replay() -> None:
    from repro.algorithms.sra import SRA
    from repro.sim import ReplicaSystem
    from repro.workload import WorkloadSpec, generate_instance
    from repro.workload.trace import generate_trace

    instance = generate_instance(
        WorkloadSpec(num_sites=16, num_objects=32), rng=11
    )
    result = SRA().run(instance)
    trace = generate_trace(instance, duration=2.0, rng=5)
    ReplicaSystem(instance, result.scheme).replay(trace)


def _bench_cost_batch() -> None:
    from repro.core import CostModel
    from repro.workload import WorkloadSpec, generate_instance

    instance = generate_instance(
        WorkloadSpec(num_sites=48, num_objects=96), rng=11
    )
    model = CostModel(instance)
    rng = np.random.default_rng(2)
    columns = rng.random((64, instance.num_sites)) < 0.3
    primaries = instance.primaries
    for obj in range(0, instance.num_objects, 8):
        cols = columns.copy()
        cols[:, int(primaries[obj])] = True
        model.object_costs_batch(obj, cols)


#: name -> zero-argument callable; every entry runs in-process and is
#: deterministic (fixed seeds), so only the *machine* varies run to run
BENCH_SUITE: Dict[str, Callable[[], None]] = {
    "sra_solve": _bench_sra_solve,
    "sra_scale_small": _bench_sra_scale_small,
    "gra_evolve": _bench_gra_evolve,
    "hill_climb_incremental": _bench_hill_climb_incremental,
    "sim_replay": _bench_sim_replay,
    "cost_batch": _bench_cost_batch,
}


def machine_info() -> Dict[str, object]:
    """A fingerprint of the machine the numbers were produced on.

    Comparing across different fingerprints is refused by ``check`` —
    a laptop-vs-CI delta measures the hardware, not the code.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 0,
    }


def record_entry(
    repeats: int = DEFAULT_REPEATS,
    label: str = "",
    profile: str = "",
    scale_seconds: float = 1.0,
    suite: Optional[Dict[str, Callable[[], None]]] = None,
) -> Dict[str, object]:
    """Run the suite and return one history entry (not yet persisted).

    ``scale_seconds`` multiplies every measured time before recording —
    a test/CI hook for exercising the regression check with a known
    injected slowdown (``repro bench record --scale-seconds 1.5``).
    """
    if repeats < 1:
        raise ValidationError(f"repeats must be >= 1, got {repeats}")
    if scale_seconds <= 0:
        raise ValidationError(
            f"scale_seconds must be > 0, got {scale_seconds}"
        )
    suite = BENCH_SUITE if suite is None else suite
    benchmarks: Dict[str, Dict[str, object]] = {}
    for name in sorted(suite):
        runs = []
        for _ in range(repeats):
            started = time.perf_counter()
            suite[name]()
            runs.append(
                (time.perf_counter() - started) * scale_seconds
            )
        benchmarks[name] = {
            "seconds": float(np.median(runs)),
            "runs": [float(r) for r in runs],
        }
    return {
        "version": HISTORY_VERSION,
        "recorded_at": time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        ),
        "label": label,
        "profile": profile,
        "machine": machine_info(),
        "benchmarks": benchmarks,
    }


# --------------------------------------------------------------------- #
# the history ledger
# --------------------------------------------------------------------- #
def append_history(path: str, entry: Dict[str, object]) -> str:
    """Append one entry as a JSON line; returns ``path``."""
    with open(path, "a", encoding="utf-8") as fp:
        fp.write(json.dumps(entry, sort_keys=True) + "\n")
    return path


def load_history(path: str) -> List[Dict[str, object]]:
    """Load the ledger; raises :class:`ValidationError` on a bad line."""
    if not os.path.exists(path):
        return []
    entries = []
    with open(path, encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError as exc:
                raise ValidationError(
                    f"{path}:{lineno}: unparsable history line: {exc}"
                ) from None
            if not isinstance(entry, dict) or "benchmarks" not in entry:
                raise ValidationError(
                    f"{path}:{lineno}: not a bench history entry"
                )
            entries.append(entry)
    return entries


def _same_machine(a: Dict[str, object], b: Dict[str, object]) -> bool:
    return a.get("machine") == b.get("machine") and a.get(
        "profile"
    ) == b.get("profile")


def _seconds(entry: Dict[str, object], name: str) -> Optional[float]:
    bench = dict(entry.get("benchmarks", {})).get(name)
    if bench is None:
        return None
    return float(bench["seconds"])


# --------------------------------------------------------------------- #
# regression detection
# --------------------------------------------------------------------- #
@dataclass
class BenchDelta:
    """One benchmark's movement between baseline and current entry."""

    name: str
    baseline_seconds: float
    current_seconds: float
    noise_seconds: float  #: MAD-derived noise floor over the history

    threshold: float = DEFAULT_THRESHOLD
    min_delta_seconds: float = DEFAULT_MIN_DELTA

    @property
    def ratio(self) -> float:
        if self.baseline_seconds == 0.0:
            return float("inf") if self.current_seconds else 1.0
        return self.current_seconds / self.baseline_seconds

    @property
    def regressed(self) -> bool:
        """Slower than ``threshold`` x baseline *and* beyond noise.

        The noise floor is ``max(3 * MAD, min_delta_seconds)``: until
        the history is deep enough to estimate jitter (MAD needs >= 3
        compatible entries), the absolute slack keeps millisecond-scale
        benchmarks from paging on scheduler noise alone.
        """
        slack = max(3.0 * self.noise_seconds, self.min_delta_seconds)
        beyond_noise = self.current_seconds > (
            self.baseline_seconds + slack
        )
        return self.ratio > self.threshold and beyond_noise

    @property
    def improved(self) -> bool:
        return self.ratio < 1.0 / self.threshold


@dataclass
class RegressionReport:
    """Outcome of comparing the newest entry against a baseline."""

    baseline_label: str
    current_label: str
    deltas: List[BenchDelta] = field(default_factory=list)

    @property
    def regressions(self) -> List[BenchDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [
            f"bench check: {self.current_label} vs {self.baseline_label}"
        ]
        for delta in self.deltas:
            flag = (
                "REGRESSED"
                if delta.regressed
                else ("improved" if delta.improved else "ok")
            )
            lines.append(
                f"  {delta.name}: {delta.baseline_seconds:.4f}s -> "
                f"{delta.current_seconds:.4f}s "
                f"({delta.ratio:.2f}x, noise +/-{delta.noise_seconds:.4f}s)"
                f" [{flag}]"
            )
        if not self.deltas:
            lines.append("  (no common benchmarks to compare)")
        return "\n".join(lines)


def _mad_noise(values: Sequence[float]) -> float:
    """Median absolute deviation, scaled to sigma-equivalent (1.4826)."""
    if len(values) < 3:
        return 0.0
    arr = np.asarray(values, dtype=float)
    return float(1.4826 * np.median(np.abs(arr - np.median(arr))))


def _entry_label(entry: Dict[str, object], index: int) -> str:
    label = entry.get("label") or ""
    stamp = entry.get("recorded_at") or f"entry {index}"
    return f"{label} ({stamp})" if label else str(stamp)


def compare_entries(
    history: List[Dict[str, object]],
    current: Optional[Dict[str, object]] = None,
    baseline: Optional[str] = None,
    threshold: float = DEFAULT_THRESHOLD,
) -> RegressionReport:
    """Compare ``current`` (default: last entry) against a baseline.

    The baseline is the most recent *earlier* entry with the same
    machine fingerprint and profile — or, when ``baseline`` is given,
    the latest compatible entry with that label.  Noise floors come from
    the full compatible history (MAD per benchmark), so one-off
    scheduler hiccups need >3 sigma to page.

    No compatible baseline (first run on a new machine, e.g. a fresh CI
    runner against a ledger seeded elsewhere) is a *pass*, not an
    error: the report carries zero deltas and the current entry simply
    becomes the machine's baseline.  An explicitly requested ``baseline``
    label that cannot be found still raises.
    """
    if threshold <= 1.0:
        raise ValidationError(
            f"threshold must be > 1.0, got {threshold}"
        )
    if current is None:
        if not history:
            raise ValidationError("bench history is empty; record first")
        current = history[-1]
        history = history[:-1]
    compatible = [
        (i, e)
        for i, e in enumerate(history)
        if _same_machine(e, current)
    ]
    if baseline:
        compatible = [
            (i, e) for i, e in compatible if e.get("label") == baseline
        ]
        if not compatible:
            raise ValidationError(
                f"no compatible history entry labelled {baseline!r}"
            )
    if not compatible:
        return RegressionReport(
            baseline_label="(no compatible baseline on this machine)",
            current_label=_entry_label(current, len(history)),
            deltas=[],
        )
    base_index, base = compatible[-1]
    deltas = []
    for name in sorted(dict(current.get("benchmarks", {}))):
        base_seconds = _seconds(base, name)
        cur_seconds = _seconds(current, name)
        if base_seconds is None or cur_seconds is None:
            continue
        series = [
            s
            for _, e in compatible
            if (s := _seconds(e, name)) is not None
        ]
        deltas.append(
            BenchDelta(
                name=name,
                baseline_seconds=base_seconds,
                current_seconds=cur_seconds,
                noise_seconds=_mad_noise(series),
                threshold=threshold,
            )
        )
    return RegressionReport(
        baseline_label=_entry_label(base, base_index),
        current_label=_entry_label(current, len(history)),
        deltas=deltas,
    )


def render_report(
    history: List[Dict[str, object]], last: int = 10
) -> str:
    """A markdown trend table over the ``last`` history entries."""
    if not history:
        return "no bench history recorded yet\n"
    window = history[-last:]
    names = sorted(
        {
            name
            for entry in window
            for name in dict(entry.get("benchmarks", {}))
        }
    )
    header = (
        "| recorded | profile | "
        + " | ".join(names)
        + " |"
    )
    rule = "|" + "---|" * (len(names) + 2)
    lines = ["# bench history", "", header, rule]
    for entry in window:
        cells = []
        for name in names:
            seconds = _seconds(entry, name)
            cells.append("-" if seconds is None else f"{seconds:.4f}s")
        stamp = str(entry.get("recorded_at", "?"))
        label = entry.get("label") or ""
        if label:
            stamp = f"{stamp} ({label})"
        profile = str(entry.get("profile") or "-")
        lines.append(
            "| " + " | ".join([stamp, profile, *cells]) + " |"
        )
    machines = {
        json.dumps(entry.get("machine", {}), sort_keys=True)
        for entry in window
    }
    if len(machines) > 1:
        lines.append("")
        lines.append(
            f"note: entries span {len(machines)} machine fingerprints; "
            "cross-machine cells are not comparable"
        )
    return "\n".join(lines) + "\n"


__all__ = [
    "HISTORY_VERSION",
    "DEFAULT_HISTORY",
    "DEFAULT_THRESHOLD",
    "DEFAULT_REPEATS",
    "BENCH_SUITE",
    "BenchDelta",
    "RegressionReport",
    "write_bench_artifact",
    "normalize_bench_artifact",
    "machine_info",
    "record_entry",
    "append_history",
    "load_history",
    "compare_entries",
    "render_report",
]
