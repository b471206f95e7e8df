"""The benchmark regression gate: a change's perfbench records against its parent's.

``perfbench/run.py`` is the one timed harness.  ``BENCHMARK.json`` names
its workloads and end-to-end metrics, and every untraced run writes one
record, ``perfbench/out/<workload>-seed<seed>-trace0.json``.
:func:`check_records` compares two directories of such records, the
parent's and the change's.  Per workload and per end-to-end metric it
flags the change when its median is worse than the parent's median

* by more than the metric's ``bound`` (a fraction of the parent's
  median), *and*
* by more than the parent's own spread (max minus min over its records),

where "worse" follows the metric's ``better`` field.  A workload whose
change records fail a larger share of their correctness checks than the
parent's is flagged too.  ``repro bench check PARENT CHANGE [SPEC]`` is
the CLI surface; it exits 1 when anything is flagged.

:func:`machine_info` is the fingerprint perfbench stamps on every record.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from typing import Dict, List, Tuple

import numpy as np

from repro.errors import ValidationError


def machine_info() -> Dict[str, object]:
    """A fingerprint of the machine the numbers were produced on.

    :func:`check_records` refuses to compare records whose fingerprints
    differ: a laptop-vs-CI delta measures the hardware, not the code.
    """
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count() or 0,
    }


@dataclass(frozen=True)
class MetricDelta:
    """One workload's end-to-end metric, parent median against change median."""

    workload: str
    metric: str
    better: str  #: ``"lower"`` or ``"higher"``, from ``BENCHMARK.json``
    bound: float  #: allowed worsening, as a fraction of the parent median
    parent: float
    change: float
    spread: float  #: max minus min over the parent's records

    @property
    def worse_by(self) -> float:
        """How much worse the change is (negative when it is better)."""
        delta = self.change - self.parent
        return delta if self.better == "lower" else -delta

    @property
    def regressed(self) -> bool:
        return (
            self.worse_by > self.bound * abs(self.parent)
            and self.worse_by > self.spread
        )


@dataclass
class RegressionReport:
    """Outcome of :func:`check_records`."""

    parent_dir: str
    change_dir: str
    deltas: List[MetricDelta] = field(default_factory=list)
    #: workload -> (parent, change) failed checks over checks attempted
    failed_share: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def regressions(self) -> List[str]:
        flagged = [
            f"{d.workload} {d.metric}" for d in self.deltas if d.regressed
        ]
        flagged += [
            f"{workload} checks"
            for workload, (parent, change) in self.failed_share.items()
            if change > parent
        ]
        return flagged

    @property
    def ok(self) -> bool:
        return not self.regressions

    def render(self) -> str:
        lines = [f"bench check: {self.change_dir} vs {self.parent_dir}"]
        for d in self.deltas:
            worse = d.worse_by / abs(d.parent) + 0.0 if d.parent else 0.0
            flag = "REGRESSED" if d.regressed else "ok"
            lines.append(
                f"  {d.workload} {d.metric}: {d.parent:.6g} -> {d.change:.6g}"
                f" (worse by {worse:+.1%}, bound {d.bound:.0%}, parent"
                f" spread {d.spread:.6g}, {d.better} is better) [{flag}]"
            )
        for workload, (parent, change) in self.failed_share.items():
            flag = "REGRESSED" if change > parent else "ok"
            lines.append(
                f"  {workload} failed checks: {parent:.1%} -> {change:.1%}"
                f" [{flag}]"
            )
        return "\n".join(lines)


def _read_json(path: Path, what: str) -> object:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read {what}: {exc}") from None
    except ValueError as exc:
        raise ValidationError(f"{path}: unparsable {what}: {exc}") from None


def _load_spec(path: str) -> List[Dict[str, object]]:
    """The ``end_to_end`` metric list of a ``BENCHMARK.json`` spec."""
    spec = _read_json(Path(path), "benchmark spec")
    metrics = spec.get("end_to_end") if isinstance(spec, dict) else None
    if not isinstance(metrics, list) or not metrics:
        raise ValidationError(f"{path}: no end_to_end metric list")
    for metric in metrics:
        if not (
            isinstance(metric, dict)
            and isinstance(metric.get("name"), str)
            and metric.get("better") in ("lower", "higher")
            and isinstance(metric.get("bound"), (int, float))
            and metric["bound"] >= 0
        ):
            raise ValidationError(
                f"{path}: end_to_end metric {metric!r} needs a name, "
                "better (lower|higher) and a bound >= 0"
            )
    return metrics


def _load_records(
    directory: str, metrics: List[Dict[str, object]]
) -> List[Dict[str, object]]:
    """The untraced perfbench records in ``directory`` (``*.json``).

    Every record must carry its workload, seed, size, machine, check
    counts and a numeric value for each end-to-end metric of the spec.
    Traced records (``trace`` 1) report per-layer metrics and are skipped.
    """
    if not os.path.isdir(directory):
        raise ValidationError(f"{directory}: no such record directory")
    records = []
    for path in sorted(Path(directory).glob("*.json")):
        record = _read_json(path, "perfbench record")
        try:
            if record["trace"]:
                continue
            result = record["result"]
            values = {
                m["name"]: float(result["metrics"][m["name"]]["value"])
                for m in metrics
            }
            checks = (int(result["failed"]), int(result["attempted"]))
            key = (str(record["workload"]), int(record["seed"]))
            context = (record["size"], record["machine"])
        except (TypeError, KeyError, ValueError) as exc:
            raise ValidationError(
                f"{path}: not a perfbench record ({exc!r})"
            ) from None
        records.append(
            {"key": key, "context": context, "values": values, "checks": checks}
        )
    if not records:
        raise ValidationError(
            f"{directory}: no untraced perfbench records (*.json)"
        )
    return records


def check_records(
    parent_dir: str, change_dir: str, spec_path: str
) -> RegressionReport:
    """Compare the change's records against the parent's (module doc).

    Both directories must hold records of the same workloads and seeds,
    at the same size, from the same machine.
    """
    metrics = _load_spec(spec_path)
    parent = _load_records(parent_dir, metrics)
    change = _load_records(change_dir, metrics)
    keys = {r["key"] for r in parent}
    if keys != {r["key"] for r in change}:
        raise ValidationError(
            f"{parent_dir} and {change_dir} must hold records of the same "
            "workloads and seeds"
        )
    contexts = [r["context"] for r in parent + change]
    if any(c != contexts[0] for c in contexts):
        raise ValidationError(
            "records differ in size or machine fingerprint; compare runs "
            "of one size on one machine"
        )
    report = RegressionReport(parent_dir, change_dir)
    for workload in sorted({w for w, _seed in keys}):
        old = [r for r in parent if r["key"][0] == workload]
        new = [r for r in change if r["key"][0] == workload]
        for metric in metrics:
            name = metric["name"]
            old_values = [r["values"][name] for r in old]
            report.deltas.append(
                MetricDelta(
                    workload=workload,
                    metric=name,
                    better=metric["better"],
                    bound=float(metric["bound"]),
                    parent=median(old_values),
                    change=median(r["values"][name] for r in new),
                    spread=max(old_values) - min(old_values),
                )
            )
        report.failed_share[workload] = tuple(
            sum(r["checks"][0] for r in side)
            / max(sum(r["checks"][1] for r in side), 1)
            for side in (old, new)
        )
    return report


__all__ = [
    "MetricDelta",
    "RegressionReport",
    "check_records",
    "machine_info",
]
