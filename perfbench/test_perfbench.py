"""The benchmark's own tests: tiny smoke runs and the correctness gate.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run as bench  # noqa: E402
from probe import Hook, Probe, self_times, wrapper_costs  # noqa: E402
from workloads import TINY  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LAYERS = json.loads((HERE / "layers.json").read_text())["workloads"]


def _cli(workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--size", "tiny",
        ],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    done = _cli(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for metric in listed:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], float)
    # the per-workload metrics, each with its unit, in the report
    report = done.stdout
    for name in LAYERS[workload]["metrics"]:
        assert f" {name} " in report and bench.NAMED_UNITS[name] in report


def _measured(workload: str) -> "bench.Run":
    run = bench.Run(TINY[workload](), seed=5, seconds=0, traced=False)
    run.measure()
    assert all(check.ok for check in run.check())
    return run


def _drop_primary(result, instance):
    matrix = result.scheme.matrix.copy()
    matrix[instance.primaries[0], 0] = False
    return dataclasses.replace(result, scheme=SimpleNamespace(matrix=matrix))


def _perturb(result):
    return dataclasses.replace(result, total_cost=result.total_cost * (1 + 1e-6))


def _failed(run) -> set:
    checks = run.check()
    assert bench.error_rate(checks) > 0
    return {check.name for check in checks if not check.ok}


@pytest.mark.parametrize("workload", ["paper-static", "scale-sparse"])
def test_corrupted_static_outputs_raise_error_rate(workload):
    run = _measured(workload)
    instance = run.states[0][0]
    outcome = run.outcomes[0]
    outcome["sra"] = _drop_primary(outcome["sra"], instance)
    outcome["sra"] = _perturb(outcome["sra"])
    assert {"instance0.sra.feasible", "instance0.sra.cost"} <= _failed(run)


def test_corrupted_adaptive_outputs_raise_error_rate():
    run = _measured("adaptive-writes")
    state, outcome = run.states[1], run.outcomes[1]
    state["overnight"] = _drop_primary(state["overnight"], state["instance"])
    epochs = outcome["report"].epochs
    epochs[2] = dataclasses.replace(
        epochs[2], measured_ntc=epochs[2].measured_ntc + 1.0
    )
    assert {
        "instance1.overnight.feasible",
        "instance1.epoch2.ntc",
    } <= _failed(run)


class _Target:
    def work(self, x):
        return x + 1


class _Child(_Target):
    pass


def test_probe_records_nested_spans_and_restores_targets():
    probe = Probe("test")
    original = _Target.__dict__["work"]
    hooks = [
        Hook(f"{__name__}:_Target.work", "outer", lambda a, k, r: {"n": r}),
        Hook(f"{__name__}:_Child.work", "inner"),
    ]
    with probe.installed(hooks):
        with probe.span("root"):
            assert _Child().work(1) == 2
    assert _Target.__dict__["work"] is original
    assert "work" not in _Child.__dict__
    spans, counters = probe.take()
    assert [s.name for s in spans] == ["root", "inner", "outer"]
    assert [s.parent for s in spans] == [-1, 0, 1]
    assert counters == {"n": 2}
    selfs = self_times(spans)
    total = spans[0].end - spans[0].start
    assert np.isclose(sum(selfs.values()), total)


def test_wrapper_costs_are_small_and_positive():
    per_span, per_count = wrapper_costs(calls=2_000)
    assert 0.0 <= per_count <= per_span < 1e-3


def test_traced_pairs_alternate_running_order():
    run = bench.Run(TINY["paper-static"](), seed=5, seconds=2.0, traced=True)
    order = []
    iteration = run._iteration

    def recorded(index, traced):
        order.append(traced)
        return iteration(index, traced)

    run._iteration = recorded
    run.measure()
    assert len(order) >= 4
    assert order[:4] == [False, True, True, False]
    assert "trace.overhead_s" in run.per_layer()
