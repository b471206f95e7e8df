"""The bench gate: a change's perfbench records against its parent's."""

from __future__ import annotations

import copy
import json
from pathlib import Path

import pytest

from repro.analysis.regression import check_records, machine_info
from repro.errors import ValidationError

SPEC = str(Path(__file__).resolve().parents[1] / "BENCHMARK.json")
WORKLOADS = ("paper-static", "scale-sparse", "adaptive-writes")


def _record(workload, seed, run_s=1.0, saved=40.0, failed=0, size="full"):
    """A synthetic untraced perfbench record, shaped like ``run.py``'s."""
    values = {
        "setup_s": (0.1, "s"),
        "run_s": (run_s, "s"),
        "ntc_saved_pct": (saved, "%"),
        "peak_rss_mb": (100.0, "MB"),
    }
    return {
        "workload": workload,
        "seed": seed,
        "trace": 0,
        "size": size,
        "machine": {"platform": "test", "cpus": 1},
        "result": {
            "correct": not failed,
            "attempted": 4,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in values.items()
            },
        },
    }


def _records(**overrides):
    """Three seeds per workload, with ``run_s`` jittering by 2%."""
    return [
        _record(w, seed, run_s=1.0 + 0.01 * seed, **overrides)
        for w in WORKLOADS
        for seed in (1, 2, 3)
    ]


def _write(directory: Path, records) -> str:
    directory.mkdir()
    for r in records:
        name = f"{r['workload']}-seed{r['seed']}-trace{r['trace']}.json"
        (directory / name).write_text(json.dumps(r))
    return str(directory)


def _check(tmp_path, parent, change, spec=SPEC):
    return check_records(
        _write(tmp_path / "parent", parent),
        _write(tmp_path / "change", change),
        spec,
    )


def test_identical_entry_passes(tmp_path):
    records = _records()
    report = _check(tmp_path, records, copy.deepcopy(records))
    assert report.ok, report.render()
    assert len(report.deltas) == 3 * 4  # workloads x end-to-end metrics
    assert all(d.worse_by == 0.0 for d in report.deltas)


def test_injected_slowdown_is_flagged(tmp_path):
    parent = _records()
    change = copy.deepcopy(parent)
    for r in change:
        if r["workload"] == "scale-sparse":
            r["result"]["metrics"]["run_s"]["value"] *= 1.5
    report = _check(tmp_path, parent, change)
    assert report.regressions == ["scale-sparse run_s"]
    assert "REGRESSED" in report.render()


def test_lower_savings_is_flagged(tmp_path):
    # ntc_saved_pct: higher is better, so a drop is the regression
    parent = _records()
    change = copy.deepcopy(parent)
    for r in change:
        r["result"]["metrics"]["ntc_saved_pct"]["value"] = 30.0
    report = _check(tmp_path, parent, change)
    assert report.regressions == [
        f"{w} ntc_saved_pct" for w in sorted(WORKLOADS)
    ]
    # and a rise is not
    for r in change:
        r["result"]["metrics"]["ntc_saved_pct"]["value"] = 50.0
    assert check_records(
        str(tmp_path / "parent"), _write(tmp_path / "higher", change), SPEC
    ).ok


def test_noise_floor_suppresses_jittery_benchmark(tmp_path):
    # 1.4x the parent median is beyond the 25% bound, but the parent's
    # own records spread from 0.6 to 1.5, so it is not flagged
    parent = [
        _record("paper-static", seed, run_s=s)
        for seed, s in enumerate((0.6, 1.0, 1.5), start=1)
    ]
    change = [_record("paper-static", seed, run_s=1.4) for seed in (1, 2, 3)]
    assert _check(tmp_path, parent, change).ok
    # the same worsening over a stable parent is flagged
    stable = [_record("paper-static", seed) for seed in (1, 2, 3)]
    report = check_records(
        _write(tmp_path / "stable", stable), str(tmp_path / "change"), SPEC
    )
    assert report.regressions == ["paper-static run_s"]


def test_more_failed_checks_are_flagged(tmp_path):
    parent = _records()
    change = copy.deepcopy(parent)
    change[0]["result"]["failed"] = 1
    report = _check(tmp_path, parent, change)
    assert report.regressions == [f"{change[0]['workload']} checks"]


def test_baseline_must_match_machine_and_profile(tmp_path):
    parent = _records()
    other_machine = copy.deepcopy(parent)
    other_machine[0]["machine"] = machine_info()
    with pytest.raises(ValidationError, match="machine"):
        _check(tmp_path, parent, other_machine)
    with pytest.raises(ValidationError, match="size"):
        check_records(
            str(tmp_path / "parent"),
            _write(tmp_path / "tiny", _records(size="tiny")),
            SPEC,
        )
    with pytest.raises(ValidationError, match="same workloads and seeds"):
        check_records(
            str(tmp_path / "parent"), _write(tmp_path / "few", parent[:4]), SPEC
        )


def test_traced_records_are_skipped(tmp_path):
    parent = _records()
    change = copy.deepcopy(parent)
    traced = {**_record("paper-static", 1), "trace": 1, "result": {"metrics": {}}}
    report = _check(tmp_path, parent, change + [traced])
    assert report.ok


def test_compare_validation(tmp_path):
    records = _records()
    parent = _write(tmp_path / "parent", records)
    change = _write(tmp_path / "change", records)
    with pytest.raises(ValidationError, match="cannot read"):
        check_records(parent, change, str(tmp_path / "missing.json"))
    bad_spec = tmp_path / "bad.json"
    bad_spec.write_text('{"end_to_end": [{"name": "run_s", "better": "up"}]}')
    with pytest.raises(ValidationError, match="better"):
        check_records(parent, change, str(bad_spec))
    bad_spec.write_text("{not json")
    with pytest.raises(ValidationError, match="unparsable"):
        check_records(parent, change, str(bad_spec))
    with pytest.raises(ValidationError, match="no such record directory"):
        check_records(str(tmp_path / "nope"), change, SPEC)
    with pytest.raises(ValidationError, match="no untraced"):
        check_records(_write(tmp_path / "empty", []), change, SPEC)


def test_malformed_record_rejected(tmp_path):
    records = _records()
    change = _write(tmp_path / "change", records)
    garbage = tmp_path / "garbage"
    garbage.mkdir()
    (garbage / "x.json").write_text("{not json")
    with pytest.raises(ValidationError, match="unparsable"):
        check_records(str(garbage), change, SPEC)
    broken = copy.deepcopy(records)
    del broken[0]["result"]["metrics"]["run_s"]
    with pytest.raises(ValidationError, match="not a perfbench record"):
        check_records(_write(tmp_path / "broken", broken), change, SPEC)


def test_cli_bench_check_catches_injected_slowdown(tmp_path, capsys):
    from repro.cli import main

    parent = _records()
    slow = copy.deepcopy(parent)
    for r in slow:
        r["result"]["metrics"]["run_s"]["value"] *= 1.5
    parent_dir = _write(tmp_path / "parent", parent)
    assert main(["bench", "check", parent_dir, parent_dir, SPEC]) == 0
    slow_dir = _write(tmp_path / "slow", slow)
    assert main(["bench", "check", parent_dir, slow_dir, SPEC]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err
    assert "scale-sparse run_s" in captured.err
    # a missing record directory is a domain error, not a pass
    assert main(["bench", "check", parent_dir, str(tmp_path / "nope"), SPEC]) == 1
    assert "no such record directory" in capsys.readouterr().err


def test_cli_bench_without_subcommand_errors(capsys):
    from repro.cli import main

    assert main(["bench"]) == 2
    assert "bench check PARENT_DIR CHANGE_DIR" in capsys.readouterr().err
