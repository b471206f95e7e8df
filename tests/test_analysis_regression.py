"""Bench ledger: schema normalization, MAD noise floors, `bench check`."""

from __future__ import annotations

import copy
import json

import pytest

from repro.analysis.regression import (
    DEFAULT_THRESHOLD,
    append_history,
    compare_entries,
    load_history,
    machine_info,
    normalize_bench_artifact,
    record_entry,
    render_report,
    write_bench_artifact,
)
from repro.errors import ValidationError


def _entry(seconds, label="", profile="quick", machine=None):
    """A synthetic history entry; ``seconds`` maps name -> median."""
    return {
        "version": 1,
        "recorded_at": "2026-01-01T00:00:00Z",
        "label": label,
        "profile": profile,
        "machine": machine or {"platform": "test", "cpus": 1},
        "benchmarks": {
            name: {"seconds": value, "runs": [value]}
            for name, value in seconds.items()
        },
    }


# --------------------------------------------------------------------- #
# artifact schema
# --------------------------------------------------------------------- #
def test_normalize_keeps_unified_schema():
    unified = {"benchmark": "scale-path", "algorithms": ["SRA"]}
    normalized = normalize_bench_artifact(unified)
    assert normalized["algorithms"] == ["SRA"]
    assert normalized["results"] == []


def test_write_bench_artifact_unified_schema(tmp_path):
    path = tmp_path / "BENCH_x.json"
    write_bench_artifact(
        str(path),
        benchmark="x",
        algorithms=["SRA", "GRA"],
        results=[{"tier": "small", "seconds": 1.0}],
        extra={"floor": 3.0},
    )
    payload = json.loads(path.read_text())
    assert payload["algorithms"] == ["SRA", "GRA"]
    assert payload["floor"] == 3.0
    assert "algorithm" not in payload


def test_write_bench_artifact_merges_on_key(tmp_path):
    path = tmp_path / "BENCH_scale.json"
    write_bench_artifact(
        str(path), "scale", ["SRA"],
        [{"tier": "small", "s": 1.0}, {"tier": "medium", "s": 2.0}],
        merge_on="tier",
    )
    write_bench_artifact(
        str(path), "scale", ["SRA"],
        [{"tier": "large", "s": 9.0}],
        merge_on="tier",
    )
    write_bench_artifact(
        str(path), "scale", ["SRA"],
        [{"tier": "small", "s": 1.5}],
        merge_on="tier",
    )
    tiers = {
        r["tier"]: r["s"]
        for r in json.loads(path.read_text())["results"]
    }
    assert tiers == {"small": 1.5, "medium": 2.0, "large": 9.0}


def test_write_bench_artifact_merge_upgrades_legacy_file(tmp_path):
    path = tmp_path / "BENCH_scale.json"
    path.write_text(json.dumps({
        "benchmark": "scale", "algorithm": "SRA",
        "results": [{"tier": "small", "s": 1.0}],
    }))
    write_bench_artifact(
        str(path), "scale", ["SRA"],
        [{"tier": "large", "s": 9.0}], merge_on="tier",
    )
    payload = json.loads(path.read_text())
    assert payload["algorithms"] == ["SRA"]
    assert len(payload["results"]) == 2


# --------------------------------------------------------------------- #
# history ledger
# --------------------------------------------------------------------- #
def test_history_append_load_round_trip(tmp_path):
    path = str(tmp_path / "hist.jsonl")
    assert load_history(path) == []
    append_history(path, _entry({"a": 1.0}))
    append_history(path, _entry({"a": 1.1}, label="second"))
    entries = load_history(path)
    assert len(entries) == 2
    assert entries[1]["label"] == "second"


def test_history_rejects_garbage(tmp_path):
    path = tmp_path / "hist.jsonl"
    path.write_text('{"benchmarks": {}}\nnot json\n')
    with pytest.raises(ValidationError, match="unparsable"):
        load_history(str(path))
    path.write_text('{"no": "benchmarks"}\n')
    with pytest.raises(ValidationError, match="not a bench history"):
        load_history(str(path))


def test_record_entry_runs_suite_and_stamps_machine():
    calls = []
    entry = record_entry(
        repeats=2,
        suite={"noop": lambda: calls.append(1)},
        profile="quick",
        label="tag",
    )
    assert len(calls) == 2
    bench = entry["benchmarks"]["noop"]
    assert bench["seconds"] >= 0.0
    assert len(bench["runs"]) == 2
    assert entry["machine"] == machine_info()
    assert entry["profile"] == "quick" and entry["label"] == "tag"


def test_record_entry_scale_seconds_hook():
    one = record_entry(repeats=1, suite={"n": lambda: None})
    scaled = record_entry(
        repeats=1, suite={"n": lambda: None}, scale_seconds=1000.0
    )
    assert scaled["benchmarks"]["n"]["seconds"] >= 0.0
    # The multiplier is applied verbatim; with a no-op body the scaled
    # run must dominate the unscaled one.
    assert (
        scaled["benchmarks"]["n"]["seconds"]
        > one["benchmarks"]["n"]["seconds"]
    )
    with pytest.raises(ValidationError):
        record_entry(repeats=0)
    with pytest.raises(ValidationError):
        record_entry(scale_seconds=0.0)


# --------------------------------------------------------------------- #
# regression detection
# --------------------------------------------------------------------- #
def test_injected_slowdown_is_flagged():
    base = _entry({"sra": 1.0, "sim": 0.4}, label="baseline")
    slow = copy.deepcopy(base)
    slow["label"] = ""
    for bench in slow["benchmarks"].values():
        bench["seconds"] *= 1.5
    report = compare_entries([base, slow])
    assert not report.ok
    assert {d.name for d in report.regressions} == {"sra", "sim"}
    assert all(d.ratio == pytest.approx(1.5) for d in report.deltas)
    assert "REGRESSED" in report.render()


def test_identical_entry_passes():
    base = _entry({"sra": 1.0})
    report = compare_entries([base, copy.deepcopy(base)])
    assert report.ok
    assert all(d.ratio == pytest.approx(1.0) for d in report.deltas)


def test_noise_floor_suppresses_jittery_benchmark():
    # History jitters around its median — a 1.4 reading is within
    # 3*MAD of the 1.0 baseline even though the ratio exceeds the
    # 1.25 threshold.
    history = [
        _entry({"jittery": s}) for s in (1.0, 1.4, 0.9, 1.5, 1.0)
    ]
    current = _entry({"jittery": 1.4})
    report = compare_entries(history + [current])
    assert report.ok, report.render()
    # The same ratio with a *stable* history pages.
    stable = [_entry({"jittery": 1.0}) for _ in range(5)]
    report = compare_entries(stable + [_entry({"jittery": 1.4})])
    assert not report.ok


def test_baseline_must_match_machine_and_profile():
    other_machine = _entry(
        {"sra": 0.1}, machine={"platform": "other", "cpus": 64}
    )
    other_profile = _entry({"sra": 0.1}, profile="paper")
    current = _entry({"sra": 1.0})
    # Only incompatible entries before it: clean pass, no deltas.
    report = compare_entries([other_machine, other_profile, current])
    assert report.ok and report.deltas == []
    assert "no compatible baseline" in report.baseline_label


def test_labelled_baseline_selection():
    tagged = _entry({"sra": 1.0}, label="v1")
    drift = _entry({"sra": 1.1})
    current = _entry({"sra": 1.2})
    report = compare_entries(
        [tagged, drift, current], baseline="v1"
    )
    assert report.deltas[0].baseline_seconds == 1.0
    with pytest.raises(ValidationError, match="labelled"):
        compare_entries([tagged, current], baseline="nope")


def test_compare_validation():
    with pytest.raises(ValidationError, match="empty"):
        compare_entries([])
    with pytest.raises(ValidationError, match="threshold"):
        compare_entries([_entry({"a": 1.0})], threshold=1.0)
    assert DEFAULT_THRESHOLD > 1.0


def test_render_report_markdown():
    history = [
        _entry({"sra": 1.0, "sim": 0.4}, label="seed"),
        _entry({"sra": 1.1, "sim": 0.5}),
    ]
    text = render_report(history)
    assert text.startswith("# bench history")
    assert "| recorded | profile | sim | sra |" in text
    assert "1.1000s" in text
    assert render_report([]).startswith("no bench history")


# --------------------------------------------------------------------- #
# the CLI surface
# --------------------------------------------------------------------- #
def _write_history(path, entries):
    for entry in entries:
        append_history(str(path), entry)


def test_cli_bench_check_catches_injected_slowdown(tmp_path, capsys):
    from repro.cli import main

    history = tmp_path / "hist.jsonl"
    base = _entry({"sra": 1.0}, label="baseline")
    slow = copy.deepcopy(base)
    slow["label"] = ""
    slow["benchmarks"]["sra"]["seconds"] = 1.5
    _write_history(history, [base, slow])
    assert main(["bench", "check", "--history", str(history)]) == 1
    captured = capsys.readouterr()
    assert "REGRESSION" in captured.err

    # Identical follow-up entry: exit 0.
    ok_history = tmp_path / "ok.jsonl"
    _write_history(ok_history, [base, copy.deepcopy(base)])
    assert main(["bench", "check", "--history", str(ok_history)]) == 0


def test_cli_bench_record_and_report(tmp_path, capsys, monkeypatch):
    from repro.analysis import regression
    from repro.cli import main

    # Patch the suite so the CLI path runs in milliseconds.
    monkeypatch.setattr(
        regression, "BENCH_SUITE", {"noop": lambda: None}
    )
    history = tmp_path / "hist.jsonl"
    assert main([
        "bench", "record", "--history", str(history),
        "--repeats", "2", "--label", "first",
    ]) == 0
    assert main([
        "bench", "record", "--history", str(history),
        "--scale-seconds", "100.0",
    ]) == 0
    entries = load_history(str(history))
    assert len(entries) == 2 and entries[0]["label"] == "first"

    assert main(["bench", "report", "--history", str(history)]) == 0
    out = capsys.readouterr().out
    assert "# bench history" in out

    md = tmp_path / "report.md"
    assert main([
        "bench", "report", "--history", str(history), "-o", str(md),
    ]) == 0
    assert md.read_text().startswith("# bench history")


def test_cli_bench_without_subcommand_errors(capsys):
    from repro.cli import main

    assert main(["bench"]) == 2
    assert "record,report,check" in capsys.readouterr().err
