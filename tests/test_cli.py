"""The ``repro`` command-line interface, exercised through main()."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.io import load_instance, load_scheme


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    assert main([
        "generate", "--sites", "8", "--objects", "14",
        "--seed", "5", "-o", str(path),
    ]) == 0
    return path


def test_no_command_prints_help(capsys):
    assert main([]) == 2
    assert "repro" in capsys.readouterr().out


def test_generate_writes_instance(instance_file):
    instance = load_instance(instance_file)
    assert instance.num_sites == 8
    assert instance.num_objects == 14


def test_solve_and_save_scheme(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "SRA" in out
    scheme = load_scheme(scheme_path)
    assert scheme.is_valid()


def test_solve_gra_with_generations(instance_file, capsys):
    assert main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "4", "--seed", "1",
    ]) == 0
    assert "GRA" in capsys.readouterr().out


def test_solve_optimal_rejects_large(tmp_path, capsys):
    big = tmp_path / "big.json"
    main(["generate", "--sites", "12", "--objects", "20", "-o", str(big)])
    assert main(["solve", str(big), "--algorithm", "optimal"]) == 1
    assert "error" in capsys.readouterr().err


def test_evaluate(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    assert main(["evaluate", str(scheme_path)]) == 0
    out = capsys.readouterr().out
    assert "savings" in out


def test_simulate_matches_analytic(instance_file, tmp_path, capsys):
    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    assert main(["simulate", str(scheme_path), "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "exact match:       True" in out


def test_compare(capsys):
    assert main([
        "compare", "--sites", "6", "--objects", "10",
        "--instances", "2", "--algorithm", "sra", "--algorithm", "none",
    ]) == 0
    out = capsys.readouterr().out
    assert "best by mean savings" in out


def test_missing_file_is_clean_error(capsys):
    assert main(["solve", "/nonexistent/inst.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_figures_delegates(capsys):
    assert main(["figures"]) == 2  # no figure selected: help + exit 2
    assert "repro-experiments" in capsys.readouterr().out


# --------------------------------------------------------------------- #
# --trace / repro trace
# --------------------------------------------------------------------- #
def test_solve_trace_gra_spans_match_history(instance_file, tmp_path, capsys):
    from repro.obs.holder import DISABLED, observers
    from repro.utils.tracing import read_trace

    trace_path = tmp_path / "gra.trace.json"
    assert main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "5", "--seed", "1",
        "--trace", str(trace_path), "--trace-format", "chrome",
    ]) == 0
    assert "trace written" in capsys.readouterr().out
    assert observers() is DISABLED  # the CLI cleans up after itself
    records = read_trace(str(trace_path))["records"]
    generations = [r for r in records if r["name"] == "gra.generation"]
    # 5 generations + the seeded population = 6 spans, one per
    # convergence record
    assert len(generations) == 6
    assert sorted(r["attrs"]["index"] for r in generations) == list(range(6))
    assert all("best" in r["attrs"] for r in generations)


def test_trace_subcommand_renders_convergence(instance_file, tmp_path, capsys):
    trace_path = tmp_path / "gra.trace.jsonl"
    main([
        "solve", str(instance_file), "--algorithm", "gra",
        "--generations", "4", "--seed", "1", "--trace", str(trace_path),
    ])
    capsys.readouterr()
    assert main(["trace", str(trace_path)]) == 0
    out = capsys.readouterr().out
    assert "GRA convergence" in out
    assert "top spans by self time" in out
    assert "gra.generation" in out


def test_simulate_trace_and_latency_summary(instance_file, tmp_path, capsys):
    from repro.utils.tracing import read_trace

    scheme_path = tmp_path / "scheme.json"
    main([
        "solve", str(instance_file), "--algorithm", "sra",
        "--save-scheme", str(scheme_path),
    ])
    capsys.readouterr()
    trace_path = tmp_path / "sim.trace.jsonl"
    assert main([
        "simulate", str(scheme_path), "--duration", "0.5", "--seed", "2",
        "--trace", str(trace_path),
    ]) == 0
    out = capsys.readouterr().out
    assert "read_p95" in out
    assert "write_p99" in out
    records = read_trace(str(trace_path))["records"]
    assert any(r["name"] == "sim.run" for r in records)


def test_compare_trace(tmp_path, capsys):
    from repro.utils.tracing import read_trace

    trace_path = tmp_path / "cmp.trace.jsonl"
    assert main([
        "compare", "--sites", "8", "--objects", "10", "--instances", "2",
        "--algorithm", "sra", "--trace", str(trace_path),
    ]) == 0
    assert "best by mean savings" in capsys.readouterr().out
    records = read_trace(str(trace_path))["records"]
    assert any(r["name"] == "sra.solve" for r in records)


def test_trace_subcommand_missing_file_is_clean_error(capsys):
    assert main(["trace", "no-such-trace.jsonl"]) != 0
