"""Parametrized smoke coverage of every ``repro`` subcommand.

Exit-code contract: ``--help`` always exits 0 (argparse raises
SystemExit); a bare parent of a grouped subcommand prints usage and
exits 2; domain errors exit 1; missing shrink inputs exit 2 with
guidance.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main

SUBCOMMANDS = [
    ["generate"],
    ["solve"],
    ["evaluate"],
    ["simulate"],
    ["compare"],
    ["figures"],
    ["trace"],
    ["bench"],
    ["bench", "check"],
    ["conform"],
    ["conform", "run"],
    ["conform", "corpus"],
    ["conform", "shrink"],
]


@pytest.mark.parametrize(
    "argv", SUBCOMMANDS, ids=[" ".join(c) for c in SUBCOMMANDS]
)
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    out = capsys.readouterr().out
    assert "usage:" in out


@pytest.mark.parametrize("parent", [["bench"], ["conform"]])
def test_bare_group_parent_prints_usage_and_exits_2(parent, capsys):
    assert main(parent) == 2
    assert "usage:" in capsys.readouterr().err


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_solve_missing_instance_is_domain_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json")]) == 1
    assert "error" in capsys.readouterr().err


def test_trace_missing_file_is_domain_error(tmp_path, capsys):
    assert main(["trace", str(tmp_path / "nope.jsonl")]) == 1
    assert "error" in capsys.readouterr().err


class TestConformShrinkInputs:
    """Regression: missing shrink inputs guide instead of raising."""

    def test_no_inputs_exits_2(self, capsys):
        assert main(["conform", "shrink"]) == 2
        err = capsys.readouterr().err
        assert "--scenario" in err and "--artifact" in err

    def test_missing_artifact_exits_2_with_guidance(self, tmp_path, capsys):
        target = tmp_path / "repro.json"
        assert main(["conform", "shrink", "--artifact", str(target)]) == 2
        err = capsys.readouterr().err
        assert "no shrink artifact" in err
        assert "repro conform shrink --scenario" in err

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["conform", "shrink", "--scenario", "no-such"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_passing_scenario_exits_zero(self, capsys):
        assert main(["conform", "shrink", "--scenario", "tiny-exact"]) == 0
        assert "nothing to shrink" in capsys.readouterr().out

    def test_non_artifact_json_is_domain_error(self, tmp_path, capsys):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"kind": "something-else"}))
        assert main(["conform", "shrink", "--artifact", str(bogus)]) == 1
        assert "error" in capsys.readouterr().err


def test_conform_corpus_lists_scenarios_and_invariants(capsys):
    assert main(["conform", "corpus"]) == 0
    out = capsys.readouterr().out
    assert "tiny-exact" in out
    assert "scheme-feasibility" in out
    assert "invariants:" in out
