"""`tools/compare_outputs.py`, the CLI comparison of two source trees: one
command of each family, run on `src/` against itself, shows no difference,
and a difference in any of exit code, stdout or stderr is reported."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

_spec = importlib.util.spec_from_file_location("compare_outputs", ROOT / "tools" / "compare_outputs.py")
tool = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tool)


def test_one_command_per_family_matches_itself():
    first = {}
    for command in tool.commands(3):
        first.setdefault(command.family, command)
    assert sorted(first) == [
        "check coverage", "check decrease", "check local-join", "check lpo", "check nogo",
        "check stress", "check unique-nf", "help", "measure", "normalize", "parse", "reaches",
        "step", "usage", "witness nonjoin",
    ]
    assert tool.compare(SRC, SRC, first.values()) == []


def test_the_matrix():
    matrix = list(tool.commands(8))
    assert len(matrix) == len(set(matrix)) == 762
    assert sum(c.family == "check lpo" for c in matrix) == 12  # sizes 1..6, text and json
    assert sum(c.family == "usage" for c in matrix) == 12  # six errors, text and json
    assert sum(c.family == "help" for c in matrix) == 16  # ko7, 8 subcommands, 7 checks
    chains = [c for c in matrix if c.family == "parse" and "(delta " * 492 in c.argv[-1]]
    assert len(chains) == 8  # depths 492, 493, 992 and 993, text and json


def test_a_deep_term_is_refused_alike():
    # depth 993 is past what the JSON encoder takes: both runs exit 2
    # with the same message, which is no difference
    command = tool.Command("parse", ("--json", "parse", tool.TERMS[-1]), 1)
    outcome = tool.run(SRC, command)
    assert outcome.code == 2 and outcome.stderr.startswith("error: term too deep")
    assert tool.difference(outcome, tool.run(SRC, command)) is None


def test_each_stream_is_compared():
    base = tool.Outcome(0, "a\nb\n", "")
    assert tool.difference(base, tool.Outcome(0, "a\nb\n", "")) is None
    assert tool.difference(base, tool.Outcome(1, "a\nb\n", "")) == "exit code 0 != 1"
    assert tool.difference(base, tool.Outcome(0, "a\nc\n", "")).startswith("stdout differs at line 2")
    assert tool.difference(base, tool.Outcome(0, "a\nb\nc\n", "")).startswith("stdout differs at line 3")
    assert tool.difference(base, tool.Outcome(0, "a\nb\n", "warn")).startswith("stderr differs at line 1")


def test_a_tree_without_ko7_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        tool.main([str(ROOT), str(SRC)])
    assert exc.value.code == 2
    assert "holds no ko7 package" in capsys.readouterr().err
