import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ko7
from ko7.cli import main


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        status = main(list(argv))
        captured = capsys.readouterr()
        return status, captured.out, captured.err

    return invoke


class TestParse:
    def test_canonical_echo(self, run):
        status, out, _ = run("parse", "( merge  void void )")
        assert status == 0
        assert out == "(merge void void)\n"

    def test_parse_error_exits_2(self, run):
        status, out, err = run("parse", "(merge void")
        assert status == 2
        assert "offset 7" in err

    def test_arity_error_names_constructor(self, run):
        status, _, err = run("parse", "(delta)")
        assert status == 2
        assert "delta" in err

    def test_json(self, run):
        status, out, _ = run("--json", "parse", "void")
        assert status == 0
        assert json.loads(out) == {"term": {"k": "void", "c": []}}

    def test_file_batch(self, run, tmp_path):
        batch = tmp_path / "terms.txt"
        batch.write_text("void\n(delta void)\n\n(merge void void)\n")
        status, out, _ = run("parse", "--file", str(batch))
        assert status == 0
        assert out.splitlines() == ["void", "(delta void)", "(merge void void)"]


class TestStep:
    def test_safe_default(self, run):
        status, out, _ = run("step", "(eqw void void)")
        assert status == 0
        assert out == "eq_refl @ [] -> void\n"

    def test_full_relation(self, run):
        status, out, _ = run("step", "(eqw void void)", "--relation", "full")
        assert out.splitlines() == [
            "eq_refl @ [] -> void",
            "eq_diff @ [] -> (integrate (merge void void))",
        ]

    def test_no_steps(self, run):
        status, out, _ = run("step", "void")
        assert status == 0
        assert out == "(no steps)\n"

    def test_json_schema(self, run):
        status, out, _ = run("--json", "step", "(merge void void)")
        payload = json.loads(out)
        assert [w["rule"] for w in payload["steps"]] == [
            "merge_void_left",
            "merge_void_right",
            "merge_cancel",
        ]
        assert all(w["pos"] == [] for w in payload["steps"])


class TestNormalize:
    def test_golden_integrate_delta(self, run):
        status, out, _ = run("normalize", "(integrate (delta void))")
        assert status == 0
        assert out == "void\n"

    def test_trace(self, run):
        status, out, _ = run("normalize", "(integrate (delta void))", "--trace")
        lines = out.splitlines()
        assert lines[-1] == "void"
        assert lines[0].startswith("int_delta:")

    def test_full_with_fuel(self, run):
        status, out, _ = run(
            "normalize", "(integrate (merge void void))", "--relation", "full"
        )
        assert status == 0
        assert out == "(integrate void)\n"

    def test_fuel_exhaustion_is_reported(self, run):
        status, out, _ = run(
            "normalize", "(eqw void void)", "--relation", "full", "--fuel", "0"
        )
        assert status == 1
        assert "fuel exhausted" in out

    @pytest.mark.parametrize("fuel", ["-5", "-1", "x"])
    def test_bad_fuel_is_a_usage_error(self, run, fuel):
        status, out, err = run(
            "normalize", "(eqw void void)", "--relation", "full", "--fuel", fuel
        )
        assert status == 2
        assert out == ""
        assert "--fuel" in err

    def test_json_trace(self, run):
        status, out, _ = run("--json", "normalize", "(eqw void void)")
        payload = json.loads(out)
        assert payload["normalForm"] == {"k": "void", "c": []}
        assert len(payload["steps"]) == 1


class TestMeasure:
    def test_plain(self, run):
        status, out, _ = run("measure", "(rec void void (delta void))")
        assert status == 0
        assert out == "dflag: 1\nkappaM: {5}\ntau: 5\n"

    def test_json(self, run):
        status, out, _ = run("--json", "measure", "(eqw void void)")
        assert json.loads(out) == {"measure": [0, [], 5]}


class TestReaches:
    def test_positive(self, run):
        status, out, _ = run("reaches", "(integrate (delta (delta void)))", "void")
        assert status == 0
        assert out == "true\n"

    def test_negative(self, run):
        status, out, _ = run("reaches", "(eqw (delta void) void)", "void")
        assert status == 0
        assert out == "false\n"

    def test_non_normal_target_rejected(self, run):
        status, _, err = run("reaches", "void", "(eqw void void)")
        assert status == 2
        assert "normal form" in err


class TestWitnessNonjoin:
    def test_golden_output(self, run):
        status, out, _ = run("witness", "nonjoin")
        assert status == 0
        assert out == (
            "source: (eqw void void)\n"
            "reduct A [eq_refl]: void\n"
            "reduct B [eq_diff]: (integrate (merge void void))\n"
            "normal form A: void\n"
            "normal form B: (integrate void)\n"
            "verdict: not joinable (budget 1000)\n"
        )

    def test_json(self, run):
        status, out, _ = run("--json", "witness", "nonjoin")
        payload = json.loads(out)
        assert payload["distinct"] is True
        assert payload["joined"] is False
        assert payload["normalForms"]["eq_diff"] == {
            "k": "integrate",
            "c": [{"k": "void", "c": []}],
        }


class TestChecks:
    def test_decrease(self, run):
        status, out, _ = run("check", "decrease", "--max-size", "5")
        assert status == 0
        assert out.rstrip().endswith("PASS")
        assert "violations: 0" in out

    def test_decrease_json(self, run):
        status, out, _ = run("--json", "check", "decrease", "--max-size", "4")
        payload = json.loads(out)
        assert payload["violations"] == []
        assert set(payload["decidedBy"]) == {"dflag", "kappaM", "tau"}

    def test_local_join(self, run):
        status, out, _ = run("check", "local-join", "--max-size", "5")
        assert status == 0
        assert "violations: 0" in out

    def test_local_join_ctx(self, run):
        status, out, _ = run(
            "check", "local-join", "--relation", "safe-ctx", "--max-size", "4"
        )
        assert status == 0

    def test_unique_nf(self, run):
        status, out, _ = run("check", "unique-nf", "--max-size", "5")
        assert status == 0
        assert "violations: 0" in out

    def test_coverage(self, run):
        status, out, _ = run("check", "coverage", "--max-size", "6")
        assert status == 0
        assert "PASS" in out

    def test_nogo_single_family_golden(self, run):
        status, out, _ = run("check", "nogo", "--family", "tree-depth", "--max-size", "7")
        assert status == 0
        assert out == (
            "family: tree-depth\n"
            "counterexample: rec_succ on (rec void void (delta void)): "
            "3 -> 3 (no-strict-drop)\n"
            "PASS (counterexample found, as expected for this family)\n"
        )

    def test_nogo_unknown_family(self, run):
        status, _, err = run("check", "nogo", "--family", "nonsense")
        assert status == 2
        assert "unknown family" in err

    def test_nogo_all_families(self, run):
        status, out, _ = run("check", "nogo", "--max-size", "6")
        assert status == 0
        assert out.count("counterexample") >= 12
        assert "canonical-triple on guarded relation: no violation" in out

    def test_stress(self, run):
        status, out, _ = run("check", "stress", "--max-size", "6")
        assert status == 0
        assert "size(result) = size(source) + size(step) + 0" in out

    def test_lpo(self, run):
        status, out, _ = run("check", "lpo", "--max-size", "4")
        assert status == 0
        assert "orienting precedences:" in out
        assert "precedence rank alone: counterexample" in out


class TestUsage:
    def test_too_deep_term_exits_2(self, run):
        depth = sys.getrecursionlimit()
        status, out, err = run("parse", "(delta " * depth + "void" + ")" * depth)
        assert status == 2
        assert out == ""
        assert "error: term too deep" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("check", "local-join", "--budget", "-1"),
            ("witness", "nonjoin", "--budget", "-1"),
            ("witness", "nonjoin", "--fuel", "-1"),
        ],
    )
    def test_negative_budget_or_fuel_exits_2(self, run, argv):
        status, out, err = run(*argv)
        assert status == 2
        assert out == ""
        assert "must be >= 0" in err

    def test_no_command_exits_2(self, run):
        status, _, _ = run()
        assert status == 2

    def test_unknown_command_exits_2(self, run):
        status, _, _ = run("frobnicate")
        assert status == 2


def test_import_does_not_load_the_process_pool():
    src = str(Path(ko7.__file__).resolve().parent.parent)
    code = "import sys, ko7.cli; print('concurrent.futures.process' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert result.stdout.strip() == "False"
