import hashlib
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

    @pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
    def test_unreadable_file_exits_2(self, run, tmp_path, kind):
        path = tmp_path / "terms.txt"
        if kind == "directory":
            path.mkdir()
        elif kind == "not-utf8":
            path.write_bytes(b"void\n(delta \xff)\n")
        status, out, err = run("parse", "--file", str(path))
        assert status == 2
        assert out == ""
        assert err.startswith("error: cannot read ")

    def test_malformed_line_names_its_line(self, run, tmp_path):
        # physical line numbers, 1-based, the blank line counted
        path = tmp_path / "terms.txt"
        path.write_text("void\n\n(merge void)\n(delta void)\n")
        status, out, err = run("parse", "--file", str(path))
        assert status == 2
        assert out == ""
        assert err == (
            f"error: {path}:3: 'merge' takes 2 argument(s), got 1 (at offset 1)\n"
        )


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

    def test_a_deep_non_normal_target_is_named_by_its_rule(self, run):
        # the message names the rule, not the 2 000-deep target
        target = "(merge void " + "(delta " * 2000 + "void" + ")" * 2000 + ")"
        status, out, err = run("reaches", "void", target)
        assert (status, out) == (2, "")
        assert err == (
            "error: target is not a normal form of the guarded relation: "
            "merge_void_left applies at its root\n"
        )


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

    def test_exhausted_fuel_exits_1_without_traceback(self):
        src = str(Path(ko7.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "ko7.cli", "witness", "nonjoin", "--fuel", "0"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: non-join reducts did not normalize within fuel 0\n"

    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_unexhausted_search_is_inconclusive(self, budget):
        # budget 0 expands nothing and budget 1 leaves the eq_diff side
        # unexplored: no non-join verdict, exit 1, and no traceback
        src = str(Path(ko7.__file__).resolve().parent.parent)
        result = subprocess.run(
            [sys.executable, "-m", "ko7.cli", "witness", "nonjoin", "--budget", budget],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 1
        assert result.stderr == ""
        assert "not joinable" not in result.stdout
        assert result.stdout.endswith(f"verdict: inconclusive (budget {budget})\n")

    @pytest.mark.parametrize("budget, status, verdict", [
        ("0", 1, "inconclusive"), ("1", 1, "inconclusive"), ("2", 0, "not joinable"),
    ])
    def test_json_says_its_verdict(self, run, budget, status, verdict):
        got_status, out, _ = run("--json", "witness", "nonjoin", "--budget", budget)
        assert got_status == status
        assert json.loads(out)["verdict"] == verdict

    def test_budget_2_exhausts_both_sides(self, run):
        status, out, _ = run("witness", "nonjoin", "--budget", "2")
        assert status == 0
        assert out.endswith("verdict: not joinable (budget 2)\n")

    def test_one_unit_of_fuel_suffices(self, run):
        status, out, err = run("witness", "nonjoin", "--fuel", "1")
        assert status == 0
        assert out.endswith("verdict: not joinable (budget 1000)\n")
        assert err == ""


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

    @pytest.mark.parametrize("max_size", ["1", "2"])
    def test_lpo_without_instances_fails(self, run, max_size):
        # with no rule instance every precedence orients vacuously
        status, out, _ = run("check", "lpo", "--max-size", max_size)
        assert status == 1
        assert "instances checked: 0\n" in out
        assert out.endswith("\nFAIL\n")
        status, out, _ = run("--json", "check", "lpo", "--max-size", max_size)
        assert status == 1
        assert json.loads(out)["instancesChecked"] == 0

    def test_lpo_smallest_passing_size(self, run):
        status, out, _ = run("check", "lpo", "--max-size", "3")
        assert status == 0
        assert out.startswith("orienting precedences: 1680 of 5040\n")
        assert "instances checked: 6\n" in out
        assert out.endswith("\nPASS\n")

    @pytest.mark.parametrize("max_size", ["1", "2"])
    def test_decrease_without_instances_fails(self, run, max_size):
        # with no guarded root instance every step decreases vacuously
        status, out, _ = run("check", "decrease", "--max-size", max_size)
        assert status == 1
        assert out.startswith("checked: 0 guarded root instances")
        assert out.endswith("\nFAIL\n")
        status, out, _ = run("--json", "check", "decrease", "--max-size", max_size)
        assert status == 1
        assert json.loads(out)["checked"] == 0

    def test_decrease_smallest_passing_size(self, run):
        status, out, _ = run("check", "decrease", "--max-size", "3")
        assert status == 0
        assert out.startswith("checked: 5 guarded root instances (size <= 3)\n")
        assert out.endswith("\nPASS\n")

    @pytest.mark.parametrize("relation", ["safe", "safe-ctx"])
    @pytest.mark.parametrize("max_size", ["1", "2"])
    def test_local_join_without_forks_fails(self, run, relation, max_size):
        # with no fork every fork joins vacuously
        argv = ("check", "local-join", "--relation", relation, "--max-size", max_size)
        status, out, _ = run(*argv)
        assert status == 1
        assert f"forks checked: 0 (size <= {max_size})\n" in out
        assert out.endswith("\nFAIL\n")
        status, out, _ = run("--json", *argv)
        assert status == 1
        assert json.loads(out)["forksChecked"] == 0

    @pytest.mark.parametrize("relation", ["safe", "safe-ctx"])
    def test_local_join_smallest_passing_size(self, run, relation):
        argv = ("check", "local-join", "--relation", relation, "--max-size", "3")
        status, out, _ = run(*argv)
        assert status == 0
        assert "forks checked: 3 (size <= 3)\n" in out
        assert out.endswith("\nPASS\n")


# Every check report, the nonjoin witness and the normalize forms (a safe
# trace, a full trace, and exhausted fuel), pinned byte for byte: argv ->
# (exit status, stdout).  Outputs longer than a dozen lines, and every JSON
# form, are kept as the SHA-256 digest of stdout.
_FULL_RUN = ("normalize", "(eqw (rec void void (delta void)) (merge void void))", "--relation", "full")
TEXT_GOLDENS = {
    ("check", "decrease", "--max-size", "6"): (0, (
        "checked: 249 guarded root instances (size <= 6)\n"
        "violations: 0\n"
        "decided by: dflag=7 kappaM=24 tau=218\n"
        "  eq_diff: tau=102\n"
        "  eq_refl: tau=3\n"
        "  int_delta: kappaM=1 tau=36\n"
        "  merge_cancel: tau=3\n"
        "  merge_void_left: tau=37\n"
        "  merge_void_right: tau=37\n"
        "  rec_succ: dflag=7\n"
        "  rec_zero: kappaM=23\n"
        "PASS\n"
    )),
    ("check", "local-join", "--max-size", "5"): (0, (
        "relation: safe-root\n"
        "forks checked: 3 (size <= 5)\n"
        "joined: 3\n"
        "inconclusive: 0\n"
        "violations: 0\n"
        "PASS\n"
    )),
    ("check", "local-join", "--relation", "safe-ctx", "--budget", "0", "--max-size", "5"): (0, (
        "relation: safe-ctx\n"
        "forks checked: 31 (size <= 5)\n"
        "joined: 27\n"
        "inconclusive: 4\n"
        "violations: 0\n"
        "PASS\n"
    )),
    ("check", "unique-nf", "--max-size", "6"): (0, (
        "terms checked: 658 (size <= 6)\n"
        "violations: 0\n"
        "PASS\n"
    )),
    ("check", "coverage", "--max-size", "6"): (0, (
        "int-delta: 37 instance(s)\n"
        "merge-void-left: 37 instance(s)\n"
        "merge-void-right: 37 instance(s)\n"
        "merge-cancel: 3 instance(s)\n"
        "rec-zero: 23 instance(s)\n"
        "rec-succ: 7 instance(s)\n"
        "eqw-diff: 102 instance(s)\n"
        "eqw-refl: 3 instance(s)\n"
        "target mismatches: 0\n"
        "guard-blocked eqw instances checked: 64, violations: 0\n"
        "PASS\n"
    )),
    ("check", "nogo", "--max-size", "6"):
        (0, "32e2b8ccbc4901c1e8b295ebd3cb37a5ecad929d217d4dad2f45a5aee2b9f683"),
    ("check", "lpo", "--max-size", "4"): (0, (
        "orienting precedences: 1680 of 5040\n"
        "first: void < delta < integrate < merge < app < rec < eqw\n"
        "instances checked: 17\n"
        "precedence rank alone: counterexample: merge_cancel on "
        "(merge (merge void void) (merge void void)): 3 -> 3 (no-strict-drop)\n"
        "PASS\n"
    )),
    ("check", "stress", "--max-size", "6"): (0, (
        "rec_succ instances: 7 (size <= 6)\n"
        "fitted identity: size(result) = size(source) + size(step) + 0\n"
        "identity failures: 0\n"
        "strict size drops: 0\n"
        "PASS\n"
    )),
    ("witness", "nonjoin"): (0, (
        "source: (eqw void void)\n"
        "reduct A [eq_refl]: void\n"
        "reduct B [eq_diff]: (integrate (merge void void))\n"
        "normal form A: void\n"
        "normal form B: (integrate void)\n"
        "verdict: not joinable (budget 1000)\n"
    )),
    ("check", "nogo", "--max-size", "5"):
        (1, "06f55e95131c43ad10ec5ef8536e2a4de76d5fca71b62a7143a26c4065f3e07b"),
    ("check", "nogo", "--family", "size", "--max-size", "2"): (1, (
        "family: size\n"
        "no counterexample found over 0 instances\n"
        "FAIL\n"
    )),
    ("normalize", "(merge void (merge void (integrate (delta void))))", "--trace"): (0, (
        "merge_void_left: (merge void (merge void (integrate (delta void)))) -> "
        "(merge void (integrate (delta void)))   (0, {}, 7) -> (0, {}, 5)\n"
        "merge_void_left: (merge void (integrate (delta void))) -> "
        "(integrate (delta void))   (0, {}, 5) -> (0, {}, 3)\n"
        "int_delta: (integrate (delta void)) -> void   (0, {}, 3) -> (0, {}, 1)\n"
        "void\n"
    )),
    (*_FULL_RUN, "--trace"): (0, (
        "eq_diff @ [] -> (integrate (merge (rec void void (delta void)) (merge void void)))\n"
        "rec_succ @ [0,0] -> (integrate (merge (app void (rec void void void)) (merge void void)))\n"
        "rec_zero @ [0,0,1] -> (integrate (merge (app void void) (merge void void)))\n"
        "merge_void_left @ [0,1] -> (integrate (merge (app void void) void))\n"
        "merge_void_right @ [0] -> (integrate (app void void))\n"
        "(integrate (app void void))\n"
    )),
    (*_FULL_RUN, "--trace", "--fuel", "2"): (1, (
        "eq_diff @ [] -> (integrate (merge (rec void void (delta void)) (merge void void)))\n"
        "rec_succ @ [0,0] -> (integrate (merge (app void (rec void void void)) (merge void void)))\n"
        "fuel exhausted after 2 steps at: "
        "(integrate (merge (app void (rec void void void)) (merge void void)))\n"
    )),
    ("normalize", "(eqw void void)", "--relation", "full", "--fuel", "0"): (1, (
        "fuel exhausted after 0 steps at: (eqw void void)\n"
    )),
}
JSON_DIGESTS = {
    ("check", "decrease", "--max-size", "6"):
        (0, "7e0f613f5150ba00263179b055adc01fef8960a4e4adaf2b0d6633e22bd19fac"),
    ("check", "local-join", "--max-size", "5"):
        (0, "d0af5c7ca70b4bb708af1116d369a1e9fec7848830d96a299c021b779d508070"),
    ("check", "local-join", "--relation", "safe-ctx", "--budget", "0", "--max-size", "5"):
        (0, "40acca9e978b323a141d8bb2b6477a7005b7533b66ef826994c1c88ecbb2cc8a"),
    ("check", "unique-nf", "--max-size", "6"):
        (0, "5338571567f6864b62b38c432333a96ed6bb6278e08911267b42c1d77dbbb6d3"),
    ("check", "coverage", "--max-size", "6"):
        (0, "c037b28f78084ef693888b7b6889cb77624bd7cb280182460946e4fe3623c8fc"),
    ("check", "nogo", "--max-size", "6"):
        (0, "c22ccdbede4044618517bf8cb270754c278fe19aa86f70ca5d5bc223be605073"),
    ("check", "lpo", "--max-size", "4"):
        (0, "01a99346f90f0090a70b3286b7526b3a818c8f1fc74b9d664521347e8f8c5026"),
    ("check", "stress", "--max-size", "6"):
        (0, "cbb0ca8d3bfefd5a3a218a5025c85777293805d7bd2d4ab43deddb06bc271095"),
    ("witness", "nonjoin"): (0, "0050775921d4145f7c0d500a8aee711314eb72a3550b4a89410ba76fdfd40429"),
    ("check", "nogo", "--max-size", "5"):
        (1, "70ab3cfbf00b7e8666aee86bf4ab45574bf468ce98dc5a65c1509bd8b1a069a4"),
    ("check", "nogo", "--family", "size", "--max-size", "2"):
        (1, "fd43d416695e8423046f7570dbc3e40309fe14994b73c9a2187adfe7ea4bdeb9"),
    ("normalize", "(merge void (merge void (integrate (delta void))))", "--trace"):
        (0, "8e8499601a938ef505f52d796d7e3820e1322b6c1d8450e3143ffa839b2882f0"),
    (*_FULL_RUN, "--trace"):
        (0, "e20d6cdf586fa2109981c39a6a2d1fc550f83b41ae759c2c7848c7dbb49c2ddc"),
    (*_FULL_RUN, "--trace", "--fuel", "2"):
        (1, "4c5d0b7f95c25559701e7b5d4f8ef35849b754768fbeed375bfede8dbfff45df"),
    ("normalize", "(eqw void void)", "--relation", "full", "--fuel", "0"):
        (1, "9618dfbb2eb5785f4045b50d1e20973d24479355a3bb171c2babfd986526c195"),
}

# The sweeps that run on forked workers when KO7_WORKERS allows it.
POOLED = [
    ("check", "decrease", "--max-size", "6"),
    ("check", "local-join", "--max-size", "5"),
    ("check", "local-join", "--relation", "safe-ctx", "--budget", "0", "--max-size", "5"),
    ("check", "unique-nf", "--max-size", "6"),
    ("check", "coverage", "--max-size", "6"),
]


def _golden_id(argv):
    return "_".join(a.lstrip("-") for a in argv)


def _assert_golden(result, expected):
    status, out, _ = result
    want_status, want_out = expected
    assert status == want_status
    if "\n" in want_out:
        assert out == want_out
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == want_out


class TestGoldens:
    @pytest.mark.parametrize("argv", list(TEXT_GOLDENS), ids=_golden_id)
    def test_text(self, run, argv):
        _assert_golden(run(*argv), TEXT_GOLDENS[argv])

    @pytest.mark.parametrize("argv", list(JSON_DIGESTS), ids=_golden_id)
    def test_json(self, run, argv):
        _assert_golden(run("--json", *argv), JSON_DIGESTS[argv])

    @pytest.mark.parametrize("argv", POOLED, ids=_golden_id)
    def test_pooled_sweeps_match(self, run, monkeypatch, argv):
        monkeypatch.setenv("KO7_WORKERS", "2")
        _assert_golden(run(*argv), TEXT_GOLDENS[argv])
        _assert_golden(run("--json", *argv), JSON_DIGESTS[argv])


class TestUsage:
    def test_too_deep_term_exits_2(self, run):
        # the JSON encoder still recurses on the term's depth
        depth = sys.getrecursionlimit()
        status, out, err = run("--json", "parse", "(delta " * depth + "void" + ")" * depth)
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

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("max_size", ["0", "-1"])
    @pytest.mark.parametrize("check", ["decrease", "unique-nf", "coverage", "local-join"])
    def test_sweep_below_size_one_exits_2(self, run, monkeypatch, check, max_size, workers):
        monkeypatch.setenv("KO7_WORKERS", workers)
        status, out, err = run("check", check, "--max-size", max_size)
        assert status == 2
        assert out == ""
        assert "error: max_size must be >= 1" in err

    @pytest.mark.parametrize("argv", [("parse", "void"), ("check", "nogo", "--max-size", "6")])
    def test_closed_stdout_exits_2_without_traceback(self, argv):
        # the read end is closed before the child starts, so its first
        # write fails however much output it buffers
        src = str(Path(ko7.__file__).resolve().parent.parent)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "ko7.cli", *argv],
                env={**os.environ, "PYTHONPATH": src},
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 2
        assert result.stderr == ""

    def test_no_command_exits_2(self, run):
        status, _, _ = run()
        assert status == 2

    def test_unknown_command_exits_2(self, run):
        status, _, _ = run("frobnicate")
        assert status == 2


def _chain(depth: int) -> str:
    return "(rec void void " + "(delta " * depth + "void" + ")" * depth + ")"


def _with_chain(argv, depth: int) -> list[str]:
    """argv with each `T` replaced by the chain of that depth."""
    return [a.replace("T", _chain(depth)) for a in argv]


# The deepest chain `rec void void δ^n void` that each command takes in a
# fresh `python -m ko7.cli` process, bisected with one process per probe,
# for the commands that still walk the term by recursion: the JSON
# encoder, whose nesting sets every `--json` form's depth but that of
# `measure`, whose payload holds no term.  A refusal depth may rise,
# never fall.
DEEPEST = [
    (("--json", "parse", "T"), 492),
    (("--json", "step", "T"), 491),
    (("--json", "step", "T", "--relation", "full-ctx"), 491),
    (("--json", "normalize", "T"), 490),
    (("--json", "normalize", "T", "--relation", "full"), 491),
    (("--json", "normalize", "T", "--relation", "full", "--trace"), 491),
]


@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11),
    reason="bisected on CPython 3.11; the stack a recursion level takes differs by version",
)
@pytest.mark.parametrize("argv, depth", DEEPEST, ids=[" ".join(a) for a, _ in DEEPEST])
def test_the_deepest_chain_a_command_takes(argv, depth):
    src = str(Path(ko7.__file__).resolve().parent.parent)

    def status(n):
        return subprocess.run(
            [sys.executable, "-m", "ko7.cli", *_with_chain(argv, n)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            timeout=120,
        ).returncode

    assert (status(depth), status(depth + 1)) == (0, 2)


_NORMAL_FORM = "(app void " * 1_000 + "void" + ")" * 1_000

# The text forms, and `--json measure`, walk the term by loops only, or
# by recursion that falls back to a loop past the limit: the chain a
# command takes, the lines it prints, and how its last line starts.  The
# trace's text grows with the square of the depth.  A full root step
# compares two deep equal subterms, and the safe `merge t t` guard and
# `measure` fill a node's facts, each on a stack past the recursion limit.
TEXT_DEPTHS = [
    (("parse", "T"), 10_000, 1, _chain(10_000)),
    (("normalize", "T"), 10_000, 1, "(app void (rec void void (delta "),
    (("step", "(merge T T)"), 10_000, 1, "(no steps)"),
    (("measure", "T"), 10_000, 3, "tau: 10004"),
    (("--json", "measure", "T"), 10_000, 1, '{"measure": [1, [10004], 10004]}'),
    (("step", "T"), 10_000, 1, "rec_succ @ [] -> (app void (rec void void (delta "),
    (("step", "T", "--relation", "full-ctx"), 10_000, 1, "rec_succ @ [] -> (app void "),
    (("step", "(merge T T)", "--relation", "full"), 2_000, 1, "merge_cancel @ [] -> (rec "),
    (("step", "(eqw T T)", "--relation", "full"), 2_000, 2, "eq_diff @ [] -> (integrate (merge "),
    (("normalize", "T", "--relation", "full"), 1_000, 1, _NORMAL_FORM),
    (("normalize", "T", "--relation", "full", "--trace"), 1_000, 1_002, _NORMAL_FORM),
]


@pytest.mark.parametrize(
    "argv, depth, lines, last", TEXT_DEPTHS, ids=[" ".join(c[0]) for c in TEXT_DEPTHS]
)
def test_a_text_form_takes_a_deep_chain(run, argv, depth, lines, last):
    status, out, err = run(*_with_chain(argv, depth))
    assert (status, err, out.count("\n")) == (0, "", lines)
    assert out.splitlines()[-1].startswith(last)


def test_json_normalize_refuses_a_chain_too_deep_to_print_before_the_run(run, monkeypatch):
    # the payload of this run would hold about 2 million JSON nodes (near
    # 900 MB) before the encoder refused them
    import ko7.normalize

    monkeypatch.setattr(ko7.normalize, "normalize_full", lambda t, fuel: pytest.fail("ran"))
    status, out, err = run("--json", "normalize", _chain(1000), "--relation", "full")
    assert (status, out) == (2, "")
    assert "error: term too deep" in err


def test_out_of_memory_exits_2(run, monkeypatch):
    # exit 1 means a check violation, so running out of memory is not one
    import ko7.normalize

    def exhausted(t, fuel):
        raise MemoryError

    monkeypatch.setattr(ko7.normalize, "normalize_full", exhausted)
    status, out, err = run("--json", "normalize", "(eqw void void)", "--relation", "full")
    assert (status, out, err) == (2, "", "error: out of memory\n")


@pytest.mark.parametrize("mode", ["text", "json"])
def test_nogo_catalog_under_python_O(mode):
    argv = ("check", "nogo", "--max-size", "6")
    flags = ["--json"] if mode == "json" else []
    src = str(Path(ko7.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-O", "-m", "ko7.cli", *flags, *argv],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    goldens = JSON_DIGESTS if mode == "json" else TEXT_GOLDENS
    _assert_golden((result.returncode, result.stdout, result.stderr), goldens[argv])
