"""Fault injection: each check's FAIL verdict, and the normalizer's
invariant error, reached by breaking one thing the check relies on.  On
correct code no enumerated term reaches these paths.  The coverage
sweep's faults are in test_workers.py, where they also run on forked
workers."""

import json

import pytest

import ko7.confluence as confluence
import ko7.nogo as nogo
import ko7.normalize as normalize
from ko7.cli import main
from ko7.measure import Measure3
from ko7.normalize import MeasureInvariantError, TargetNotNormalError, normalize_safe
from ko7.rewrite import RuleId
from ko7.terms import VOID, TermError, parse


@pytest.fixture
def run(capsys):
    def invoke(*argv):
        status = main(list(argv))
        return status, capsys.readouterr().out

    return invoke


class TestStressFaults:
    @pytest.fixture(autouse=True)
    def wrong_size(self, monkeypatch):
        # every rec_succ result (an app node) measured as a single node
        size = nogo.size
        monkeypatch.setattr(nogo, "size", lambda t: 1 if t.kind == "app" else size(t))

    def test_identity_failures_and_strict_drops_are_counted(self):
        report = nogo.duplication_stress(6)
        assert not report.ok
        assert report.failures
        assert report.strict_drops == report.instances > 0

    def test_check_fails(self, run):
        status, out = run("check", "stress", "--max-size", "6")
        assert status == 1
        assert out.endswith("FAIL\n")
        assert "identity failures: 0" not in out


def test_nonjoin_witness_with_equal_normal_forms_is_not_distinct(monkeypatch, run):
    # both reducts normalized to void, as if the two rules agreed
    # non_join_witness looks the reducer up in its own module when it runs
    full = normalize.normalize_full
    monkeypatch.setattr(normalize, "normalize_full", lambda t, fuel: full(VOID, fuel))
    witness = confluence.non_join_witness()
    assert not witness.distinct and not witness.ok
    status, out = run("--json", "witness", "nonjoin")
    assert status == 1
    assert json.loads(out)["distinct"] is False


def test_normalize_safe_raises_when_the_measure_does_not_drop(monkeypatch):
    monkeypatch.setattr(normalize, "measure3", lambda t: Measure3(0, (), 0))
    with pytest.raises(MeasureInvariantError) as caught:
        normalize_safe(parse("(integrate (delta void))"))
    assert caught.value.witness.rule is RuleId.INT_DELTA


class TestLpoWithoutOrientingPrecedence:
    @pytest.fixture(autouse=True)
    def never_greater(self, monkeypatch):
        monkeypatch.setattr(nogo, "lpo_greater", lambda a, b, prec: False)

    def test_text(self, run):
        status, out = run("check", "lpo", "--max-size", "4")
        assert status == 1
        assert "orienting precedences: 0 of 5040\n" in out
        assert "first: -\n" in out
        assert out.endswith("FAIL\n")

    def test_json(self, run):
        status, out = run("--json", "check", "lpo", "--max-size", "4")
        assert status == 1
        payload = json.loads(out)
        assert payload["precedence"] == []
        assert payload["orientingPrecedences"] == 0


class TestStressWithoutInstance:
    def test_text(self, run):
        status, out = run("check", "stress", "--max-size", "3")
        assert status == 1
        assert out == (
            "rec_succ instances: 0 (size <= 3)\n"
            "fitted identity: none (no rec_succ instance)\n"
            "identity failures: 0\n"
            "strict size drops: 0\n"
            "FAIL\n"
        )

    def test_json(self, run):
        status, out = run("--json", "check", "stress", "--max-size", "3")
        assert status == 1
        payload = json.loads(out)
        assert payload["identity"] is None
        assert payload["fittedOffset"] is None and payload["instances"] == 0


def test_target_not_normal_is_a_term_error():
    assert issubclass(TargetNotNormalError, TermError)
    assert issubclass(TargetNotNormalError, ValueError)
