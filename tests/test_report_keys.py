"""The JSON keys of every report whose `to_json` is `terms.fields_json`:
its fields' camelCase names plus its computed keys.  A renamed field
changes its JSON form, so each type's keys are pinned here."""

import pytest

from ko7.confluence import CoverageReport, Fork, SweepReport, UniqueNFReport, forks
from ko7.nogo import HuntReport, KboReport, StressReport
from ko7.normalize import FullRunResult, TraceStep, normalize_full, normalize_safe
from ko7.rewrite import RelationKind
from ko7.terms import VOID, eqw, merge

REPORTS = [
    (lambda: forks(eqw(VOID, VOID), RelationKind.FULL_ROOT)[0], Fork,
     {"source", "left", "right"}),
    (lambda: normalize_safe(merge(VOID, VOID)).steps[0], TraceStep,
     {"witness", "before", "after"}),
    (lambda: UniqueNFReport(3), UniqueNFReport, {"maxSize", "termsChecked", "violations"}),
    (lambda: HuntReport("size", "full-root", 3, 0, None), HuntReport,
     {"family", "relation", "maxSize", "scanned", "counterexample"}),
    (lambda: KboReport(1, 0, 0, None), KboReport,
     {"weightBound", "assignmentsChecked", "orientingAssignments", "example"}),
    (lambda: normalize_full(merge(VOID, VOID)), FullRunResult, {"normalized", "term", "steps"}),
    (lambda: SweepReport("safe-root", 3), SweepReport,
     {"relation", "maxSize", "forksChecked", "inconclusive", "violations", "joined"}),
    (lambda: StressReport(3), StressReport,
     {"maxSize", "instances", "fittedOffset", "failures", "strictDrops", "minGrowth",
      "identity"}),
    (lambda: CoverageReport(3), CoverageReport,
     {"maxSize", "instances", "mismatches", "vacuousChecked", "vacuousViolations"}),
]


@pytest.mark.parametrize("build, kind, keys", REPORTS, ids=[r[1].__name__ for r in REPORTS])
def test_keys(build, kind, keys):
    report = build()
    assert type(report) is kind
    assert set(report.to_json()) == keys
