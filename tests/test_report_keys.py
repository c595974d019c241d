"""The JSON keys of every report whose `to_json` is `terms.fields_json`:
its fields' camelCase names plus its computed keys.  A renamed field
changes its JSON form, so each type's keys are pinned here."""

import importlib

import pytest

import ko7
from ko7.confluence import CoverageReport, Fork, SweepReport, UniqueNFReport, forks
from ko7.nogo import (
    CatalogReport,
    HuntReport,
    KboReport,
    LpoReport,
    PolyReport,
    ScanResistance,
    StressReport,
    catalog_report,
    lpo_boundary_report,
    poly_search,
)
from ko7.normalize import FullRunResult, Trace, TraceStep, normalize_full, normalize_safe
from ko7.rewrite import RelationKind
from ko7.terms import VOID, eqw, fields_json, merge

REPORTS = [
    (lambda: forks(eqw(VOID, VOID), RelationKind.FULL_ROOT)[0], Fork,
     {"source", "left", "right"}),
    (lambda: normalize_safe(merge(VOID, VOID)).steps[0], TraceStep,
     {"witness", "before", "after"}),
    (lambda: normalize_safe(merge(VOID, VOID)), Trace, {"source", "steps", "normalForm"}),
    (lambda: UniqueNFReport(3), UniqueNFReport, {"maxSize", "termsChecked", "violations"}),
    (lambda: HuntReport("size", "full-root", 3, 0, None), HuntReport,
     {"family", "relation", "maxSize", "scanned", "counterexample"}),
    (lambda: catalog_report(2), CatalogReport, {"families", "canonical"}),
    (lambda: lpo_boundary_report(2), LpoReport,
     {"precedence", "orientingPrecedences", "precedencesChecked", "instancesChecked",
      "rankOnlyCounterexample"}),
    (lambda: poly_search(1), PolyReport,
     {"coefBound", "spaceSize", "orientingAssignments", "stepCombosChecked", "minStepExcess",
      "samplesConfirmed", "example", "scanResistant"}),
    (lambda: poly_search(1).scan_resistant, ScanResistance,
     {"interpretation", "violationWithinSize6", "example"}),
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


# The NamedTuples whose JSON form is not their fields under camelCase names.
CUSTOM_FORMS = {
    "StepWitness",
    "Measure3",
    "LinearInterpretation",
    "CounterexampleReport",
    "DecreaseReport",
    "NonJoinWitness",
}


def _json_named_tuples() -> dict[str, type]:
    """Every NamedTuple defined in a `ko7` module that has a `to_json`."""
    found = {}
    for module in ko7._EXPORTS:
        mod = importlib.import_module(f"ko7.{module}")
        for value in vars(mod).values():
            if (
                isinstance(value, type)
                and value.__module__ == mod.__name__
                and issubclass(value, tuple)
                and hasattr(value, "_fields")
                and hasattr(value, "to_json")
            ):
                found[value.__name__] = value
    return found


def test_every_other_form_is_fields_json():
    # a report either is rendered by fields_json, calls it for its computed
    # keys, or is one of the listed custom forms
    kinds = _json_named_tuples()
    assert CUSTOM_FORMS <= set(kinds)
    for name, kind in kinds.items():
        uses_rule = kind.to_json is fields_json or "fields_json" in kind.to_json.__code__.co_names
        assert uses_rule != (name in CUSTOM_FORMS), name
