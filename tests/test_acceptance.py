"""Acceptance suite: one test per criterion, each printing a pass/fail
line and enforcing its stated size bounds, budgets, and runtime ceiling.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time
from collections import deque

from ko7.cli import main as cli_main
from ko7.confluence import (
    local_join_sweep,
    non_join_witness,
    root_coverage_sweep,
    unique_nf_sweep,
)
from ko7.measure import decrease_sweep
from ko7.nogo import (
    canonical_family,
    catalog,
    duplication_depth_tie,
    find_violation,
    kbo_search,
    lpo_boundary_report,
    poly_search,
)
from ko7.normalize import (
    is_normal_form_safe,
    normalize_safe,
    reaches_target,
)
from ko7.measure import lex3_less
from ko7.rewrite import RelationKind, root_steps_safe
from ko7.terms import VOID, delta, enumerate_terms, integrate, render


class _Criterion:
    def __init__(self, number: int, name: str, limit_seconds: float):
        self.number = number
        self.name = name
        self.limit = limit_seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} {self.name}: {verdict} ({elapsed:.1f}s)")
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget: "
                f"{elapsed:.1f}s"
            )
        return False


def test_criterion_1_decrease_sweep():
    with _Criterion(1, "per-step measure decrease at size <= 7", 60):
        report = decrease_sweep(7)
        assert report.violations == ()
        assert report.checked > 0
        by_rule = report.by_rule
        assert set(by_rule["rec_succ"]) == {"dflag"}
        assert set(by_rule["rec_zero"]) == {"kappaM"}
        for rule in (
            "merge_void_left",
            "merge_void_right",
            "merge_cancel",
            "eq_refl",
            "eq_diff",
        ):
            assert set(by_rule[rule]) == {"tau"}
        assert set(by_rule["int_delta"]) <= {"tau", "kappaM"}


def test_criterion_2_normalizer_totality_soundness():
    with _Criterion(2, "normalizer totality and soundness at size <= 7", 60):
        for t in enumerate_terms(7):
            trace = normalize_safe(t)  # termination enforced by measure assert
            current = t
            for step in trace.steps:
                assert step.witness.source == current
                assert lex3_less(step.after, step.before)
                current = step.witness.result
            assert current == trace.final_term
            assert is_normal_form_safe(trace.final_term)
        for t in enumerate_terms(5):
            assert normalize_safe(integrate(delta(t))).final_term == VOID


def test_criterion_3_non_join_witness(capsys):
    with _Criterion(3, "full-relation non-join witness", 60):
        witness = non_join_witness(budget=1000)
        assert witness.reduct_refl == VOID
        assert render(witness.reduct_diff) == "(integrate (merge void void))"
        assert witness.normal_refl == VOID
        assert render(witness.normal_diff) == "(integrate void)"
        assert witness.distinct and not witness.join.joined
        # exact-output golden for the command-line form
        status = cli_main(["witness", "nonjoin"])
        out = capsys.readouterr().out
        assert status == 0
        assert out == (
            "source: (eqw void void)\n"
            "reduct A [eq_refl]: void\n"
            "reduct B [eq_diff]: (integrate (merge void void))\n"
            "normal form A: void\n"
            "normal form B: (integrate void)\n"
            "verdict: not joinable (budget 1000)\n"
        )


def test_criterion_4_local_confluence_and_newman():
    with _Criterion(4, "local joins and unique normal forms", 120):
        root = local_join_sweep(6, RelationKind.SAFE_ROOT, budget=100)
        assert root.violations == () and root.inconclusive == ()
        assert root.joined == root.forks_checked
        ctx = local_join_sweep(5, RelationKind.SAFE_CTX, budget=200)
        assert ctx.violations == () and ctx.inconclusive == ()
        assert ctx.joined == ctx.forks_checked
        unique = unique_nf_sweep(7)
        assert unique.violations == ()
        assert unique.terms_checked == len(enumerate_terms(7))


def test_criterion_5_root_shape_coverage():
    with _Criterion(5, "critical-pair shape coverage with stated targets", 60):
        report = root_coverage_sweep(6)
        for shape in (
            "int-delta",
            "merge-void-left",
            "merge-void-right",
            "merge-cancel",
            "rec-zero",
            "rec-succ",
            "eqw-diff",
            "eqw-refl",
        ):
            assert report.instances.get(shape, 0) >= 1, shape
        assert report.mismatches == ()
        assert report.vacuous_checked >= 1
        assert report.vacuous_violations == ()


def test_criterion_6_nogo_catalog():
    with _Criterion(6, "failed-measure catalog", 120):
        families = catalog()
        assert len(families) == 12
        for family in families:
            hunt = find_violation(family, max_size=7)
            assert hunt.found, family.name
        tie = duplication_depth_tie(7)
        assert tie.constants == (0, 1, 5)
        assert poly_search(3).orienting_assignments == 0
        assert kbo_search(3).orienting_assignments == 0
        canonical = find_violation(canonical_family(), RelationKind.SAFE_ROOT, 7)
        assert not canonical.found


def test_criterion_7_external_boundary():
    with _Criterion(7, "path-order boundary demonstration", 60):
        report = lpo_boundary_report(max_size=5)
        assert report.orienting_count >= 1
        assert report.instances_checked > 0
        assert report.rank_only.found
        assert report.ok


def test_criterion_8_reachability_agreement():
    with _Criterion(8, "fixed-target reachability agrees with search", 60):

        def reachable(t):
            seen = {t}
            queue = deque([t])
            while queue:
                current = queue.popleft()
                for w in root_steps_safe(current):
                    if w.result not in seen:
                        seen.add(w.result)
                        queue.append(w.result)
            return seen

        pool = enumerate_terms(5)
        targets = [c for c in pool if is_normal_form_safe(c)]
        pairs = 0
        for t in pool:
            reach = reachable(t)
            candidates = set(targets)
            candidates.add(normalize_safe(t).final_term)
            for c in candidates:
                pairs += 1
                assert reaches_target(t, c) == (c in reach)
        assert pairs > 10_000
