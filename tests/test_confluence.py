import pytest

from ko7.confluence import (
    UniqueNFReport,
    forks,
    guarded_root_normal_forms,
    joinable,
    local_join_sweep,
    non_join_witness,
    root_coverage_sweep,
    unique_nf_sweep,
)
from ko7.normalize import normalize_safe
from ko7.rewrite import RelationKind, RuleId
from ko7.terms import (
    VOID,
    count_terms,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    rec,
)


class TestForks:
    def test_eqw_overlap_is_a_full_fork(self):
        fs = forks(eqw(VOID, VOID), RelationKind.FULL_ROOT)
        assert len(fs) == 1
        assert {fs[0].left.rule, fs[0].right.rule} == {RuleId.EQ_REFL, RuleId.EQ_DIFF}

    def test_guards_remove_the_eqw_fork(self):
        assert forks(eqw(VOID, VOID), RelationKind.SAFE_ROOT) == []

    def test_merge_void_void_three_forks(self):
        fs = forks(merge(VOID, VOID), RelationKind.SAFE_ROOT)
        assert len(fs) == 3
        for f in fs:
            assert f.left.result == f.right.result == VOID


class TestJoinable:
    def test_identical_terms_join_with_zero_budget(self):
        t = merge(VOID, VOID)
        result = joinable(t, t, RelationKind.SAFE_ROOT, 0)
        assert result.joined
        assert result.common == t
        assert result.left_path == () and result.right_path == ()

    def test_distinct_normal_forms_never_join(self):
        result = joinable(
            VOID, integrate(merge(VOID, VOID)), RelationKind.SAFE_ROOT, 100
        )
        assert not result.joined

    def test_full_ctx_nonjoin_pair(self):
        result = joinable(
            VOID, integrate(merge(VOID, VOID)), RelationKind.FULL_CTX, 100
        )
        assert not result.joined

    def test_paths_are_valid_reductions(self):
        # take one concrete safe-ctx fork and verify the join paths replay
        source = merge(merge(VOID, VOID), VOID)
        fork = forks(source, RelationKind.SAFE_CTX)[0]
        result = joinable(fork.left.result, fork.right.result, RelationKind.SAFE_CTX, 50)
        assert result.joined
        for start, path in (
            (fork.left.result, result.left_path),
            (fork.right.result, result.right_path),
        ):
            current = start
            for w in path:
                assert w.source == current
                current = w.result
            assert current == result.common


class TestSweeps:
    def test_safe_root_forks_all_join(self):
        report = local_join_sweep(6, RelationKind.SAFE_ROOT, 100)
        assert report.ok
        assert report.forks_checked == report.joined
        assert report.joined > 0

    def test_safe_ctx_forks_all_join(self):
        report = local_join_sweep(5, RelationKind.SAFE_CTX, 200)
        assert report.ok
        assert not report.inconclusive
        assert report.joined == report.forks_checked > 0

    def test_full_relations_rejected(self):
        with pytest.raises(ValueError):
            local_join_sweep(4, RelationKind.FULL_ROOT, 10)

    def test_unique_normal_forms(self):
        report = unique_nf_sweep(6)
        assert report.ok
        assert report.terms_checked == len(enumerate_terms(6))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unique_nf_checks_every_term(self, workers):
        for n in range(1, 8):
            assert unique_nf_sweep(n, workers).terms_checked == count_terms(n)

    def test_unique_nf_fails_with_nothing_checked(self):
        assert not UniqueNFReport(0).ok
        assert UniqueNFReport(0, terms_checked=1).ok

    def test_newman_agreement(self):
        # strong normalization plus local joins force unique normal forms;
        # check both sweeps against each other on a shared size bound
        assert local_join_sweep(5, RelationKind.SAFE_ROOT, 100).ok
        assert unique_nf_sweep(5).ok
        for t in enumerate_terms(5):
            terminals = guarded_root_normal_forms(t)
            assert terminals == {normalize_safe(t).final_term}

    def test_workers_do_not_change_reports(self):
        serial = unique_nf_sweep(5)
        parallel = unique_nf_sweep(5, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_workers_keep_list_order(self):
        # a zero budget leaves forks inconclusive across several chunks, so
        # the merged list shows whether partial reports come back in order
        serial = local_join_sweep(5, RelationKind.SAFE_CTX, budget=0)
        assert serial.forks_checked == 31
        assert len(serial.inconclusive) == 4
        parallel = local_join_sweep(5, RelationKind.SAFE_CTX, budget=0, workers=2)
        assert serial.to_json() == parallel.to_json()


class TestCoverage:
    def test_all_root_shapes_realized(self):
        report = root_coverage_sweep(6)
        assert report.ok
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

    def test_blocked_eqw_instances_have_no_safe_steps(self):
        report = root_coverage_sweep(6)
        assert report.vacuous_checked >= 1
        assert report.vacuous_violations == ()

    def test_workers_do_not_change_report(self):
        serial = root_coverage_sweep(6)
        parallel = root_coverage_sweep(6, workers=2)
        assert serial.to_json() == parallel.to_json()

    def test_rec_succ_unique_target(self):
        from ko7.rewrite import root_steps_safe
        from ko7.terms import app, rec as rec_

        b, s, n = VOID, delta(VOID), VOID
        (w,) = root_steps_safe(rec_(b, s, delta(n)))
        assert w.result == app(s, rec_(b, s, n))


class TestNonJoinWitness:
    def test_witness_shape(self):
        w = non_join_witness(budget=1000)
        assert w.source == eqw(VOID, VOID)
        assert w.reduct_refl == VOID
        assert w.reduct_diff == integrate(merge(VOID, VOID))
        assert w.normal_refl == VOID
        assert w.normal_diff == integrate(VOID)
        assert w.distinct
        assert not w.join.joined
        assert w.ok

    @pytest.mark.parametrize("budget, exhausted", [(0, False), (1, False), (2, True)])
    def test_ok_needs_both_sides_exhausted(self, budget, exhausted):
        w = non_join_witness(budget=budget)
        assert not w.join.joined
        assert w.join.exhausted is exhausted
        assert w.ok is exhausted
        assert w.to_json()["verdict"] == ("not joinable" if exhausted else "inconclusive")

    def test_json_schema(self):
        payload = non_join_witness().to_json()
        assert set(payload) == {
            "verdict",
            "source",
            "reducts",
            "normalForms",
            "distinct",
            "joined",
            "budgetUsed",
        }
