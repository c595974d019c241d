"""The unique-nf and local-join sweeps decide each term from its root
rewrites and its children, and the decrease sweep builds a witness only for
a violation.  These tests hold them to the plain sweeps that search every
term and every fork, kept here as reference oracles, and hold the join
search to the per-side-dict search it replaced."""

from collections import deque

import pytest

import ko7.confluence as confluence
import ko7.measure as measure
import ko7.rewrite as rewrite
from ko7.confluence import (
    JoinResult,
    SweepReport,
    UniqueNFReport,
    forks,
    guarded_root_normal_forms,
    joinable,
    local_join_sweep,
    unique_nf_sweep,
)
from ko7.normalize import normalize_safe
from ko7.rewrite import RelationKind, ctx_steps_safe, root_steps_safe, steps
from ko7.terms import VOID, Term, count_terms, enumerate_terms, eqw


def unique_nf_oracle(max_size: int) -> UniqueNFReport:
    """Every guarded-root reduct of every term, explored breadth-first, and
    the normalizer's normal form among them."""
    checked = 0
    violations = []
    for t in enumerate_terms(max_size):
        checked += 1
        terminals = guarded_root_normal_forms(t)
        if len(terminals) != 1 or normalize_safe(t).normal_form not in terminals:
            violations.append(t)
    return UniqueNFReport(max_size, checked, tuple(violations))


def local_join_oracle(max_size: int, relation: RelationKind, budget: int) -> SweepReport:
    """A join search for every fork of every term."""
    checked = 0
    violations = []
    inconclusive = []
    for t in enumerate_terms(max_size):
        for fork in forks(t, relation):
            checked += 1
            if joinable(fork.left.result, fork.right.result, relation, budget).joined:
                continue
            if relation is RelationKind.SAFE_ROOT:
                violations.append(fork)
            else:
                inconclusive.append(fork)
    return SweepReport(relation.value, max_size, checked, tuple(inconclusive), tuple(violations))


def _reconstruct_oracle(parents: dict, term):
    path = []
    while parents[term] is not None:
        prev, witness = parents[term]
        path.append(witness)
        term = prev
    return tuple(reversed(path))


def joinable_oracle(u, v, relation: RelationKind, budget: int) -> JoinResult:
    """The join search with each side kept as a dict, left through a
    closure at the meeting term."""
    sides = [
        {"parents": {u: None}, "queue": deque([u]), "expanded": 0},
        {"parents": {v: None}, "queue": deque([v]), "expanded": 0},
    ]

    def meeting(term) -> JoinResult:
        used = sides[0]["expanded"] + sides[1]["expanded"]
        return JoinResult(
            True,
            term,
            _reconstruct_oracle(sides[0]["parents"], term),
            _reconstruct_oracle(sides[1]["parents"], term),
            used,
        )

    if u in sides[1]["parents"]:
        return meeting(u)

    while any(side["queue"] and side["expanded"] < budget for side in sides):
        for me, other in ((sides[0], sides[1]), (sides[1], sides[0])):
            if not me["queue"] or me["expanded"] >= budget:
                continue
            current = me["queue"].popleft()
            me["expanded"] += 1
            for w in steps(current, relation):
                if w.result in me["parents"]:
                    continue
                me["parents"][w.result] = (current, w)
                if w.result in other["parents"]:
                    return meeting(w.result)
                me["queue"].append(w.result)
    used = sides[0]["expanded"] + sides[1]["expanded"]
    return JoinResult(False, None, (), (), used, not (sides[0]["queue"] or sides[1]["queue"]))


@pytest.fixture(scope="module")
def terms_9():
    return enumerate_terms(9)


def test_root_normal_form_is_the_only_normal_form(terms_9):
    for t in terms_9:
        (normal,) = guarded_root_normal_forms(t)
        assert confluence._root_normal_form(t) == normal == normalize_safe(t).normal_form


@pytest.mark.parametrize("max_size", range(1, 10))
def test_unique_nf_matches_the_oracle(max_size):
    assert unique_nf_sweep(max_size).to_json() == unique_nf_oracle(max_size).to_json()


def test_unique_nf_matches_the_oracle_on_full_root_rewrites(monkeypatch):
    # unguarded, eqw void void steps to both void and (integrate (merge void
    # void)), so it and every term that root-reduces to it have two normal
    # forms.  Above size 6 the oracle's normalizer refuses an unguarded step
    # that raises the measure, as it should.
    guarded = rewrite._root_rewrites

    def unguarded(t, safe):
        return guarded(t, False)

    monkeypatch.setattr(rewrite, "_root_rewrites", unguarded)
    monkeypatch.setattr(confluence, "_root_rewrites", unguarded)
    want = unique_nf_oracle(6)
    assert eqw(VOID, VOID) in want.violations
    assert len(want.violations) == 6
    assert unique_nf_sweep(6).to_json() == want.to_json()


def test_witness_count_is_the_number_of_ctx_steps():
    for t in enumerate_terms(8):
        roots = len(root_steps_safe(t))
        assert confluence._ctx_witness_count(t, roots) == len(ctx_steps_safe(t))


@pytest.mark.parametrize("budget", [0, 1, 2, 200])
@pytest.mark.parametrize("relation", [RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX])
def test_local_join_matches_every_fork_search(relation, budget):
    for max_size in range(1, 9):
        want = local_join_oracle(max_size, relation, budget).to_json()
        for workers in (1, 2):
            assert local_join_sweep(max_size, relation, budget, workers).to_json() == want


@pytest.fixture
def built(monkeypatch):
    """The terms whose witnesses the local-join chunks build, in order;
    every fork joins at once, so the join search builds none."""
    terms = []

    def counted(t, rel):
        terms.append(t)
        return steps(t, rel)

    def joined(left, right, relation, budget):
        return JoinResult(True, left, (), (), 0)

    monkeypatch.setattr(confluence, "steps", counted)
    monkeypatch.setattr(confluence, "joinable", joined)
    return terms


@pytest.mark.parametrize("relation", [RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX])
def test_local_join_builds_witnesses_only_for_a_root_fork(built, relation):
    # a term needs its witnesses only when a fork has a step at the root
    report = local_join_sweep(7, relation, 200)
    assert report.joined == report.forks_checked  # one pass, with `lift`
    assert built == [
        t
        for t in enumerate_terms(7)
        if root_steps_safe(t) and len(steps(t, relation)) > 1
    ]


def test_every_fork_pass_builds_witnesses_only_for_a_fork(built):
    # without `lift` every fork is searched, and a term needs its witnesses
    # only when it has one: at least two of them
    report = confluence._local_join_chunk(7, 0, count_terms(7), RelationKind.SAFE_CTX, 200, False)
    assert report.forks_checked and report.joined == report.forks_checked
    want = [t for t in enumerate_terms(7) if len(ctx_steps_safe(t)) >= 2]
    assert len(want) == 362
    assert built == want


def _same_join(u, v, relation: RelationKind, budget: int) -> bool:
    want = joinable_oracle(u, v, relation, budget)
    got = joinable(u, v, relation, budget)
    return got == want  # a NamedTuple ==: every field, exhausted included


@pytest.mark.parametrize("budget", range(4))
@pytest.mark.parametrize("relation", [RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX])
def test_join_search_matches_the_oracle_on_every_fork(relation, budget):
    searched = 0
    for t in enumerate_terms(7):
        for fork in forks(t, relation):
            u, v = fork.left.result, fork.right.result
            assert _same_join(u, v, relation, budget), fork
            assert _same_join(v, u, relation, budget), fork
            searched += 1
    assert searched


@pytest.mark.parametrize("budget", range(4))
def test_join_search_matches_the_oracle_on_the_non_join_reducts(budget):
    by_rule = {w.rule.value: w.result for w in steps(eqw(VOID, VOID), RelationKind.FULL_ROOT)}
    refl, diff = by_rule["eq_refl"], by_rule["eq_diff"]
    assert _same_join(refl, diff, RelationKind.FULL_CTX, budget)
    assert _same_join(diff, refl, RelationKind.FULL_CTX, budget)
    assert _same_join(diff, diff, RelationKind.FULL_CTX, budget)


@pytest.mark.parametrize("max_size", [3, 6])
def test_root_local_join_runs_once_when_every_fork_fails(monkeypatch, max_size):
    # every fork of the root-guarded relation has a step at the root, so the
    # first pass has searched them all: failed forks are violations, and no
    # second pass is needed to report them
    def never(left, right, relation, budget):
        return JoinResult(False, None, (), (), 0)

    run_sweep = confluence.run_sweep
    passes = []  # the lift flag of each pass

    def counted(*args):
        passes.append(args[-1])
        return run_sweep(*args)

    monkeypatch.setitem(globals(), "joinable", never)  # the oracle's
    monkeypatch.setattr(confluence, "joinable", never)
    monkeypatch.setattr(confluence, "run_sweep", counted)
    want = local_join_oracle(max_size, RelationKind.SAFE_ROOT, 200)
    assert want.violations
    assert local_join_sweep(max_size, RelationKind.SAFE_ROOT, 200).to_json() == want.to_json()
    assert passes == [True]


@pytest.mark.parametrize("max_size", [3, 7])
def test_decrease_violations_are_the_root_witnesses(monkeypatch, max_size):
    # with every instance a violation, the chunk must report exactly the
    # witnesses root_steps_safe lists, term by term in enumeration order
    monkeypatch.setattr(measure, "deciding_component", lambda after, before: None)
    want = [w for t in enumerate_terms(max_size) for w in root_steps_safe(t)]
    assert want
    report = measure._decrease_chunk(max_size, 0, count_terms(max_size))
    assert report.violations == tuple(want)
    assert report.checked == len(want)
    assert not report.decided_by and not report.by_rule


@pytest.mark.parametrize(
    "chunk", [measure._decrease_chunk, confluence._unique_nf_chunk, confluence._coverage_chunk]
)
def test_structural_sweeps_hash_no_term(monkeypatch, chunk):
    # they compare terms by structure and key nothing by a term, so no
    # term's hash is ever computed or read; local-join is not pinned, since
    # its join search keys its parent links by term
    calls = []
    unwrapped = Term.__hash__

    def counted(t):
        calls.append(t)
        return unwrapped(t)

    monkeypatch.setattr(Term, "__hash__", counted)
    assert hash(VOID) == unwrapped(VOID) and len(calls) == 1
    calls.clear()
    chunk(7, 0, count_terms(7))
    assert calls == []


def test_coverage_builds_no_term_through_the_checked_constructor(monkeypatch):
    # the shape targets and each blocked eqw t t are built from valid nodes,
    # so none needs Term.__init__'s checks
    calls = []
    unwrapped = Term.__init__

    def counted(t, *args):
        calls.append(args)
        unwrapped(t, *args)

    monkeypatch.setattr(Term, "__init__", counted)
    assert Term("void") == VOID and len(calls) == 1
    calls.clear()
    report = confluence._coverage_chunk(7, 0, count_terms(7))
    assert report.ok
    assert calls == []
