"""Confluence workbench: fork enumeration, bounded joinability, local-join
and unique-normal-form sweeps for the safe relations, root critical-pair
coverage, and the full-relation non-join witness at eqw void void.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import NamedTuple

from .rewrite import (
    _SAFE_CTX_KINDS,
    RelationKind,
    StepWitness,
    _root_rewrites,
    root_steps_safe,
    steps,
)
from .terms import Term, VOID, _node, enumerate_terms, eqw, fields_json, json_value
from .workers import run_sweep


class Fork(NamedTuple):
    """Two distinct one-step witnesses from the same source."""

    source: Term
    left: StepWitness
    right: StepWitness

    to_json = fields_json


class JoinResult(NamedTuple):
    joined: bool
    common: Term | None
    left_path: tuple[StepWitness, ...]
    right_path: tuple[StepWitness, ...]
    budget_used: int
    exhausted: bool = False  # both sides ran out of reducts


def forks(t: Term, relation: RelationKind) -> list[Fork]:
    """All unordered pairs of distinct witnesses of t under the relation."""
    ws = steps(t, relation)
    return [Fork(t, a, b) for a, b in itertools.combinations(ws, 2)]


def _reconstruct(parents: dict, term: Term) -> tuple[StepWitness, ...]:
    path = []
    while parents[term] is not None:
        prev, witness = parents[term]
        path.append(witness)
        term = prev
    return tuple(reversed(path))


def joinable(u: Term, v: Term, relation: RelationKind, budget: int) -> JoinResult:
    """Bidirectional breadth-first search for a common reduct of u and v,
    expanding at most `budget` terms per side.  Side 0 searches from u and
    side 1 from v; each round expands one term on each side that can."""
    parents = ({u: None}, {v: None})
    queues = (deque([u]), deque([v]))
    expanded = [0, 0]
    common = u if u == v else None
    while common is None and any(queues[s] and expanded[s] < budget for s in (0, 1)):
        for me in (0, 1):
            queue = queues[me]
            if common is not None or not queue or expanded[me] >= budget:
                continue
            current = queue.popleft()
            expanded[me] += 1
            mine, other = parents[me], parents[1 - me]
            for w in steps(current, relation):
                if w.result in mine:
                    continue
                mine[w.result] = (current, w)
                if w.result in other:
                    common = w.result
                    break
                queue.append(w.result)
    joined = common is not None
    return JoinResult(
        joined,
        common,
        _reconstruct(parents[0], common) if joined else (),
        _reconstruct(parents[1], common) if joined else (),
        expanded[0] + expanded[1],
        not (joined or queues[0] or queues[1]),
    )


class SweepReport(NamedTuple):
    relation: str
    max_size: int
    forks_checked: int = 0
    inconclusive: tuple[Fork, ...] = ()
    violations: tuple[Fork, ...] = ()

    @property
    def joined(self) -> int:
        return self.forks_checked - len(self.inconclusive) - len(self.violations)

    @property
    def ok(self) -> bool:
        # with no fork every fork joins vacuously
        return self.forks_checked >= 1 and not self.violations

    def to_json(self) -> dict:
        return fields_json(self, joined=self.joined)


def _ctx_witness_count(t: Term, roots: int) -> int:
    """len(ctx_steps_safe(t)), from `roots`, the number of t's guarded
    root rewrites, and, below the safe context kinds, its children's
    counts.  It recurses on t's structure, which the sweeps call only on
    enumerated terms, whose depth --max-size bounds."""
    if t.kind in _SAFE_CTX_KINDS:
        for child in t.children:
            roots += _ctx_witness_count(child, len(_root_rewrites(child, True)))
    return roots


def _local_join_chunk(
    max_size: int, lo: int, hi: int, relation: RelationKind, budget: int, lift: bool
) -> SweepReport:
    """Join the forks of each term in the slice: C(count, 2) for a term
    with `count` witnesses, its root rules matched once and its children's
    counts added by `_ctx_witness_count`.  The root witnesses come first in
    pre-order, and a fork is searched when its first witness is among the
    first `searched`: the `roots` with `lift`, the rest counting as joined
    (critical-pair lemma), else all.  Two steps in one child are that
    child's fork in a context, checked at the child; steps in different
    children commute in one step each, as a guard reads only its own redex.
    Witnesses are built only for a term with a fork to search."""
    forks_checked = 0
    failed = []
    ctx = relation is RelationKind.SAFE_CTX
    for t in enumerate_terms(max_size, lo, hi):
        roots = len(_root_rewrites(t, True))
        count = _ctx_witness_count(t, roots) if ctx else roots
        searched = roots if lift else count
        witnesses = steps(t, relation) if searched and count > 1 else []
        forks_checked += count * (count - 1) // 2
        for i, left in enumerate(witnesses[:searched]):
            for right in witnesses[i + 1 :]:
                if not joinable(left.result, right.result, relation, budget).joined:
                    failed.append(Fork(t, left, right))
    if relation is RelationKind.SAFE_ROOT:
        return SweepReport(relation.value, max_size, forks_checked, violations=tuple(failed))
    return SweepReport(relation.value, max_size, forks_checked, inconclusive=tuple(failed))


def local_join_sweep(
    max_size: int, relation: RelationKind, budget: int, workers: int = 1
) -> SweepReport:
    """Join every single-step fork of every term of size <= max_size.

    A fork that fails to join within budget is a violation for the
    root-guarded relation (strong normalization makes the search complete
    there) and merely inconclusive for the context closure.

    Only forks with a step at the root are searched at first.  For the
    root-guarded relation every fork is one, so that pass is the whole
    search.  For the context closure, if a searched fork is left
    inconclusive, the sweep reruns the same chunk with every fork searched,
    so the report lists exactly the inconclusive forks that the every-fork
    search does.
    """
    if relation not in (RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX):
        raise ValueError("local-join sweep is defined for the safe relations")
    report = run_sweep(_local_join_chunk, max_size, workers, relation, budget, True)
    if report.inconclusive:
        report = run_sweep(_local_join_chunk, max_size, workers, relation, budget, False)
    return report


class UniqueNFReport(NamedTuple):
    max_size: int
    terms_checked: int = 0
    violations: tuple[Term, ...] = ()

    @property
    def ok(self) -> bool:
        return self.terms_checked >= 1 and not self.violations

    to_json = fields_json


def guarded_root_normal_forms(t: Term) -> set[Term]:
    """All terminal terms over every guarded-root reduction order
    (exhaustive breadth-first exploration; finite by strong normalization)."""
    seen = {t}
    queue = deque([t])
    terminals: set[Term] = set()
    while queue:
        current = queue.popleft()
        witnesses = root_steps_safe(current)
        if not witnesses:
            terminals.add(current)
            continue
        for w in witnesses:
            if w.result not in seen:
                seen.add(w.result)
                queue.append(w.result)
    return terminals


def _root_normal_form(t: Term) -> Term | None:
    """t's one guarded-root normal form, or None when it has two or more.

    t's normal forms are those of its root results, or t itself when it
    has none.  Every guarded root result is a child of t (merge_void_*,
    merge_cancel, rec_zero) or a term with no guarded root rewrite, so the
    recursion follows child links only.  The sweep calls it only on
    enumerated terms, whose depth --max-size bounds."""
    rewrites = _root_rewrites(t, True)
    if not rewrites:
        return t
    normal = _root_normal_form(rewrites[0][1])
    for _, result in rewrites[1:]:
        if normal is None or _root_normal_form(result) != normal:
            return None
    return normal


def _unique_nf_chunk(max_size: int, lo: int, hi: int) -> UniqueNFReport:
    terms = enumerate_terms(max_size, lo, hi)
    violations = tuple(t for t in terms if _root_normal_form(t) is None)
    return UniqueNFReport(max_size, len(terms), violations)


def unique_nf_sweep(max_size: int, workers: int = 1) -> UniqueNFReport:
    """For every term, all guarded-root reduction orders must reach exactly
    one normal form.  The normalizer follows one of those orders, so its
    normal form is that one; every step it takes is a guarded root step on
    a subterm of the term, whose measure decrease `decrease_sweep` checks
    at the same size."""
    return run_sweep(_unique_nf_chunk, max_size, workers)


# ---------------------------------------------------------------------------
# Critical-pair coverage at the root: the eight guarded source shapes and
# their unique targets, plus the guard-blocked eqw shape (vacuously joined).

_ROOT_SHAPES = (
    "int-delta",
    "merge-void-left",
    "merge-void-right",
    "merge-cancel",
    "rec-zero",
    "rec-succ",
    "eqw-diff",
    "eqw-refl",
)


def _shape_targets(t: Term) -> list[tuple[str, Term]]:
    rows: list[tuple[str, Term]] = []
    if t.kind == "integrate" and t.children[0].kind == "delta":
        rows.append(("int-delta", VOID))
    elif t.kind == "merge":
        left, right = t.children
        if left == VOID:
            rows.append(("merge-void-left", right))
        if right == VOID:
            rows.append(("merge-void-right", left))
        if left == right:
            rows.append(("merge-cancel", left))
    elif t.kind == "rec":
        base, step, arg = t.children
        if arg == VOID:
            rows.append(("rec-zero", base))
        elif arg.kind == "delta":
            inner = _node("rec", (base, step, arg.children[0]))
            rows.append(("rec-succ", _node("app", (step, inner))))
    elif t.kind == "eqw":
        left, right = t.children
        if left != right:
            both = _node("merge", (left, right))
            rows.append(("eqw-diff", _node("integrate", (both,))))
        elif not left.rec_taus:  # kappa_m(left) is empty
            rows.append(("eqw-refl", VOID))
    return rows


class CoverageReport(NamedTuple):
    max_size: int
    instances: Counter = Counter()  # shape -> instances
    mismatches: tuple[tuple[str, Term], ...] = ()
    vacuous_checked: int = 0
    vacuous_violations: tuple[Term, ...] = ()

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and not self.vacuous_violations
            and all(self.instances[s] >= 1 for s in _ROOT_SHAPES)
        )

    def to_json(self) -> dict:
        return fields_json(
            self,
            instances={s: self.instances[s] for s in _ROOT_SHAPES},
            mismatches=[{"shape": s, "term": json_value(t)} for s, t in self.mismatches],
        )


def _coverage_chunk(max_size: int, lo: int, hi: int) -> CoverageReport:
    instances: Counter = Counter()
    mismatches = []
    vacuous_checked = 0
    vacuous_violations = []
    for t in enumerate_terms(max_size, lo, hi):
        if t.rec_taus:  # kappa_m(t) is nonempty
            vacuous_checked += 1
            blocked = _node("eqw", (t, t))
            if _root_rewrites(blocked, True):
                vacuous_violations.append(blocked)
        rows = _shape_targets(t)
        if not rows:
            continue
        rewrites = _root_rewrites(t, True)
        if not rewrites:
            continue  # guard-blocked instance, shape not realized here
        for shape, target in rows:
            instances[shape] += 1
            if any(result != target for _, result in rewrites):
                mismatches.append((shape, t))
    return CoverageReport(
        max_size, instances, tuple(mismatches), vacuous_checked, tuple(vacuous_violations)
    )


def root_coverage_sweep(max_size: int, workers: int = 1) -> CoverageReport:
    """Realize each guarded root shape on enumerated terms and confirm that
    every applicable guarded step lands on the shape's unique target.

    The guard-blocked shape eqw a a with rec-containing a only exists above
    the enumeration sizes, so its instances are built directly from
    enumerated arguments a.
    """
    return run_sweep(_coverage_chunk, max_size, workers)


# ---------------------------------------------------------------------------
# The full-relation non-join witness.


class FuelExhaustedError(RuntimeError):
    """A non-join reduct did not reach its normal form within the fuel."""


class NonJoinWitness(NamedTuple):
    source: Term
    reduct_refl: Term
    reduct_diff: Term
    normal_refl: Term
    normal_diff: Term
    join: JoinResult

    @property
    def distinct(self) -> bool:
        return self.normal_refl != self.normal_diff

    @property
    def ok(self) -> bool:
        # an unjoined search proves nothing unless both sides were exhausted
        return self.distinct and not self.join.joined and self.join.exhausted

    @property
    def verdict(self) -> str:
        """"not joinable", "joinable" or "inconclusive"."""
        if self.ok:
            return "not joinable"
        return "joinable" if self.join.joined else "inconclusive"

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "source": json_value(self.source),
            "reducts": {
                "eq_refl": json_value(self.reduct_refl),
                "eq_diff": json_value(self.reduct_diff),
            },
            "normalForms": {
                "eq_refl": json_value(self.normal_refl),
                "eq_diff": json_value(self.normal_diff),
            },
            "distinct": self.distinct,
            "joined": self.join.joined,
            "budgetUsed": self.join.budget_used,
        }


def non_join_witness(budget: int = 1000, fuel: int = 1000) -> NonJoinWitness:
    """eqw void void steps to both void and integrate (merge void void)
    under the full root relation; their full-context normal forms are void
    and (integrate void), which are distinct and never rejoin."""
    # imported here alone: no sweep of this module normalizes, and each
    # `ko7` command is a fresh process that loads only what it runs
    from .normalize import normalize_full

    source = eqw(VOID, VOID)
    full = steps(source, RelationKind.FULL_ROOT)
    by_rule = {w.rule.value: w.result for w in full}
    reduct_refl = by_rule["eq_refl"]
    reduct_diff = by_rule["eq_diff"]
    run_refl = normalize_full(reduct_refl, fuel)
    run_diff = normalize_full(reduct_diff, fuel)
    if not (run_refl.normalized and run_diff.normalized):
        raise FuelExhaustedError(f"non-join reducts did not normalize within fuel {fuel}")
    join = joinable(reduct_refl, reduct_diff, RelationKind.FULL_CTX, budget)
    return NonJoinWitness(
        source,
        reduct_refl,
        reduct_diff,
        run_refl.term,
        run_diff.term,
        join,
    )
