"""Confluence workbench: fork enumeration, bounded joinability, local-join
and unique-normal-form sweeps for the safe relations, root critical-pair
coverage, and the full-relation non-join witness at eqw void void.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from dataclasses import dataclass, field

from .normalize import normalize_full
from .rewrite import (
    _SAFE_CTX_KINDS,
    RelationKind,
    StepWitness,
    _root_rewrites,
    root_steps_safe,
    steps,
)
from .terms import (
    Term,
    VOID,
    app,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    rec,
    term_to_json,
)
from .workers import run_sweep


@dataclass(frozen=True)
class Fork:
    """Two distinct one-step witnesses from the same source."""

    source: Term
    left: StepWitness
    right: StepWitness


@dataclass(frozen=True)
class JoinResult:
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


@dataclass
class SweepReport:
    relation: str
    max_size: int
    forks_checked: int = 0
    inconclusive: list[Fork] = field(default_factory=list)
    violations: list[Fork] = field(default_factory=list)

    @property
    def joined(self) -> int:
        return self.forks_checked - len(self.inconclusive) - len(self.violations)

    @property
    def ok(self) -> bool:
        # with no fork every fork joins vacuously
        return self.forks_checked >= 1 and not self.violations

    def to_json(self) -> dict:
        def fork_json(f: Fork) -> dict:
            return {
                "source": term_to_json(f.source),
                "left": f.left.to_json(),
                "right": f.right.to_json(),
            }

        return {
            "relation": self.relation,
            "maxSize": self.max_size,
            "forksChecked": self.forks_checked,
            "joined": self.joined,
            "inconclusive": [fork_json(f) for f in self.inconclusive],
            "violations": [fork_json(f) for f in self.violations],
        }


def _ctx_witness_count(t: Term) -> int:
    """len(ctx_steps_safe(t)), from t's guarded root rewrites and, below
    the safe context kinds, its children's counts.  It recurses on t's
    structure, which the sweeps call only on enumerated terms, whose depth
    --max-size bounds."""
    count = len(_root_rewrites(t, True))
    if t.kind in _SAFE_CTX_KINDS:
        for child in t.children:
            count += _ctx_witness_count(child)
    return count


def _local_join_chunk(
    max_size: int, lo: int, hi: int, relation: RelationKind, budget: int, lift: bool
) -> SweepReport:
    """Join the forks of each term in the slice.  With `lift`, only forks
    with a step at the root are searched, and the others count as joined
    (critical-pair lemma).  Two steps in one child are that child's fork in
    a context, and the sweep checks the child itself; steps in different
    children commute in one step each, as a guard reads only its own redex.
    The root witnesses come first in pre-order, so they are the first
    `roots` of steps(t, relation)."""
    report = SweepReport(relation.value, max_size)
    ctx = relation is RelationKind.SAFE_CTX
    for t in enumerate_terms(max_size, lo, hi):
        roots = len(_root_rewrites(t, True))
        if lift and not roots:
            witnesses = ()
            count = _ctx_witness_count(t) if ctx else 0
        else:
            witnesses = steps(t, relation)
            count = len(witnesses)
            if not lift:
                roots = count
        report.forks_checked += count * (count - 1) // 2
        for i in range(roots):
            left = witnesses[i]
            for right in witnesses[i + 1 :]:
                if joinable(left.result, right.result, relation, budget).joined:
                    continue
                fork = Fork(t, left, right)
                if relation is RelationKind.SAFE_ROOT:
                    report.violations.append(fork)
                else:
                    report.inconclusive.append(fork)
    return report


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
    inconclusive, the sweep reruns with every fork searched, so the report
    lists exactly the inconclusive forks that the every-fork search does.
    """
    if relation not in (RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX):
        raise ValueError("local-join sweep is defined for the safe relations")
    report = run_sweep(_local_join_chunk, max_size, workers, relation, budget, True)
    if report.inconclusive:
        report = run_sweep(_local_join_chunk, max_size, workers, relation, budget, False)
    return report


@dataclass
class UniqueNFReport:
    max_size: int
    terms_checked: int = 0
    violations: list[Term] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.terms_checked >= 1 and not self.violations

    def to_json(self) -> dict:
        return {
            "maxSize": self.max_size,
            "termsChecked": self.terms_checked,
            "violations": [term_to_json(t) for t in self.violations],
        }


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
    report = UniqueNFReport(max_size)
    for t in enumerate_terms(max_size, lo, hi):
        report.terms_checked += 1
        if _root_normal_form(t) is None:
            report.violations.append(t)
    return report


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
            rows.append(("rec-succ", app(step, rec(base, step, arg.children[0]))))
    elif t.kind == "eqw":
        left, right = t.children
        if left != right:
            rows.append(("eqw-diff", integrate(merge(left, right))))
        elif not left.rec_taus:  # kappa_m(left) is empty
            rows.append(("eqw-refl", VOID))
    return rows


@dataclass
class CoverageReport:
    max_size: int
    instances: Counter = field(default_factory=Counter)  # shape -> instances
    mismatches: list[tuple[str, Term]] = field(default_factory=list)
    vacuous_checked: int = 0
    vacuous_violations: list[Term] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return (
            not self.mismatches
            and not self.vacuous_violations
            and all(self.instances[s] >= 1 for s in _ROOT_SHAPES)
        )

    def to_json(self) -> dict:
        return {
            "maxSize": self.max_size,
            "instances": {s: self.instances[s] for s in _ROOT_SHAPES},
            "mismatches": [
                {"shape": s, "term": term_to_json(t)} for s, t in self.mismatches
            ],
            "vacuousChecked": self.vacuous_checked,
            "vacuousViolations": [term_to_json(t) for t in self.vacuous_violations],
        }


def _coverage_chunk(max_size: int, lo: int, hi: int) -> CoverageReport:
    report = CoverageReport(max_size)
    for t in enumerate_terms(max_size, lo, hi):
        if t.rec_taus:  # kappa_m(t) is nonempty
            report.vacuous_checked += 1
            blocked = eqw(t, t)
            if _root_rewrites(blocked, True):
                report.vacuous_violations.append(blocked)
        rows = _shape_targets(t)
        if not rows:
            continue
        rewrites = _root_rewrites(t, True)
        if not rewrites:
            continue  # guard-blocked instance, shape not realized here
        for shape, target in rows:
            report.instances[shape] += 1
            if any(result != target for _, result in rewrites):
                report.mismatches.append((shape, t))
    return report


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


@dataclass(frozen=True)
class NonJoinWitness:
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
            "source": term_to_json(self.source),
            "reducts": {
                "eq_refl": term_to_json(self.reduct_refl),
                "eq_diff": term_to_json(self.reduct_diff),
            },
            "normalForms": {
                "eq_refl": term_to_json(self.normal_refl),
                "eq_diff": term_to_json(self.normal_diff),
            },
            "distinct": self.distinct,
            "joined": self.join.joined,
            "budgetUsed": self.join.budget_used,
        }


def non_join_witness(budget: int = 1000, fuel: int = 1000) -> NonJoinWitness:
    """eqw void void steps to both void and integrate (merge void void)
    under the full root relation; their full-context normal forms are void
    and (integrate void), which are distinct and never rejoin."""
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
