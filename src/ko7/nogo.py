"""Executable catalog of failed termination-method families.

Twelve measure families that cannot orient the unguarded kernel, a hunter
that finds a concrete non-decreasing rule instance for each, the size
identity satisfied by the duplicating recursor rule, exhaustive searches
over linear polynomial interpretations and symbol-weight sums, and a
lexicographic-path-order demonstration marking where external subterm
reasoning takes over from internally computable measures.

The duplication mechanism behind most failures: rec_succ rewrites
rec b s (delta n) to app s (rec b s n), so the step operand s lands twice
on the right-hand side and any additive account of s gains a copy.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .measure import measure3
from .rewrite import (
    RelationKind,
    RuleId,
    StepWitness,
    delta_flag,
    root_steps_full,
    steps,
)
from .terms import (
    ARITY,
    KIND_INDEX,
    KINDS,
    Term,
    VOID,
    delta,
    enumerate_terms,
    fields_json,
    json_value,
    merge,
    rec,
    size,
    subterms,
)


def kappa_depth(t: Term) -> int:
    """Delta-nesting depth: only delta increments, every other constructor
    takes the maximum over its children.  It recurses on t, which ko7
    passes only from enumerated terms, their rule instances and pumped
    step operands, whose depth --max-size or the pump cap of 64 bounds."""
    if t.kind == "void":
        return 0
    if t.kind == "delta":
        return 1 + kappa_depth(t.children[0])
    return max(kappa_depth(c) for c in t.children)


def tree_depth(t: Term) -> int:
    """Maximum tree depth.  It recurses on t, bounded as in kappa_depth."""
    if not t.children:
        return 1
    return 1 + max(tree_depth(c) for c in t.children)


def _proper_submultiset(x: tuple[int, ...], y: tuple[int, ...]) -> bool:
    # sorted tuples, so equal exactly when equal as multisets
    return not (Counter(x) - Counter(y)) and x != y


class MeasureFamily(NamedTuple):
    """A candidate termination measure: valuation plus strict order, and
    the rules whose instances its hunt prefers."""

    name: str
    valuation: Callable[[Term], Any]
    less: Callable[[Any, Any], bool] = operator.lt
    focus: tuple[RuleId, ...] = ()


class LinearInterpretation(NamedTuple):
    """M(K(t1..tn)) = const_K + sum coef_K,i * M(ti), coefficients >= 1."""

    coefs: tuple[tuple[int, ...], ...]  # per kind, in KINDS order
    consts: tuple[int, ...]

    def value(self, t: Term) -> int:
        """M(t).  It recurses on t, bounded as in kappa_depth."""
        i = KIND_INDEX[t.kind]
        return self.consts[i] + sum(
            c * self.value(ch) for c, ch in zip(self.coefs[i], t.children)
        )

    def to_json(self) -> dict:
        return {
            kind: {"coefs": json_value(self.coefs[i]), "const": self.consts[i]}
            for i, kind in enumerate(KINDS)
        }


# Representative linear interpretation for the polynomial family: orients
# the seven non-duplicating rules and loses on every rec_succ instance.
_POLY_INTERPRETATION = LinearInterpretation(
    coefs=((), (1,), (1,), (1, 1), (1, 1), (1, 1, 1), (1, 1)),
    consts=(1, 0, 1, 1, 0, 1, 3),
)


# Symbol weights (Knuth-Bendix) are the linear interpretations whose child
# coefficients are all 1: a term's value is the sum of its symbols' weights.
_UNIT_COEFS = tuple((1,) * ARITY[kind] for kind in KINDS)

# Representative symbol weights: heavy delta and eqw keep the seven
# non-duplicating rules oriented; the duplicated step operand still wins.
_KBO_INTERPRETATION = LinearInterpretation(_UNIT_COEFS, consts=(1, 3, 1, 1, 1, 1, 4))


def catalog() -> list[MeasureFamily]:
    """The twelve executable failed families, in catalog order."""
    return [
        # delta-nesting depth plus a fixed constant (any k; ties are
        # constant-invariant)
        MeasureFamily("additive-kappa", kappa_depth, focus=(RuleId.REC_SUCC,)),
        # lexicographic pair (delta-nesting depth, node count)
        MeasureFamily(
            "lex-kappa-size",
            lambda t: (kappa_depth(t), size(t)),
            focus=(RuleId.REC_SUCC,),
        ),
        # representative linear interpretation (see poly_search for the
        # exhaustive sweep)
        MeasureFamily(
            "linear-poly", _POLY_INTERPRETATION.value, focus=(RuleId.REC_SUCC,)
        ),
        # the single-bit root-shape detector on its own
        MeasureFamily(
            "delta-flag",
            delta_flag,
            focus=(RuleId.MERGE_VOID_LEFT, RuleId.MERGE_VOID_RIGHT),
        ),
        # node count as a plain ordinal
        MeasureFamily("size", size),
        # delta-nesting depth on its own
        MeasureFamily("kappa-depth", kappa_depth, focus=(RuleId.MERGE_CANCEL,)),
        # multiset of all subterm sizes under proper sub-multiset order (no
        # replace-by-smaller clause)
        MeasureFamily(
            "naive-multiset",
            lambda t: tuple(sorted(size(u) for u in subterms(t))),
            _proper_submultiset,
            focus=(RuleId.REC_SUCC,),
        ),
        # lexicographic pair (delta flag, node count)
        MeasureFamily("hybrid-flag-size", lambda t: (delta_flag(t), size(t))),
        # node count probed on the unguarded duplicating rule itself
        MeasureFamily("raw-recursion", size, focus=(RuleId.REC_SUCC,)),
        # head-constructor rank under a fixed total precedence, with no
        # subterm clause
        MeasureFamily(
            "precedence-rank",
            lambda t: KIND_INDEX[t.kind],
            focus=(RuleId.MERGE_CANCEL,),
        ),
        # representative linear symbol-weight sum (see kbo_search for the
        # exhaustive sweep)
        MeasureFamily(
            "kbo-weight", _KBO_INTERPRETATION.value, focus=(RuleId.REC_SUCC,)
        ),
        # maximum tree depth (every constructor increments)
        MeasureFamily("tree-depth", tree_depth, focus=(RuleId.REC_SUCC,)),
    ]


def catalog_family(name: str) -> MeasureFamily:
    return {family.name: family for family in catalog()}[name]


def canonical_family() -> MeasureFamily:
    """The shipped triple-lex certificate wrapped as a family, for running
    through the same hunter as the failures: the certified lexicographic
    stack (flag, rec multiset, weighted count)."""
    return MeasureFamily("canonical-triple", measure3)


class CounterexampleReport(NamedTuple):
    family: str
    witness: StepWitness
    value_before: Any
    value_after: Any
    verdict: str  # "increase" | "no-strict-drop"

    def to_json(self) -> dict:
        return {
            **json_value(self.witness),
            "family": self.family,
            "before": json_value(self.value_before),
            "after": json_value(self.value_after),
            "verdict": self.verdict,
        }


class HuntReport(NamedTuple):
    family: str
    relation: str
    max_size: int
    scanned: int
    counterexample: Optional[CounterexampleReport]

    @property
    def found(self) -> bool:
        return self.counterexample is not None

    to_json = fields_json


def _no_drop_report(
    family: MeasureFamily, w: StepWitness
) -> Optional[CounterexampleReport]:
    before = family.valuation(w.source)
    after = family.valuation(w.result)
    if family.less(after, before):
        return None
    verdict = "increase" if family.less(before, after) else "no-strict-drop"
    return CounterexampleReport(family.name, w, before, after, verdict)


def iter_witnesses(
    relation: RelationKind, max_size: int
) -> Iterator[StepWitness]:
    for t in enumerate_terms(max_size):
        yield from steps(t, relation)


def find_violation(
    family: MeasureFamily,
    relation: RelationKind = RelationKind.FULL_ROOT,
    max_size: int = 7,
) -> HuntReport:
    """Scan all rule instances up to max_size for one where the family's
    order fails to drop strictly.

    When the family carries focus rules (the rules its failure story
    targets), the first non-dropping focused instance is preferred; a
    non-dropping instance of any other rule is kept as fallback.
    """
    scanned = 0
    fallback: Optional[CounterexampleReport] = None
    for w in iter_witnesses(relation, max_size):
        scanned += 1
        report = _no_drop_report(family, w)
        if report is None:
            continue
        if not family.focus or w.rule in family.focus:
            return HuntReport(family.name, relation.value, max_size, scanned, report)
        if fallback is None:
            fallback = report
    return HuntReport(family.name, relation.value, max_size, scanned, fallback)


class CatalogReport(NamedTuple):
    """Every catalog family's hunt on the full root relation, and the
    certificate's on the guarded one: ok when every family fails and the
    certificate does not."""

    families: tuple[HuntReport, ...]
    canonical: HuntReport

    @property
    def ok(self) -> bool:
        return all(h.found for h in self.families) and not self.canonical.found

    to_json = fields_json


def catalog_report(max_size: int) -> CatalogReport:
    """Hunt every catalog family, and the certificate, up to max_size."""
    families = tuple(find_violation(f, max_size=max_size) for f in catalog())
    canonical = find_violation(canonical_family(), RelationKind.SAFE_ROOT, max_size)
    return CatalogReport(families, canonical)


# ---------------------------------------------------------------------------
# Duplication stress identity for the additive node count.


class StressReport(NamedTuple):
    max_size: int
    instances: int = 0
    fitted_offset: Optional[int] = None
    failures: tuple[StepWitness, ...] = ()
    strict_drops: int = 0
    min_growth: Optional[int] = None

    @property
    def ok(self) -> bool:
        return self.instances > 0 and not self.failures

    @property
    def identity(self) -> Optional[str]:
        """The fitted identity, or None with no rec_succ instance to fit."""
        if self.fitted_offset is None:
            return None
        return f"size(result) = size(source) + size(step) + {self.fitted_offset}"

    def to_json(self) -> dict:
        return fields_json(self, identity=self.identity)


def duplication_stress(max_size: int = 7) -> StressReport:
    """Fit and verify the size identity of the duplicating rule.

    The offset is fitted from the scan rather than assumed: for node count
    the growth equals the step operand's size exactly, so no rec_succ
    instance ever drops."""
    instances = strict_drops = 0
    fitted_offset = min_growth = None
    failures = []
    for w in iter_witnesses(RelationKind.FULL_ROOT, max_size):
        if w.rule is not RuleId.REC_SUCC:
            continue
        instances += 1
        step_size = size(w.source.children[1])
        diff = size(w.result) - size(w.source)
        offset = diff - step_size
        if fitted_offset is None:
            fitted_offset = offset
        elif offset != fitted_offset:
            failures.append(w)
        if diff < 0:
            strict_drops += 1
        min_growth = diff if min_growth is None else min(min_growth, diff)
    return StressReport(max_size, instances, fitted_offset, tuple(failures), strict_drops, min_growth)


# ---------------------------------------------------------------------------
# Lexicographic path order over the seven-symbol signature.

Precedence = dict[str, int]  # kind -> rank, higher is greater


def lpo_greater(a: Term, b: Term, prec: Precedence) -> bool:
    """Standard LPO: subterm clause, precedence clause, and same-head
    lexicographic clause.  It recurses on a and b, which ko7 passes only
    from rule instances of enumerated terms, whose depth --max-size
    bounds."""
    if a == b:
        return False
    if any(c == b or lpo_greater(c, b, prec) for c in a.children):
        return True
    ra, rb = prec[a.kind], prec[b.kind]
    if ra > rb:
        return all(lpo_greater(a, c, prec) for c in b.children)
    if ra < rb:
        return False
    # same head constructor: first differing child must dominate
    for x, y in zip(a.children, b.children):
        if x == y:
            continue
        if not lpo_greater(x, y, prec):
            return False
        return all(lpo_greater(a, c, prec) for c in b.children)
    return False


def orients_all(prec: Precedence, instances: list[tuple[Term, Term]]) -> bool:
    return all(lpo_greater(lhs, rhs, prec) for lhs, rhs in instances)


def _orienting_orders(
    instances: list[tuple[Term, Term]]
) -> Iterator[tuple[tuple[str, ...], bool]]:
    """Yield (order, orients) for every total order of the seven
    constructors (least to greatest, in permutation order), where `orients`
    says whether LPO under that precedence orients every instance.

    lpo_greater reads only the ranks of the constructors occurring in its
    two terms.  So the instances are grouped by that constructor set, and a
    group's verdict is computed once per order of the set: the order
    restricted to the set is the cache key, and it names the group too."""
    groups: dict[frozenset[str], list[tuple[Term, Term]]] = {}
    for lhs, rhs in instances:
        kinds = frozenset(u.kind for t in (lhs, rhs) for u in subterms(t))
        groups.setdefault(kinds, []).append((lhs, rhs))
    verdicts: dict[tuple[str, ...], bool] = {}
    for order in itertools.permutations(KINDS):
        orients = True
        for kinds, members in groups.items():
            key = tuple(kind for kind in order if kind in kinds)
            if key not in verdicts:
                prec = {kind: rank for rank, kind in enumerate(key)}
                verdicts[key] = orients_all(prec, members)
            if not verdicts[key]:
                orients = False
                break
        yield order, orients


class LpoReport(NamedTuple):
    """The external-boundary demonstration: full LPO (with its universal
    subterm clause) orients the kernel, while head precedence alone has a
    concrete counterexample."""

    precedence: tuple[str, ...]  # least to greatest; () when none orients
    orienting_precedences: int
    precedences_checked: int
    instances_checked: int
    rank_only_counterexample: HuntReport

    @property
    def ok(self) -> bool:
        # with no instance every precedence orients vacuously
        return (
            self.instances_checked >= 1
            and self.orienting_precedences >= 1
            and self.rank_only_counterexample.found
        )

    to_json = fields_json


_RANK_HUNT_SIZE = 7


def lpo_boundary_report(max_size: int = 5) -> LpoReport:
    """LPO under every precedence on the full root instances up to
    `max_size`, and the precedence-rank hunt up to `_RANK_HUNT_SIZE`."""
    instances = [(w.source, w.result) for w in iter_witnesses(RelationKind.FULL_ROOT, max_size)]
    verdicts = list(_orienting_orders(instances))
    orienting = [order for order, orients in verdicts if orients]
    rank_only = find_violation(
        catalog_family("precedence-rank"), RelationKind.FULL_ROOT, _RANK_HUNT_SIZE
    )
    first = orienting[0] if orienting else ()
    return LpoReport(first, len(orienting), len(verdicts), len(instances), rank_only)


# ---------------------------------------------------------------------------
# Exhaustive searches over interpretation families.


# The most step operands _pump_step_operand tries before it gives up.
_PUMP_CAP = 64


def _pump_step_operand(interp: LinearInterpretation) -> tuple[Term, int, int]:
    """A step operand s on which `interp` fails to drop strictly on the
    rec_succ instance rec void s (delta void) -> app s (rec void s void),
    with the values of both sides.

    s is pumped to merge s s until the duplicated copy overtakes the
    left-hand side.  The values follow in closed form from the constants
    and coefficients, so no instance is built or walked."""
    c_void, c_delta, _, c_merge, c_app, c_rec, _ = interp.consts  # KINDS order
    _, (d1,), _, (m1, m2), (a1, a2), (r1, r2, r3), _ = interp.coefs
    s, value = VOID, c_void
    if c_void == 0:
        # seed a positive value if any constructor constant allows one
        for kind, const in zip(KINDS, interp.consts):
            if kind != "void" and const > 0:
                s, value = Term(kind, (VOID,) * ARITY[kind]), const
                break
    rec_void = c_rec + r1 * c_void  # rec void _ _, less its step and argument terms
    for _ in range(_PUMP_CAP):
        before = rec_void + r2 * value + r3 * (c_delta + d1 * c_void)
        after = c_app + a1 * value + a2 * (rec_void + r2 * value + r3 * c_void)
        if before <= after:
            return s, before, after
        s, value = merge(s, s), c_merge + (m1 + m2) * value
    raise RuntimeError("failed to construct a non-dropping rec_succ instance")


def _linear_space_size(bound: int) -> int:
    total = 1
    for kind in KINDS:
        total *= bound ** ARITY[kind] * (bound + 1)
    return total


def _sample_interpretations(bound: int, count: int) -> list[LinearInterpretation]:
    """Deterministic spread over the parameter grid: per-slot strides by
    distinct primes, plus the all-min and all-max corners."""
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
    coef_values = list(range(1, bound + 1))
    const_values = list(range(bound + 1))
    samples = []

    def build(pick: Callable[[int, list[int]], int]) -> LinearInterpretation:
        slot = itertools.count()
        coefs = tuple(
            tuple(pick(next(slot), coef_values) for _ in range(ARITY[kind]))
            for kind in KINDS
        )
        consts = tuple(pick(next(slot), const_values) for _ in KINDS)
        return LinearInterpretation(coefs, consts)

    samples.append(build(lambda i, vals: vals[0]))
    samples.append(build(lambda i, vals: vals[-1]))
    for j in range(2, count):
        samples.append(build(lambda i, vals, j=j: vals[(j * primes[i % len(primes)]) % len(vals)]))
    return samples


# An interpretation that strictly orients every unguarded root instance up
# to size 6 yet still fails on taller step operands: evidence that the
# bounded instance scan alone cannot deliver the orientation verdict.
SCAN_RESISTANT_INTERPRETATION = LinearInterpretation(
    coefs=((), (1,), (1,), (1, 1), (1, 1), (1, 1, 3), (1, 1)),
    consts=(0, 1, 1, 1, 0, 1, 3),
)


class ScanResistance(NamedTuple):
    """Whether the size-6 scan refutes the interpretation; pumping does."""

    interpretation: LinearInterpretation
    violation_within_size6: bool
    example: Optional[CounterexampleReport]

    to_json = fields_json


class PolyReport(NamedTuple):
    coef_bound: int
    space_size: int
    orienting_assignments: int
    step_combos_checked: int
    min_step_excess: int
    samples_confirmed: int
    example: Optional[CounterexampleReport]
    scan_resistant: ScanResistance

    @property
    def ok(self) -> bool:
        return (
            self.orienting_assignments == 0
            and self.min_step_excess >= 1
            and self.scan_resistant.example is not None
        )

    to_json = fields_json


def _rec_succ_example(
    name: str, interp: LinearInterpretation, s: Term
) -> Optional[CounterexampleReport]:
    """The rec_succ instance on step operand s as a counterexample, or None
    when its value strictly drops (the candidate orients the instance)."""
    witness = root_steps_full(rec(VOID, s, delta(VOID)))[0]
    return _no_drop_report(MeasureFamily(name, interp.value), witness)


def _pump_candidates(
    name: str, candidates: Iterable[LinearInterpretation]
) -> tuple[int, int, Optional[CounterexampleReport]]:
    """(candidates checked, candidates whose pumped instance strictly drops,
    the first other candidate's instance as a counterexample).  Only that
    one instance is built."""
    checked = 0
    orienting = 0
    example: Optional[CounterexampleReport] = None
    for interp in candidates:
        checked += 1
        s, before, after = _pump_step_operand(interp)
        if after < before:
            orienting += 1
        elif example is None:
            example = _rec_succ_example(name, interp, s)
    return checked, orienting, example


_POLY_SAMPLES = 64


def poly_search(coef_bound: int = 3) -> PolyReport:
    """No linear interpretation with child coefficients in 1..coef_bound
    and constants in 0..coef_bound orients the kernel.

    The verdict is exact over the whole space: on the duplicating rule the
    right-hand side carries the step operand with coefficient a1 + a2*r2
    against r2 on the left (app coefficients a1, a2; rec step coefficient
    r2), a strict excess for every choice, so a tall enough step operand
    defeats any assignment.  The excess is checked for every (r2, a1, a2)
    combination, and for a deterministic sample of 64 full assignments the
    step operand is pumped on values, in closed form, until the instance
    fails to drop; a sampled assignment whose pumped instance strictly
    drops counts as orienting.
    """
    if coef_bound < 1:
        raise ValueError("coef_bound must be >= 1")
    combos = list(itertools.product(range(1, coef_bound + 1), repeat=3))
    min_excess = min((a1 + a2 * r2) - r2 for r2, a1, a2 in combos)

    samples = _sample_interpretations(coef_bound, _POLY_SAMPLES)
    checked, orienting, example = _pump_candidates("linear-poly", samples)
    resistant = SCAN_RESISTANT_INTERPRETATION
    return PolyReport(
        coef_bound,
        _linear_space_size(coef_bound),
        orienting,
        len(combos),
        min_excess,
        checked - orienting,
        example,
        ScanResistance(
            resistant,
            find_violation(MeasureFamily("linear-poly", resistant.value), max_size=6).found,
            _rec_succ_example("linear-poly", resistant, _pump_step_operand(resistant)[0]),
        ),
    )


class KboReport(NamedTuple):
    weight_bound: int
    assignments_checked: int
    orienting_assignments: int
    example: Optional[CounterexampleReport]

    @property
    def ok(self) -> bool:
        return self.orienting_assignments == 0

    to_json = fields_json


def kbo_search(weight_bound: int = 3) -> KboReport:
    """Exhaustive sweep over all symbol-weight vectors in 0..weight_bound:
    none makes total weight strictly drop on every rule instance, because
    the duplicated step operand adds its own full weight to the right-hand
    side of rec_succ.

    A weight vector is the linear interpretation with all-ones
    coefficients, so the step operand is pumped on values, in closed form,
    as in poly_search: the weight difference of the instance is
    w_app + W(s) - w_delta.  A vector whose pumped instance strictly drops
    counts as orienting."""
    if weight_bound < 1:
        raise ValueError("weight_bound must be >= 1")
    vectors = itertools.product(range(weight_bound + 1), repeat=len(KINDS))
    checked, orienting, example = _pump_candidates(
        "kbo-weight", (LinearInterpretation(_UNIT_COEFS, w) for w in vectors)
    )
    return KboReport(weight_bound, checked, orienting, example)
