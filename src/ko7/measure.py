"""The triple-lexicographic termination certificate for the safe relation.

measure3(t) = (delta_flag(t), kappa_m(t), tau(t)), compared by

    Lex( < on {0,1},  Dershowitz-Manna on multisets of naturals,  < on nat ).

tau is a weighted node count (eqw nodes weigh 3, everything else 1): the
minimal weighting that strictly orients the eqw-diff rule, whose right-hand
side has one more node than its left.  kappa_m collects the tau values of
all rec-rooted subterm occurrences, which hands rec-zero a strict
sub-multiset drop.  Every guarded root step strictly decreases the triple;
`decrease_sweep` checks this exhaustively and accounts for which component
decided each rule instance.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from .rewrite import StepWitness, _root_rewrites, delta_flag
from .terms import Term, enumerate_terms, json_value
from .workers import run_sweep

NatMultiset = Counter  # element -> multiplicity, multiplicities >= 1


def tau(t: Term) -> int:
    """Weighted node count: eqw weighs 3, all other constructors 1
    (cached on the node)."""
    return t.tau


def kappa_m(t: Term) -> NatMultiset:
    """Multiset of tau values of the rec-rooted subterm occurrences of t
    (a fresh Counter over the node's cached tuple of them)."""
    return Counter(t.rec_taus)


def _descending(m: NatMultiset) -> tuple[int, ...]:
    return tuple(sorted(m.elements(), reverse=True))


def dm_less(x: NatMultiset, y: NatMultiset) -> bool:
    """Strict Dershowitz-Manna order: x is obtained from y by removing a
    nonempty multiset Z and adding elements each strictly below some
    element of Z.  On naturals, whose order is total, this is the
    lexicographic order of the elements sorted descending, a proper
    prefix being the smaller (Dershowitz & Manna 1979)."""
    return _descending(x) < _descending(y)


class Measure3(NamedTuple):
    """(dflag, kappa_m, tau), kappa_m held as its elements sorted
    descending.  Tuple `<` on two measures is then exactly the
    triple-lexicographic order of `lex3_less` (see `dm_less`)."""

    dflag: int
    kappa_desc: tuple[int, ...]
    tau: int

    def to_json(self) -> list:
        return [self.dflag, json_value(self.kappa_desc[::-1]), self.tau]

    def _kappa_text(self) -> str:
        """The multiset as `{a, b, ...}`, elements ascending."""
        return "{" + ", ".join(str(v) for v in reversed(self.kappa_desc)) + "}"

    def __str__(self):
        return f"({self.dflag}, {self._kappa_text()}, {self.tau})"


def measure3(t: Term) -> Measure3:
    # tuple.__new__ skips the generated __new__'s argument binding
    return tuple.__new__(Measure3, (delta_flag(t), tuple(sorted(t.rec_taus, reverse=True)), t.tau))


def lex3_less(a: Measure3, b: Measure3) -> bool:
    return a < b


def deciding_component(after: Measure3, before: Measure3) -> str | None:
    """Which component makes after < before, or None if no strict drop."""
    if after.dflag != before.dflag:
        return "dflag" if after.dflag < before.dflag else None
    if after.kappa_desc != before.kappa_desc:
        return "kappaM" if after.kappa_desc < before.kappa_desc else None
    return "tau" if after.tau < before.tau else None


class DecreaseReport(NamedTuple):
    max_size: int
    violations: tuple[StepWitness, ...] = ()
    decisions: Counter = Counter()  # (rule, component) -> instances

    @property
    def checked(self) -> int:
        return len(self.violations) + sum(self.decisions.values())

    @property
    def decided_by(self) -> Counter:
        """Instances per deciding component."""
        counts: Counter = Counter()
        for (_, component), n in self.decisions.items():
            counts[component] += n
        return counts

    @property
    def by_rule(self) -> dict[str, Counter]:
        """Instances per deciding component, per rule."""
        counts: dict[str, Counter] = {}
        for (rule, component), n in self.decisions.items():
            counts.setdefault(rule, Counter())[component] = n
        return counts

    @property
    def ok(self) -> bool:
        # with no instance every step decreases vacuously
        return self.checked >= 1 and not self.violations

    def to_json(self) -> dict:
        decided_by = self.decided_by
        return {
            "maxSize": self.max_size,
            "checked": self.checked,
            "violations": json_value(self.violations),
            "decidedBy": {c: decided_by[c] for c in ("dflag", "kappaM", "tau")},
            "byRule": {rule: dict(c) for rule, c in sorted(self.by_rule.items())},
        }


def _decrease_chunk(max_size: int, lo: int, hi: int) -> DecreaseReport:
    """Each guarded root rewrite of each term in the slice; a StepWitness
    is built only for a violation."""
    violations = []
    decisions: Counter = Counter()
    for t in enumerate_terms(max_size, lo, hi):
        rewrites = _root_rewrites(t, True)
        if not rewrites:
            continue
        before = measure3(t)
        for rule, result in rewrites:
            component = deciding_component(measure3(result), before)
            if component is None:
                violations.append(StepWitness(rule, (), t, result))
            else:
                decisions[rule.value, component] += 1
    return DecreaseReport(max_size, tuple(violations), decisions)


def decrease_sweep(max_size: int, workers: int = 1) -> DecreaseReport:
    """Check that every guarded root step on every term of size <= max_size
    strictly decreases measure3, recording the deciding component per rule."""
    return run_sweep(_decrease_chunk, max_size, workers)
