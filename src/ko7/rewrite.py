"""Step relations of the KO7 kernel.

Four relations are exposed, each as an enumerator of all one-step
successors of a term:

  root_steps_full  - the 8 unguarded kernel rules at the root
  root_steps_safe  - the guarded subrelation at the root
  ctx_steps_safe   - safe steps closed under integrate/merge/app/rec
                     positions only (never under delta or eqw)
  ctx_steps_full   - full steps at every position

Guards of the safe relation:

  merge void t   -> t   requires delta_flag(t) = 0   (likewise t void)
  merge t t      -> t   requires kappa_m(t) empty
  rec b s void   -> b   requires delta_flag(b) = 0
  rec b s (delta n) -> app s (rec b s n)   unguarded
  integrate (delta t) -> void              unguarded
  eqw a a        -> void                  requires kappa_m(a) empty
  eqw a b        -> integrate (merge a b)  requires a != b

In the full relation the eqw rules overlap on eqw a a and the merge-void
rules carry no flag condition.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .terms import Position, Term, VOID, _node, replace_at, term_to_json


class RuleId(enum.Enum):
    # declaration order is the canonical rule order used to sort witnesses
    MERGE_VOID_LEFT = "merge_void_left"
    MERGE_VOID_RIGHT = "merge_void_right"
    MERGE_CANCEL = "merge_cancel"
    REC_ZERO = "rec_zero"
    REC_SUCC = "rec_succ"
    INT_DELTA = "int_delta"
    EQ_REFL = "eq_refl"
    EQ_DIFF = "eq_diff"

    @property
    def index(self) -> int:
        return _RULE_INDEX[self]


_RULE_INDEX = {r: i for i, r in enumerate(RuleId)}


class RelationKind(enum.Enum):
    FULL_ROOT = "full-root"
    SAFE_ROOT = "safe-root"
    SAFE_CTX = "safe-ctx"
    FULL_CTX = "full-ctx"


@dataclass(frozen=True)
class StepWitness:
    """One rewrite event: result = replace_at(source, position, rhs)."""

    rule: RuleId
    position: Position
    source: Term
    result: Term

    def to_json(self) -> dict:
        return {
            "rule": self.rule.value,
            "pos": list(self.position),
            "from": term_to_json(self.source),
            "to": term_to_json(self.result),
        }


def delta_flag(t: Term) -> int:
    """1 iff the root is rec with a delta-rooted third child, else 0."""
    return int(t.kind == "rec" and t.children[2].kind == "delta")


def _root_rewrites(t: Term, safe: bool) -> list[tuple[RuleId, Term]]:
    out: list[tuple[RuleId, Term]] = []
    if t.kind == "merge":
        left, right = t.children
        if left == VOID and (not safe or delta_flag(right) == 0):
            out.append((RuleId.MERGE_VOID_LEFT, right))
        if right == VOID and (not safe or delta_flag(left) == 0):
            out.append((RuleId.MERGE_VOID_RIGHT, left))
        if left == right and (not safe or not left.rec_taus):  # kappa_m(left) empty
            out.append((RuleId.MERGE_CANCEL, left))
    elif t.kind == "rec":
        base, step, arg = t.children
        if arg == VOID and (not safe or delta_flag(base) == 0):
            out.append((RuleId.REC_ZERO, base))
        elif arg.kind == "delta":
            inner = _node("rec", (base, step, arg.children[0]))
            out.append((RuleId.REC_SUCC, _node("app", (step, inner))))
    elif t.kind == "integrate":
        if t.children[0].kind == "delta":
            out.append((RuleId.INT_DELTA, VOID))
    elif t.kind == "eqw":
        left, right = t.children
        same = left == right
        if same and (not safe or not left.rec_taus):
            out.append((RuleId.EQ_REFL, VOID))
        if not (same and safe):
            both = _node("merge", (left, right))
            out.append((RuleId.EQ_DIFF, _node("integrate", (both,))))
    return out


def root_steps_full(t: Term) -> list[StepWitness]:
    """All unguarded rule instances at the root."""
    return [StepWitness(r, (), t, u) for r, u in _root_rewrites(t, safe=False)]


def root_steps_safe(t: Term) -> list[StepWitness]:
    """All guarded rule instances at the root."""
    return [StepWitness(r, (), t, u) for r, u in _root_rewrites(t, safe=True)]


# context closure of the safe relation descends these signatures only
_SAFE_CTX_KINDS = frozenset({"integrate", "merge", "app", "rec"})
# the only constructors with a root rule
_REDEX_KINDS = frozenset({"merge", "rec", "integrate", "eqw"})
# child indices by arity, last first, so that the stack pops them in order
_REVERSED_INDICES = {n: range(n - 1, -1, -1) for n in (1, 2, 3)}


def _redexes(stack: list, path: list[int], safe: bool) -> Iterator[list[tuple[RuleId, Term]]]:
    """The pre-order redex walk: pops (depth, index in parent, node) off
    `stack`, keeps `path` at the popped node's position, and yields the
    root rewrites of each redex.  Children are pushed before the yield, so
    the pending entries deeper than len(path) are then exactly the redex's
    children.  The safe relation descends only below _SAFE_CTX_KINDS."""
    while stack:
        depth, index, node = stack.pop()
        if depth:
            del path[depth - 1 :]
            path.append(index)
        kind = node.kind
        kids = node.children
        if kids and (not safe or kind in _SAFE_CTX_KINDS):
            for i in _REVERSED_INDICES[len(kids)]:
                stack.append((depth + 1, i, kids[i]))
        if kind in _REDEX_KINDS:
            rewrites = _root_rewrites(node, safe)
            if rewrites:
                yield rewrites


def _ctx_steps(t: Term, safe: bool) -> list[StepWitness]:
    """Every context step of t in (position, rule) order, each rebuilt from
    the root by one replace_at; the safe root rules apply at every node the
    safe walk reaches."""
    path: list[int] = []
    out: list[StepWitness] = []
    for rewrites in _redexes([(0, 0, t)], path, safe):
        position = tuple(path)
        for rule, rhs in rewrites:
            out.append(StepWitness(rule, position, t, replace_at(t, position, rhs)))
    return out


def ctx_steps_safe(t: Term) -> list[StepWitness]:
    """Safe steps under the partial context closure (no delta, no eqw)."""
    return _ctx_steps(t, safe=True)


def ctx_steps_full(t: Term) -> list[StepWitness]:
    """Full steps at every position, closed under all constructors."""
    return _ctx_steps(t, safe=False)


def _full_steps(t: Term) -> Iterator[StepWitness]:
    """The successive first full-context steps from t: each witness is
    ctx_steps_full(previous result)[0], and one _redexes walk resumes where
    it stopped instead of restarting at the root.

    A rewrite at position p rebuilds only p's ancestors; every other node
    before p in pre-order lies in a left-sibling subtree that is the same
    object, already walked and free of redexes.  So the next first redex is
    the topmost rebuilt ancestor with a root rewrite or, failing that, the
    first one found walking on from the new subterm at p and then through
    the pending right siblings, which keep their positions.  The pending
    entries deeper than the position that fired last lie inside its old
    subterm; the walk is pre-order, so they are the top of the stack."""
    path: list[int] = []  # position of the node being visited
    stack = [(0, 0, t)]  # (depth, index in parent, node), next on top
    for rewrites in _redexes(stack, path, False):
        while rewrites:
            rule, rhs = rewrites[0]
            position = tuple(path)
            result = replace_at(t, position, rhs)
            yield StepWitness(rule, position, t, result)
            t = node = result
            rewrites = None
            for depth, index in enumerate(path):  # the rebuilt ancestors, top-down
                if node.kind in _REDEX_KINDS:
                    rewrites = _root_rewrites(node, False)
                    if rewrites:
                        del path[depth:]
                        break
                node = node.children[index]
        # drop the old subterm's pending entries, walk on from the new one
        depth = len(path)
        while stack and stack[-1][0] > depth:
            stack.pop()
        stack.append((depth, path[-1] if path else 0, node))


_STEP_FUNCTIONS = {
    RelationKind.FULL_ROOT: root_steps_full,
    RelationKind.SAFE_ROOT: root_steps_safe,
    RelationKind.SAFE_CTX: ctx_steps_safe,
    RelationKind.FULL_CTX: ctx_steps_full,
}


def steps(t: Term, relation: RelationKind) -> list[StepWitness]:
    """One-step successors of t under the chosen relation."""
    return _STEP_FUNCTIONS[relation](t)
