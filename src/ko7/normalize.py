"""Normalization for the guarded root relation, plus a fueled reducer for
the full relation and the fixed-target reachability decider.

normalize_safe always terminates: measure3 strictly decreases on every
guarded root step (a well-founded order), and the decrease is re-asserted
at runtime on every step of every run.  The full relation carries no
termination claim, so normalize_full takes a fuel budget.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .measure import Measure3, measure3
from .rewrite import StepWitness, _full_steps, root_steps_safe
from .terms import Term, TermError, _collector_paused, fields_json

DEFAULT_FUEL = 10_000


class MeasureInvariantError(RuntimeError):
    """A guarded step failed to decrease the measure: a bug in the guards
    or the measure, never an expected outcome."""

    def __init__(self, witness: StepWitness, before: Measure3, after: Measure3):
        super().__init__(
            f"measure did not decrease on {witness.rule.value}: {before} -> {after}"
        )
        self.witness = witness


class TargetNotNormalError(TermError):
    """Reachability target is not a normal form of the guarded relation."""


class TraceStep(NamedTuple):
    witness: StepWitness
    before: Measure3
    after: Measure3

    to_json = fields_json


class Trace(NamedTuple):
    source: Term
    steps: tuple[TraceStep, ...]
    normal_form: Term

    to_json = fields_json


class FullRunResult(NamedTuple):
    """Outcome of a fueled run under the full context relation."""

    normalized: bool
    term: Term  # the normal form, or the last term reached when fuel ran out
    steps: tuple[StepWitness, ...]

    @property
    def steps_taken(self) -> int:
        return len(self.steps)

    to_json = fields_json


def normalize_safe(t: Term) -> Trace:
    """Reduce t to a guarded-root normal form, taking the first witness in
    the fixed (position, rule) order at each step.  Asserts the measure
    decrease on every step and records both measures."""
    steps: list[TraceStep] = []
    current = t
    before = measure3(t)
    while True:
        witnesses = root_steps_safe(current)
        if not witnesses:
            return Trace(t, tuple(steps), current)
        w = witnesses[0]
        after = measure3(w.result)
        if not after < before:
            raise MeasureInvariantError(w, before, after)
        steps.append(TraceStep(w, before, after))
        current = w.result
        before = after


def normalize_full(t: Term, fuel: int = DEFAULT_FUEL) -> FullRunResult:
    """Apply the first full-context step up to `fuel` times.  The first
    step is the first redex in (pre-order position, rule) order: the
    witness ctx_steps_full would list first, found without building the
    others.  The redex walk resumes after each step where it stopped,
    re-checking only the rebuilt ancestors, so no node is walked twice
    except along the rewritten spine.  Each step's result is still a whole
    term rebuilt from the root, so a run costs O(steps x depth) node
    constructions (a delta-chain of length n, O(n^2)), not linear time.
    The walk runs with the cyclic collector paused: the terms it builds
    form no cycles (see `terms._collector_paused`)."""
    if fuel < 0:
        raise ValueError("fuel must be >= 0")
    with _collector_paused():
        walk = _full_steps(t)
        steps = tuple(islice(walk, fuel))
        normalized = next(walk, None) is None
    return FullRunResult(normalized, steps[-1].result if steps else t, steps)


def reaches_target(t: Term, target: Term) -> bool:
    """Decide whether t reduces to `target` under the guarded root
    relation.  The target must itself be a normal form; with unique normal
    forms this is one normalization plus an equality check."""
    witnesses = root_steps_safe(target)
    if witnesses:
        raise TargetNotNormalError(
            "target is not a normal form of the guarded relation: "
            f"{witnesses[0].rule.value} applies at its root"
        )
    return normalize_safe(t).normal_form == target
