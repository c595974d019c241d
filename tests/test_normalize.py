import gc

import pytest
from hypothesis import given, settings, strategies as st

import ko7.normalize
import ko7.rewrite
from ko7.measure import lex3_less, tau
from ko7.normalize import (
    FullRunResult,
    TargetNotNormalError,
    is_normal_form_safe,
    normalize_full,
    normalize_safe,
    reaches_target,
)
from ko7.rewrite import RuleId, ctx_steps_full, root_steps_safe
from ko7.terms import (
    ARITY,
    VOID,
    app,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    rec,
)


def reference_normalize_full(t, fuel):
    """Reference oracle: enumerate every full-context witness and take the
    first, `fuel` times."""
    steps = []
    current = t
    for _ in range(fuel):
        witnesses = ctx_steps_full(current)
        if not witnesses:
            return FullRunResult(True, current, tuple(steps))
        steps.append(witnesses[0])
        current = witnesses[0].result
    return FullRunResult(not ctx_steps_full(current), current, tuple(steps))


def delta_chain(n, step=VOID):
    """rec void step (delta^n void)."""
    arg = VOID
    for _ in range(n):
        arg = delta(arg)
    return rec(VOID, step, arg)


@st.composite
def sized_terms(draw, max_size=40):
    """A term with a drawn number of nodes, from 1 to max_size."""
    constructors = {
        "delta": delta, "integrate": integrate, "merge": merge, "app": app, "rec": rec, "eqw": eqw
    }

    def build(n):
        if n == 1:
            return VOID
        kind = draw(st.sampled_from([k for k in constructors if ARITY[k] <= n - 1]))
        arity = ARITY[kind]
        cuts = st.lists(st.integers(1, n - 2), min_size=arity - 1, max_size=arity - 1, unique=True)
        bounds = [0, *sorted(draw(cuts) if arity > 1 else ()), n - 1]
        return constructors[kind](*(build(hi - lo) for lo, hi in zip(bounds, bounds[1:])))

    return build(draw(st.integers(1, max_size)))


class TestNormalFormPredicate:
    def test_atom(self):
        assert is_normal_form_safe(VOID)

    def test_stuck_integrate(self):
        assert is_normal_form_safe(integrate(merge(VOID, VOID)))

    def test_eqw_refl_reducible(self):
        assert not is_normal_form_safe(eqw(VOID, VOID))


class TestNormalizeSafe:
    def test_integrate_delta(self):
        trace = normalize_safe(integrate(delta(VOID)))
        assert trace.final_term == VOID
        assert len(trace.steps) == 1
        assert trace.steps[0].witness.rule is RuleId.INT_DELTA

    def test_eq_diff_lands_on_normal_form(self):
        trace = normalize_safe(eqw(delta(VOID), VOID))
        assert trace.final_term == integrate(merge(delta(VOID), VOID))
        assert len(trace.steps) == 1

    def test_rec_succ_stops_at_app(self):
        trace = normalize_safe(rec(VOID, VOID, delta(VOID)))
        assert trace.final_term == app(VOID, rec(VOID, VOID, VOID))
        assert [s.witness.rule for s in trace.steps] == [RuleId.REC_SUCC]

    def test_trace_invariants(self):
        for t in enumerate_terms(6):
            trace = normalize_safe(t)
            assert trace.source == t
            current = t
            for step in trace.steps:
                assert step.witness.source == current
                assert lex3_less(step.after, step.before)
                current = step.witness.result
            assert current == trace.final_term
            assert is_normal_form_safe(trace.final_term)

    def test_step_count_bounded_by_tau(self):
        for t in enumerate_terms(6):
            assert len(normalize_safe(t).steps) <= tau(t)

    def test_trace_json_schema(self):
        payload = normalize_safe(eqw(VOID, VOID)).to_json()
        assert set(payload) == {"source", "steps", "normalForm"}
        assert set(payload["steps"][0]) == {"witness", "before", "after"}


class TestNormalizeFull:
    def test_inner_merge(self):
        run = normalize_full(integrate(merge(VOID, VOID)), fuel=10)
        assert run.normalized
        assert run.term == integrate(VOID)
        assert run.steps_taken == 1

    def test_zero_fuel_on_normal_form(self):
        run = normalize_full(VOID, fuel=0)
        assert run == FullRunResult(True, VOID, ())

    def test_eqw_strategy_picks_refl_first(self):
        run = normalize_full(eqw(VOID, VOID), fuel=10)
        assert run.normalized
        assert run.term == VOID

    def test_fuel_exhaustion(self):
        run = normalize_full(eqw(VOID, VOID), fuel=0)
        assert not run.normalized
        assert run.term == eqw(VOID, VOID)
        assert run.steps_taken == 0


    def test_matches_reference_on_small_terms(self):
        for t in enumerate_terms(7):
            assert normalize_full(t, fuel=30).to_json() == reference_normalize_full(
                t, 30
            ).to_json()

    def test_matches_reference_on_delta_chains(self):
        for n in range(41):
            t = delta_chain(n)
            assert normalize_full(t).to_json() == reference_normalize_full(
                t, 10_000
            ).to_json()

    # a rewrite below them turns these roots into redexes: the walk must
    # re-check the rebuilt ancestors before walking on.  Wrapped in a merge,
    # the ancestor that fires has a pending right sibling, which must stay.
    @pytest.mark.parametrize(
        "t",
        [
            rec(VOID, VOID, rec(delta(VOID), VOID, VOID)),
            merge(merge(VOID, VOID), integrate(delta(VOID))),
        ],
    )
    @pytest.mark.parametrize("wrap", ["bare", "merge"])
    def test_matches_reference_when_an_ancestor_becomes_a_redex(self, t, wrap):
        if wrap == "merge":
            t = merge(t, integrate(delta(VOID)))
        run = normalize_full(t)
        assert run == reference_normalize_full(t, 10_000)
        assert any(len(w.position) < len(v.position) for v, w in zip(run.steps, run.steps[1:]))

    # the lengths the benchmark batch draws from; in the merge the pending
    # right sibling is reached only after the whole chain has normalized
    @pytest.mark.parametrize("n", [50, 150, 300])
    @pytest.mark.parametrize("wrap", ["bare", "merge"])
    def test_matches_reference_on_long_delta_chains(self, n, wrap):
        t = delta_chain(n)
        if wrap == "merge":
            t = merge(t, integrate(delta(VOID)))
        run = normalize_full(t)
        assert run.normalized
        assert run == reference_normalize_full(t, 10_000)

    @settings(max_examples=200, deadline=None)
    @given(sized_terms())
    def test_matches_reference_on_random_terms(self, t):
        assert normalize_full(t, fuel=30) == reference_normalize_full(t, 30)

    def test_walk_resumes_instead_of_restarting(self, monkeypatch):
        # rec void (integrate void) delta^n void: each rec_succ step's redex
        # sits one level deeper, under one more app whose left child has a
        # root rule to try.  Restarting at the root costs about n^2/2 tries.
        n = 200
        calls = 0
        root_rewrites = ko7.rewrite._root_rewrites

        def counted(t, safe):
            nonlocal calls
            calls += 1
            return root_rewrites(t, safe)

        monkeypatch.setattr(ko7.rewrite, "_root_rewrites", counted)
        run = normalize_full(delta_chain(n, integrate(VOID)))
        assert run.normalized
        assert run.steps_taken == n + 1
        assert calls <= 2 * n + 2

    @pytest.mark.parametrize("fuel", [0, 1])
    def test_matches_reference_when_fuel_runs_out(self, fuel):
        for t in [eqw(VOID, delta(VOID)), delta_chain(3), merge(eqw(VOID, VOID), delta_chain(2))]:
            run = normalize_full(t, fuel=fuel)
            assert not run.normalized
            assert run.to_json() == reference_normalize_full(t, fuel).to_json()


class _WalkFailed(Exception):
    pass


class TestNormalizeFullCollector:
    def test_walks_with_the_collector_paused_and_puts_it_back(self, monkeypatch, collector):
        seen = []
        walk = ko7.rewrite._full_steps

        def watched(t):
            seen.append(gc.isenabled())
            yield from walk(t)
            seen.append(gc.isenabled())

        monkeypatch.setattr(ko7.normalize, "_full_steps", watched)
        run = normalize_full(delta_chain(20))
        assert run.normalized and run.steps_taken == 21
        assert seen == [False, False]
        assert gc.isenabled() is collector

    def test_puts_the_collector_back_when_the_walk_raises(self, monkeypatch, collector):
        def failing(t):
            raise _WalkFailed
            yield

        monkeypatch.setattr(ko7.normalize, "_full_steps", failing)
        with pytest.raises(_WalkFailed):
            normalize_full(delta_chain(3))
        assert gc.isenabled() is collector


class TestReachesTarget:
    def test_integrate_delta_chain(self):
        assert reaches_target(integrate(delta(delta(VOID))), VOID)

    def test_reflexive(self):
        assert reaches_target(VOID, VOID)

    def test_negative(self):
        assert not reaches_target(eqw(delta(VOID), VOID), VOID)

    def test_rejects_non_normal_target(self):
        with pytest.raises(TargetNotNormalError):
            reaches_target(VOID, eqw(VOID, VOID))

    def test_agrees_with_exhaustive_reachability(self):
        from ko7.confluence import guarded_root_normal_forms
        from collections import deque

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

        pool = enumerate_terms(4)
        targets = [c for c in pool if is_normal_form_safe(c)]
        for t in pool:
            reach = reachable(t)
            for c in targets:
                assert reaches_target(t, c) == (c in reach)
