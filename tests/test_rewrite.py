from ko7.rewrite import (
    RelationKind,
    RuleId,
    StepWitness,
    ctx_steps_full,
    ctx_steps_safe,
    delta_flag,
    root_steps_full,
    root_steps_safe,
    steps,
)
from ko7.terms import (
    VOID,
    app,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    rec,
    replace_at,
    subterm_at,
    subterms,
)

RULE_ORDER = list(RuleId)

# context closure of the safe relation descends these signatures only
SAFE_CTX_KINDS = {"integrate", "merge", "app", "rec"}


def _lift(t, index, w):
    return StepWitness(w.rule, (index,) + w.position, t, replace_at(t, (index,), w.result))


def reference_ctx_steps_safe(t):
    """Reference oracle: the recursive context closure of the safe root
    steps, lifting each child's witnesses one level at a time."""
    out = root_steps_safe(t)
    if t.kind in SAFE_CTX_KINDS:
        for i, child in enumerate(t.children):
            out.extend(_lift(t, i, w) for w in reference_ctx_steps_safe(child))
    return out


def reference_ctx_steps_full(t):
    """Reference oracle: the recursive context closure of the full root
    steps."""
    out = root_steps_full(t)
    for i, child in enumerate(t.children):
        out.extend(_lift(t, i, w) for w in reference_ctx_steps_full(child))
    return out


def _witness_rows(ws):
    return [(w.rule, w.position, w.source, w.result) for w in ws]


def _rec_on_delta(t):
    """rec with a delta-rooted third child: the redex of rec_succ."""
    return t.kind == "rec" and t.children[2].kind == "delta"


def _has_rec(t):
    """t has a rec subterm (itself included)."""
    return any(s.kind == "rec" for s in subterms(t))


def expected_root_rewrites(t, safe=False):
    """Independent re-derivation of the rule table: every (rule, right-hand
    side) pair applicable at the root of t, in rule order, unguarded or,
    with `safe`, under the guards of the safe relation."""
    out = []
    if t.kind == "merge":
        a, b = t.children
        if a == VOID and not (safe and _rec_on_delta(b)):
            out.append((RuleId.MERGE_VOID_LEFT, b))
        if b == VOID and not (safe and _rec_on_delta(a)):
            out.append((RuleId.MERGE_VOID_RIGHT, a))
        if a == b and not (safe and _has_rec(a)):
            out.append((RuleId.MERGE_CANCEL, a))
    if t.kind == "rec":
        base, step, arg = t.children
        if arg == VOID and not (safe and _rec_on_delta(base)):
            out.append((RuleId.REC_ZERO, base))
        if arg.kind == "delta":
            out.append((RuleId.REC_SUCC, app(step, rec(base, step, arg.children[0]))))
    if t.kind == "integrate" and t.children[0].kind == "delta":
        out.append((RuleId.INT_DELTA, VOID))
    if t.kind == "eqw":
        a, b = t.children
        if a == b and not (safe and _has_rec(a)):
            out.append((RuleId.EQ_REFL, VOID))
        if a != b or not safe:
            out.append((RuleId.EQ_DIFF, integrate(merge(a, b))))
    return out


class TestRootFull:
    def test_eqw_overlap(self):
        ws = root_steps_full(eqw(VOID, VOID))
        assert [(w.rule, w.result) for w in ws] == [
            (RuleId.EQ_REFL, VOID),
            (RuleId.EQ_DIFF, integrate(merge(VOID, VOID))),
        ]

    def test_atom_has_no_steps(self):
        assert root_steps_full(VOID) == []

    def test_rec_succ_shape(self):
        b, s, n = delta(VOID), integrate(VOID), VOID
        ws = root_steps_full(rec(b, s, delta(n)))
        assert [(w.rule, w.result) for w in ws] == [
            (RuleId.REC_SUCC, app(s, rec(b, s, n)))
        ]

    def test_merge_void_void_three_rules(self):
        ws = root_steps_full(merge(VOID, VOID))
        assert [w.rule for w in ws] == [
            RuleId.MERGE_VOID_LEFT,
            RuleId.MERGE_VOID_RIGHT,
            RuleId.MERGE_CANCEL,
        ]
        assert all(w.result == VOID for w in ws)

    def test_matches_independent_rule_table(self):
        # both root relations, witnesses in the same order, on every term up
        # to size 9 (68 127 terms)
        for t in enumerate_terms(9):
            for safe, root_steps in ((False, root_steps_full), (True, root_steps_safe)):
                got = [(w.rule, w.result) for w in root_steps(t)]
                assert got == expected_root_rewrites(t, safe), (t, safe)


class TestRootSafe:
    def test_eqw_refl_only_on_equal_args(self):
        ws = root_steps_safe(eqw(VOID, VOID))
        assert [(w.rule, w.result) for w in ws] == [(RuleId.EQ_REFL, VOID)]

    def test_merge_void_blocked_by_flag(self):
        flagged = rec(VOID, VOID, delta(VOID))
        assert delta_flag(flagged) == 1
        assert root_steps_safe(merge(VOID, flagged)) == []
        assert root_steps_safe(merge(flagged, VOID)) == []

    def test_eq_diff_on_distinct_args(self):
        ws = root_steps_safe(eqw(delta(VOID), VOID))
        assert [(w.rule, w.result) for w in ws] == [
            (RuleId.EQ_DIFF, integrate(merge(delta(VOID), VOID)))
        ]

    def test_merge_cancel_blocked_by_rec_payload(self):
        t = rec(VOID, VOID, VOID)
        assert root_steps_safe(merge(t, t)) == []

    def test_eqw_blocked_when_payload_nonempty(self):
        a = rec(VOID, VOID, VOID)
        assert root_steps_safe(eqw(a, a)) == []

    def test_rec_zero_guard(self):
        flagged = rec(VOID, VOID, delta(VOID))
        assert root_steps_safe(rec(flagged, VOID, VOID)) == []
        assert [w.rule for w in root_steps_safe(rec(VOID, VOID, VOID))] == [
            RuleId.REC_ZERO
        ]

    def test_safe_subset_of_full(self):
        for t in enumerate_terms(6):
            full = {(w.rule, w.position, w.result) for w in root_steps_full(t)}
            for w in root_steps_safe(t):
                assert (w.rule, w.position, w.result) in full

    def test_eqw_deterministic(self):
        for t in enumerate_terms(6):
            if t.kind != "eqw":
                continue
            rules = [w.rule for w in root_steps_safe(t)]
            assert len(rules) <= 1


class TestContextClosures:
    def test_safe_ctx_descends_integrate(self):
        t = integrate(merge(VOID, VOID))
        ws = ctx_steps_safe(t)
        assert {w.position for w in ws} == {(0,)}
        assert all(w.result == integrate(VOID) for w in ws)
        assert len(ws) == 3

    def test_safe_ctx_never_descends_delta(self):
        assert ctx_steps_safe(delta(merge(VOID, VOID))) == []

    def test_safe_ctx_never_descends_eqw(self):
        ws = ctx_steps_safe(eqw(merge(VOID, VOID), VOID))
        assert [(w.rule, w.position) for w in ws] == [(RuleId.EQ_DIFF, ())]

    def test_full_ctx_descends_everything(self):
        ws = ctx_steps_full(delta(merge(VOID, VOID)))
        assert {w.position for w in ws} == {(0,)}
        assert all(w.result == delta(VOID) for w in ws)
        assert ctx_steps_full(VOID) == []

    def test_full_ctx_inner_integrate(self):
        ws = ctx_steps_full(integrate(merge(VOID, VOID)))
        assert len(ws) == 3
        assert all(w.result == integrate(VOID) for w in ws)

    def test_safe_ctx_subset_of_full_ctx(self):
        for t in enumerate_terms(5):
            full = {(w.rule, w.position, w.result) for w in ctx_steps_full(t)}
            for w in ctx_steps_safe(t):
                assert (w.rule, w.position, w.result) in full

    def test_steps_dispatch(self):
        t = eqw(VOID, VOID)
        assert steps(t, RelationKind.FULL_ROOT) == root_steps_full(t)
        assert steps(t, RelationKind.SAFE_ROOT) == root_steps_safe(t)
        assert steps(t, RelationKind.SAFE_CTX) == ctx_steps_safe(t)
        assert steps(t, RelationKind.FULL_CTX) == ctx_steps_full(t)


class TestContextWalkMatchesReference:
    def assert_same(self, t):
        assert _witness_rows(ctx_steps_safe(t)) == _witness_rows(reference_ctx_steps_safe(t))
        assert _witness_rows(ctx_steps_full(t)) == _witness_rows(reference_ctx_steps_full(t))

    def test_enumerated(self):
        for t in enumerate_terms(7):
            self.assert_same(t)

    def test_delta_chains(self):
        for n in range(41):
            arg = VOID
            for _ in range(n):
                arg = delta(arg)
            self.assert_same(rec(VOID, VOID, arg))
            self.assert_same(merge(rec(VOID, VOID, arg), integrate(arg)))


class TestWitnessSoundness:
    def test_all_witnesses_sound(self):
        # every emitted witness replays: the redex matches its rule's shape
        # and splicing the rederived right-hand side reproduces the result
        for t in enumerate_terms(6):
            for w in ctx_steps_full(t) + ctx_steps_safe(t):
                redex = subterm_at(w.source, w.position)
                table = dict(expected_root_rewrites(redex))
                assert w.rule in table
                assert w.result == replace_at(w.source, w.position, table[w.rule])

    def test_witness_ordering(self):
        for t in enumerate_terms(5):
            for ws in (ctx_steps_full(t), ctx_steps_safe(t)):
                keys = [(w.position, RULE_ORDER.index(w.rule)) for w in ws]
                assert keys == sorted(keys)

    def test_rec_succ_duplicates_step_operand(self):
        # the step operand fills one slot of the source and two of the
        # result: the applied function and the recursive call's step slot
        seen = 0
        for t in enumerate_terms(6):
            for w in root_steps_full(t):
                if w.rule is not RuleId.REC_SUCC:
                    continue
                seen += 1
                s = w.source.children[1]
                assert w.result.kind == "app"
                assert w.result.children[0] == s
                assert w.result.children[1].children[1] == s
        assert seen > 0

    def test_witness_json(self):
        w = root_steps_safe(eqw(VOID, VOID))[0]
        assert w.to_json() == {
            "rule": "eq_refl",
            "pos": [],
            "from": {"k": "eqw", "c": [{"k": "void", "c": []}, {"k": "void", "c": []}]},
            "to": {"k": "void", "c": []},
        }
