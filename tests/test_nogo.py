import hashlib
import itertools
import json
from collections import Counter

import pytest

from ko7 import nogo
from ko7.nogo import (
    SCAN_RESISTANT_INTERPRETATION,
    LinearInterpretation,
    canonical_family,
    catalog,
    catalog_family,
    duplication_depth_tie,
    duplication_stress,
    find_violation,
    iter_witnesses,
    kappa_depth,
    kbo_search,
    lpo_boundary_report,
    lpo_greater,
    orients_all,
    poly_search,
    render_value,
    tree_depth,
)
from ko7.measure import Measure3
from ko7.rewrite import RelationKind, RuleId, root_steps_full
from ko7.terms import (
    ARITY,
    KINDS,
    VOID,
    Term,
    app,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    rec,
    size,
    subterms,
)

FAMILY_NAMES = [
    "additive-kappa",
    "lex-kappa-size",
    "linear-poly",
    "delta-flag",
    "size",
    "kappa-depth",
    "naive-multiset",
    "hybrid-flag-size",
    "raw-recursion",
    "precedence-rank",
    "kbo-weight",
    "tree-depth",
]


class TestKappaDepth:
    def test_nesting(self):
        assert kappa_depth(delta(delta(VOID))) == 2
        assert kappa_depth(VOID) == 0

    def test_merge_takes_maximum(self):
        for t in enumerate_terms(4):
            assert kappa_depth(merge(t, t)) == kappa_depth(t)

    def test_duplication_tie_instance(self):
        lhs = rec(VOID, delta(VOID), delta(VOID))
        rhs = app(delta(VOID), rec(VOID, delta(VOID), VOID))
        assert kappa_depth(lhs) == kappa_depth(rhs) == 1


# Reference valuation of the linear-poly family, written out per constructor.
_POLY_COEFS = {
    "void": (),
    "delta": (1,),
    "integrate": (1,),
    "merge": (1, 1),
    "app": (1, 1),
    "rec": (1, 1, 1),
    "eqw": (1, 1),
}
_POLY_CONSTS = {
    "void": 1,
    "delta": 0,
    "integrate": 1,
    "merge": 1,
    "app": 0,
    "rec": 1,
    "eqw": 3,
}


def _poly_value(t):
    return _POLY_CONSTS[t.kind] + sum(
        c * _poly_value(ch) for c, ch in zip(_POLY_COEFS[t.kind], t.children)
    )


# Reference definitions of the two pumping searches on built terms: a
# symbol-weight sum over subterms, and the instance built and walked for
# every pumped step operand.  The closed-form routine must agree with them.
_KBO_WEIGHTS = {
    "void": 1,
    "delta": 3,
    "integrate": 1,
    "merge": 1,
    "app": 1,
    "rec": 1,
    "eqw": 4,
}


def symbol_weight(t, weights):
    return sum(weights[u.kind] for u in subterms(t))


def reference_value(interp, t):
    i = KINDS.index(t.kind)
    return interp.consts[i] + sum(
        c * reference_value(interp, ch) for c, ch in zip(interp.coefs[i], t.children)
    )


def reference_grow_step_operand(interp, cap=64):
    """(s, value(lhs), value(rhs)) of the pumped rec_succ instance."""
    s = VOID
    if reference_value(interp, VOID) == 0:
        for i, kind in enumerate(KINDS):
            if kind != "void" and interp.consts[i] > 0:
                s = Term(kind, (VOID,) * ARITY[kind])
                break
    for _ in range(cap):
        lhs = rec(VOID, s, delta(VOID))
        rhs = app(s, rec(VOID, s, VOID))
        before, after = reference_value(interp, lhs), reference_value(interp, rhs)
        if before <= after:
            return s, before, after
        s = merge(s, s)
    raise RuntimeError("failed to construct a non-dropping rec_succ instance")


def reference_weight_counterexample(weights):
    """(s, weight(lhs), weight(rhs)) of the pumped rec_succ instance."""
    s = VOID
    if all(w == 0 for w in weights.values()):
        lhs = rec(VOID, s, delta(VOID))
        rhs = app(s, rec(VOID, s, VOID))
        return s, symbol_weight(lhs, weights), symbol_weight(rhs, weights)
    if weights["void"] == 0:
        for kind in KINDS:
            if kind != "void" and weights[kind] > 0:
                s = Term(kind, (VOID,) * ARITY[kind])
                break
    for _ in range(64):
        lhs = rec(VOID, s, delta(VOID))
        rhs = app(s, rec(VOID, s, VOID))
        wl, wr = symbol_weight(lhs, weights), symbol_weight(rhs, weights)
        if wr >= wl:
            return s, wl, wr
        s = merge(s, s)
    raise RuntimeError("failed to construct a non-dropping weighted instance")


class TestCatalog:
    def test_exactly_twelve(self):
        assert [f.name for f in catalog()] == FAMILY_NAMES

    def test_lookup(self):
        assert catalog_family("tree-depth").name == "tree-depth"
        try:
            catalog_family("nope")
        except KeyError:
            pass
        else:
            raise AssertionError("expected KeyError")

    def test_every_family_has_a_counterexample(self):
        for family in catalog():
            hunt = find_violation(family, max_size=7)
            assert hunt.found, family.name
            c = hunt.counterexample
            # non-decrease verified against the family's own order
            assert not family.less(c.value_after, c.value_before)

    def test_linear_poly_matches_reference(self):
        valuation = catalog_family("linear-poly").valuation
        for t in enumerate_terms(6):
            assert valuation(t) == _poly_value(t)

    def test_kbo_weight_matches_reference(self):
        valuation = catalog_family("kbo-weight").valuation
        for t in enumerate_terms(6):
            assert valuation(t) == symbol_weight(t, _KBO_WEIGHTS)

    def test_orders_irreflexive_on_sampled_values(self):
        for family in catalog():
            for t in enumerate_terms(4):
                v = family.valuation(t)
                assert not family.less(v, v), family.name


class TestStoryWitnesses:
    """Frozen first-found counterexamples for the families whose failure
    pattern the catalog pins to one rule."""

    def test_additive_kappa_ties_on_duplication(self):
        hunt = find_violation(catalog_family("additive-kappa"), max_size=7)
        c = hunt.counterexample
        assert c.witness.rule is RuleId.REC_SUCC
        assert c.witness.source == rec(VOID, delta(VOID), delta(VOID))
        assert c.value_before == c.value_after == 1

    def test_lex_pair_ties_then_grows(self):
        c = find_violation(catalog_family("lex-kappa-size"), max_size=7).counterexample
        assert c.witness.rule is RuleId.REC_SUCC
        assert c.value_before == (1, 6)
        assert c.value_after == (1, 8)

    def test_delta_flag_can_increase(self):
        # beyond the first tie, the flag genuinely toggles 0 -> 1
        family = catalog_family("delta-flag")
        flagged = rec(VOID, VOID, delta(VOID))
        toggles = [
            w
            for w in iter_witnesses(RelationKind.FULL_ROOT, 7)
            if w.rule in family.focus
            and family.valuation(w.source) == 0
            and family.valuation(w.result) == 1
        ]
        assert merge(VOID, flagged) in {w.source for w in toggles}

    def test_precedence_rank_same_head(self):
        c = find_violation(catalog_family("precedence-rank"), max_size=7).counterexample
        assert c.witness.rule is RuleId.MERGE_CANCEL
        assert c.witness.source.kind == c.witness.result.kind == "merge"
        assert c.value_before == c.value_after

    def test_tree_depth_ties_and_increases(self):
        c = find_violation(catalog_family("tree-depth"), max_size=7).counterexample
        assert c.witness.rule is RuleId.REC_SUCC
        deep = rec(VOID, delta(VOID), delta(VOID))
        (w,) = root_steps_full(deep)
        assert tree_depth(w.result) > tree_depth(deep)

    def test_size_fails_on_eq_diff(self):
        c = find_violation(catalog_family("size"), max_size=7).counterexample
        assert c.witness.rule is RuleId.EQ_DIFF
        assert c.value_after == c.value_before + 1

    def test_naive_multiset_not_contained(self):
        c = find_violation(catalog_family("naive-multiset"), max_size=7).counterexample
        assert c.witness.rule is RuleId.REC_SUCC
        assert not c.value_before == c.value_after


class TestCanonicalSurvives:
    def test_no_violation_on_guarded_relation(self):
        hunt = find_violation(canonical_family(), RelationKind.SAFE_ROOT, 7)
        assert not hunt.found
        assert hunt.scanned > 1000

    def test_unguarded_relation_breaks_it(self):
        # the full relation can raise the flag, so the certificate is
        # genuinely scoped to the guarded fragment
        hunt = find_violation(canonical_family(), RelationKind.FULL_ROOT, 7)
        assert hunt.found


class TestDepthTie:
    def test_tie_with_constant_shifts(self):
        report = duplication_depth_tie(7)
        assert report.witness.rule is RuleId.REC_SUCC
        assert kappa_depth(report.witness.source) == kappa_depth(report.witness.result)
        assert report.constants == (0, 1, 5)

    @pytest.mark.parametrize("max_size", [1, 2, 3, 4, 5])
    def test_raises_below_the_first_tie(self, max_size):
        # the additive-kappa hunt finds nothing, or falls back to a
        # merge_void_left instance, before the first tie at size 6
        hunt = find_violation(catalog_family("additive-kappa"), RelationKind.FULL_ROOT, max_size)
        assert not hunt.found or hunt.counterexample.witness.rule is RuleId.MERGE_VOID_LEFT
        with pytest.raises(RuntimeError):
            duplication_depth_tie(max_size)

    @pytest.mark.parametrize("max_size", [6, 7, 8])
    def test_is_the_additive_kappa_hunt_witness(self, max_size):
        hunt = find_violation(catalog_family("additive-kappa"), RelationKind.FULL_ROOT, max_size)
        report = duplication_depth_tie(max_size)
        assert report.witness == hunt.counterexample.witness
        assert report.depth == hunt.counterexample.value_before
        # reference: the first rec_succ instance whose depth ties, by a plain scan
        first_tie = next(
            w
            for w in iter_witnesses(RelationKind.FULL_ROOT, max_size)
            if w.rule is RuleId.REC_SUCC and kappa_depth(w.source) == kappa_depth(w.result)
        )
        assert report.witness == first_tie
        assert report.depth == kappa_depth(first_tie.source)


class TestDuplicationStress:
    def test_fitted_identity(self):
        report = duplication_stress(7)
        assert report.instances == 40
        assert report.fitted_offset == 0
        assert report.failures == ()
        assert report.strict_drops == 0
        assert report.min_growth == 1

    def test_identity_against_direct_scan(self):
        for t in enumerate_terms(6):
            for w in root_steps_full(t):
                if w.rule is RuleId.REC_SUCC:
                    s = w.source.children[1]
                    assert size(w.result) == size(w.source) + size(s)

    def test_void_step_grows_by_one(self):
        (w,) = root_steps_full(rec(VOID, VOID, delta(VOID)))
        assert size(w.result) == size(w.source) + 1


class TestLpo:
    def test_subterm_clause(self):
        prec = {kind: rank for rank, kind in enumerate(KINDS)}
        for t in enumerate_terms(4):
            assert lpo_greater(merge(t, t), t, prec)

    def test_irreflexive(self):
        prec = {kind: rank for rank, kind in enumerate(KINDS)}
        for t in enumerate_terms(4):
            assert not lpo_greater(t, t, prec)

    def test_natural_order_orients_all_rules(self):
        prec = {kind: rank for rank, kind in enumerate(KINDS)}
        for t in enumerate_terms(5):
            for w in root_steps_full(t):
                assert lpo_greater(w.source, w.result, prec)

    def test_search_finds_a_precedence(self):
        order = lpo_boundary_report(max_size=4).precedence
        assert order
        prec = {kind: rank for rank, kind in enumerate(order)}
        for t in enumerate_terms(4):
            for w in root_steps_full(t):
                assert lpo_greater(w.source, w.result, prec)

    def test_cached_scan_matches_plain_orients_all(self):
        instances = nogo._rule_instances(4)
        verdicts = list(nogo._orienting_orders(instances))
        assert [order for order, _ in verdicts] == list(itertools.permutations(KINDS))
        for order, orients in verdicts:
            prec = {kind: rank for rank, kind in enumerate(order)}
            assert orients == orients_all(prec, instances)

    def test_boundary_report(self):
        report = lpo_boundary_report(max_size=4)
        assert report.ok
        assert report.orienting_count >= 1
        assert report.rank_only.found
        assert report.rank_only.counterexample.witness.rule is RuleId.MERGE_CANCEL


class TestPolySearch:
    def test_zero_orienting_assignments(self):
        report = poly_search(3)
        assert report.ok
        assert report.orienting_assignments == 0
        assert report.min_step_excess >= 1
        assert report.step_combos_checked == 27

    def test_dropping_instance_counts_as_orienting(self, monkeypatch):
        # a pumping routine that hands back a strictly dropping instance
        # must turn the report into a failure
        monkeypatch.setattr(nogo, "_pump_step_operand", lambda interp: (VOID, 2, 1))
        report = poly_search(2, sample_count=8)
        assert report.orienting_assignments >= 1
        assert report.ok is False

    def test_space_size_arithmetic(self):
        # coefficients 1..3 per child slot, constants 0..3 per constructor
        report = poly_search(3)
        expected = (4) * (3 * 4) ** 2 * (9 * 4) ** 2 * (27 * 4) * (9 * 4)
        assert report.space_size == expected

    def test_constructed_witnesses_verified_independently(self):
        candidates = [
            LinearInterpretation(((), (1,), (1,), (1, 1), (1, 1), (1, 1, 1), (1, 1)),
                                 (0, 0, 0, 0, 0, 0, 0)),
            LinearInterpretation(((), (3,), (3,), (3, 3), (3, 3), (3, 3, 3), (3, 3)),
                                 (3, 3, 3, 3, 3, 3, 3)),
            SCAN_RESISTANT_INTERPRETATION,
        ]
        for interp in candidates:
            s, before, after = nogo._pump_step_operand(interp)
            (w,) = root_steps_full(rec(VOID, s, delta(VOID)))
            assert reference_value(interp, w.source) == before
            assert reference_value(interp, w.result) == after
            assert after >= before

        report = poly_search(2, sample_count=8)
        c = report.example
        assert c.witness.rule is RuleId.REC_SUCC
        assert c.value_after >= c.value_before

    def test_scan_resistant_interpretation(self):
        # orients every unguarded root instance up to size 6, so the
        # bounded scan alone cannot refute it; the pumped witness can
        report = poly_search(3)
        assert not report.scan_resistant_small_violation
        interp = SCAN_RESISTANT_INTERPRETATION
        for t in enumerate_terms(6):
            for w in root_steps_full(t):
                assert interp.value(w.result) < interp.value(w.source)
        c = report.scan_resistant_example
        assert c.value_after >= c.value_before


class TestKboSearch:
    def test_exhaustive_zero_orienting(self):
        report = kbo_search(3)
        assert report.ok
        assert report.assignments_checked == 4**7
        assert report.orienting_assignments == 0

    def test_dropping_instance_counts_as_orienting(self, monkeypatch):
        # the verdict is counted, not asserted: a pumping routine that hands
        # back a strictly dropping instance must turn the report into a failure
        monkeypatch.setattr(nogo, "_pump_step_operand", lambda interp: (VOID, 2, 1))
        report = kbo_search(1)
        assert report.orienting_assignments == report.assignments_checked == 2**7
        assert report.ok is False
        assert report.to_json()["example"] is None

    def test_witnesses_evaluate_correctly(self):
        # re-derive the example's weights-free claim: total symbol weight
        # cannot strictly drop on the constructed instance for any vector
        for vector in itertools.islice(
            itertools.product(range(3), repeat=len(KINDS)), 0, 64, 7
        ):
            weights = dict(zip(KINDS, vector))
            s, wl, wr = nogo._pump_step_operand(
                LinearInterpretation(nogo._UNIT_COEFS, vector)
            )
            assert symbol_weight(rec(VOID, s, delta(VOID)), weights) == wl
            assert symbol_weight(app(s, rec(VOID, s, VOID)), weights) == wr
            assert wr >= wl


class TestClosedFormPumping:
    """The closed-form pumping routine against the built-term references."""

    def test_every_weight_vector_up_to_2(self):
        for vector in itertools.product(range(3), repeat=len(KINDS)):
            got = nogo._pump_step_operand(LinearInterpretation(nogo._UNIT_COEFS, vector))
            assert got == reference_weight_counterexample(dict(zip(KINDS, vector))), vector

    @pytest.mark.parametrize("bound, count", [(3, 64), (5, 200)])
    def test_sampled_interpretations(self, bound, count):
        for interp in nogo._sample_interpretations(bound, count):
            assert nogo._pump_step_operand(interp) == reference_grow_step_operand(interp)

    def test_scan_resistant_interpretation(self):
        interp = SCAN_RESISTANT_INTERPRETATION
        s, before, after = nogo._pump_step_operand(interp)
        assert (s, before, after) == reference_grow_step_operand(interp)
        # the seed (delta void) alone strictly drops, so it was pumped once
        assert s == merge(delta(VOID), delta(VOID))

    def test_pumped_grid(self):
        # heavy rec arguments and light app force several pumps, under
        # merge coefficients other than (1, 1)
        pumps = Counter()
        for m1, m2, r3, c_delta, c_void, c_merge in itertools.product(
            (1, 2, 3), (1, 3), (1, 4), (0, 3, 9), (0, 1), (0, 2)
        ):
            interp = LinearInterpretation(
                ((), (1,), (1,), (m1, m2), (1, 1), (1, 1, r3), (1, 1)),
                (c_void, c_delta, 1, c_merge, 0, 1, 1),
            )
            s, before, after = nogo._pump_step_operand(interp)
            assert (s, before, after) == reference_grow_step_operand(interp)
            pumps[tree_depth(s)] += 1
        assert len(pumps) >= 3

    def test_cap_is_kept(self):
        # one pump is needed above, so a cap of one pump runs out
        try:
            nogo._pump_step_operand(SCAN_RESISTANT_INTERPRETATION, cap=1)
        except RuntimeError:
            pass
        else:
            raise AssertionError("expected RuntimeError")


class TestRenderValue:
    # one value of each type a family yields; no golden renders a Measure3,
    # because the canonical family never fails on the guarded relation
    @pytest.mark.parametrize(
        "value, rendered",
        [
            (3, 3),
            (1, 1),
            ((2, 5), [2, 5]),
            (Counter({3: 2, 1: 1}), [1, 3, 3]),
            (Measure3(1, (5, 2), 4), [1, [2, 5], 4]),
        ],
    )
    def test_by_type(self, value, rendered):
        assert render_value(value) == rendered
        assert json.loads(json.dumps(render_value(value))) == rendered

    def test_measure3_before_tuple(self):
        m = Measure3(0, (), 7)
        assert isinstance(m, tuple)
        assert render_value(m) == [0, [], 7] != list(m)

    def test_every_family_value_renders_to_json(self):
        t = rec(merge(VOID, VOID), delta(VOID), delta(delta(VOID)))
        for family in catalog() + [canonical_family()]:
            json.dumps(render_value(family.valuation(t)))


class TestJsonForms:
    def test_hunt_report(self):
        payload = find_violation(catalog_family("size"), max_size=5).to_json()
        assert set(payload) == {"family", "relation", "maxSize", "scanned", "counterexample"}
        c = payload["counterexample"]
        assert {"rule", "pos", "from", "to", "family", "before", "after", "verdict"} <= set(c)

    def test_poly_report(self):
        payload = poly_search(2, sample_count=4).to_json()
        assert payload["orientingAssignments"] == 0
        assert "scanResistant" in payload

    def test_stress_report(self):
        payload = duplication_stress(5).to_json()
        assert payload["fittedOffset"] == 0
        assert payload["strictDrops"] == 0


# The search reports have no CLI command and no golden of their own, so their
# JSON forms are pinned here as the SHA-256 of json.dumps(..., sort_keys=True).
SEARCH_DIGESTS = {
    "kbo_search(1)": (lambda: kbo_search(1),
                      "61d66491e4b5d0695a2c688506c756cf1d6b7ff509b268f99dff854dd282f1b4"),
    "kbo_search(2)": (lambda: kbo_search(2),
                      "e41a6f425a017f5e3bb355a43fbb2a66fb768c66adaf5fb0e54faf09853ea151"),
    "kbo_search(3)": (lambda: kbo_search(3),
                      "543e3508bcf8bd1fd35a3f5f624fefd9e8c44a9c857a6d8e079e8921ab4490f7"),
    "kbo_search(4)": (lambda: kbo_search(4),
                      "f7aedbe53403c57edf131fe46875c05ee62c54e224428dc1cb194a4ff873e0d2"),
    "poly_search(3)": (lambda: poly_search(3),
                       "cf150b307d170029ca38443e341e6101913de96cc3ed7f02712dcaae323a0110"),
    "poly_search(2, 8)": (lambda: poly_search(2, sample_count=8),
                          "0cd5c9b7bd4b5a8febcffab7457692c98d30d6dd42147b1e1d5bf98cae8f788a"),
    "poly_search(3, 4)": (lambda: poly_search(3, sample_count=4),
                          "420dd73ce4c84b81d8e2d2ce3f0a8382933ff14ae4ee5f26efd7322db31ec5ef"),
}


@pytest.mark.parametrize("name", list(SEARCH_DIGESTS))
def test_search_report_digest(name):
    search, digest = SEARCH_DIGESTS[name]
    payload = json.dumps(search().to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == digest
