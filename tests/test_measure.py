import itertools
import pickle
from collections import Counter

from hypothesis import given, strategies as st

from ko7.measure import (
    Measure3,
    decrease_sweep,
    deciding_component,
    dm_less,
    kappa_m,
    lex3_less,
    measure3,
    tau,
)
from ko7.rewrite import delta_flag, root_steps_safe
from ko7.terms import (
    VOID,
    app,
    delta,
    enumerate_terms,
    eqw,
    integrate,
    merge,
    parse,
    positions,
    rec,
    replace_at,
    size,
    subterms,
    term_from_json,
    term_to_json,
)

random_terms = st.recursive(
    st.just(VOID),
    lambda child: st.one_of(
        st.builds(delta, child),
        st.builds(integrate, child),
        st.builds(merge, child, child),
        st.builds(app, child, child),
        st.builds(rec, child, child, child),
        st.builds(eqw, child, child),
    ),
    max_leaves=15,
)

def reference_tau(t) -> int:
    """Reference oracle: the plain recursive weighted node count."""
    weight = 3 if t.kind == "eqw" else 1
    return weight + sum(reference_tau(c) for c in t.children)


def reference_kappa_m(t) -> Counter:
    """Reference oracle: tau of every rec-rooted subterm occurrence."""
    return Counter(reference_tau(u) for u in subterms(t) if u.kind == "rec")


def descending(m: Counter) -> tuple[int, ...]:
    """A multiset's elements sorted descending: a measure's `kappa_desc`."""
    return tuple(sorted(m.elements(), reverse=True))


def assert_cached_measure(t):
    assert tau(t) == reference_tau(t)
    assert kappa_m(t) == reference_kappa_m(t)
    assert measure3(t) == Measure3(delta_flag(t), descending(reference_kappa_m(t)), reference_tau(t))


class TestCachedMeasure:
    def test_enumerated(self):
        for t in enumerate_terms(7):
            assert_cached_measure(t)

    @given(random_terms)
    def test_random(self, t):
        assert_cached_measure(t)

    def test_built(self):
        source = "(rec (eqw void (rec void void void)) (merge void void) (delta (rec void void void)))"
        parsed = parse(source)
        assert_cached_measure(parsed)
        for p in positions(parsed):
            assert_cached_measure(replace_at(parsed, p, rec(eqw(VOID, VOID), VOID, VOID)))
        assert_cached_measure(term_from_json(term_to_json(parsed)))
        assert_cached_measure(pickle.loads(pickle.dumps(parsed)))

    def test_kappa_m_is_a_fresh_counter(self):
        t = merge(rec(VOID, VOID, VOID), VOID)
        kappa_m(t)[4] += 10
        kappa_m(t).clear()
        assert kappa_m(t) == Counter({4: 1})


multisets = st.lists(st.integers(min_value=0, max_value=5), max_size=5).map(Counter)


def dm_less_oracle(x: Counter, y: Counter) -> bool:
    """Brute force over the defining decomposition: x = (y - Z) + W for
    some nonempty Z inside y with every element of W strictly below some
    element of Z."""
    if x == y:
        return False
    y_elems = sorted(y.elements())
    for r in range(1, len(y_elems) + 1):
        for combo in set(itertools.combinations(y_elems, r)):
            z = Counter(combo)
            rest = y - z
            if rest - x:
                continue  # removal must leave a sub-multiset of x
            w = x - rest
            if all(any(a < b for b in z.elements()) for a in w.elements()):
                return True
    return False


def reference_dm_less(x: Counter, y: Counter) -> bool:
    """Reference oracle: the Dershowitz-Manna order by Counter difference;
    what is removed from y is nonempty and dominates what is added."""
    removed = y - x
    if not removed:
        return False
    return all(any(a < r for r in removed) for a in x - y)


def reference_deciding_component(after, before) -> str | None:
    """Reference oracle: the component deciding after < before, with the
    multisets compared as Counters."""
    if after.dflag != before.dflag:
        return "dflag" if after.dflag < before.dflag else None
    x, y = Counter(after.kappa_desc), Counter(before.kappa_desc)
    if x != y:
        return "kappaM" if reference_dm_less(x, y) else None
    return "tau" if after.tau < before.tau else None


class TestTupleOrder:
    """Multisets of naturals held as descending tuples: tuple `<` is the
    Dershowitz-Manna order."""

    @given(multisets, multisets)
    def test_descending_tuples_agree_with_bruteforce(self, x, y):
        want = dm_less_oracle(x, y)
        assert (Measure3(0, descending(x), 0) < Measure3(0, descending(y), 0)) == want
        assert dm_less(x, y) == reference_dm_less(x, y) == want

    @given(st.integers(0, 1), multisets, st.integers(0, 9), st.integers(0, 1), multisets, st.integers(0, 9))
    def test_lex3_on_constructed_measures(self, fx, x, tx, fy, y, ty):
        a, b = Measure3(fx, descending(x), tx), Measure3(fy, descending(y), ty)
        want = reference_deciding_component(a, b)
        assert deciding_component(a, b) == want
        assert lex3_less(a, b) == (want is not None)

    def test_every_guarded_root_step_up_to_size_eight(self):
        steps = 0
        for t in enumerate_terms(8):
            for w in root_steps_safe(t):
                steps += 1
                before, after = measure3(t), measure3(w.result)
                want = dm_less_oracle(kappa_m(w.result), kappa_m(t))
                assert (after.kappa_desc < before.kappa_desc) == want
                assert deciding_component(after, before) == reference_deciding_component(
                    after, before
                )
                assert lex3_less(after, before)
        assert steps == decrease_sweep(8).checked


class TestDeltaFlag:
    def test_detector(self):
        assert delta_flag(rec(VOID, VOID, delta(VOID))) == 1
        assert delta_flag(rec(VOID, VOID, VOID)) == 0
        assert delta_flag(delta(rec(VOID, VOID, delta(VOID)))) == 0

    def test_eqw_always_flat(self):
        for t in enumerate_terms(4):
            for u in enumerate_terms(3):
                assert delta_flag(eqw(t, u)) == 0


class TestTau:
    def test_base(self):
        assert tau(VOID) == 1

    def test_eqw_weight(self):
        assert tau(eqw(VOID, VOID)) == 5
        assert tau(integrate(merge(VOID, VOID))) == 4
        assert tau(merge(VOID, delta(VOID))) == 4

    def test_bounded_below_by_size(self):
        for t in enumerate_terms(6):
            has_eqw = any(u.kind == "eqw" for u in subterms(t))
            assert tau(t) >= size(t)
            assert (tau(t) == size(t)) == (not has_eqw)


class TestKappaM:
    def test_examples(self):
        assert kappa_m(VOID) == Counter()
        assert kappa_m(rec(VOID, VOID, delta(VOID))) == Counter({5: 1})
        two = merge(rec(VOID, VOID, VOID), rec(VOID, VOID, VOID))
        assert kappa_m(two) == Counter({4: 2})

    def test_congruence_with_eq_diff_shape(self):
        for a in enumerate_terms(4):
            for b in enumerate_terms(3):
                assert kappa_m(eqw(a, b)) == kappa_m(a) + kappa_m(b)
                assert kappa_m(integrate(merge(a, b))) == kappa_m(a) + kappa_m(b)


class TestDmLess:
    def test_examples(self):
        assert dm_less(Counter(), Counter({5: 1}))
        assert dm_less(Counter({2: 1, 3: 1}), Counter({7: 1}))
        assert not dm_less(Counter({3: 2}), Counter({3: 2}))

    def test_replace_by_smaller(self):
        # one big element swapped for many smaller ones
        assert dm_less(Counter({1: 9}), Counter({2: 1}))
        assert not dm_less(Counter({2: 1}), Counter({1: 9}))

    @given(multisets, multisets)
    def test_agrees_with_bruteforce(self, x, y):
        assert dm_less(x, y) == dm_less_oracle(x, y)

    @given(multisets)
    def test_irreflexive(self, x):
        assert not dm_less(x, x)

    @given(multisets, multisets, multisets)
    def test_transitive(self, x, y, z):
        if dm_less(x, y) and dm_less(y, z):
            assert dm_less(x, z)

    @given(multisets, multisets)
    def test_strict_submultiset_implies_less(self, x, extra):
        if extra:
            assert dm_less(x, x + extra)


class TestLex3:
    def test_rec_succ_shape_comparison(self):
        before = measure3(rec(VOID, VOID, delta(VOID)))
        after = measure3(app(VOID, rec(VOID, VOID, VOID)))
        assert before == Measure3(1, (5,), 5)
        assert after == Measure3(0, (4,), 6)
        assert lex3_less(after, before)

    def test_irreflexive(self):
        m = Measure3(0, (), 1)
        assert not lex3_less(m, m)

    def test_tau_tiebreak(self):
        assert lex3_less(Measure3(0, (), 4), Measure3(0, (), 5))

    def test_json(self):
        m = measure3(merge(rec(VOID, VOID, VOID), rec(VOID, VOID, VOID)))
        assert m.to_json() == [0, [4, 4], 9]


class TestDecreaseSweep:
    def test_no_violations_at_size_six(self):
        report = decrease_sweep(6)
        assert report.ok
        assert report.checked > 0
        assert report.violations == ()

    def test_component_accounting(self):
        report = decrease_sweep(6)
        by_rule = report.by_rule
        assert set(by_rule["rec_succ"]) == {"dflag"}
        assert set(by_rule["rec_zero"]) == {"kappaM"}
        for rule in (
            "merge_void_left",
            "merge_void_right",
            "merge_cancel",
            "eq_refl",
            "eq_diff",
        ):
            assert set(by_rule[rule]) == {"tau"}
        assert set(by_rule["int_delta"]) <= {"tau", "kappaM"}

    def test_int_delta_splits_on_rec_content(self):
        # argument without rec: tau decides; with rec: the multiset decides
        plain = integrate(delta(VOID))
        loaded = integrate(delta(rec(VOID, VOID, VOID)))
        for term, expected in ((plain, "tau"), (loaded, "kappaM")):
            (w,) = root_steps_safe(term)
            assert deciding_component(measure3(w.result), measure3(term)) == expected

    def test_report_json_schema(self):
        payload = decrease_sweep(4).to_json()
        assert set(payload) == {"maxSize", "checked", "violations", "decidedBy", "byRule"}
        assert set(payload["decidedBy"]) == {"dflag", "kappaM", "tau"}

    def test_workers_do_not_change_report(self):
        assert decrease_sweep(5, workers=2).to_json() == decrease_sweep(5).to_json()
