import itertools
import pickle
import reprlib
import sys
from functools import lru_cache
from typing import NamedTuple, Optional

import pytest
from hypothesis import given, settings, strategies as st

from ko7.terms import (
    ARITY,
    KIND_INDEX,
    KINDS,
    ArityError,
    InvalidPositionError,
    ParseError,
    Term,
    TermError,
    VOID,
    _bottom_up,
    app,
    count_terms,
    delta,
    enumerate_terms,
    eqw,
    fields_json,
    integrate,
    json_value,
    merge,
    parse,
    positions,
    rec,
    render,
    replace_at,
    size,
    subterm_at,
    subterms,
    term_from_json,
    term_to_json,
    terms_of_size,
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


def count_by_recurrence(n: int) -> int:
    """Independent oracle: arity recurrence over the signature
    (two unary, three binary, one ternary constructor plus the atom)."""
    counts = {1: 1}
    for m in range(2, n + 1):
        unary = 2 * counts.get(m - 1, 0)
        binary = 3 * sum(
            counts.get(i, 0) * counts.get(m - 1 - i, 0) for i in range(1, m - 1)
        )
        ternary = sum(
            counts.get(i, 0) * counts.get(j, 0) * counts.get(m - 1 - i - j, 0)
            for i in range(1, m - 1)
            for j in range(1, m - 1 - i)
        )
        counts[m] = unary + binary + ternary
    return counts.get(n, 0)


def reference_term_key(t: Term):
    """Plain recursive definition of the canonical term order: by size,
    then constructor order, then recursively by children."""
    return (size(t), KIND_INDEX[t.kind], tuple(reference_term_key(c) for c in t.children))


def _compositions(total: int, parts: int):
    if parts == 1:
        if total >= 1:
            yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def reference_terms_of_size(n: int) -> tuple[Term, ...]:
    """Reference oracle: build every term of size n over all size
    compositions of the children, then sort by the canonical key."""
    out = [VOID] if n == 1 else []
    for kind in KINDS:
        arity = ARITY[kind]
        if arity == 0:
            continue
        for sizes in _compositions(n - 1, arity):
            pools = [reference_terms_of_size(s) for s in sizes]
            out.extend(Term(kind, kids) for kids in itertools.product(*pools))
    out.sort(key=reference_term_key)
    return tuple(out)


def reference_replace_at(t: Term, position, replacement: Term) -> Term:
    """Reference oracle: the plain recursive definition of replace_at."""
    if not position:
        return replacement
    index = position[0]
    if not 0 <= index < len(t.children):
        raise InvalidPositionError(index, t)
    kids = list(t.children)
    kids[index] = reference_replace_at(kids[index], position[1:], replacement)
    return Term(t.kind, tuple(kids))


def reference_size(t: Term) -> int:
    """Reference oracle: the plain recursive node count."""
    return 1 + sum(reference_size(c) for c in t.children)


def reference_render(t: Term) -> str:
    """Reference oracle: the plain recursive S-expression."""
    if not t.children:
        return t.kind
    return "(" + t.kind + " " + " ".join(reference_render(c) for c in t.children) + ")"


def reference_positions(t: Term):
    """Reference oracle: the plain recursive prefix-order positions."""
    yield ()
    for i, c in enumerate(t.children):
        for p in reference_positions(c):
            yield (i,) + p


def reference_subterms(t: Term):
    """Reference oracle: the plain recursive pre-order subterms."""
    yield t
    for c in t.children:
        yield from reference_subterms(c)


class _Hashed:
    """Stands in for a child whose hash is already known."""

    def __init__(self, value: int):
        self.value = value

    def __hash__(self):
        return self.value


def reference_equal(a: Term, b: Term) -> bool:
    """Reference oracle: the plain recursive structural equality."""
    return (
        a.kind == b.kind
        and len(a.children) == len(b.children)
        and all(reference_equal(x, y) for x, y in zip(a.children, b.children))
    )


def reference_hash(t: Term) -> int:
    """Reference oracle: hash((kind, children)), the frozen dataclass's
    hash, with every child's hash recomputed recursively instead of read
    from its cache."""
    return hash((t.kind, tuple(_Hashed(reference_hash(c)) for c in t.children)))


def _reference_tokenize(text: str) -> list[tuple[str, int]]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c in "()":
            tokens.append((c, i))
            i += 1
        else:
            start = i
            while i < n and not text[i].isspace() and text[i] not in "()":
                i += 1
            tokens.append((text[start:i], start))
    return tokens


def reference_parse(text: str) -> Term:
    """Reference oracle: a character-loop tokenizer and a plain recursive
    descent, with the same errors at the same offsets as parse."""
    tokens = _reference_tokenize(text)
    if not tokens:
        raise ParseError("empty input", 0)
    term, pos = _reference_parse_at(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input {tokens[pos][0]!r}", tokens[pos][1])
    return term


def _reference_parse_at(tokens: list[tuple[str, int]], pos: int) -> tuple[Term, int]:
    tok, off = tokens[pos]
    if tok == "void":
        return VOID, pos + 1
    if tok == "(":
        if pos + 1 >= len(tokens):
            raise ParseError("unexpected end of input after '('", off)
        head, head_off = tokens[pos + 1]
        if head in "()":
            raise ParseError("expected a constructor after '('", head_off)
        if head == "void":
            raise ParseError("'void' is written bare, without parentheses", head_off)
        if head not in ARITY:
            raise ParseError(f"unknown constructor {head!r}", head_off)
        pos += 2
        children = []
        while True:
            if pos >= len(tokens):
                raise ParseError("missing ')'", tokens[-1][1])
            if tokens[pos][0] == ")":
                pos += 1
                break
            child, pos = _reference_parse_at(tokens, pos)
            children.append(child)
        if len(children) != ARITY[head]:
            raise ArityError(head, ARITY[head], len(children), head_off)
        return Term(head, tuple(children)), pos
    if tok == ")":
        raise ParseError("unexpected ')'", off)
    if tok in ARITY:
        raise ParseError(f"constructor {tok!r} requires parentheses", off)
    raise ParseError(f"unexpected token {tok!r}", off)


def _outcome(parser, text: str):
    """The term parsed, or the class, message and offset of the error."""
    try:
        return parser(text)
    except ParseError as err:
        return type(err), str(err), err.offset


# Token soups: constructor names, parentheses, unknown and glued words,
# joined by nothing or by ASCII and Unicode spaces.
_soup_tokens = st.sampled_from(
    [*KINDS, "(", ")", "(", ")", "foo", "Void", "delta2", "(delta", "void)", "(void)",
     "eqw(void", "))", "(("]
)
_separators = st.sampled_from(["", " ", " ", "  ", "\t", "\n", "\u00a0", "\u2003", "\r\n"])
token_soups = st.builds(
    "".join,
    st.lists(st.tuples(_separators, _soup_tokens, _separators).map("".join), max_size=24),
)
# Rendered terms with one token dropped, duplicated or replaced, so that
# most inputs get far into a well-formed term before they fail.
rendered_soups = st.builds(
    lambda t, i, how, tok: _splice(render(t), i, how, tok),
    random_terms,
    st.integers(0, 200),
    st.sampled_from(["keep", "drop", "dup", "swap"]),
    _soup_tokens,
)


def _splice(text: str, i: int, how: str, tok: str) -> str:
    parts = text.replace("(", "( ").replace(")", " )").split()
    i %= len(parts)
    if how == "drop":
        del parts[i]
    elif how == "dup":
        parts.insert(i, parts[i])
    elif how == "swap":
        parts[i] = tok
    return "\u2003".join(parts) if i % 2 else " ".join(parts)


def built_terms():
    """Terms built every way the library builds them, none from the
    enumeration caches: parse, replace_at, term_from_json and pickle."""
    source = "(rec (eqw void (delta void)) (merge void void) (delta (rec void void void)))"
    parsed = parse(source)
    out = [parsed, parse(source)]
    out += [replace_at(parsed, p, rec(VOID, VOID, VOID)) for p in positions(parsed)]
    out.append(term_from_json(term_to_json(parsed)))
    out.append(pickle.loads(pickle.dumps(parsed)))
    return out


class TestCachedFacts:
    def assert_facts(self, t: Term):
        assert size(t) == reference_size(t)
        assert hash(t) == reference_hash(t) == hash((t.kind, t.children))

    def test_enumerated(self):
        for t in enumerate_terms(7):
            self.assert_facts(t)

    @given(random_terms)
    def test_random(self, t):
        self.assert_facts(t)

    def test_built(self):
        for t in built_terms():
            self.assert_facts(t)

    def test_pickle_round_trip(self):
        for t in enumerate_terms(5):
            back = pickle.loads(pickle.dumps(t))
            assert back == t and back is not t
            self.assert_facts(back)

    def test_separate_parses_are_equal(self):
        text = "(merge (rec void void (delta void)) (eqw void void))"
        a, b = parse(text), parse(text)
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert not a != b
        assert a != parse("(merge (rec void void (delta void)) (eqw void (delta void)))")

    def test_equality_is_structural(self):
        pool = enumerate_terms(5)
        for a, b in itertools.product(pool[:60], pool[:60]):
            assert (a == b) == (render(a) == render(b))
        assert VOID != "void" and VOID != ("void", ())

    def test_equality_matches_reference(self):
        # every pair up to size 5, and each term against a fresh copy that
        # shares no node with the enumeration
        pool = enumerate_terms(5)
        copies = [term_from_json(term_to_json(t)) for t in pool]
        for a in pool:
            for b, fresh in zip(pool, copies):
                want = reference_equal(a, b)
                assert (a == b) is want and (a != b) is not want
                assert (a == fresh) is want and (a != fresh) is not want
                assert (fresh == a) is want
                if want:
                    assert hash(a) == hash(b) == hash(fresh)

    def test_equality_computes_no_hash(self):
        text = "(merge (delta void) (rec void void void))"
        a, b = parse(text), parse(text)
        assert a == b and not a != b
        assert a != parse("(merge (delta void) (rec void void (delta void)))")
        for t in (a, b):
            for node in subterms(t):
                if node is not VOID:
                    assert not hasattr(node, "_hash"), render(node)

    def test_equality_on_terms_deeper_than_the_recursion_limit(self):
        def chain(depth, bottom):
            t = bottom
            for _ in range(depth):
                t = delta(t)
            return rec(VOID, VOID, t)

        depth = 5 * sys.getrecursionlimit()
        a, b = chain(depth, VOID), chain(depth, VOID)
        assert a is not b
        assert a == b and not a != b
        other = chain(depth, eqw(VOID, VOID))
        assert a != other and not other == a
        assert chain(depth, VOID) != chain(depth + 1, VOID)

    def test_bottom_up_gives_the_recursive_facts_and_hash(self):
        # the fallback past the recursion limit, run on shallow terms,
        # against the recursion, on copies that share no node
        for t in [*enumerate_terms(5), *built_terms()]:
            a, b = term_from_json(term_to_json(t)), term_from_json(term_to_json(t))
            hash(a), a.size  # fills every node below by recursion
            _bottom_up(b, "_size", Term._fill)
            _bottom_up(b, "_hash", hash)
            for x, y in zip(subterms(a), subterms(b)):
                facts = (x._hash, x._size, x._tau, x._rec_taus)
                assert facts == (y._hash, y._size, y._tau, y._rec_taus)

    def test_bottom_up_fills_a_shared_node_once_per_edge_to_it(self):
        shared = merge(VOID, VOID)
        t = rec(shared, shared, app(shared, shared))
        filled = []
        _bottom_up(t, "_size", lambda node: filled.append(node) or node._fill())
        assert sum(node is shared for node in filled) == 4 and filled[-1] is t
        assert t.size == reference_size(t)

    def test_facts_and_hash_past_the_recursion_limit(self):
        depth = 10_000
        chain = VOID
        want = hash(("void", ()))
        for _ in range(depth):
            chain = delta(chain)
            want = hash(("delta", (_Hashed(want),)))
        t = rec(VOID, VOID, chain)
        want = hash(("rec", (_Hashed(hash(VOID)), _Hashed(hash(VOID)), _Hashed(want))))
        assert (t.size, t.tau, t.rec_taus) == (depth + 4, depth + 4, (depth + 4,))
        assert hash(t) == want
        fresh = parse(render(t))
        assert hash(fresh) == want and {t: 1}[fresh] == 1
        # a deep node whose children were filled only partly before
        assert merge(delta(t), eqw(VOID, chain)).tau == 2 + (depth + 4) + 3 + 1 + (depth + 1)

    def test_immutable(self):
        t = merge(VOID, VOID)
        for name in ("kind", "children", "size", "_hash", "other"):
            with pytest.raises(AttributeError):
                setattr(t, name, VOID)
        with pytest.raises(AttributeError):
            del t.kind
        assert t == merge(VOID, VOID)


class TestParseRender:
    def test_atomic(self):
        assert parse("void") == VOID
        assert render(VOID) == "void"

    def test_nested(self):
        assert parse("(integrate (delta void))") == integrate(delta(VOID))
        assert parse("(rec void void (delta void))") == rec(VOID, VOID, delta(VOID))

    def test_render_examples(self):
        assert render(merge(VOID, VOID)) == "(merge void void)"
        assert render(eqw(VOID, VOID)) == "(eqw void void)"

    def test_render_matches_reference_on_enumerated_terms(self):
        for t in enumerate_terms(7):
            assert render(t) == reference_render(t)

    @given(random_terms)
    def test_render_matches_reference_on_random_terms(self, t):
        assert render(t) == reference_render(t)

    def test_whitespace_tolerant(self):
        assert parse("  ( merge   void\n void )  ") == merge(VOID, VOID)

    def test_syntax_error_offset(self):
        with pytest.raises(ParseError) as err:
            parse("(merge void")
        assert err.value.offset == 7
        with pytest.raises(ParseError) as err:
            parse(")")
        assert err.value.offset == 0
        with pytest.raises(ParseError) as err:
            parse("(bogus void)")
        assert err.value.offset == 1

    def test_bare_constructor_rejected(self):
        with pytest.raises(ParseError):
            parse("delta")

    def test_grammar_exact_on_atom(self):
        # the atom is written bare; parenthesized forms are not in the grammar
        with pytest.raises(ParseError):
            parse("(void)")
        with pytest.raises(ParseError):
            parse("()")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse("void void")

    def test_arity_error_names_constructor(self):
        with pytest.raises(ArityError) as err:
            parse("(delta void void)")
        assert err.value.constructor == "delta"
        with pytest.raises(ArityError) as err:
            parse("(rec void void)")
        assert err.value.constructor == "rec"

    def test_roundtrip_enumerated(self):
        for t in enumerate_terms(6):
            assert parse(render(t)) == t

    @given(random_terms)
    def test_roundtrip_random(self, t):
        assert parse(render(t)) == t

    @settings(max_examples=500)
    @given(st.one_of(token_soups, rendered_soups))
    def test_matches_reference_parser(self, text):
        assert _outcome(parse, text) == _outcome(reference_parse, text)

    def test_offset_is_a_character_index(self):
        with pytest.raises(ParseError) as err:
            parse("\u2003foo")
        assert err.value.offset == 1

    def test_any_depth_parses(self):
        depth = 100_000
        t = parse("(delta " * depth + "void" + ")" * depth)
        # size and hash still recurse: walk the chain by a loop
        chain = 0
        while t.kind == "delta":
            (t,) = t.children
            chain += 1
        assert (chain, t) == (depth, VOID)

    def test_any_depth_renders(self):
        text = "(rec void void " + "(delta " * 100_000 + "void" + ")" * 100_000 + ")"
        assert render(parse(text)) == text


class TestSize:
    def test_examples(self):
        assert size(VOID) == 1
        assert size(delta(VOID)) == 2
        # rec node + two voids + delta chain of two nodes
        assert size(rec(VOID, VOID, delta(VOID))) == 5

    @given(random_terms)
    def test_size_counts_positions(self, t):
        assert size(t) == sum(1 for _ in positions(t))


class TestEnumerate:
    def test_smallest_sizes(self):
        assert enumerate_terms(1) == [VOID]
        assert enumerate_terms(2) == [VOID, delta(VOID), integrate(VOID)]

    def test_canonical_order_matches_reference(self):
        for n in range(1, 9):
            assert terms_of_size(n) == reference_terms_of_size(n), n
        expected = [t for n in range(1, 9) for t in reference_terms_of_size(n)]
        assert enumerate_terms(8) == expected

    def test_count_at_size_10(self):
        assert count_terms(10) == 334811

    def test_count_matches_recurrence(self):
        for n in range(1, 8):
            assert len(terms_of_size(n)) == count_by_recurrence(n)
        assert len(enumerate_terms(4)) == 1 + 2 + 7 + 27

    def test_duplicate_free(self):
        pool = enumerate_terms(6)
        assert len(pool) == len(set(pool))

    def test_sizes_respected_and_ordered(self):
        pool = enumerate_terms(6)
        sizes = [size(t) for t in pool]
        assert sizes == sorted(sizes)
        assert all(s <= 6 for s in sizes)

    @given(random_terms)
    def test_membership_agrees_with_size(self, t):
        pool = set(enumerate_terms(5))
        assert (t in pool) == (size(t) <= 5)

    def test_invalid_bound(self):
        with pytest.raises(Exception):
            enumerate_terms(0)

    def test_count_builds_no_bucket(self):
        before = terms_of_size.cache_info()
        for n in range(-1, 13):
            assert count_terms(n) == sum(count_by_recurrence(m) for m in range(1, n + 1))
        assert count_terms(12) == 8437898
        assert terms_of_size.cache_info() == before


def _reference_enumeration(max_size: int) -> list[Term]:
    return [t for n in range(1, max_size + 1) for t in reference_terms_of_size(n)]


def _bucket_bounds(max_size: int) -> list[int]:
    """Both ends and every bucket boundary, each with its neighbours."""
    marks = [count_terms(n) for n in range(max_size + 1)]
    return sorted({m + d for m in marks for d in (-1, 0, 1)})


def _block_starts(max_size: int) -> list[int]:
    """Every start of a (constructor, first-child size, first child) block
    of the top bucket: where the slice generator skips by counts."""
    pool = _reference_enumeration(max_size)
    starts = [count_terms(max_size - 1)]
    for i in range(starts[0] + 1, len(pool)):
        a, b = pool[i - 1], pool[i]
        if (a.kind, a.children[0]) != (b.kind, b.children[0]):
            starts.append(i)
    return starts


class TestEnumerationSlices:
    @pytest.mark.parametrize("max_size", range(1, 9))
    def test_slices_match_reference(self, max_size):
        # compared with the whole enumeration once, and slices with it:
        # its terms share children with theirs, so equality is shallow
        pool = enumerate_terms(max_size)
        assert pool == _reference_enumeration(max_size)
        grid = _bucket_bounds(max_size)
        for lo in grid:
            for hi in grid:
                assert enumerate_terms(max_size, lo, hi) == pool[lo:hi], (lo, hi)

    @pytest.mark.parametrize("max_size", range(2, 9))
    def test_every_block_start_in_the_top_bucket(self, max_size):
        pool = _reference_enumeration(max_size)
        for lo in _block_starts(max_size):
            for hi in (lo, lo + 1, lo + 3):
                assert enumerate_terms(max_size, lo - 1, hi) == pool[lo - 1 : hi], (lo, hi)

    @given(st.integers(-20, 14200), st.integers(-20, 14200))
    def test_random_slices(self, lo, hi):
        assert enumerate_terms(8, lo, hi) == _reference_enumeration(8)[lo:hi]


class TestPositions:
    def test_subterm_at(self):
        t = merge(VOID, delta(VOID))
        assert subterm_at(t, (1,)) == delta(VOID)
        assert subterm_at(t, ()) == t

    def test_replace_at(self):
        assert replace_at(integrate(VOID), (0,), delta(VOID)) == integrate(delta(VOID))
        assert replace_at(VOID, (), merge(VOID, VOID)) == merge(VOID, VOID)

    @pytest.mark.parametrize(
        "t, position, replacement",
        [(delta(VOID), (0,), "x"), (VOID, (), 5), (merge(VOID, VOID), (1,), None)],
    )
    def test_replace_at_refuses_a_non_term(self, t, position, replacement):
        with pytest.raises(TermError, match="^a replacement must be a Term, got "):
            replace_at(t, position, replacement)

    def test_invalid_position(self):
        with pytest.raises(InvalidPositionError) as err:
            subterm_at(VOID, (0,))
        assert err.value.index == 0
        with pytest.raises(InvalidPositionError):
            replace_at(delta(VOID), (1,), VOID)

    def test_replace_at_matches_reference(self):
        replacement = delta(VOID)
        for t in enumerate_terms(7):
            for p in positions(t):
                assert replace_at(t, p, replacement) == reference_replace_at(
                    t, p, replacement
                )

    def test_bad_index_error_matches_reference(self):
        t = merge(VOID, app(VOID, delta(VOID)))
        for p in [(2,), (1, 2), (1, 1, 1), (1, 1, 0, 0), (-1,)]:
            with pytest.raises(InvalidPositionError) as got:
                replace_at(t, p, VOID)
            with pytest.raises(InvalidPositionError) as want:
                reference_replace_at(t, p, VOID)
            assert (got.value.index, str(got.value)) == (
                want.value.index,
                str(want.value),
            )

    def test_bad_index_error_names_the_node_of_a_deep_term(self):
        chain = VOID
        for _ in range(2000):
            chain = delta(chain)
        t = rec(VOID, VOID, chain)  # the message must not hold the term
        for bad in (subterm_at, lambda t, p: replace_at(t, p, VOID)):
            with pytest.raises(InvalidPositionError) as err:
                bad(t, (5,))
            assert str(err.value) == "no child 5 at a rec node with 3 children"
            with pytest.raises(InvalidPositionError) as err:
                bad(t, (2,) + (0,) * 2000 + (0,))
            assert str(err.value) == "no child 0 at a void node with 0 children"

    def test_positions_and_subterms_match_reference(self):
        for t in enumerate_terms(7):
            assert list(positions(t)) == list(reference_positions(t))
            got = list(subterms(t))
            want = list(reference_subterms(t))
            assert len(got) == len(want)
            assert all(u is v for u, v in zip(got, want))

    def test_positions_and_subterms_on_a_deep_chain(self):
        chain = VOID
        for _ in range(5000):
            chain = delta(chain)
        t = rec(VOID, VOID, chain)  # far deeper than the recursion limit
        kinds = [u.kind for u in subterms(t)]
        assert len(kinds) == 5004
        assert kinds[:4] == ["rec", "void", "void", "delta"]
        assert kinds[-1] == "void"
        ps = list(positions(t))
        assert len(ps) == 5004
        assert ps[:4] == [(), (0,), (1,), (2,)]
        assert ps[-1] == (2,) + (0,) * 5000

    @given(random_terms)
    def test_replace_with_own_subterm_is_identity(self, t):
        for p in positions(t):
            assert replace_at(t, p, subterm_at(t, p)) == t


class TestJson:
    def test_shape(self):
        assert term_to_json(merge(VOID, VOID)) == {
            "k": "merge",
            "c": [{"k": "void", "c": []}, {"k": "void", "c": []}],
        }

    @given(random_terms)
    def test_roundtrip(self, t):
        assert term_from_json(term_to_json(t)) == t

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            "x",
            None,
            {"k": "delta", "c": "ab"},
            {"k": "delta", "c": [5]},
            {"k": ["void"]},
            {"k": 5, "c": []},
            {"k": "delta", "c": [{"k": "nonsense"}]},
            {"k": "merge", "c": [{"k": "void"}]},
            # two errors: the child's is met first
            {"k": "nonsense", "c": [{"k": 5}]},
            {"k": "merge", "c": [{"k": "void"}, {"k": "delta"}, {"k": "rec"}]},
            # a key term_to_json never writes
            {"k": "void", "c": [], "x": 1},
            {"k": "delta", "c": [{"k": "void", "kind": "void"}]},
        ],
    )
    def test_malformed_input_is_a_term_error(self, obj):
        with pytest.raises(TermError) as err:
            term_from_json(obj)
        # the explicit stack meets the same first error as the recursion
        with pytest.raises(TermError) as want:
            reference_term_from_json(obj)
        assert str(err.value) == str(want.value)

    @pytest.mark.parametrize(
        "wrap",
        [lambda deep: {"k": 5, "c": [deep]}, lambda deep: {"k": "delta", "c": (deep,)}],
        ids=["bad k", "bad c"],
    )
    def test_malformed_input_holding_a_deep_term_is_a_term_error(self, wrap):
        # the message shows the malformed value's first levels only
        chain = VOID
        for _ in range(5000):
            chain = delta(chain)
        with pytest.raises(TermError) as err:
            term_from_json(wrap(term_to_json(chain)))
        assert len(str(err.value)) < 120

    def test_matches_reference_on_enumerated_terms(self):
        for t in enumerate_terms(6):
            assert term_to_json(t) == reference_term_to_json(t)
            assert term_from_json(reference_term_to_json(t)) == t

    @given(random_terms)
    def test_matches_reference_on_random_terms(self, t):
        assert term_to_json(t) == reference_term_to_json(t)

    def test_every_node_is_its_own_dict(self):
        payload = term_to_json(merge(VOID, VOID))
        assert payload["c"][0] is not payload["c"][1]

    def test_any_depth_converts_both_ways(self):
        depth = 100_000
        chain = VOID
        for _ in range(depth):
            chain = delta(chain)
        payload = term_to_json(rec(VOID, VOID, chain))
        node = payload["c"][2]
        for _ in range(depth):
            assert node["k"] == "delta" and len(node["c"]) == 1
            node = node["c"][0]
        assert node == {"k": "void", "c": []}
        # == recurses: walk the chain by a loop
        t = term_from_json(payload).children[2]
        for _ in range(depth):
            assert t.kind == "delta"
            t = t.children[0]
        assert t == VOID


class _WithToJson:
    def to_json(self):
        return {"own": True}


class _Sample(NamedTuple):
    max_size: int
    term: Term
    value_after: _WithToJson
    nested_items: tuple
    example: Optional[int]


class TestFieldsJson:
    def test_each_field_by_its_camel_case_name(self):
        t = merge(VOID, delta(VOID))
        sample = _Sample(3, t, _WithToJson(), ((t, 1), ()), None)
        assert fields_json(sample) == {
            "maxSize": 3,
            "term": term_to_json(t),
            "valueAfter": {"own": True},
            "nestedItems": [[term_to_json(t), 1], []],
            "example": None,
        }

    def test_computed_keys_follow_and_replace_a_field(self):
        sample = _Sample(3, VOID, _WithToJson(), (), 7)
        out = fields_json(sample, example="computed", extra=[1])
        assert list(out) == ["maxSize", "term", "valueAfter", "nestedItems", "example", "extra"]
        assert out["example"] == "computed" and out["extra"] == [1]

    def test_json_value_keeps_other_values(self):
        for value in (None, 0, "s", [1], {"a": 1}, 2.5, True):
            assert json_value(value) is value


def reference_term_to_json(t: Term) -> dict:
    """The recursive definition, kept as the oracle of the explicit stack."""
    return {"k": t.kind, "c": [reference_term_to_json(c) for c in t.children]}


def reference_term_from_json(obj) -> Term:
    if not (isinstance(obj, dict) and isinstance(obj.get("k"), str)):
        raise TermError(f"a JSON term is an object with a string 'k', got {reprlib.repr(obj):.60}")
    children = obj.get("c", [])
    if not isinstance(children, list):
        raise TermError(f"the 'c' of a JSON term is a list, got {reprlib.repr(children):.60}")
    if set(obj) - {"k", "c"}:
        raise TermError(f"a JSON term has no key but 'k' and 'c', got {reprlib.repr(obj):.60}")
    return Term(obj["k"], tuple(reference_term_from_json(c) for c in children))


def test_term_arity_validated():
    with pytest.raises(Exception):
        Term("delta", ())
    with pytest.raises(Exception):
        Term("nonsense", ())


@pytest.mark.parametrize(
    "kind, children",
    [("delta", [VOID]), ("merge", ("x", VOID)), ("delta", (None,)), ("void", [])],
)
def test_term_rejects_children_it_cannot_hold(kind, children):
    # a list would leave the node unhashable and growable; a non-term child
    # would break its size
    with pytest.raises(TermError):
        Term(kind, children)


@pytest.mark.parametrize("kind", [["void"], {}, 3, None])
def test_term_rejects_a_kind_that_is_not_a_name(kind):
    # an unhashable kind must not escape as a TypeError from the arity lookup
    with pytest.raises(TermError, match="unknown constructor"):
        Term(kind)
    with pytest.raises(TermError, match="unknown constructor"):
        Term(kind, (VOID,))


def test_helpers_build_the_checked_node():
    assert delta(VOID) == Term("delta", (VOID,))
    assert rec(VOID, VOID, delta(VOID)) == Term("rec", (VOID, VOID, Term("delta", (VOID,))))
