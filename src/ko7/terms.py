"""The KO7 term algebra.

Terms are finite trees over seven constructors:

    void | delta T | integrate T | merge T T | app T T | rec T T T | eqw T T

This module defines the tree type, the S-expression interchange syntax,
positions (paths of child indices), functional subterm access/replacement,
and exhaustive enumeration of all terms up to a size bound.  Everything is
immutable and pure.
"""

from __future__ import annotations

import gc
import re
from contextlib import contextmanager
from functools import lru_cache
from itertools import islice
from typing import Iterator, Sequence

# Constructor order is fixed: it determines enumeration order and is part of
# the reproducibility contract of every sweep report.
KINDS = ("void", "delta", "integrate", "merge", "app", "rec", "eqw")
ARITY = {"void": 0, "delta": 1, "integrate": 1, "merge": 2, "app": 2, "rec": 3, "eqw": 2}
KIND_INDEX = {k: i for i, k in enumerate(KINDS)}

Position = tuple[int, ...]


class TermError(ValueError):
    pass


class ParseError(TermError):
    """Malformed surface syntax; `offset` is the character offset of the error."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


class ArityError(ParseError):
    """A constructor application with the wrong number of arguments."""

    def __init__(self, constructor: str, expected: int, got: int, offset: int):
        super().__init__(
            f"'{constructor}' takes {expected} argument(s), got {got}", offset
        )
        self.constructor = constructor


class InvalidPositionError(TermError):
    def __init__(self, index: int, term: "Term"):
        kind, arity = term.kind, len(term.children)  # render(term) may be megabytes
        super().__init__(f"no child {index} at a {kind} node with {arity} children")
        self.index = index


_set = object.__setattr__
_new = object.__new__


class Term:
    """One node of the object language; immutable, equality is structural.
    `Term(kind, children)` raises TermError unless `kind` is a constructor
    and `children` is a tuple of exactly its arity in `Term`s.

    `==` compares identity first, then `kind` and `children`, and never
    computes a hash; a node's hash is computed only when it is a dict or
    set key.  Besides `kind` and `children`, a node caches four facts about
    itself in its slots, each computed on first use from its children's
    cached values and never again: its hash, its `size`, its `tau` (the
    weighted node count of `ko7.measure`: eqw weighs 3, every other
    constructor 1) and `rec_taus`, the tau of every rec-rooted subterm
    occurrence in pre-order (the elements of kappa_m).  Nothing is computed
    at construction: most nodes built by `replace_at` or by the no-go
    searches are never hashed or measured.

    Past the recursion limit, `==` compares the two terms' constructors in
    pre-order, on an explicit stack.
    """

    __slots__ = ("kind", "children", "_hash", "_size", "_tau", "_rec_taus")

    def __init__(self, kind: str, children: tuple["Term", ...] = ()):
        if not isinstance(children, tuple):
            raise TermError(f"children must be a tuple, got {type(children).__name__}")
        for c in children:
            if not isinstance(c, Term):
                raise TermError(f"a child must be a Term, got {type(c).__name__}")
        arity = ARITY.get(kind) if isinstance(kind, str) else None
        if arity != len(children):
            if arity is None:
                raise TermError(f"unknown constructor {kind!r}")
            raise TermError(f"{kind} takes {arity} children, got {len(children)}")
        _set(self, "kind", kind)
        _set(self, "children", children)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Term, (self.kind, self.children)

    def __repr__(self):
        return f"<{render(self)}>"

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = hash((self.kind, self.children))
            _set(self, "_hash", h)
            return h

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not Term:
            return NotImplemented
        try:
            return self.kind == other.kind and self.children == other.children
        except RecursionError:  # arities are fixed, so a term's kinds in pre-order fix it
            return [u.kind for u in subterms(self)] == [u.kind for u in subterms(other)]

    def _fill(self) -> None:
        """Cache size, tau and rec_taus from the children's cached values."""
        nodes = 1
        tau = 3 if self.kind == "eqw" else 1
        recs: tuple[int, ...] = ()
        for c in self.children:
            try:
                nodes += c._size
            except AttributeError:
                c._fill()
                nodes += c._size
            tau += c._tau
            recs += c._rec_taus
        _set(self, "_size", nodes)
        _set(self, "_tau", tau)
        _set(self, "_rec_taus", (tau,) + recs if self.kind == "rec" else recs)

    @property
    def size(self) -> int:
        try:
            return self._size
        except AttributeError:
            self._fill()
            return self._size

    @property
    def tau(self) -> int:
        try:
            return self._tau
        except AttributeError:
            self._fill()
            return self._tau

    @property
    def rec_taus(self) -> tuple[int, ...]:
        try:
            return self._rec_taus
        except AttributeError:
            self._fill()
            return self._rec_taus


def _node(kind: str, children: tuple[Term, ...]) -> Term:
    """A node whose kind, arity and children are known to be valid, built
    without `Term.__init__`'s checks: for the enumeration and `replace_at`,
    which copy them from valid nodes, for `parse`, which checks them itself,
    and for the right-hand sides of the root rules and coverage's targets."""
    t = _new(Term)
    _set(t, "kind", kind)
    _set(t, "children", children)
    return t


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Run the body with the cyclic garbage collector disabled, then put
    it back as it was (enabled or not), also when the body raises.

    Terms are acyclic: a node is immutable and its children exist before
    it, so no term refers back to itself, and reference counting frees
    every term as soon as it is dropped.  The collector can free nothing
    here, yet each node and child tuple counts toward its thresholds, and
    each full pass walks every live term again.  The sweeps and the full
    reducer build millions of them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


VOID = Term("void")


def delta(child: Term) -> Term:
    return Term("delta", (child,))


def integrate(child: Term) -> Term:
    return Term("integrate", (child,))


def merge(left: Term, right: Term) -> Term:
    return Term("merge", (left, right))


def app(left: Term, right: Term) -> Term:
    return Term("app", (left, right))


def rec(base: Term, step: Term, arg: Term) -> Term:
    return Term("rec", (base, step, arg))


def eqw(left: Term, right: Term) -> Term:
    return Term("eqw", (left, right))


def size(t: Term) -> int:
    """Number of constructor nodes."""
    return t.size


def render(t: Term) -> str:
    """Canonical lowercase S-expression; inverse of parse.  The pending
    nodes and the literal " " and ")" wait on one explicit stack, so any
    depth renders."""
    out: list[str] = []
    stack: list = [t]
    while stack:
        item = stack.pop()
        if item.__class__ is str:
            out.append(item)
        elif item.children:
            out.append("(" + item.kind)
            stack.append(")")
            for c in reversed(item.children):
                stack.append(c)
                stack.append(" ")
        else:
            out.append(item.kind)
    return "".join(out)


_TOKEN = re.compile(r"[()]|[^\s()]+")


def parse(text: str) -> Term:
    """Parse one term from the grammar `void | (delta T) | ... | (eqw T T)`.

    Raises ParseError (with the character offset of the error) on malformed
    input and ArityError when a constructor is applied to the wrong number
    of subterms.  The open constructors are kept on an explicit stack, so
    any depth parses.
    """
    stack: list[tuple[str, int, list[Term]]] = []  # (head, head offset, children)
    term = None
    off = 0
    tokens = _TOKEN.finditer(text)
    for match in tokens:
        tok, off = match[0], match.start()
        if term is not None:
            raise ParseError(f"trailing input {tok!r}", off)
        if tok == "(":
            match = next(tokens, None)
            if match is None:
                raise ParseError("unexpected end of input after '('", off)
            head, off = match[0], match.start()
            if head in "()":
                raise ParseError("expected a constructor after '('", off)
            if head == "void":
                raise ParseError("'void' is written bare, without parentheses", off)
            if head not in ARITY:
                raise ParseError(f"unknown constructor {head!r}", off)
            stack.append((head, off, []))
            continue
        if tok == "void":
            node = VOID
        elif tok == ")":
            if not stack:
                raise ParseError("unexpected ')'", off)
            head, head_off, children = stack.pop()
            if len(children) != ARITY[head]:
                raise ArityError(head, ARITY[head], len(children), head_off)
            node = _node(head, tuple(children))
        elif tok in ARITY:
            # a non-nullary constructor used bare, e.g. "delta"
            raise ParseError(f"constructor {tok!r} requires parentheses", off)
        else:
            raise ParseError(f"unexpected token {tok!r}", off)
        if stack:
            stack[-1][2].append(node)
        else:
            term = node
    if stack:
        raise ParseError("missing ')'", off)
    if term is None:
        raise ParseError("empty input", 0)
    return term


def subterm_at(t: Term, position: Sequence[int]) -> Term:
    for index in position:
        if not 0 <= index < len(t.children):
            raise InvalidPositionError(index, t)
        t = t.children[index]
    return t


def replace_at(t: Term, position: Sequence[int], replacement: Term) -> Term:
    """Functional replacement of the subterm at `position`.

    Descends once, collecting the ancestors, then rebuilds them bottom-up:
    linear in the length of `position`, with no recursion."""
    ancestors: list[tuple[Term, int]] = []
    for index in position:
        if not 0 <= index < len(t.children):
            raise InvalidPositionError(index, t)
        ancestors.append((t, index))
        t = t.children[index]
    for parent, index in reversed(ancestors):
        kids = list(parent.children)
        kids[index] = replacement
        replacement = _node(parent.kind, tuple(kids))
    return replacement


def positions(t: Term) -> Iterator[Position]:
    """All positions of t in lexicographic (prefix) order, root first."""
    stack = [((), t)]
    while stack:
        position, node = stack.pop()
        yield position
        kids = node.children
        stack.extend((position + (i,), kids[i]) for i in range(len(kids) - 1, -1, -1))


def subterms(t: Term) -> Iterator[Term]:
    """All subterm occurrences, root first."""
    stack = [t]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


@lru_cache(maxsize=None)
def _count_of_size(n: int) -> int:
    """Number of terms with exactly n nodes (0 below 1), by the recurrence
    over constructors and child-size compositions; builds no term."""
    if n < 1:
        return 0
    if n == 1:
        return 1
    return sum(_count_tuples(n - 1, ARITY[kind]) for kind in KINDS if ARITY[kind])


@lru_cache(maxsize=None)
def _count_tuples(total: int, arity: int) -> int:
    """Number of tuples of `arity` terms whose sizes sum to `total`."""
    if arity == 1:
        return _count_of_size(total)
    return sum(
        _count_of_size(first) * _count_tuples(total - first, arity - 1)
        for first in range(1, total - arity + 2)
    )


def _child_tuples(total: int, arity: int, skip: int) -> Iterator[tuple[Term, ...]]:
    """The tuples of `arity` terms whose sizes sum to `total`, ordered
    lexicographically by the canonical order of the children, from the
    `skip`-th on.  The blocks before it (one per first-child size, then one
    per first child) are skipped by their counts, not built; children come
    from the cached buckets of size total - arity + 1 and below."""
    if arity == 1:
        for c in terms_of_size(total)[skip:]:
            yield (c,)
        return
    for first in range(1, total - arity + 2):
        per_child = _count_tuples(total - first, arity - 1)
        block = _count_of_size(first) * per_child
        if skip >= block:
            skip -= block
            continue
        index, skip = divmod(skip, per_child)
        rest = list(_child_tuples(total - first, arity - 1, 0))
        for c in terms_of_size(first)[index:]:
            for tail in rest[skip:] if skip else rest:
                yield (c,) + tail
            skip = 0


def _bucket(n: int, skip: int) -> Iterator[Term]:
    """The terms of size n in canonical order from the `skip`-th on, each
    constructor's block skipped by its count when it lies before it."""
    if n == 1:
        yield from (VOID,)[skip:]
        return
    for kind in KINDS:
        arity = ARITY[kind]
        if not arity:
            continue
        block = _count_tuples(n - 1, arity)
        if skip >= block:
            skip -= block
            continue
        for kids in _child_tuples(n - 1, arity, skip):
            yield _node(kind, kids)
        skip = 0


@lru_cache(maxsize=None)
def terms_of_size(n: int) -> tuple[Term, ...]:
    """All terms with exactly n nodes, in canonical order.

    The canonical order compares size first, then constructor (in KINDS
    order), then the children lexicographically, each child by the same
    order.  Within one bucket the size is fixed, so the loop nest realises
    it directly: constructors in KINDS order; for each, the first child
    runs over all sizes ascending and over each size's (already canonical)
    bucket, then the next child the same way, and the last child takes the
    size that is left.  No sort is needed.
    """
    # a list grows faster than a tuple from a generator of unknown length
    return tuple(list(_bucket(n, 0)))


def enumerate_terms(max_size: int, lo: int = 0, hi: int | None = None) -> list[Term]:
    """Every term with size <= max_size, exactly once, in canonical order;
    with `lo` and `hi`, exactly enumerate_terms(max_size)[lo:hi].

    Buckets below max_size, and the top bucket when the slice covers it
    whole, come from the cache of `terms_of_size`.  A part of the top
    bucket is generated from the slice's first term on, so a sweep chunk
    never builds the whole top bucket."""
    if max_size < 1:
        raise TermError("max_size must be >= 1")
    lo, hi, _ = slice(lo, hi).indices(count_terms(max_size))
    out: list[Term] = []
    start = 0
    for n in range(1, max_size + 1):
        count = _count_of_size(n)
        a, b = max(lo - start, 0), min(hi - start, count)
        if a < b:
            if n < max_size or b - a == count:
                out.extend(terms_of_size(n)[a:b])
            else:
                out.extend(islice(_bucket(n, a), b - a))
        start += count
    return out


def count_terms(max_size: int) -> int:
    """Number of terms with size <= max_size (0 below 1); builds no term."""
    return sum(_count_of_size(n) for n in range(1, max_size + 1))


def term_to_json(t: Term) -> dict:
    """{"k": constructor, "c": [children]}, every node its own dict.  The
    nodes wait on an explicit stack, so any depth converts."""
    root = {"k": t.kind, "c": []}
    stack = [(t, root["c"])]
    while stack:
        node, kids = stack.pop()
        for c in node.children:
            d = {"k": c.kind, "c": []}
            kids.append(d)
            if c.children:
                stack.append((c, d["c"]))
    return root


def _json_frame(obj) -> tuple[str, list, list[Term]]:
    """(kind, JSON children, children built so far) for one JSON term;
    TermError when `obj` is not shaped like one, showing the offending
    value by `reprlib`, which reads only its first levels and items."""
    if isinstance(obj, dict) and isinstance(obj.get("k"), str):
        children = obj.get("c", [])
        if isinstance(children, list):
            return obj["k"], children, []
        what, bad = "the 'c' of a JSON term is a list", children
    else:
        what, bad = "a JSON term is an object with a string 'k'", obj
    import reprlib

    raise TermError(f"{what}, got {reprlib.repr(bad):.60}")


def term_from_json(obj: dict) -> Term:
    """Inverse of term_to_json: {"k": constructor, "c": [term, ...]}, with
    "c" optional for void.  Any other shape raises TermError.  `obj` is a
    tree, as `json.loads` returns; its open nodes wait on an explicit
    stack, so any depth converts.  Children are converted left to right
    before their parent is checked, so the first error is the one a
    depth-first reading meets first."""
    stack = [_json_frame(obj)]
    while True:
        kind, pending, built = stack[-1]
        if len(built) < len(pending):
            stack.append(_json_frame(pending[len(built)]))
            continue
        stack.pop()
        node = Term(kind, tuple(built))
        if not stack:
            return node
        stack[-1][2].append(node)
