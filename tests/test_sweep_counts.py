"""Every count a sweep reports, by recurrence on the term size, building no
term: the decrease sweep's (rule, component) instances, the coverage
sweep's instances per shape and `vacuousChecked`, and the local-join
sweep's forks.  The recurrences follow the guarded root rules' case split,
so they check the sweeps' counts beyond the sizes any enumerating oracle
reaches, and against the figures recorded at sizes 11 and 12.

A term falls into one of six classes: `void`, delta-rooted, flagged
(`rec b s (delta x)`) and every other term, the delta-rooted and the other
ones split by whether they hold a `rec`.  What a guarded root rule needs
to know of a child is its class, and whether two children are equal, which
only the diagonals `merge t t` and `eqw t t` ask."""

from collections import Counter
from functools import lru_cache

import pytest

from ko7.confluence import local_join_sweep, root_coverage_sweep
from ko7.measure import decrease_sweep
from ko7.rewrite import RelationKind

CLASSES = ("void", "delta", "delta-rec", "flagged", "other", "other-rec")
HAS_REC = {"delta-rec", "flagged", "other-rec"}
DELTA = {"delta", "delta-rec"}


def _times(x, y):
    """Moments (count, sum k, sum k^2) of k1 + k2 over all pairs."""
    return (x[0] * y[0], x[1] * y[0] + x[0] * y[1], x[2] * y[0] + 2 * x[1] * y[1] + x[0] * y[2])


def _shift(x, c):
    """Moments of k + c."""
    return (x[0], x[1] + c * x[0], x[2] + 2 * c * x[1] + c * c * x[0])


def _plus(x, y):
    return (x[0] + y[0], x[1] + y[1], x[2] + y[2])


def _merge_void_rules(left, right) -> int:
    """How many of merge_void_left and merge_void_right apply, by class."""
    return (left == "void" and right != "flagged") + (right == "void" and left != "flagged")


@lru_cache(maxsize=None)
def moments(size: int, ctx: bool) -> dict:
    """class -> (count, sum k, sum k^2) over the terms of exactly `size`
    nodes, k being a term's guarded root rewrites plus, when `ctx`, its
    children's k below integrate, merge, app and rec: the number of its
    witnesses, `_ctx_witness_count`."""
    out = dict.fromkeys(CLASSES, (0, 0, 0))
    if size == 1:
        out["void"] = (1, 0, 0)
        return out

    def kids(n):
        return {c: x if ctx else (x[0], 0, 0) for c, x in moments(n, ctx).items()}

    def add(cls, x):
        out[cls] = _plus(out[cls], x)

    for c, x in kids(size - 1).items():
        rec = c in HAS_REC
        add("delta-rec" if rec else "delta", (x[0], 0, 0))
        add("other-rec" if rec else "other", _shift(x, c in DELTA))  # integrate
    for a in range(1, size - 1):
        for cl, xl in kids(a).items():
            for cr, xr in kids(size - 1 - a).items():
                cls = "other-rec" if cl in HAS_REC or cr in HAS_REC else "other"
                pair = _times(xl, xr)
                add(cls, pair)  # app
                add(cls, _shift(pair, _merge_void_rules(cl, cr)))  # merge off its diagonal
                add(cls, (pair[0], pair[0], pair[0]))  # eqw: eq_diff, or eq_refl on the diagonal
    if size % 2:  # the diagonals merge u u and eqw u u
        for c, x in kids(size // 2).items():
            if c in HAS_REC:  # eqw u u has no guarded root rewrite
                add("other-rec", (0, -x[0], -x[0]))
            else:  # merge u u gains merge_cancel
                d = _shift((x[0], 2 * x[1], 4 * x[2]), _merge_void_rules(c, c))
                add("other", (0, d[0], 2 * d[1] + d[0]))
    for a in range(1, size - 2):
        for b in range(1, size - 1 - a):
            for cb, xb in kids(a).items():
                for cs, xs in kids(b).items():
                    for ca, xa in kids(size - 1 - a - b).items():
                        zero = ca == "void" and cb != "flagged"
                        cls = "flagged" if ca in DELTA else "other-rec"
                        add(cls, _shift(_times(_times(xb, xs), xa), zero + (ca in DELTA)))
    return out


def _count(size: int, classes=CLASSES) -> int:
    """The terms of exactly `size` nodes in `classes`; 0 below size 1."""
    return sum(moments(size, False)[c][0] for c in classes) if size >= 1 else 0


def _unflagged(size):
    return _count(size, set(CLASSES) - {"flagged"})


def _rec_free(size):
    return _count(size, set(CLASSES) - HAS_REC)


def shape_counts(size: int) -> dict:
    """Instances of each guarded root shape on the terms of exactly `size`
    nodes; a diagonal shape needs a rec-free u."""
    half = size // 2 if size % 2 else 0  # f(u, u) has 2 |u| + 1 nodes
    diagonal = _rec_free(half)
    return {
        "int-delta": _count(size - 2),
        "merge-void-left": _unflagged(size - 2),
        "merge-void-right": _unflagged(size - 2),
        "merge-cancel": diagonal,
        "rec-zero": sum(_unflagged(b) * _count(size - 2 - b) for b in range(1, size - 2)),
        "rec-succ": _count(size, {"flagged"}),
        "eqw-diff": sum(_count(a) * _count(size - 1 - a) for a in range(1, size - 1))
        - _count(half),
        "eqw-refl": diagonal,
    }


def decisions(max_size: int) -> Counter:
    """The decrease sweep's (rule, component) Counter.  Every rule but
    rec_zero, rec_succ and int_delta keeps the flag and the multiset and
    drops tau; rec_zero drops the rec's own tau from the multiset, rec_succ
    drops the flag, and int_delta drops the multiset when its argument
    holds a rec."""
    counts = Counter()
    for size in range(1, max_size + 1):
        shapes = shape_counts(size)
        for rule, shape in (
            ("merge_void_left", "merge-void-left"),
            ("merge_void_right", "merge-void-right"),
            ("merge_cancel", "merge-cancel"),
            ("eq_refl", "eqw-refl"),
            ("eq_diff", "eqw-diff"),
        ):
            counts[rule, "tau"] += shapes[shape]
        counts["rec_zero", "kappaM"] += shapes["rec-zero"]
        counts["rec_succ", "dflag"] += shapes["rec-succ"]
        counts["int_delta", "tau"] += _rec_free(size - 2)
        counts["int_delta", "kappaM"] += _count(size - 2) - _rec_free(size - 2)
    return +counts


def coverage_instances(max_size: int) -> Counter:
    counts = Counter()
    for size in range(1, max_size + 1):
        counts.update(shape_counts(size))
    return +counts


def vacuous_checked(max_size: int) -> int:
    """Terms that hold a rec, each the argument of a guard-blocked eqw t t."""
    return sum(_count(n) - _rec_free(n) for n in range(1, max_size + 1))


def forks_checked(max_size: int, relation: RelationKind) -> int:
    """Sum of C(k, 2) over the terms of size <= max_size."""
    ctx = relation is RelationKind.SAFE_CTX
    total = 0
    for size in range(1, max_size + 1):
        for _, s1, s2 in moments(size, ctx).values():
            total += (s2 - s1) // 2
    return total


SIZES = range(1, 10)


@pytest.mark.parametrize("max_size", SIZES)
def test_decrease_decisions(max_size):
    assert decrease_sweep(max_size).decisions == decisions(max_size)


@pytest.mark.parametrize("max_size", SIZES)
def test_coverage_counts(max_size):
    report = root_coverage_sweep(max_size)
    assert report.instances == coverage_instances(max_size)
    assert report.vacuous_checked == vacuous_checked(max_size)


@pytest.mark.parametrize("relation", [RelationKind.SAFE_ROOT, RelationKind.SAFE_CTX])
@pytest.mark.parametrize("max_size", range(1, 9))
def test_local_join_forks(max_size, relation):
    report = local_join_sweep(max_size, relation, budget=1000)
    assert report.forks_checked == forks_checked(max_size, relation)


def test_recorded_figures():
    assert forks_checked(11, RelationKind.SAFE_CTX) == 742_300
    assert forks_checked(12, RelationKind.SAFE_CTX) == 4_148_021
    assert sum(decisions(12).values()) == 2_857_020
