import gc
import os
from collections import Counter
from dataclasses import dataclass, field

import pytest

import ko7.confluence as confluence
from ko7.cli import main
from ko7.confluence import (
    CoverageReport,
    SweepReport,
    UniqueNFReport,
    _coverage_chunk,
    _local_join_chunk,
    _unique_nf_chunk,
)
from ko7.measure import DecreaseReport, _decrease_chunk
from ko7.normalize import normalize_full
from ko7.rewrite import RelationKind, RuleId
from ko7.terms import VOID, _collector_paused, count_terms, delta, rec
from ko7.workers import CHUNKS_PER_WORKER, resolve_workers, run_sweep


@pytest.mark.parametrize("value", [None, "abc", "0", "-3"])
def test_resolve_workers_falls_back_to_one(monkeypatch, value):
    if value is None:
        monkeypatch.delenv("KO7_WORKERS", raising=False)
    else:
        monkeypatch.setenv("KO7_WORKERS", value)
    assert resolve_workers() == 1


def test_resolve_workers_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setenv("KO7_WORKERS", "99")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert resolve_workers() == 3


@dataclass
class _Slices:
    slices: list = field(default_factory=list)


def _slice_chunk(max_size, lo, hi, tag):
    return _Slices([(max_size, lo, hi, tag)])


def test_run_sweep_merges_contiguous_slices_in_order():
    total = count_terms(5)
    assert run_sweep(_slice_chunk, 5, 1, "t").slices == [(5, 0, total, "t")]
    pooled = run_sweep(_slice_chunk, 5, 2, "t").slices
    assert len(pooled) == 2 * CHUNKS_PER_WORKER
    assert pooled[0][1] == 0 and pooled[-1][2] == total
    assert all(a[2] == b[1] for a, b in zip(pooled, pooled[1:]))
    assert {(s[0], s[3]) for s in pooled} == {(5, "t")}


class _SerialPool:
    """Runs `map` in order, in this process, recording the slices."""

    submitted: list = []

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        tasks = list(zip(*iterables))
        _SerialPool.submitted = [task[1:3] for task in tasks]
        return [fn(*task) for task in tasks]


def test_run_sweep_submits_last_slice_first(monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    merged = [s[1:3] for s in run_sweep(_slice_chunk, 5, 2, "t").slices]
    assert _SerialPool.submitted == merged[::-1]
    assert merged[0][0] == 0 and merged[-1][1] == count_terms(5)


def _collector_chunk(max_size, lo, hi):
    return _Slices([gc.isenabled()])


class _ChunkFailed(Exception):
    pass


def _failing_chunk(max_size, lo, hi):
    raise _ChunkFailed


def test_every_pooled_chunk_runs_with_the_collector_paused():
    assert run_sweep(_collector_chunk, 5, 2).slices == [False] * (2 * CHUNKS_PER_WORKER)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_pauses_the_collector_and_puts_it_back(monkeypatch, collector, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    chunks = 1 if workers == 1 else workers * CHUNKS_PER_WORKER
    assert run_sweep(_collector_chunk, 5, workers).slices == [False] * chunks
    assert gc.isenabled() is collector


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_puts_the_collector_back_when_a_chunk_raises(monkeypatch, collector, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    with pytest.raises(_ChunkFailed):
        run_sweep(_failing_chunk, 5, workers)
    assert gc.isenabled() is collector


def test_sweeps_and_the_full_reducer_leave_no_cyclic_garbage():
    # the premise of the pause: terms and what the sweeps build from them
    # form no reference cycles, so reference counting frees all of it
    chain = VOID
    for _ in range(200):
        chain = delta(chain)
    total = count_terms(6)
    gc.collect()
    with _collector_paused():
        _decrease_chunk(6, 0, total)
        _unique_nf_chunk(6, 0, total)
        _coverage_chunk(6, 0, total)
        for relation, budget, lift in (
            (RelationKind.SAFE_ROOT, 200, True),
            (RelationKind.SAFE_CTX, 200, True),
            (RelationKind.SAFE_CTX, 1, False),
        ):
            _local_join_chunk(6, 0, total, relation, budget, lift)
        assert normalize_full(rec(VOID, VOID, chain)).steps_taken == 201
        assert gc.collect() == 0


@dataclass
class _Tally:
    name: str
    count: int = 0
    items: list = field(default_factory=list)
    kinds: Counter = field(default_factory=Counter)


def _tally_chunk(max_size, lo, hi):
    return _Tally(f"size {max_size}", hi - lo, [lo], Counter({lo % 2: 1, "all": hi - lo}))


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_sums_every_defaulted_field_in_slice_order(monkeypatch, workers):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    total = count_terms(5)
    merged = run_sweep(_tally_chunk, 5, workers)
    starts = [lo for lo, _ in reversed(_SerialPool.submitted)] if workers > 1 else [0]
    assert merged.name == "size 5"
    assert merged.count == total
    assert merged.items == starts
    evens = sum(1 for lo in starts if lo % 2 == 0)
    assert merged.kinds == Counter({0: evens, 1: len(starts) - evens, "all": total})


def test_no_sweep_report_merges_itself():
    reports = (DecreaseReport, SweepReport, UniqueNFReport, CoverageReport)
    assert not any(hasattr(report, "merge") for report in reports)


@pytest.fixture
def wrong_root_rewrites(monkeypatch):
    """Guarded root rewrites with two faults, under the in-process pool:
    every merge step lands one delta above its target, and eqw a a steps
    to void even when the guard blocks it.  Yields the unfaulted coverage
    report at size 6."""
    import concurrent.futures

    clean = confluence.root_coverage_sweep(6)
    guarded = confluence._root_rewrites

    def wrong(t, safe):
        if t.kind == "merge":
            return [(rule, delta(result)) for rule, result in guarded(t, safe)]
        if t.kind == "eqw" and t.children[0] == t.children[1]:
            return [(RuleId.EQ_REFL, VOID)]
        return guarded(t, safe)

    monkeypatch.setattr(confluence, "_root_rewrites", wrong)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SerialPool)
    yield clean


class TestCoverageFaults:
    def test_mismatches_and_blocked_eqw_violations_are_reported(self, wrong_root_rewrites):
        report = confluence.root_coverage_sweep(6)
        assert not report.ok
        assert {shape for shape, _ in report.mismatches} == {
            "merge-void-left",
            "merge-void-right",
            "merge-cancel",
        }
        merges = sum(report.instances[s] for s in ("merge-void-left", "merge-void-right"))
        assert len(report.mismatches) == merges + report.instances["merge-cancel"]
        assert len(report.vacuous_violations) == report.vacuous_checked > 0
        assert report.instances == wrong_root_rewrites.instances

    def test_two_workers_merge_the_same_report(self, wrong_root_rewrites):
        # lists, a Counter and counts merged together across every chunk
        serial = confluence.root_coverage_sweep(6, workers=1).to_json()
        pooled = confluence.root_coverage_sweep(6, workers=2).to_json()
        assert len(_SerialPool.submitted) == 2 * CHUNKS_PER_WORKER
        assert pooled == serial
        assert serial["mismatches"] and serial["vacuousViolations"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_check_fails(self, wrong_root_rewrites, monkeypatch, capsys, workers):
        monkeypatch.setenv("KO7_WORKERS", workers)
        assert main(["check", "coverage", "--max-size", "6"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("FAIL\n")
        assert "target mismatches: 0" not in out
