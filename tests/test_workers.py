import os

import pytest

from ko7.terms import count_terms
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


class _Slices:
    def __init__(self, slices):
        self.slices = slices

    def merge(self, other):
        self.slices += other.slices


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
