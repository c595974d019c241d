import gc
import itertools
import os
import signal
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path
from typing import NamedTuple

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
from ko7.measure import DecreaseReport, _decrease_chunk, decrease_sweep
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


def _mask(monkeypatch, cpus: int) -> None:
    """Run resolve_workers as if this process may use `cpus` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_resolve_workers_is_capped_at_cpu_count(monkeypatch):
    monkeypatch.setenv("KO7_WORKERS", "99")
    _mask(monkeypatch, 3)
    assert resolve_workers() == 3


def test_resolve_workers_is_capped_at_the_cpus_this_process_may_use(monkeypatch):
    # pinned to one CPU of four, a process runs one worker at a time
    monkeypatch.setenv("KO7_WORKERS", "4")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    _mask(monkeypatch, 1)
    assert resolve_workers() == 1
    # without an affinity mask, the CPU count caps
    monkeypatch.delattr(os, "sched_getaffinity")
    assert resolve_workers() == 4


class _Slices(NamedTuple):
    slices: tuple = ()


def _slice_chunk(max_size, lo, hi, tag):
    return _Slices(((max_size, lo, hi, tag),))


def test_run_sweep_merges_contiguous_slices_in_order():
    total = count_terms(5)
    assert run_sweep(_slice_chunk, 5, 1, "t").slices == ((5, 0, total, "t"),)
    pooled = run_sweep(_slice_chunk, 5, 2, "t").slices
    assert len(pooled) == 2 * CHUNKS_PER_WORKER
    assert pooled[0][1] == 0 and pooled[-1][2] == total
    assert all(a[2] == b[1] for a, b in zip(pooled, pooled[1:]))
    assert {(s[0], s[3]) for s in pooled} == {(5, "t")}


def test_run_sweep_forks_no_more_workers_than_the_handout_takes(monkeypatch):
    # the hand-out is written whole before any fork, so it must fit the pipe
    monkeypatch.setattr("ko7.workers._MAX_WORKERS", 2)
    assert len(run_sweep(_slice_chunk, 5, 4, "t").slices) == 2 * CHUNKS_PER_WORKER


_ORDER = itertools.count()


def _order_chunk(max_size, lo, hi):
    # a forked worker counts on from the parent's count, one per chunk it runs
    return _Slices(((os.getpid(), next(_ORDER), lo),))


def test_run_sweep_submits_last_slice_first():
    merged = run_sweep(_order_chunk, 5, 2).slices
    starts = [lo for _, _, lo in merged]
    assert len(starts) == 2 * CHUNKS_PER_WORKER and starts == sorted(starts)
    taken: dict[int, list[int]] = {}  # worker -> the slices it ran, in order
    for pid, _, lo in sorted(merged, key=lambda s: s[1]):
        taken.setdefault(pid, []).append(lo)
    assert os.getpid() not in taken and 1 <= len(taken) <= 2
    assert all(los == sorted(los, reverse=True) for los in taken.values())
    assert starts[-1] in {los[0] for los in taken.values()}


def _collector_chunk(max_size, lo, hi):
    return _Slices((gc.isenabled(),))


class _ChunkFailed(Exception):
    pass


def _failing_chunk(max_size, lo, hi):
    if lo == 0:
        raise _ChunkFailed(f"slice from {lo} failed")
    return _Slices()


def test_every_pooled_chunk_runs_with_the_collector_paused():
    assert run_sweep(_collector_chunk, 5, 2).slices == (False,) * (2 * CHUNKS_PER_WORKER)


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_pauses_the_collector_and_puts_it_back(collector, workers):
    chunks = 1 if workers == 1 else workers * CHUNKS_PER_WORKER
    assert run_sweep(_collector_chunk, 5, workers).slices == (False,) * chunks
    assert gc.isenabled() is collector


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_puts_the_collector_back_when_a_chunk_raises(collector, workers):
    with pytest.raises(_ChunkFailed):
        run_sweep(_failing_chunk, 5, workers)
    assert gc.isenabled() is collector


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_a_chunk_error_reaches_the_caller_as_raised(workers):
    with pytest.raises(_ChunkFailed) as caught:
        run_sweep(_failing_chunk, 5, workers)
    assert type(caught.value) is _ChunkFailed
    assert caught.value.args == ("slice from 0 failed",)


def test_an_unpicklable_chunk_error_arrives_as_its_repr():
    class Local(Exception):  # a local class does not pickle
        pass

    def chunk(max_size, lo, hi):
        raise Local("no pickle")

    with pytest.raises(RuntimeError) as caught:
        run_sweep(chunk, 5, 2)
    assert caught.value.args == ("Local('no pickle')",)


def _killed_chunk(max_size, lo, hi):
    os.kill(os.getpid(), signal.SIGKILL)


def _interrupted(fd):
    raise KeyboardInterrupt


@pytest.mark.parametrize("way_out", ["killed worker", "interrupted parent"])
def test_no_worker_or_pipe_outlives_a_failed_sweep(monkeypatch, way_out):
    fds = len(os.listdir("/proc/self/fd"))
    if way_out == "killed worker":
        with pytest.raises(RuntimeError, match=r"^sweep worker \d+ ended without a result \(wait status 9\)$"):
            run_sweep(_killed_chunk, 5, 2)
    else:
        monkeypatch.setattr("ko7.workers._read_all", _interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(_slice_chunk, 7, 2, "t")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == fds


def test_resolve_workers_is_one_without_fork(monkeypatch):
    monkeypatch.setenv("KO7_WORKERS", "2")
    _mask(monkeypatch, 2)
    assert resolve_workers() == 2
    monkeypatch.delattr(os, "fork")
    assert resolve_workers() == 1


SWEEPS = {
    "decrease": decrease_sweep,
    "unique-nf": confluence.unique_nf_sweep,
    "coverage": confluence.root_coverage_sweep,
    "local-join": partial(confluence.local_join_sweep, relation=RelationKind.SAFE_CTX, budget=200),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_forked_sweeps_report_as_the_serial_ones(name):
    sweep = SWEEPS[name]
    for max_size in range(1, 8):
        serial = sweep(max_size, workers=1).to_json()
        for count in (2, 3, 4):
            assert sweep(max_size, workers=count).to_json() == serial, (max_size, count)


def test_a_forked_sweep_loads_no_pool_module():
    # pickle is imported only when workers are forked
    code = (
        "import sys\n"
        "from ko7.confluence import unique_nf_sweep\n"
        "assert unique_nf_sweep(5, workers=2).ok\n"
        "print(sorted({'concurrent.futures', 'multiprocessing', 'pickle'} & set(sys.modules)))\n"
    )
    src = str(Path(confluence.__file__).resolve().parent.parent)
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (result.returncode, result.stdout) == (0, "['pickle']\n")


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


class _Tally(NamedTuple):
    name: str
    count: int = 0
    items: tuple = ()
    kinds: Counter = Counter()


def _tally_chunk(max_size, lo, hi):
    return _Tally(f"size {max_size}", hi - lo, (lo,), Counter({lo % 2: 1, "all": hi - lo}))


@pytest.mark.parametrize("workers", [1, 2])
def test_run_sweep_sums_every_defaulted_field_in_slice_order(workers):
    total = count_terms(5)
    merged = run_sweep(_tally_chunk, 5, workers)
    starts = [s[1] for s in run_sweep(_slice_chunk, 5, workers, "t").slices]
    assert merged.name == "size 5"
    assert merged.count == total
    assert merged.items == tuple(starts)
    evens = sum(1 for lo in starts if lo % 2 == 0)
    assert merged.kinds == Counter({0: evens, 1: len(starts) - evens, "all": total})


def test_no_sweep_report_merges_itself():
    reports = (DecreaseReport, SweepReport, UniqueNFReport, CoverageReport)
    assert not any(hasattr(report, "merge") for report in reports)


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_reports_are_values(workers):
    # a chunk builds its report once, the merge builds a new one, and
    # neither writes to a report or to a field's default
    reports = {
        "decisions": decrease_sweep(6, workers=workers),
        "instances": confluence.root_coverage_sweep(6, workers=workers),
    }
    assert DecreaseReport._field_defaults["decisions"] == Counter()
    assert CoverageReport._field_defaults["instances"] == Counter()
    for name, report in reports.items():
        assert getattr(report, name)
        with pytest.raises(AttributeError):
            setattr(report, name, Counter())


@pytest.fixture
def wrong_root_rewrites(monkeypatch):
    """Guarded root rewrites with two faults, which forked workers inherit:
    every merge step lands one delta above its target, and eqw a a steps
    to void even when the guard blocks it.  Yields the unfaulted coverage
    report at size 6."""
    clean = confluence.root_coverage_sweep(6)
    guarded = confluence._root_rewrites

    def wrong(t, safe):
        if t.kind == "merge":
            return [(rule, delta(result)) for rule, result in guarded(t, safe)]
        if t.kind == "eqw" and t.children[0] == t.children[1]:
            return [(RuleId.EQ_REFL, VOID)]
        return guarded(t, safe)

    monkeypatch.setattr(confluence, "_root_rewrites", wrong)
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
        assert pooled == serial
        assert serial["mismatches"] and serial["vacuousViolations"]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_check_fails(self, wrong_root_rewrites, monkeypatch, capsys, workers):
        monkeypatch.setenv("KO7_WORKERS", workers)
        assert main(["check", "coverage", "--max-size", "6"]) == 1
        out = capsys.readouterr().out
        assert out.endswith("FAIL\n")
        assert "target mismatches: 0" not in out
