"""The sweep runner: one term-enumeration sweep, serially or on forked
worker processes.

`run_sweep` partitions the term enumeration into contiguous chunks, runs
them on worker processes, and merges the partial reports (NamedTuples) in
chunk order by one rule for every report, each field with a default
summed, so output is identical for any worker count and no report merges
itself.  With more than one worker there are CHUNKS_PER_WORKER chunks per
worker: the cost per term grows with its size, so equal slices of the
enumeration are far from equal work, and finer chunks let the workers
balance the heavy tail.  Chunks are handed out last first: the tail of
the top size bucket (its rec and eqw terms) is the heaviest work, and
started last it would leave one worker running alone at the end.  Each
chunk enumerates only its own slice.

The parent forks the workers itself.  Before it forks, it writes every
chunk index, last first, into one pipe as a fixed-width record and closes
the write end; each worker reads one index at a time and runs that chunk
until the pipe is empty.  A worker then sends its (index, report) pairs,
pickled, through a pipe of its own, or instead the exception of the chunk
that raised (a RuntimeError carrying its repr when the exception does not
pickle).  The parent runs no chunk: it reads each worker's result, reaps
the worker, re-raises the first chunk error it reads, and merges the
reports in slice order.  A worker that ends without a result, killed by a
signal for instance, is a RuntimeError naming its wait status.  On every
way out, an interrupt included, the parent kills and reaps each worker it
has not reaped and closes every pipe end it opened.  Where os.fork is
missing, sweeps run serially.  A fork copies only the calling thread, so
a library caller that runs threads of its own should sweep with one
worker; the `ko7` command runs none.

The KO7_WORKERS environment variable caps how many workers sweep
subcommands may use (default 1: serial).
"""

from __future__ import annotations

import os
from typing import Callable, NoReturn, TypeVar

from .terms import _collector_paused, count_terms

R = TypeVar("R")

CHUNKS_PER_WORKER = 4

_RECORD = 4  # bytes per chunk index in the hand-out pipe
# The hand-out is written whole before any worker starts, so it must fit a
# pipe's buffer, which is one page (4096 bytes) at the least on Linux.
_MAX_WORKERS = 4096 // (_RECORD * CHUNKS_PER_WORKER)


def resolve_workers() -> int:
    """KO7_WORKERS capped at the CPUs this process may run on (its affinity
    mask where the platform has one, else the CPU count); 1 when unset, not
    an integer, or below 1, and 1 where os.fork is missing."""
    if not hasattr(os, "fork"):
        return 1
    try:
        cap = int(os.environ.get("KO7_WORKERS", "1"))
    except ValueError:
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    return max(1, min(cap, cpus))


def _paused_chunk(chunk_fn: Callable[..., R], *task) -> R:
    with _collector_paused():
        return chunk_fn(*task)


def run_sweep(chunk_fn: Callable[..., R], max_size: int, workers: int, *args) -> R:
    """Apply chunk_fn(max_size, lo, hi, *args) to contiguous [lo, hi) slices
    of enumerate_terms(max_size) and merge the partial reports in slice
    order.  One slice, run in this process, when serial; otherwise
    CHUNKS_PER_WORKER slices per worker (at most 256 workers), handed out
    last slice first to forked workers (see the module docstring), so
    workers > 1 needs os.fork.  Each slice runs with the cyclic collector
    paused (`terms._collector_paused`: the terms it builds form no cycles),
    and the collector is then put back as it was.  `pickle` is imported
    only when workers are forked, by the rule the CLI keeps too: each `ko7`
    command is a fresh process, and it loads only the modules that it runs.

    A report is a NamedTuple, and the merge rule is one for all of them: a
    field with a default (a count, a Counter or a tuple) is summed with `+`
    in slice order, and a field without one (max_size, relation)
    identifies the sweep and is the same in every slice."""
    total = count_terms(max_size)
    workers = min(workers, _MAX_WORKERS)
    chunks = workers * CHUNKS_PER_WORKER if workers > 1 else 1
    chunks = max(1, min(chunks, total))
    base, extra = divmod(total, chunks)
    tasks = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        tasks.append((max_size, lo, hi, *args))
        lo = hi
    if chunks == 1:
        parts = [_paused_chunk(chunk_fn, *tasks[0])]
    else:
        parts = _run_forked(chunk_fn, tasks, min(workers, chunks))
    first = parts[0]
    sums = {}
    for name in first._field_defaults:
        values = [getattr(part, name) for part in parts]
        sums[name] = sum(values[1:], values[0])
    return first._replace(**sums)


def _run_forked(chunk_fn: Callable[..., R], tasks: list[tuple], workers: int) -> list[R]:
    """Run every task on `workers` forked workers; their reports in task
    order."""
    import pickle

    handout, handout_w = os.pipe()
    opened = [handout, handout_w]  # pipe ends not yet closed
    pending: list[tuple[int, int]] = []  # (pid, result read end) not yet reaped
    try:
        records = b"".join(i.to_bytes(_RECORD, "little") for i in reversed(range(len(tasks))))
        os.write(handout_w, records)  # fits the buffer: see _MAX_WORKERS
        _close(opened, handout_w)
        for _ in range(workers):
            result, result_w = os.pipe()
            opened += (result, result_w)
            pid = os.fork()
            if pid == 0:
                _work(chunk_fn, tasks, handout, result_w)
            # closed here, so that no later worker holds it open
            _close(opened, result_w)
            pending.append((pid, result))
        parts: list = [None] * len(tasks)
        while pending:
            pid, result = pending[0]
            data = _read_all(result)
            _close(opened, result)
            _, status = os.waitpid(pid, 0)
            del pending[0]
            if status:
                raise RuntimeError(f"sweep worker {pid} ended without a result (wait status {status})")
            done = pickle.loads(data)
            if isinstance(done, BaseException):
                raise done
            for i, part in done:
                parts[i] = part
        return parts
    finally:
        if pending:
            import signal

            for pid, _ in pending:
                os.kill(pid, signal.SIGKILL)  # unreaped, so it still exists
                os.waitpid(pid, 0)
        for fd in opened:
            os.close(fd)


def _work(chunk_fn: Callable[..., R], tasks: list[tuple], handout: int, out: int) -> NoReturn:
    """A forked worker: run the chunk of each index read from `handout`
    until the pipe is empty, then write its (index, report) pairs, or the
    exception of the chunk that raised, pickled to `out`, and exit.  It
    exits 0 only once the whole result is written, and it never returns
    into the parent's code."""
    import pickle

    status = 1
    try:
        try:
            done = []
            while record := os.read(handout, _RECORD):
                i = int.from_bytes(record, "little")
                done.append((i, _paused_chunk(chunk_fn, *tasks[i])))
            result = pickle.dumps(done)
        except Exception as exc:
            result = _pickled_error(exc)
        view = memoryview(result)
        while view:
            view = view[os.write(out, view) :]
        status = 0
    finally:
        os._exit(status)


def _pickled_error(exc: Exception) -> bytes:
    """exc pickled, or a RuntimeError carrying its repr when exc does not
    survive a pickle round trip."""
    import pickle

    try:
        data = pickle.dumps(exc)
        pickle.loads(data)
    except Exception:
        return pickle.dumps(RuntimeError(repr(exc)))
    return data


def _read_all(fd: int) -> bytes:
    parts = []
    while part := os.read(fd, 1 << 16):
        parts.append(part)
    return b"".join(parts)


def _close(opened: list[int], fd: int) -> None:
    opened.remove(fd)
    os.close(fd)
