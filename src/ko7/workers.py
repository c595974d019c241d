"""The sweep runner: one term-enumeration sweep, optionally on a worker pool.

`run_sweep` partitions the term enumeration into contiguous chunks, runs
them on a pool of workers, and merges the partial reports in chunk order
by one rule for every report, so output is identical for any worker count
and no report merges itself.  With more than one worker there are
CHUNKS_PER_WORKER chunks per worker: the cost per term grows with its
size, so equal slices of the enumeration are far from equal work, and
finer chunks let the pool balance the heavy tail.  Chunks are handed to
the pool last first: the tail of the top size bucket (its rec and eqw
terms) is the heaviest work, and started last it would leave one worker
running alone at the end.  Each chunk enumerates only its own slice.
The KO7_WORKERS environment variable caps how many workers sweep
subcommands may use (default 1: serial).
"""

from __future__ import annotations

import os
from dataclasses import MISSING, fields
from functools import partial
from typing import Callable, TypeVar

from .terms import _collector_paused, count_terms

R = TypeVar("R")

CHUNKS_PER_WORKER = 4


def resolve_workers() -> int:
    """KO7_WORKERS capped at the CPU count; 1 when unset, not an integer,
    or below 1."""
    try:
        cap = int(os.environ.get("KO7_WORKERS", "1"))
    except ValueError:
        return 1
    return max(1, min(cap, os.cpu_count() or 1))


def _paused_chunk(chunk_fn: Callable[..., R], *task) -> R:
    with _collector_paused():
        return chunk_fn(*task)


def run_sweep(chunk_fn: Callable[..., R], max_size: int, workers: int, *args) -> R:
    """Apply chunk_fn(max_size, lo, hi, *args) to contiguous [lo, hi) slices
    of enumerate_terms(max_size) and merge the partial reports in slice
    order.  One slice when serial, CHUNKS_PER_WORKER per worker otherwise,
    run on a process pool and submitted last slice first.  Each slice runs
    with the cyclic collector paused (`terms._collector_paused`: the terms
    it builds form no cycles), and the collector is then put back as it
    was.  The pool module is imported only when a pool starts, by the
    rule the CLI keeps too: each `ko7` command is a fresh process, and it
    loads only the modules that it runs.

    A report is a dataclass, and the merge rule is one for all of them: a
    field with a default (a count, a Counter or a list) is summed with `+`
    in slice order, and a field without one (max_size, relation)
    identifies the sweep and is the same in every slice."""
    total = count_terms(max_size)
    chunks = workers * CHUNKS_PER_WORKER if workers > 1 else 1
    chunks = max(1, min(chunks, total))
    base, extra = divmod(total, chunks)
    tasks = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        tasks.append((max_size, lo, hi, *args))
        lo = hi
    chunk_fn = partial(_paused_chunk, chunk_fn)
    if chunks == 1:
        parts = [chunk_fn(*tasks[0])]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(chunk_fn, *zip(*reversed(tasks))))[::-1]
    report = parts[0]
    for f in fields(report):
        if f.default is not MISSING or f.default_factory is not MISSING:
            values = [getattr(part, f.name) for part in parts]
            setattr(report, f.name, sum(values[1:], values[0]))
    return report
