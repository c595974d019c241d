"""Optional worker-pool execution for sweeps.

Sweeps partition the term enumeration into contiguous chunks, run them on
a pool of workers, and merge the partial reports in chunk order, so output
is identical for any worker count.  With more than one worker there are
CHUNKS_PER_WORKER chunks per worker: the cost per term grows with its
size, so equal slices of the enumeration are far from equal work, and
finer chunks let the pool balance the heavy tail.  The KO7_WORKERS
environment variable caps how many workers sweep subcommands may use
(default 1: serial).
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

R = TypeVar("R")

CHUNKS_PER_WORKER = 4


def env_worker_cap() -> int:
    raw = os.environ.get("KO7_WORKERS", "1")
    try:
        cap = int(raw)
    except ValueError:
        return 1
    return max(1, cap)


def resolve_workers() -> int:
    return min(env_worker_cap(), os.cpu_count() or 1)


def chunk_bounds(total: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous [lo, hi) slices covering range(total): one for a single
    worker, CHUNKS_PER_WORKER per worker otherwise."""
    chunks = workers * CHUNKS_PER_WORKER if workers > 1 else 1
    chunks = max(1, min(chunks, total))
    base, extra = divmod(total, chunks)
    bounds = []
    lo = 0
    for i in range(chunks):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def run_chunks(worker: Callable[[tuple], R], chunks: Sequence[tuple], workers: int) -> list[R]:
    """Apply `worker` to each chunk tuple, in a process pool when
    workers > 1.  Results come back in chunk order.  The pool module is
    imported only here: it is a sizable share of the package's import
    time, which every command pays and few commands need."""
    if workers <= 1 or len(chunks) <= 1:
        return [worker(chunk) for chunk in chunks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, chunks))
