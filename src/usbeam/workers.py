"""Independent items split over one worker per CPU the process may use."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor


def distribute(n: int, work) -> None:
    """Call ``work(items)`` once per worker, each with its share of range(n).

    There are W workers, one per CPU the process may use and at most n, but
    at least one (called with no items when n == 0); worker t is handed
    items t, t + W, t + 2W, ... in that order. The calling thread is worker
    0 and the others run on a standard-library thread pool, so no thread
    starts when W == 1. NumPy releases the interpreter lock inside most
    array operations, so the workers overlap there. If a worker fails, the
    others still finish their own shares; the first error in worker order
    is raised here once every worker has finished.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = max(min(cpus, n), 1)
    with ThreadPoolExecutor(max(workers - 1, 1)) as pool:
        futures = [pool.submit(work, range(t, n, workers)) for t in range(1, workers)]
        work(range(0, n, workers))
    for future in futures:
        future.result()
