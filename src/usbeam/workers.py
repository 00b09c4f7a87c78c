"""Independent items split over one thread per CPU the process may use."""

from __future__ import annotations

import os
import threading


def distribute(n: int, work) -> None:
    """Call ``work(items)`` once per worker, each with its share of range(n).

    There are W workers, one per CPU the process may use and at most n. The
    calling thread is worker 0 and the others are threads; worker t is
    handed an iterator over items t, t + W, t + 2W, ... in that order, which
    stops early once another worker has failed. NumPy releases the interpreter
    lock inside most array operations, so the workers overlap there. An
    error in any worker is raised here once every thread has finished.
    """
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:
        cpus = os.cpu_count() or 1
    workers = max(min(cpus, n), 1)  # one worker, with no items, when n == 0
    errors = []

    def owned(first: int):
        for i in range(first, n, workers):
            if errors:  # another worker failed: the caller's result is discarded
                return
            yield i

    def run(first: int) -> None:
        try:
            work(owned(first))
        except BaseException as exc:  # re-raised by the caller below
            errors.append(exc)

    started = []
    try:
        for first in range(1, workers):
            thread = threading.Thread(target=run, args=(first,))
            thread.start()
            started.append(thread)
        run(0)
    except BaseException as exc:  # a thread that could not start
        errors.append(exc)
    finally:
        for thread in started:
            thread.join()
    if errors:
        raise errors[0]
