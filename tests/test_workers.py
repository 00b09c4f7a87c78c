"""The contract of ``workers.distribute``: strided shares, one per worker,
with share 0 on the calling thread, and every error raised only once all
workers have finished."""

import threading

import pytest

from usbeam.workers import distribute


def record(n):
    """Run ``distribute(n, ...)`` and return each call's (thread, items)."""
    calls = []

    def work(items):
        calls.append((threading.get_ident(), list(items)))

    distribute(n, work)
    return calls


@pytest.mark.parametrize("count", [1, 2, 3, 64])
@pytest.mark.parametrize("n", [0, 1, 5, 7])
def test_each_worker_gets_its_strided_share_in_order(cpus, count, n):
    cpus(count)
    workers = max(min(count, n), 1)
    shares = sorted(items for _, items in record(n))
    assert len(shares) == workers
    assert sorted(i for items in shares for i in items) == list(range(n))
    assert shares == [list(range(t, n, workers)) for t in range(workers)]


@pytest.mark.parametrize("count", [1, 2, 3])
def test_share_zero_runs_on_the_calling_thread(cpus, count):
    cpus(count)
    calls = record(7)
    assert [items for ident, items in calls if ident == threading.get_ident()] == [list(range(0, 7, count))]


def test_one_worker_starts_no_thread(cpus):
    cpus(1)
    before = threading.active_count()
    seen = []
    distribute(5, lambda items: seen.append((threading.active_count(), list(items))))
    assert seen == [(before, [0, 1, 2, 3, 4])]


@pytest.mark.parametrize("failing", [0, 1], ids=["caller", "pool"])
def test_an_error_reaches_the_caller_after_every_worker_finishes(cpus, failing):
    cpus(2)
    before = threading.active_count()
    finished = []

    def work(items):
        items = list(items)
        if items[0] == failing:
            raise RuntimeError(f"worker {failing} failed")
        finished.append(items)

    with pytest.raises(RuntimeError, match=f"^worker {failing} failed$"):
        distribute(4, work)
    assert finished == [[1 - failing, 3 - failing]]
    assert threading.active_count() == before
