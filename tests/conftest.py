import os

import pytest


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` makes the library see n usable CPUs for the rest of the
    test, by patching ``os.sched_getaffinity``."""

    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_count
