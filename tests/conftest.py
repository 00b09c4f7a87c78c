import os

import pytest
from hypothesis import settings

from test_acceptance import build_cyst_rig, build_wire_rig

# The one property-test policy: every run draws the same examples, keeps
# none between runs and has no time limit per example. Each test sets only
# its max_examples.
settings.register_profile("usbeam", derandomize=True, database=None, deadline=None)
settings.load_profile("usbeam")


@pytest.fixture()
def cpus(monkeypatch):
    """``cpus(n)`` makes the library see n usable CPUs for the rest of the
    test, by patching ``os.sched_getaffinity``."""

    def set_count(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)

    return set_count


# The rigs are built once per test module and freed when its tests end.
@pytest.fixture(scope="module")
def wire_rig():
    return build_wire_rig()


@pytest.fixture(scope="module")
def cyst_rig():
    return build_cyst_rig()
