"""Stage times corrected for the speed of the host at the time.

On a shared VM the same code runs up to about 1.5 times slower while the
host is busy, and the busy spells switch on and off within seconds and
come and go over minutes. A run's median then depends on how much of the
run fell in busy spells, not on the program.

``StageClock`` times each stage of an iteration (one call into the
package) and, right before and after it, a fixed pure-Python reference
loop that never touches ``usbeam``. A stage's corrected time is its
measured time times ``REFERENCE_NOMINAL_S`` over the mean of its two
reference times: the time the stage would take with the reference loop
running at its nominal speed. A change to the program moves the stage
times and not the reference, so it shows in the corrected times one for
one; host load moves both, and mostly cancels. The loop is
interpreter-bound, and NumPy-bound stages slow less than it does, so on
them the correction overshoots (README.md, last section).
"""

from __future__ import annotations

import time

REFERENCE_LOOPS = 150_000
# the reference loop's time on the baseline machine (2.1 GHz Xeon vCPU,
# CPython 3.11) when the host is quiet
REFERENCE_NOMINAL_S = 0.005


def reference_s() -> float:
    """Time one pass of the reference loop."""
    start = time.perf_counter()
    total = 0
    for i in range(REFERENCE_LOOPS):
        total += i
    return time.perf_counter() - start


def warm_up() -> None:
    """Run the loop once untimed: the first pass in a freshly forked
    process pays for copy-on-write page faults that later passes do not."""
    reference_s()


def corrected(fn, *args, **kwargs):
    """Call ``fn`` between two reference loops; return
    (result, measured seconds, corrected seconds). Call ``warm_up`` once
    per process first."""
    before = reference_s()
    start = time.perf_counter()
    result = fn(*args, **kwargs)
    elapsed = time.perf_counter() - start
    after = reference_s()
    return result, elapsed, elapsed * REFERENCE_NOMINAL_S / ((before + after) / 2)


class StageClock:
    """Sums the measured and the corrected times of an iteration's stages.

    ``span`` has the signature of the workloads' span hook; ``inner`` is
    the hook it calls through (a tracer's span, or a plain call).
    """

    def __init__(self, inner=None):
        self.inner = inner
        self.measured_s = 0.0
        self.corrected_s = 0.0
        warm_up()

    def span(self, label, fn, *args, **kwargs):
        if self.inner is not None:
            result, elapsed, fixed = corrected(self.inner, label, fn, *args, **kwargs)
        else:
            result, elapsed, fixed = corrected(fn, *args, **kwargs)
        self.measured_s += elapsed
        self.corrected_s += fixed
        return result

    @property
    def speed(self) -> float:
        """Host speed over the stages, as nominal/actual (1 = nominal)."""
        return self.corrected_s / self.measured_s if self.measured_s else 1.0
