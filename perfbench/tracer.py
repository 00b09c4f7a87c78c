"""Layer spans recorded from the benchmark's side of the module boundary.

The traced run replaces selected public functions of ``usbeam`` modules, in
the module namespaces where the package and the workloads look them up,
with wrappers that time each call. Nothing under ``src/`` is modified; the
replacement lives only in the forked child that runs one traced iteration,
and ``Tracer.close`` puts the originals back.

Each span records its wall time. With ``track_alloc`` it records instead
the ``tracemalloc`` peak of traced allocations above the level at entry;
tracemalloc slows allocation-heavy code such as the gather, so times and
allocation peaks come from separate iterations. Spans nest: a wrapper
called from inside another wrapper is a child span, and only spans at
depth 0 are summed to account for the iteration's wall time. The time the
wrappers themselves add is estimated, not differenced from a separate
untraced iteration: wrapper calls made, times the measured cost of one
wrapped call over a direct one.
"""

from __future__ import annotations

import importlib
import os
import time
import tracemalloc
import weakref
from collections import defaultdict

import numpy as np

from usbeam.beamformers import BeamformerKind


def _kind_suffix(args, kwargs):
    for value in (*args, *kwargs.values()):
        if isinstance(value, BeamformerKind):
            return "." + value.value
    return ""


class Tracer:
    """Collects span totals for one iteration; create one per traced child."""

    # (module, attribute) call sites to wrap. The label of a span is the
    # defining module and name of the original function, so a function
    # reached through two namespaces reports under one name.
    SITES = (
        ("usbeam.simulator", "synthesize_rf"),
        ("usbeam.simulator", "add_noise"),
        ("usbeam.geometry", "compute_delays"),
        ("usbeam.pipeline", "reconstruct_envelope"),
        ("usbeam.pipeline", "reconstruct_envelope_from_delays"),
        ("usbeam.pipeline", "compute_delays"),
        ("usbeam.pipeline", "beamform_image"),
        ("usbeam.pipeline", "bandpass_image"),
        ("usbeam.pipeline", "envelope_image"),
        ("usbeam.cli", "synthesize_rf"),
        ("usbeam.cli", "add_noise"),
        ("usbeam.cli", "reconstruct_envelope"),
        ("usbeam.cli", "log_compress"),
        ("usbeam.containers", "write_rf"),
        ("usbeam.containers", "read_rf"),
        ("usbeam.containers", "write_image"),
        ("usbeam.containers", "read_image"),
        ("usbeam.containers", "write_pgm"),
    )

    def __init__(self, track_alloc: bool = False):
        self.track_alloc = track_alloc
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.alloc_bytes = defaultdict(int)
        self.counters = defaultdict(float)
        self.top_level_s = 0.0
        self.gather_calls = 0
        self._stack = []
        self._frames = []
        self._restore = []

    # -- spans ---------------------------------------------------------
    def _enter(self):
        # [base, highest traced memory seen inside the span]
        frame = [0, 0]
        if self.track_alloc:
            current, peak = tracemalloc.get_traced_memory()
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], peak)
            tracemalloc.reset_peak()
            frame = [current, current]
        self._stack.append(frame)
        return time.perf_counter()

    def _exit(self, label, start):
        elapsed = time.perf_counter() - start
        base, high = self._stack.pop()
        if self.track_alloc:
            high = max(high, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], high)
            tracemalloc.reset_peak()
        if not self._stack:
            self.top_level_s += elapsed
        self.seconds[label] += elapsed
        self.calls[label] += 1
        self.alloc_bytes[label] = max(self.alloc_bytes[label], high - base)

    def span(self, label, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``label``."""
        start = self._enter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(label, start)

    # -- installation --------------------------------------------------
    def install(self):
        if self.track_alloc:
            tracemalloc.start()
        for module_name, attr in self.SITES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            label = f"{original.__module__.rsplit('.', 1)[-1]}.{original.__name__}"
            setattr(module, attr, self._wrap(label, original))
            self._restore.append((module, attr, original))
        beamformers = importlib.import_module("usbeam.beamformers")
        gather = beamformers.fetch_delayed
        beamformers.fetch_delayed = self._count_gather(gather)
        self._restore.append((beamformers, "fetch_delayed", gather))
        return self

    def close(self):
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()
        if self.track_alloc:
            tracemalloc.stop()

    def _wrap(self, label, fn):
        tracer = self

        def traced(*args, **kwargs):
            name = label + _kind_suffix(args, kwargs)
            start = tracer._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(name, start)
            tracer._count(label, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, label, args, result):
        c = self.counters
        if label == "simulator.synthesize_rf":
            c["pairs"] += args[0].scatterers.shape[0] * args[1].element_count
        elif label == "geometry.compute_delays":
            c["delay_table_bytes"] = max(c["delay_table_bytes"], result.values.nbytes)
        elif label == "beamformers.beamform_image":
            image, ops = result
            c["modelled_ops"] += ops.total * image.size
            c["image_pixels"] = image.size
        elif label.startswith("containers.write"):
            c["bytes_written"] += os.path.getsize(args[0])
        elif label.startswith("containers.read"):
            c["bytes_read"] += os.path.getsize(args[0])

    def _count_gather(self, fn):
        """Count gathered pixels and distinct frames; adds no span, so the
        per-column calls inside ``beamform_image`` stay untimed."""
        tracer = self

        def counted(frame, delays):
            tracer.gather_calls += 1
            tracer.counters["gathered_pixels"] += delays.size // delays.shape[-1]
            if not any(ref() is frame for ref in tracer._frames):
                tracer._frames.append(weakref.ref(frame))
            return fn(frame, delays)

        counted.__wrapped__ = fn
        return counted

    @property
    def frames_gathered(self) -> int:
        return len(self._frames)

    def overhead_s(self, reps: int = 20000, batches: int = 5) -> float:
        """Time the wrappers added to this tracer's iteration: its span and
        gather-counter calls times the cost of one such call over a direct
        call. The costs are the fastest of ``batches`` batches of ``reps``
        calls to a no-op on a scratch tracer, so the estimate is never
        negative."""

        class Frame:
            pass

        def noop(*args):
            return None

        def best(fn, args):
            times = []
            for _ in range(batches):
                start = time.perf_counter()
                for _ in range(reps):
                    fn(*args)
                times.append(time.perf_counter() - start)
            return min(times) / reps

        probe = Tracer()
        span_args = (Frame(), np.zeros((1, 1)), None, BeamformerKind.DAS)
        gather_args = span_args[:2]
        span_cost = best(probe._wrap("probe.noop", noop), span_args) - best(noop, span_args)
        gather_cost = best(probe._count_gather(noop), gather_args) - best(noop, gather_args)
        spans = sum(self.calls.values())
        return max(0.0, spans * span_cost) + max(0.0, self.gather_calls * gather_cost)
