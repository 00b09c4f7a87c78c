"""usbeam benchmark: one workload per invocation.

    python3 perfbench/run.py --workload wire-rig --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory. This process never imports NumPy. Set-up and every
iteration run in a forked child, one at a time, so each child's peak RSS
(from ``wait4``) belongs to one iteration only and set-up can be repeated
with its imports. No threads are started; BLAS and OpenMP pools are pinned
to one thread.

Times are corrected for the host's speed at the time they were taken
(``hostclock.py``); the measured times are printed beside them.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` cycles through
untraced, timed and allocation-tracing iterations and prints the per-layer
metrics. The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import json
import os
import pickle
import shutil
import signal
import sys
import time
import traceback
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
WORK = ROOT / ".perfbench_work"

# names only: this process never imports workloads.py, which imports NumPy
WORKLOADS = ("wire-rig", "cyst-rig", "cli-default")
KINDS = ("das", "dmas", "dsdmas")
# set-ups measured before every iteration, so the samples span the whole run
SETUPS_PER_ITERATION = 4
MB = 1e6

# name -> unit, in print order
END_TO_END = {
    "wall_s": "s",
    "images_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "c5_sidelobe_margin_db": "dB",
    "c6_fwhm_margin_pct": "pct-pt",
    "c7_snr_margin_db": "dB",
    "c8_cr_margin_db": "dB",
}
PER_LAYER = {
    "simulator.synthesize_rf_s": "s",
    "simulator.add_noise_s": "s",
    "simulator.pairs": "count",
    "simulator.synthesize_rf_alloc_mb": "MB",
    "geometry.compute_delays_s": "s",
    "geometry.delay_table_mb": "MB",
    "geometry.compute_delays_alloc_mb": "MB",
    "rfmodel.fetch_delayed_s": "s",
    "rfmodel.gathers_per_frame": "count",
    **{f"beamformers.beamform_image_s.{k}": "s" for k in KINDS},
    **{f"beamformers.kernel_s.{k}": "s" for k in KINDS},
    "beamformers.modelled_ops": "count",
    "beamformers.beamform_image_alloc_mb": "MB",
    "dsp.bandpass_image_s": "s",
    "dsp.envelope_image_s": "s",
    "dsp.log_compress_s": "s",
    **{f"pipeline.reconstruct_envelope_s.{k}": "s" for k in KINDS},
    "containers.write_rf_s": "s",
    "containers.read_rf_s": "s",
    "containers.write_image_s": "s",
    "containers.read_image_s": "s",
    "containers.write_pgm_s": "s",
    "containers.bytes_written": "B",
    "containers.bytes_read": "B",
    "cli.simulate_s": "s",
    "cli.beamform_s": "s",
    "cli.render_s": "s",
    "metrics.eval_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
DERIVED = {f"beamformers.kernel_s.{k}" for k in KINDS} | {
    "rfmodel.fetch_delayed_s", "trace.overhead_s", "trace.unaccounted_s"
}


class ChildFailed(RuntimeError):
    pass


def in_child(fn, *args):
    """Run ``fn(*args)`` in a forked child; return (value, child peak RSS MB)."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.close(read_fd)
            try:
                payload = {"value": fn(*args)}
                code = 0
            except BaseException:
                payload = {"error": traceback.format_exc()}
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(payload, fh)
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as fh:
            data = fh.read()
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        with contextlib.suppress(ProcessLookupError, ChildProcessError):
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    payload = pickle.loads(data) if data else {"error": f"child exited with status {status}"}
    if "error" in payload:
        raise ChildFailed(payload["error"])
    return payload["value"], usage.ru_maxrss * 1024 / MB


# -- child bodies (run after fork; they import NumPy and usbeam) ---------

def _set_up(name, seed, workdir):
    import workloads

    workloads.WORKLOADS[name](seed, workdir)


def child_setup(name, seed, workdir):
    """One set-up; returns (measured s, corrected s)."""
    # the acceptance suite that workloads load imports pytest; that import
    # is the test framework's, not the program's, so it stays off the clock
    import pytest  # noqa: F401

    from hostclock import corrected, warm_up

    warm_up()
    _, measured, fixed = corrected(_set_up, name, seed, workdir)
    return measured, fixed


def child_margins(rig):
    import workloads

    return workloads.acceptance_margins(rig)


def child_iteration(name, seed, workdir, mode):
    """One iteration; ``mode`` is "plain", "timed" (spans) or "alloc"
    (spans with tracemalloc, for the allocation peaks only)."""
    import workloads

    from hostclock import StageClock

    wl = workloads.WORKLOADS[name](seed, workdir)
    tracer = None
    if mode != "plain":
        from tracer import Tracer

        tracer = Tracer(track_alloc=mode == "alloc").install()
    # tracemalloc slows the reference loop, so allocation iterations are
    # timed without it; their times are not used
    clock = StageClock(None if mode == "plain" else tracer.span)
    start = time.perf_counter()
    try:
        state = wl.iterate(tracer.span if mode == "alloc" else clock.span)
        wall = time.perf_counter() - start
    finally:
        if tracer:
            tracer.close()
    if mode != "alloc":
        wall = clock.measured_s
    result = {"mode": mode, "wall_s": wall, "corrected_s": clock.corrected_s or wall,
              "speed": clock.speed, "images": wl.images}
    if mode == "timed":
        result["layers"] = layer_metrics(tracer, wl, state, wall, clock.speed)
        result["spans_s"] = tracer.top_level_s
    elif mode == "alloc":
        alloc = tracer.alloc_bytes
        result["layers"] = {
            "simulator.synthesize_rf_alloc_mb": alloc["simulator.synthesize_rf"] / MB,
            "geometry.compute_delays_alloc_mb": alloc["geometry.compute_delays"] / MB,
            "beamformers.beamform_image_alloc_mb":
                max(alloc[f"beamformers.beamform_image.{k}"] for k in KINDS) / MB,
        }
    result["failed"], result["digests"] = wl.check(state)
    return result


def layer_metrics(tracer, wl, state, wall, speed):
    """Per-layer values of one timed iteration, as measured at the host
    speed ``speed`` the iteration ran at."""
    from hostclock import REFERENCE_NOMINAL_S, reference_s

    s, calls, n = tracer.seconds, tracer.calls, tracer.counters
    # the replay runs after the iteration, at another host speed: bring it
    # to the iteration's speed before subtracting it from the spans
    before = reference_s()
    replay = wl.replay_gather(state)
    after = reference_s()
    replay *= REFERENCE_NOMINAL_S / ((before + after) / 2) / speed
    start = time.perf_counter()
    wl.margins(state)
    eval_s = time.perf_counter() - start
    gathers = n["gathered_pixels"] / n["image_pixels"]
    out = {
        "simulator.synthesize_rf_s": s["simulator.synthesize_rf"],
        "simulator.add_noise_s": s["simulator.add_noise"],
        "simulator.pairs": n["pairs"],
        "geometry.compute_delays_s": s["geometry.compute_delays"],
        "geometry.delay_table_mb": n["delay_table_bytes"] / MB,
        "rfmodel.fetch_delayed_s": replay * gathers,
        "rfmodel.gathers_per_frame": gathers / tracer.frames_gathered,
        "beamformers.modelled_ops": n["modelled_ops"],
        "dsp.bandpass_image_s": s["dsp.bandpass_image"],
        "dsp.envelope_image_s": s["dsp.envelope_image"],
        "dsp.log_compress_s": s["dsp.log_compress"],
        "cli.simulate_s": s["cli.simulate"],
        "cli.beamform_s": s["cli.beamform"],
        "cli.render_s": s["cli.render"],
        "containers.bytes_written": n["bytes_written"],
        "containers.bytes_read": n["bytes_read"],
        "metrics.eval_s": eval_s,
        "trace.overhead_s": tracer.overhead_s(),
        "trace.unaccounted_s": wall - tracer.top_level_s,
    }
    for name in ("write_rf", "read_rf", "write_image", "read_image", "write_pgm"):
        out[f"containers.{name}_s"] = s[f"containers.{name}"]
    for k in KINDS:
        bf = f"beamformers.beamform_image.{k}"
        out[f"beamformers.beamform_image_s.{k}"] = s[bf]
        out[f"beamformers.kernel_s.{k}"] = s[bf] - replay * calls[bf]
        out[f"pipeline.reconstruct_envelope_s.{k}"] = s[f"pipeline.reconstruct_envelope_from_delays.{k}"]
    return out


# -- parent ---------------------------------------------------------------

def source_key() -> str:
    """Hash of every file of the package, the benchmark's code, the
    acceptance suite and the interpreter stack."""
    h = hashlib.sha256()
    package = [p for p in SRC.rglob("*") if p.is_file() and "__pycache__" not in p.parts]
    code = sorted(package) + sorted(HERE.glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in code:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    h.update(sys.version.encode())
    h.update(importlib.metadata.version("numpy").encode())
    return h.hexdigest()[:16]


def acceptance_margins() -> dict:
    """c5-c8 at the acceptance seeds. Every workload reports all four, and
    they repeat exactly for a given source, so each rig's margins are
    computed once per source state and kept under .perfbench_cache; a run
    that finds them there skips the rig."""
    key = source_key()
    found = {}
    for rig in ("wire-rig", "cyst-rig"):
        path = CACHE / f"margins-{rig}-{key}.json"
        try:
            found.update(json.loads(path.read_text()))
            continue
        except (OSError, ValueError):
            pass
        value, _ = in_child(child_margins, rig)
        found.update(value)
        try:
            CACHE.mkdir(exist_ok=True)
            tmp = path.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(value))
            os.replace(tmp, path)
        except OSError:
            pass
    return found


def measure(args, workdir):
    quality = acceptance_margins() if not args.trace else {}

    modes = ("plain", "timed", "alloc") if args.trace else ("plain",)
    setup, runs, first_digests = [], [], None  # setup: (measured, corrected)
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        setup += [in_child(child_setup, args.workload, args.seed, workdir)[0]
                  for _ in range(SETUPS_PER_ITERATION)]
        mode = modes[len(runs) % len(modes)]
        result, rss = in_child(child_iteration, args.workload, args.seed, workdir, mode)
        result["rss_mb"] = rss
        runs.append(result)
        bad = {name for name, miss in result["failed"].items() if miss}
        digests = result["digests"]
        if digests is not None:
            # cli-default: every artifact must repeat the first iteration's bytes
            first_digests = first_digests or digests
            rf_changed = digests["rf"] != first_digests["rf"]
            bad |= {name for name in result["failed"]
                    if rf_changed or digests[name] != first_digests[name]}
        attempted += result["images"]
        failed += len(bad)
        if time.perf_counter() - start >= args.seconds and len(runs) >= len(modes):
            break

    plain = [r for r in runs if r["mode"] == "plain"]
    if args.trace:
        metrics = {name: median([r["layers"][name] for r in runs if name in r.get("layers", {})])
                   for name in PER_LAYER}
        units = PER_LAYER
    else:
        metrics = {
            "wall_s": median([r["corrected_s"] for r in plain]),
            "images_per_s": median([r["images"] / r["corrected_s"] for r in plain]),
            "peak_rss_mb": median([r["rss_mb"] for r in plain]),
            "setup_s": median([fixed for _, fixed in setup]),
            **quality,
        }
        units = END_TO_END
    return attempted, failed, {name: (metrics[name], units[name]) for name in units}, runs, setup


def print_accounting(runs, metrics):
    """How the timed iterations' top-level spans account for untraced wall_s.
    Both sides are corrected for host speed; the wrapper overhead is scaled
    by the timed iterations' host speed."""
    plain = median([r["corrected_s"] for r in runs if r["mode"] == "plain"])
    timed = [r for r in runs if r["mode"] == "timed"]
    spans = median([r["spans_s"] * r["speed"] for r in timed])
    overhead = metrics["trace.overhead_s"][0] * median([r["speed"] for r in timed])
    print(f"  accounting (corrected): top-level spans {spans:.3f} s - wrapper overhead"
          f" {overhead:.4f} s = {spans - overhead:.3f} s against untraced wall_s {plain:.3f} s"
          f" ({(spans - overhead) / plain - 1.0:+.1%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "usbeam" / "__init__.py").is_file():
        print(f"error: no usbeam package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    workdir = WORK / str(os.getpid())
    try:
        attempted, failed, metrics, runs, setup = measure(args, workdir)
    except ChildFailed as exc:
        print(f"error: benchmark child failed:\n{exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(runs)} attempted={attempted} failed={failed}")
    print(f"  set-up samples, measured/corrected (s): "
          f"{' '.join(f'{m:.3f}/{c:.3f}' for m, c in setup)}")
    for r in runs:
        line = f"  {r['mode']:5s} iteration measured {r['wall_s']:.3f} s"
        if r["mode"] != "alloc":
            line += f" corrected {r['corrected_s']:.3f} s host speed {r['speed']:.3f}"
        print(line)
    plain = [r for r in runs if r["mode"] == "plain"]
    print(f"  untraced medians: measured wall {median([r['wall_s'] for r in plain]):.3f} s,"
          f" host speed {median([r['speed'] for r in plain]):.3f},"
          f" measured set-up {median([m for m, _ in setup]):.4f} s")
    if args.trace:
        print_accounting(runs, metrics)
    for name, (value, unit) in metrics.items():
        note = "  (derived)" if name in DERIVED else ""
        print(f"  {name:42s} {value:>16.6g} {unit}{note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
