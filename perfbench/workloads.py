"""The benchmark's three workloads.

Constructing a workload is its set-up (input generation); ``iterate`` is
the timed body, and it makes each call into the package through its
``span`` hook, so every call is one stage that the caller can time;
``check`` compares every image with the independent oracle after the
timed body. The rigs are those of ``tests/test_acceptance.py``.
The benchmark's seed picks the noise and speckle realisations; the
acceptance seeds are used only by ``acceptance_margins``.
Calls into the package go through module attributes (``simulator.X``,
``pipeline.X``) so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import struct
import time
from pathlib import Path

import numpy as np

from usbeam import cli, containers, dsp, geometry, pipeline, rfmodel, simulator
from usbeam.config import RunConfig
from usbeam.dsp import FilterSpec

import margins
import oracle

# The rigs of tests/test_acceptance.py: array, grids, pulse and filter bands
# (matched 25% fractional bandwidth for the 50 dB sidelobe / FWHM frame,
# package defaults for the -10 dB SNR frame and the cyst rig).
suite = margins.suite
FS, C, PITCH, PULSE, KINDS = suite.FS, suite.C, suite.PITCH, suite.PULSE, suite.KINDS
WIRE_GRID, CYST_GRID = suite.WIRE_GRID, suite.CYST_GRID
SIDELOBE_BANDS, NOISE_BANDS = suite.SIDELOBE_BANDS, suite.NOISE_BANDS

# Seeds of tests/test_acceptance.py, used for the c5-c8 margins.
ACCEPTANCE_WIRE_NOISE_SEED = 7
ACCEPTANCE_CYST_SPECKLE_SEED = 2024
ACCEPTANCE_CYST_NOISE_SEED = 11

# URF1 / UIM1 header, parsed here rather than through usbeam.containers so
# the oracle reads the files independently of the package
_HEADER = struct.Struct("<4sHHI4d20s")


def untraced(_label, fn, *args, **kwargs):
    return fn(*args, **kwargs)


def _taps(spec, grid, c):
    axial_rate = c / (2.0 * (grid.z_max - grid.z_min) / (grid.nz - 1))
    return dsp.design_bandpass(spec, axial_rate)


def _oracle_gather(samples, fs, c, pitch, grid):
    ex = oracle.element_positions(samples.shape[0], pitch)
    x_axis = np.linspace(grid.x_min, grid.x_max, grid.nx)
    z_axis = np.linspace(grid.z_min, grid.z_max, grid.nz)
    return {
        j: oracle.gather_column(samples, fs, c, ex, x_axis[j], z_axis)
        for j in oracle.column_indices(grid.nx)
    }


def _replay(frame, delays) -> float:
    """One full-image gather, column by column as ``beamform_image`` does."""
    values = delays.values
    start = time.perf_counter()
    for j in range(values.shape[1]):
        rfmodel.fetch_delayed(frame, values[:, j, :])
    return time.perf_counter() - start


class WireRig:
    """Acceptance wire rig: one delay table, two noisy frames, 3 kernels each."""

    name = "wire-rig"
    images = 6

    def __init__(self, seed: int, workdir=None):
        self.geom = geometry.linear_array(suite.WIRE_M, PITCH)
        self.phantom = simulator.make_wire_phantom(pair_separation=suite.WIRE_SEP)
        self.frames_spec = (
            (simulator.NoiseSpec(target_snr_db=50.0, seed=seed), SIDELOBE_BANDS),
            (simulator.NoiseSpec(target_snr_db=-10.0, seed=seed), NOISE_BANDS),
        )

    def iterate(self, span=untraced):
        clean = span("rig.synthesize_rf", simulator.synthesize_rf,
                     self.phantom, self.geom, PULSE, FS)
        delays = span("rig.compute_delays", geometry.compute_delays, self.geom, WIRE_GRID, FS)
        runs = []
        for noise, bands in self.frames_spec:
            frame = span("rig.add_noise", simulator.add_noise, clean, noise)
            envs = [
                span("rig.reconstruct", pipeline.reconstruct_envelope_from_delays,
                     frame, delays, WIRE_GRID, kind, filter_spec=bands[kind])[0]
                for kind in KINDS
            ]
            runs.append((frame, bands, envs))
        return {"runs": runs, "delays": delays}

    def check(self, state):
        failed = {}
        for n, (frame, bands, envs) in enumerate(state["runs"]):
            gathered = _oracle_gather(frame.samples, FS, C, PITCH, WIRE_GRID)
            for kind, env in zip(KINDS, envs):
                taps = _taps(bands[kind], WIRE_GRID, C)
                failed[f"frame{n}.{kind.value}"] = bool(
                    oracle.mismatched_columns(env, gathered, kind.value, taps)
                )
        return failed, None

    def replay_gather(self, state):
        return _replay(state["runs"][0][0], state["delays"])

    def margins(self, state):
        (_, _, envs50), (_, _, envs_noisy) = state["runs"]
        return margins.wire_margins(envs50, envs_noisy)


class CystRig:
    """Acceptance cyst rig: 25,500 speckle scatterers, 20 dB noise, 3 kernels."""

    name = "cyst-rig"
    images = 3

    def __init__(self, seed: int, workdir=None, noise_seed: int | None = None):
        self.geom = geometry.linear_array(suite.CYST_M, PITCH)
        self.phantom = simulator.make_cyst_phantom(seed=seed)
        self.noise = simulator.NoiseSpec(
            target_snr_db=20.0, seed=seed + 1 if noise_seed is None else noise_seed
        )

    def iterate(self, span=untraced):
        clean = span("rig.synthesize_rf", simulator.synthesize_rf,
                     self.phantom, self.geom, PULSE, FS)
        frame = span("rig.add_noise", simulator.add_noise, clean, self.noise)
        delays = span("rig.compute_delays", geometry.compute_delays, self.geom, CYST_GRID, FS)
        envs = [
            span("rig.reconstruct", pipeline.reconstruct_envelope_from_delays,
                 frame, delays, CYST_GRID, kind, filter_spec=NOISE_BANDS[kind])[0]
            for kind in KINDS
        ]
        return {"frame": frame, "delays": delays, "envs": envs}

    def check(self, state):
        gathered = _oracle_gather(state["frame"].samples, FS, C, PITCH, CYST_GRID)
        failed = {}
        for kind, env in zip(KINDS, state["envs"]):
            taps = _taps(NOISE_BANDS[kind], CYST_GRID, C)
            failed[kind.value] = bool(oracle.mismatched_columns(env, gathered, kind.value, taps))
        return failed, None

    def replay_gather(self, state):
        return _replay(state["frame"], state["delays"])

    def margins(self, state):
        return margins.cyst_margins(state["envs"])


class CliDefault:
    """``usbeam simulate`` with the CLI defaults, then ``beamform`` and
    ``render`` for each kernel, all through ``usbeam.cli.main`` in process."""

    name = "cli-default"
    images = 3
    ALGOS = ("das", "dmas", "dsdmas")

    def __init__(self, seed: int, workdir):
        work = Path(workdir)
        work.mkdir(parents=True, exist_ok=True)
        self.rf = str(work / "frame.urf")
        self.paths = {
            algo: {ext: str(work / f"{algo}.{ext}") for ext in ("uim", "txt", "pgm")}
            for algo in self.ALGOS
        }
        self.commands = [("cli.simulate", ["simulate", "--seed", str(seed), "--out", self.rf])]
        for algo in self.ALGOS:
            p = self.paths[algo]
            self.commands.append(
                ("cli.beamform", ["beamform", self.rf, "--algo", algo, "--out", p["uim"],
                                  "--report", p["txt"]])
            )
            self.commands.append(
                ("cli.render", ["render", p["uim"], "--out", p["pgm"]])
            )
        self.cfg = RunConfig()

    def iterate(self, span=untraced):
        with contextlib.redirect_stdout(io.StringIO()):
            return [span(label, cli.main, argv) for label, argv in self.commands]

    def check(self, codes):
        raw = Path(self.rf).read_bytes()
        _, _, m, k, fs, f0, c, pitch, _ = _HEADER.unpack_from(raw)
        samples = np.frombuffer(raw, "<f4", offset=_HEADER.size).astype(float).reshape(m, k)
        digests = {"rf": hashlib.sha256(raw).hexdigest()}
        failed = {}
        gathered = grid = None
        for algo, rc_beamform, rc_render in zip(self.ALGOS, codes[1::2], codes[2::2]):
            p = self.paths[algo]
            image_raw = Path(p["uim"]).read_bytes()
            _, _, nx, nz, x_min, x_max, z_min, z_max, _ = _HEADER.unpack_from(image_raw)
            if grid is None:
                grid = geometry.ImageGrid(x_min, x_max, z_min, z_max, nx, nz)
                gathered = _oracle_gather(samples, fs, c, pitch, grid)
            image = np.frombuffer(image_raw, "<f4", offset=_HEADER.size).reshape(nz, nx)
            center = self.cfg.filter_center or (f0 if algo == "das" else 2.0 * f0)
            spec = FilterSpec(center, self.cfg.filter_half_bandwidth, self.cfg.filter_taps)
            bad = oracle.mismatched_columns(image, gathered, algo, _taps(spec, grid, c),
                                            float32_output=True)
            failed[algo] = bool(codes[0] or rc_beamform or rc_render or bad)
            digests[algo] = [hashlib.sha256(Path(p[ext]).read_bytes()).hexdigest()
                             for ext in ("txt", "uim", "pgm")]
        return failed, digests

    def replay_gather(self, codes):
        frame, pitch = containers.read_rf(self.rf)
        geom = geometry.linear_array(frame.element_count, pitch, frame.c)
        grid = geometry.ImageGrid(self.cfg.x_min, self.cfg.x_max, self.cfg.z_min,
                                  self.cfg.z_max, self.cfg.nx, self.cfg.nz)
        return _replay(frame, geometry.compute_delays(geom, grid, frame.fs))

    def margins(self, codes):
        return {}


WORKLOADS = {w.name: w for w in (WireRig, CystRig, CliDefault)}


def acceptance_margins(rig: str) -> dict:
    """c5-c7 (wire rig) or c8 (cyst rig) at the acceptance seeds."""
    if rig == WireRig.name:
        wl = WireRig(ACCEPTANCE_WIRE_NOISE_SEED)
    else:
        wl = CystRig(ACCEPTANCE_CYST_SPECKLE_SEED, noise_seed=ACCEPTANCE_CYST_NOISE_SEED)
    return wl.margins(wl.iterate())
