import importlib.util
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from usbeam import (
    ArrayGeometry,
    BeamformerKind,
    FilterSpec,
    ImageGrid,
    NoiseSpec,
    Phantom,
    PulseModel,
    add_noise,
    default_filter,
    make_wire_phantom,
    pipeline,
    reconstruct_envelope,
    synthesize_rf,
)
from usbeam.dsp import design_bandpass
from usbeam.geometry import compute_delays
from usbeam.pipeline import reconstruct_envelope_from_delays

FS = 100e6


@pytest.fixture(scope="module")
def scene():
    geom = ArrayGeometry(8, 0.3e-3)
    phantom = Phantom(np.array([[0.0, 33e-3, 1.0]]))
    frame = synthesize_rf(phantom, geom, PulseModel(f0=3e6), FS)
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=36e-3, nx=5, nz=300)
    return frame, geom, grid


def test_from_delays_matches_one_call_on_an_equal_grid(scene):
    frame, geom, grid = scene
    delays = compute_delays(geom, grid, FS)
    same = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=36e-3, nx=5, nz=300)
    env, _ = reconstruct_envelope_from_delays(frame, delays, same, BeamformerKind.DAS)
    assert np.array_equal(env, reconstruct_envelope(frame, grid, BeamformerKind.DAS)[0])


# Each table differs from the frame's own on the scene's grid in one respect.
@pytest.mark.parametrize("table", [
    lambda geom, grid: compute_delays(geom, replace(grid, z_max=38e-3), FS),
    lambda geom, grid: compute_delays(replace(geom, pitch=0.2e-3), grid, FS),
    lambda geom, grid: compute_delays(replace(geom, sound_speed=1400.0), grid, FS),
    lambda geom, grid: compute_delays(geom, grid, 50e6),
], ids=["grid", "pitch", "sound-speed", "fs"])
def test_from_delays_rejects_a_table_other_than_the_frames(scene, monkeypatch, table):
    frame, geom, grid = scene
    delays = table(geom, grid)
    calls = []
    monkeypatch.setattr(pipeline, "beamform_image", lambda *args: calls.append(args))
    message = f"{delays} is not the table of {geom} on {grid} at fs={FS!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        reconstruct_envelope_from_delays(frame, delays, grid, BeamformerKind.DAS)
    assert calls == []


# Both band-pass rules fail before any beamforming: 70 rows over 30 mm sample
# the line at 1.8 MHz, far below twice the 7.5 MHz band edge; 40 rows over
# 0.2 mm sample it finely but are fewer than the 63 filter taps.
@pytest.mark.parametrize("z_max,nz,message", [
    (60e-3, 70, "reaches the Nyquist limit"),
    (30.2e-3, 40, "fewer axial samples than filter taps"),
], ids=["nyquist", "length"])
def test_filter_band_is_checked_before_beamforming(scene, monkeypatch, z_max, nz, message):
    frame, _, _ = scene
    calls = []
    monkeypatch.setattr(pipeline, "beamform_image", lambda *args: calls.append(args))
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=z_max, nx=5, nz=nz)
    with pytest.raises(ValueError, match=message):
        reconstruct_envelope(frame, grid, BeamformerKind.DMAS)
    assert calls == []


# DMAS and DS-DMAS move the signal band to 2 f0, so their band-pass sits
# there; DAS keeps f0. The library states that one band, with no options.
@pytest.mark.parametrize("kind,center", [
    (BeamformerKind.DAS, 3e6), (BeamformerKind.DMAS, 6e6), (BeamformerKind.DSDMAS, 6e6),
])
def test_default_filter_is_the_kinds_band(kind, center):
    assert default_filter(kind, 3e6) == FilterSpec(center=center, half_bandwidth=1.5e6, taps=63)


# The benchmark's traced run times the band-pass and the envelope by
# replacing these two pipeline attributes, so the reconstruction must reach
# both stages through them.
@pytest.mark.parametrize("kind", list(BeamformerKind))
def test_reconstruction_calls_each_post_stage_once_through_the_pipeline_module(scene, monkeypatch, kind):
    frame, _, grid = scene
    calls = {"bandpass_image": 0, "envelope_image": 0}

    def counting(name):
        stage = getattr(pipeline, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return stage(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    reconstruct_envelope(frame, grid, kind)
    assert calls == {"bandpass_image": 1, "envelope_image": 1}


def test_reconstruction_holds_one_image(cpus):
    # Four elements and a 512 x 512 grid: each column's (M, nz) work arrays
    # are small next to the 2 MB image, so a second image-sized buffer alive
    # at once shows in the peak.
    cpus(2)
    geom = ArrayGeometry(4, 0.3e-3)
    phantom = Phantom(np.array([[0.0, 40e-3, 1.0]]))
    frame = synthesize_rf(phantom, geom, PulseModel(f0=3e6), FS)
    grid = ImageGrid(x_min=-2e-3, x_max=2e-3, z_min=30e-3, z_max=50e-3, nx=512, nz=512)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        env, _ = reconstruct_envelope(frame, grid, BeamformerKind.DAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / env.nbytes <= 2.0


# A 64-element wire scene at -10 dB channel SNR (noise seed 7) on a 5-column
# grid that reaches past the recorded window, so the checked columns read the
# gather's zero padding as well as noise and wires.
ORACLE_F0 = 3e6
ORACLE_C = 1540.0
ORACLE_GRID = ImageGrid(x_min=-14e-3, x_max=14e-3, z_min=28e-3, z_max=80e-3, nx=5, nz=1300)


@pytest.fixture(scope="module")
def oracle_scene():
    # the benchmark's independent whole-column oracle, loaded by path so
    # there is one copy of it
    path = Path(__file__).resolve().parent.parent / "perfbench" / "oracle.py"
    spec = importlib.util.spec_from_file_location("column_oracle", path)
    oracle = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracle)
    geom = ArrayGeometry(64, 0.5 * ORACLE_C / ORACLE_F0, ORACLE_C)
    clean = synthesize_rf(make_wire_phantom(), geom, PulseModel(f0=ORACLE_F0, cycles=2), FS)
    frame = add_noise(clean, NoiseSpec(target_snr_db=-10.0, seed=7))
    ex = oracle.element_positions(geom.element_count, geom.pitch)
    x_axis, z_axis = ORACLE_GRID.x_axis, ORACLE_GRID.z_axis
    gathered = {
        j: oracle.gather_column(frame.samples, FS, ORACLE_C, ex, x_axis[j], z_axis)
        for j in oracle.column_indices(ORACLE_GRID.nx)
    }
    return oracle, frame, gathered


def test_oracle_grid_reads_past_the_recorded_window(oracle_scene):
    _, frame, _ = oracle_scene
    far = ORACLE_GRID.x_max + np.max(np.abs(frame.geometry.element_x))
    deepest = FS * (ORACLE_GRID.z_max + np.hypot(far, ORACLE_GRID.z_max)) / ORACLE_C
    assert deepest > frame.samples.shape[1]


# The band is stated here, not read from default_filter: DAS at f0, the
# product kernels at 2 f0, each f0 / 2 wide over 63 taps.
@pytest.mark.parametrize("kind,center", [
    (BeamformerKind.DAS, ORACLE_F0), (BeamformerKind.DMAS, 2 * ORACLE_F0),
    (BeamformerKind.DSDMAS, 2 * ORACLE_F0),
], ids=["das", "dmas", "dsdmas"])
def test_envelope_columns_match_the_independent_oracle(oracle_scene, kind, center):
    oracle, frame, gathered = oracle_scene
    env, _ = reconstruct_envelope(frame, ORACLE_GRID, kind)
    axial_rate = ORACLE_C / (2.0 * ORACLE_GRID.dz)
    taps = design_bandpass(FilterSpec(center, 0.5 * ORACLE_F0, 63), axial_rate)
    bad = oracle.mismatched_columns(env, gathered, kind.value, taps)
    assert bad == 0, f"{bad} of {len(gathered)} checked columns miss the oracle"
