import tracemalloc

import numpy as np
import pytest

from usbeam import (
    BeamformerKind,
    FilterSpec,
    ImageGrid,
    Phantom,
    PulseModel,
    compute_delays,
    default_filter,
    linear_array,
    pipeline,
    reconstruct_envelope,
    reconstruct_envelope_from_delays,
    synthesize_rf,
)

FS = 100e6


@pytest.fixture(scope="module")
def scene():
    geom = linear_array(8, 0.3e-3)
    phantom = Phantom(np.array([[0.0, 33e-3, 1.0]]), x_bounds=(0.0, 0.0), z_bounds=(33e-3, 33e-3))
    frame = synthesize_rf(phantom, geom, PulseModel(f0=3e6), FS)
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=36e-3, nx=5, nz=300)
    return frame, geom, grid


def test_from_delays_matches_one_call_on_an_equal_grid(scene):
    frame, geom, grid = scene
    delays = compute_delays(geom, grid, FS)
    same = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=36e-3, nx=5, nz=300)
    env, _ = reconstruct_envelope_from_delays(frame, delays, same, BeamformerKind.DAS)
    assert np.array_equal(env, reconstruct_envelope(frame, grid, BeamformerKind.DAS)[0])


def test_from_delays_rejects_a_grid_other_than_the_delays(scene):
    frame, geom, grid = scene
    delays = compute_delays(geom, grid, FS)
    deeper = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=38e-3, nx=5, nz=300)
    with pytest.raises(ValueError, match="differs from the delay table's grid"):
        reconstruct_envelope_from_delays(frame, delays, deeper, BeamformerKind.DAS)


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
    geom = linear_array(4, 0.3e-3)
    phantom = Phantom(np.array([[0.0, 40e-3, 1.0]]), x_bounds=(0.0, 0.0), z_bounds=(40e-3, 40e-3))
    frame = synthesize_rf(phantom, geom, PulseModel(f0=3e6), FS)
    grid = ImageGrid(x_min=-2e-3, x_max=2e-3, z_min=30e-3, z_max=50e-3, nx=512, nz=512)
    delays = compute_delays(geom, grid, FS)
    tracemalloc.start()
    try:
        entry = tracemalloc.get_traced_memory()[0]
        env, _ = reconstruct_envelope_from_delays(frame, delays, grid, BeamformerKind.DAS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (peak - entry) / env.nbytes <= 2.0
