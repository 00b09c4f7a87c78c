import numpy as np
import pytest

from usbeam import (
    BeamformerKind,
    ImageGrid,
    Phantom,
    PulseModel,
    compute_delays,
    linear_array,
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
    assert np.array_equal(env, reconstruct_envelope(frame, geom, grid, BeamformerKind.DAS)[0])


def test_from_delays_rejects_a_grid_other_than_the_delays(scene):
    frame, geom, grid = scene
    delays = compute_delays(geom, grid, FS)
    deeper = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=30e-3, z_max=38e-3, nx=5, nz=300)
    with pytest.raises(ValueError, match="differs from the delay table's grid"):
        reconstruct_envelope_from_delays(frame, delays, deeper, BeamformerKind.DAS)
