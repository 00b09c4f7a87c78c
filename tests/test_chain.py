"""Chain-level invariants of the reconstruction, on small drawn scenes.

Every property runs the whole chain a frame goes through (delays, the
padded gather, the kernel, and for envelopes the band-pass and envelope
detection), so a fault in any stage that breaks the algebra shows here.
The scenes are one to three wires plus white noise on an 8-element array;
the grid reaches deeper than the frame records, so part of every column
reads the gather's zero padding.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from usbeam import (
    BeamformerKind,
    ImageGrid,
    NoiseSpec,
    Phantom,
    PulseModel,
    RfFrame,
    add_noise,
    beamform_image,
    compute_delays,
    linear_array,
    reconstruct_envelope,
    synthesize_rf,
)

FS = 100e6
GEOMETRY = linear_array(8, 0.3e-3)
# x_min = -x_max, so mirroring the columns mirrors the lateral axis
GRID = ImageGrid(x_min=-1.5e-3, x_max=1.5e-3, z_min=9e-3, z_max=15e-3, nx=7, nz=200)
X_BOUNDS, Z_BOUNDS = (-1e-3, 1e-3), (10e-3, 12e-3)
# A silent scatterer at the far corner of the wires' box: it sets every
# scene's frame length and changes no sample.
CORNER = (X_BOUNDS[1], Z_BOUNDS[1], 0.0)

property_settings = settings(max_examples=20, derandomize=True, database=None, deadline=None)

wires = st.lists(
    st.tuples(st.floats(*X_BOUNDS), st.floats(*Z_BOUNDS), st.floats(0.1, 1.0)),
    min_size=1,
    max_size=3,
)


@st.composite
def frames(draw):
    # the corner fixes the frame length, so two drawn frames can be added
    phantom = Phantom(np.array(draw(wires) + [CORNER]))
    clean = synthesize_rf(phantom, GEOMETRY, PulseModel(f0=3e6), FS)
    return add_noise(clean, NoiseSpec(target_snr_db=10.0, seed=draw(st.integers(0, 2**32 - 1))))


def with_samples(frame, samples):
    return RfFrame(samples=samples, fs=frame.fs, f0=frame.f0, geometry=frame.geometry)


def envelope(frame, kind):
    return reconstruct_envelope(frame, GRID, kind)[0]


def mirror_mismatch(frame, kind):
    """Largest difference between the column-mirrored image and the image
    of the frame with its element order reversed, relative to the max."""
    env = envelope(frame, kind)
    reversed_env = envelope(with_samples(frame, frame.samples[::-1]), kind)
    return np.max(np.abs(reversed_env - env[:, ::-1])) / np.max(np.abs(env))


def test_grid_reads_the_padding_beyond_the_recorded_window():
    frame = synthesize_rf(Phantom(np.array([[0.0, 11e-3, 1.0], CORNER])),
                          GEOMETRY, PulseModel(f0=3e6), FS)
    delays = compute_delays(GEOMETRY, GRID, FS)
    assert np.max(delays.column(0)) > frame.sample_count


@property_settings
@given(frame=frames())
def test_power_of_two_scaling_scales_every_envelope_exactly(frame):
    # a power of two commutes with rounding, and sqrt(4 x) = 2 sqrt(x)
    for kind in BeamformerKind:
        env = envelope(frame, kind)
        for scale in (4.0, 0.25):
            scaled = envelope(with_samples(frame, frame.samples * scale), kind)
            assert np.array_equal(scaled, env * scale)


@property_settings
@given(a=frames(), b=frames())
def test_das_superposes_two_frames(a, b):
    delays = compute_delays(GEOMETRY, GRID, FS)
    both = beamform_image(with_samples(a, a.samples + b.samples), delays, BeamformerKind.DAS)[0]
    parts = (beamform_image(a, delays, BeamformerKind.DAS)[0]
             + beamform_image(b, delays, BeamformerKind.DAS)[0])
    assert np.max(np.abs(both - parts)) <= 1e-12 * np.max(np.abs(both))


@property_settings
@given(frame=frames())
def test_reversing_the_elements_mirrors_das_and_dmas(frame):
    for kind in (BeamformerKind.DAS, BeamformerKind.DMAS):
        assert mirror_mismatch(frame, kind) <= 1e-12


@property_settings
@given(frame=frames())
def test_dsdmas_depends_on_element_order(frame):
    # stage one couples each element with the later ones only, so reversing
    # the element order does not mirror the DS-DMAS image (documented in
    # the README); this pins that behaviour
    assert mirror_mismatch(frame, BeamformerKind.DSDMAS) > 1e-6
