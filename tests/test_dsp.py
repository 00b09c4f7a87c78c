import tracemalloc

import numpy as np
import pytest

from usbeam import FilterSpec, bandpass_image, envelope_image, log_compress
from usbeam.dsp import _ENVELOPE_BLOCK, design_bandpass

FS = 100e6
F0 = 3e6
SPEC = FilterSpec(center=2 * F0, half_bandwidth=1.5e6, taps=63)


def tone(freq, n=4000, fs=FS, phase=0.0):
    """A sine line as a one-column image."""
    return np.sin(2 * np.pi * freq * np.arange(n)[:, None] / fs + phase)


def whole_image_envelope(img):
    """Oracle: every column's envelope from one image-wide transform."""
    nfft = 1 << (img.shape[0] - 1).bit_length()
    weights = np.zeros(nfft)
    weights[0] = weights[nfft // 2] = 1.0
    weights[1 : nfft // 2] = 2.0
    spectrum = np.fft.fft(img, nfft, axis=0)
    analytic = np.fft.ifft(spectrum * weights[:, None], axis=0)
    return np.abs(analytic[: img.shape[0], :])


def apply(stage, img, *args):
    """Run a per-column stage, checking that it returns the array it was
    given."""
    out = stage(img, *args)
    assert out is img
    return out


class TestFilterSpec:
    def test_rejects_even_taps(self):
        with pytest.raises(ValueError):
            FilterSpec(center=6e6, half_bandwidth=1e6, taps=64)

    @pytest.mark.parametrize("half_bandwidth, shown", [(1e6, r"1e\+06"), (1.5e6, r"1\.5e\+06")],
                             ids=["edge-at-dc", "edge-below-dc"])
    def test_rejects_passband_reaching_dc(self, half_bandwidth, shown):
        with pytest.raises(ValueError, match=rf"^passband must not reach DC: center 1e\+06 Hz, "
                                             rf"half-width {shown} Hz$"):
            FilterSpec(center=1e6, half_bandwidth=half_bandwidth, taps=63)

    @pytest.mark.parametrize("field", ["center", "half_bandwidth"])
    @pytest.mark.parametrize("bad", [np.inf, np.nan, 0.0])
    def test_band_must_be_finite_and_positive(self, field, bad):
        values = {"center": 6e6, "half_bandwidth": 1e6, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            FilterSpec(**values)

    def test_rejects_nyquist_violation(self):
        spec = FilterSpec(center=6e6, half_bandwidth=1.5e6, taps=63)
        with pytest.raises(ValueError, match=r"^passband edge 7\.5e\+06 Hz reaches the Nyquist limit "
                                             r"of a line sampled at 1\.4e\+07 Hz$"):
            bandpass_image(np.zeros((500, 1)), spec, 14e6)


class TestBandpass:
    def test_dc_rejection(self):
        out = bandpass_image(np.ones((2000, 1)), SPEC, FS)
        assert np.max(np.abs(out)) <= 0.01

    def test_band_too_narrow_for_its_taps_is_degenerate(self):
        # 3 taps at 100 MHz give no gain at a 1 kHz center
        with pytest.raises(ValueError, match="^degenerate filter design: no gain at the center frequency$"):
            design_bandpass(FilterSpec(1e3, 1e2, 3), FS)

    def test_dc_gain_is_null(self):
        h = design_bandpass(SPEC, FS)
        assert abs(h.sum()) < 1e-12

    def test_center_tone_within_1db(self):
        out = bandpass_image(tone(2 * F0), SPEC, FS)
        mid = np.max(np.abs(out[1500:2500]))
        assert 0.89 <= mid <= 1.12

    def test_impulse_response_is_symmetric_taps(self):
        x = np.zeros((301, 1))
        x[150] = 1.0
        out = bandpass_image(x, SPEC, FS)[:, 0]
        h = design_bandpass(SPEC, FS)
        mid = (SPEC.taps - 1) // 2
        assert np.allclose(out[150 - mid : 150 + mid + 1], h, atol=1e-15)
        assert np.allclose(h, h[::-1])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(1000, 1))
        b = rng.normal(size=(1000, 1))
        lhs = bandpass_image(2.0 * a - 0.5 * b, SPEC, FS)
        rhs = 2.0 * bandpass_image(a, SPEC, FS) - 0.5 * bandpass_image(b, SPEC, FS)
        assert np.allclose(lhs, rhs, atol=1e-12)

    def test_shift_equivariance_away_from_edges(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1200, 1))
        shift = 17
        y_shifted = bandpass_image(np.roll(x, shift, axis=0), SPEC, FS)
        y = bandpass_image(x, SPEC, FS)
        # compare interior, clear of both the roll seam and filter edges
        assert np.allclose(y_shifted[100 + shift : 1100], y[100 : 1100 - shift], atol=1e-9)

    def test_rejects_short_signal(self):
        with pytest.raises(ValueError):
            bandpass_image(np.zeros((SPEC.taps, 1)), SPEC, FS)

    def test_image_filtering_matches_per_column(self):
        rng = np.random.default_rng(2)
        img = rng.normal(size=(300, 4))
        columns = [bandpass_image(img[:, [j]], SPEC, FS) for j in range(4)]
        out = apply(bandpass_image, img, SPEC, FS)
        for j in range(4):
            assert np.array_equal(out[:, j], columns[j][:, 0])

    def test_output_does_not_depend_on_worker_count(self, cpus):
        img = np.random.default_rng(6).normal(size=(300, 7))
        cpus(1)
        serial = bandpass_image(img.copy(), SPEC, FS)
        cpus(64)
        assert np.array_equal(apply(bandpass_image, img, SPEC, FS), serial)


class TestEnvelope:
    def test_zero_sequence(self):
        assert np.array_equal(envelope_image(np.zeros((64, 1))), np.zeros((64, 1)))

    def test_tone_envelope_flat(self):
        env = envelope_image(tone(F0, n=4000))
        inner = env[200:-200]
        assert np.all(np.abs(inner - 1.0) < 0.02)

    def test_amplitude_homogeneity(self):
        x = tone(F0, n=2048)
        assert np.allclose(envelope_image(3.5 * x), 3.5 * envelope_image(x), rtol=1e-12)

    def test_phase_invariance(self):
        n = 4096
        env_sin = envelope_image(tone(F0, n=n))
        env_cos = envelope_image(tone(F0, n=n, phase=np.pi / 2))
        lo, hi = int(0.05 * n), int(0.95 * n)
        assert np.all(np.abs(env_sin[lo:hi] - env_cos[lo:hi]) < 0.02)

    def test_rejects_short_input(self):
        with pytest.raises(ValueError):
            envelope_image(np.zeros((3, 1)))

    def test_image_envelope_matches_per_column(self):
        rng = np.random.default_rng(3)
        img = rng.normal(size=(512, 3))
        columns = [envelope_image(img[:, [j]]) for j in range(3)]
        out = apply(envelope_image, img)
        for j in range(3):
            assert np.allclose(out[:, j], columns[j][:, 0], rtol=1e-12, atol=1e-12)

    # two full column blocks and a ragged one, and a single column
    @pytest.mark.parametrize("nx", [2 * _ENVELOPE_BLOCK + 3, 1])
    def test_blocks_match_whole_image_transform(self, nx):
        img = np.random.default_rng(7).normal(size=(300, nx))
        expected = whole_image_envelope(img)
        assert np.array_equal(apply(envelope_image, img), expected)

    def test_output_does_not_depend_on_worker_count(self, cpus):
        img = np.random.default_rng(8).normal(size=(300, 2 * _ENVELOPE_BLOCK + 3))
        cpus(1)
        serial = envelope_image(img.copy())
        cpus(64)
        assert np.array_equal(apply(envelope_image, img), serial)

    def test_work_arrays_are_narrower_than_the_image(self, cpus):
        cpus(2)
        img = np.random.default_rng(9).normal(size=(1000, 512))
        tracemalloc.start()
        try:
            envelope_image(img)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # one image-wide complex spectrum; the output alone is half of it
        assert peak < 1024 * 512 * 16


STAGES = {
    "bandpass_image": lambda img: bandpass_image(img, SPEC, FS),
    "envelope_image": envelope_image,
}


def read_only(a):
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("stage", STAGES.values(), ids=STAGES.keys())
@pytest.mark.parametrize("make_image", [
    lambda a: a.astype(np.float32),
    lambda a: a.tolist(),
    lambda a: a[:, 0],
    read_only,
], ids=["float32", "list", "1-D", "read_only"])
def test_rejects_an_image_it_cannot_write(stage, make_image):
    image = make_image(np.random.default_rng(10).normal(size=(300, 7)))
    before = np.array(image)
    with pytest.raises(ValueError, match="^image must be a writeable 2-D float64 array$"):
        stage(image)
    assert np.array_equal(image, before)


class TestLogCompress:
    def test_max_maps_to_zero(self):
        img = np.array([[1.0, 0.5], [0.25, 0.1]])
        db = log_compress(img, 70.0)
        assert db.max() == 0.0
        assert np.all(db <= 0.0)

    def test_tenth_of_max_is_minus_20(self):
        img = np.array([[1.0, 0.1]])
        db = log_compress(img, 70.0)
        assert db[0, 1] == pytest.approx(-20.0, abs=1e-12)

    def test_floor_clamps(self):
        img = np.array([[1.0, 1e-6]])
        db = log_compress(img, 70.0)
        assert db[0, 1] == -70.0

    def test_all_zero_is_an_error(self):
        with pytest.raises(ValueError):
            log_compress(np.zeros((3, 3)), 70.0)

    def test_rejects_negative_values(self):
        with pytest.raises(ValueError):
            log_compress(np.array([[1.0, -0.1]]), 70.0)

    # checked before anything else, so the invalid floor of 0 is not
    # reached: a NaN would otherwise read as an all-zero image, an inf
    # give a NaN pixel
    @pytest.mark.parametrize("envelope", [[[1.0, np.nan]], [[np.inf, 1.0]], [[-np.inf, 1.0]]],
                             ids=["nan", "inf", "-inf"])
    def test_rejects_non_finite_values(self, envelope):
        with pytest.raises(ValueError, match="^envelope image must be finite$"):
            log_compress(np.array(envelope), 0.0)

    @pytest.mark.parametrize("dynamic_range", [np.inf, np.nan, 0.0, -10.0])
    def test_dynamic_range_must_be_finite_and_positive(self, dynamic_range):
        with pytest.raises(ValueError, match="dynamic_range must be finite and positive"):
            log_compress(np.array([[1.0, 0.5]]), dynamic_range)

    def test_power_of_two_scaling_is_exact(self):
        rng = np.random.default_rng(4)
        img = np.abs(rng.normal(size=(20, 30))) + 0.01
        base = log_compress(img, 70.0)
        for k in (-6, -1, 3, 9):
            scaled = log_compress(img * 2.0**k, 70.0)
            assert np.array_equal(base, scaled)

    def test_arbitrary_scaling_within_rounding(self):
        rng = np.random.default_rng(5)
        img = np.abs(rng.normal(size=(20, 30))) + 0.01
        base = log_compress(img, 70.0)
        for alpha in (0.37, 2.9, 113.0):
            scaled = log_compress(img * alpha, 70.0)
            assert np.max(np.abs(base - scaled)) < 1e-12
