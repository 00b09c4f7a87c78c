import numpy as np
import pytest

from usbeam import (
    NoiseSpec,
    Phantom,
    PhantomLabel,
    PulseModel,
    PulseWeighting,
    add_noise,
    linear_array,
    make_cyst_phantom,
    make_tumor_phantom,
    make_wire_phantom,
    pulse_waveform,
    round_trip_pulse,
    signal_power,
    synthesize_rf,
)
from usbeam.simulator import (
    _ACCUM_CHUNK,
    CYST_DEPTHS,
    CYST_NARROW_RADIUS,
    CYST_NARROW_X,
    CYST_WIDE_RADIUS,
    CYST_WIDE_X,
    TUMOR_WIRE_AMPLITUDE,
    WIRE_PAIR_DEPTHS,
    WIRE_SINGLE_DEPTHS,
)

PULSE = PulseModel(f0=3e6, cycles=2)
FS = 100e6


def point_phantom(x, z, amplitude=1.0):
    return Phantom(
        scatterers=np.array([[x, z, amplitude]]),
        label=PhantomLabel.CUSTOM,
        x_bounds=(min(x, 0.0), max(x, 0.0)),
        z_bounds=(z, z),
    )


class TestPhantoms:
    def test_wire_phantom_depths(self):
        ph = make_wire_phantom()
        depths = sorted(set(ph.scatterers[:, 1]))
        assert depths == sorted(WIRE_SINGLE_DEPTHS + WIRE_PAIR_DEPTHS)
        assert 35e-3 in depths

    def test_wire_phantom_pairing(self):
        ph = make_wire_phantom(pair_separation=4e-3)
        for z in WIRE_PAIR_DEPTHS:
            xs = sorted(ph.scatterers[ph.scatterers[:, 1] == z][:, 0])
            assert xs == [-2e-3, 2e-3]
        for z in WIRE_SINGLE_DEPTHS:
            xs = ph.scatterers[ph.scatterers[:, 1] == z][:, 0]
            assert list(xs) == [0.0]

    def test_cyst_phantom_anechoic_discs(self):
        ph = make_cyst_phantom(seed=99)
        x, z, amp = ph.scatterers.T
        for cz in CYST_DEPTHS:
            for cx, radius in ((CYST_WIDE_X, CYST_WIDE_RADIUS), (CYST_NARROW_X, CYST_NARROW_RADIUS)):
                inside = (x - cx) ** 2 + (z - cz) ** 2 <= radius**2
                assert inside.any()
                assert np.all(amp[inside] == 0.0)

    def test_cyst_radii_match_layout(self):
        assert CYST_WIDE_RADIUS == 4e-3
        assert CYST_NARROW_RADIUS == 2.5e-3
        assert len(CYST_DEPTHS) == 5

    def test_cyst_phantom_seeded_determinism(self):
        a = make_cyst_phantom(seed=5)
        b = make_cyst_phantom(seed=5)
        c = make_cyst_phantom(seed=6)
        assert np.array_equal(a.scatterers, b.scatterers)
        assert not np.array_equal(a.scatterers, c.scatterers)

    def test_tumor_phantom_contents(self):
        ph = make_tumor_phantom(seed=3)
        amp = ph.scatterers[:, 2]
        # exactly one isolated bright wire
        assert np.count_nonzero(amp == TUMOR_WIRE_AMPLITUDE) == 1
        # elevated-amplitude ellipse: interior amplitudes spread ~3x wider
        assert np.abs(amp[:-1]).max() <= 3.0

    def test_phantom_rejects_out_of_bounds_scatterers(self):
        with pytest.raises(ValueError):
            Phantom(
                scatterers=np.array([[5e-3, 10e-3, 1.0]]),
                label=PhantomLabel.CUSTOM,
                x_bounds=(-1e-3, 1e-3),
                z_bounds=(5e-3, 20e-3),
            )

    @pytest.mark.parametrize("field", ["x_bounds", "z_bounds"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_phantom_rejects_non_finite_bounds(self, field, bad):
        bounds = {"x_bounds": (-1e-3, 1e-3), "z_bounds": (5e-3, 20e-3)}
        low, high = bounds[field]
        bounds[field] = (low, bad) if bad != -np.inf else (bad, high)
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            Phantom(
                scatterers=np.array([[0.0, 10e-3, 1.0]]),
                label=PhantomLabel.CUSTOM,
                **bounds,
            )

    @pytest.mark.parametrize("z", [0.0, -5e-3])
    def test_phantom_rejects_scatterers_not_below_array_face(self, z):
        with pytest.raises(ValueError, match="below the array face"):
            point_phantom(0.0, z)


class TestPulse:
    def test_waveform_duration(self):
        w = pulse_waveform(PULSE, FS)
        expected = int(np.floor(PULSE.cycles / PULSE.f0 * FS)) + 1
        assert w.size == expected
        assert w[0] == 0.0

    def test_hann_weighting_tapers_ends(self):
        w = pulse_waveform(PulseModel(f0=3e6, cycles=2, weighting=PulseWeighting.HANN), FS)
        assert abs(w[0]) < 1e-12
        assert abs(w[-1]) < 1e-3
        assert np.max(np.abs(w)) > 0.5

    def test_round_trip_is_double_convolution(self):
        e = pulse_waveform(PULSE, FS)
        h = pulse_waveform(PulseModel(f0=3e6, cycles=2, weighting=PulseWeighting.HANN), FS)
        p = round_trip_pulse(PULSE, PulseModel(f0=3e6, cycles=2, weighting=PulseWeighting.HANN), FS)
        assert p.size == e.size + 2 * h.size - 2

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            PulseModel(f0=0.0, cycles=2)
        with pytest.raises(ValueError):
            PulseModel(f0=3e6, cycles=0)


class TestSynthesize:
    def test_peak_arrival_time(self):
        # on-axis scatterer: channel peak at fs*2z/c plus the pulse's own peak
        geom = linear_array(5, 0.3e-3)
        z = 20e-3
        frame = synthesize_rf(point_phantom(0.0, z), geom, PULSE, FS)
        p = round_trip_pulse(PULSE, PulseModel(f0=3e6, cycles=2, weighting=PulseWeighting.HANN), FS)
        mid_channel = frame.samples[2]
        expected = FS * 2 * z / 1540.0 + np.argmax(np.abs(p))
        assert abs(np.argmax(np.abs(mid_channel)) - expected) <= 2

    def test_zero_amplitude_scatterer_contributes_nothing(self):
        geom = linear_array(4, 0.3e-3)
        base = Phantom(
            scatterers=np.array([[0.0, 10e-3, 1.0], [1e-3, 12e-3, -0.5]]),
            label=PhantomLabel.CUSTOM,
            x_bounds=(0.0, 1e-3),
            z_bounds=(10e-3, 12e-3),
        )
        with_zero = Phantom(
            scatterers=np.array([[0.0, 10e-3, 1.0], [0.5e-3, 11e-3, 0.0], [1e-3, 12e-3, -0.5]]),
            label=PhantomLabel.CUSTOM,
            x_bounds=(0.0, 1e-3),
            z_bounds=(10e-3, 12e-3),
        )
        a = synthesize_rf(base, geom, PULSE, FS)
        b = synthesize_rf(with_zero, geom, PULSE, FS)
        assert np.array_equal(a.samples, b.samples)

    def test_coincident_scatterers_superpose_exactly(self):
        geom = linear_array(4, 0.3e-3)
        single = synthesize_rf(point_phantom(0.5e-3, 15e-3), geom, PULSE, FS)
        double = Phantom(
            scatterers=np.array([[0.5e-3, 15e-3, 1.0], [0.5e-3, 15e-3, 1.0]]),
            label=PhantomLabel.CUSTOM,
            x_bounds=(0.0, 0.5e-3),
            z_bounds=(15e-3, 15e-3),
        )
        assert np.array_equal(synthesize_rf(double, geom, PULSE, FS).samples, 2.0 * single.samples)

    def test_linear_in_amplitude(self):
        geom = linear_array(6, 0.3e-3)
        one = synthesize_rf(point_phantom(-0.4e-3, 18e-3, 1.0), geom, PULSE, FS)
        scaled = synthesize_rf(point_phantom(-0.4e-3, 18e-3, -2.5), geom, PULSE, FS)
        assert np.allclose(scaled.samples, -2.5 * one.samples, rtol=1e-12, atol=1e-15)

    def test_mirror_symmetry(self):
        geom = linear_array(8, 0.3e-3)
        left = synthesize_rf(point_phantom(-0.9e-3, 14e-3), geom, PULSE, FS)
        right = synthesize_rf(point_phantom(0.9e-3, 14e-3), geom, PULSE, FS)
        assert np.allclose(left.samples, right.samples[::-1, :], atol=1e-9)

    def test_matches_per_pair_placement_oracle(self):
        # Oracle: each scatterer-element pair adds its own linearly
        # interpolated pulse, w * ((1 - frac) * p[n] + frac * p[n + 1]) at
        # k0 + n. More scatterers than one accumulation chunk, both signs.
        rng = np.random.default_rng(8)
        count = _ACCUM_CHUNK + 500
        scatterers = np.column_stack([
            rng.uniform(-3e-3, 3e-3, count), rng.uniform(5e-3, 15e-3, count), rng.uniform(-1.0, 1.0, count)
        ])
        phantom = Phantom(scatterers, PhantomLabel.CUSTOM, x_bounds=(-3e-3, 3e-3), z_bounds=(5e-3, 15e-3))
        geom = linear_array(6, 0.3e-3)
        frame = synthesize_rf(phantom, geom, PULSE, FS)

        p = round_trip_pulse(PULSE, PulseModel(f0=3e6, cycles=2, weighting=PulseWeighting.HANN), FS)
        p_next = np.append(p[1:], 0.0)
        sx, sz, amp = (scatterers[:, i : i + 1] for i in range(3))
        r = np.sqrt((sx - geom.element_x) ** 2 + sz**2)
        arrival = (sz / 1540.0 + r / 1540.0) * FS
        k0 = np.ceil(arrival).astype(np.int64)
        frac = (k0 - arrival)[..., None]
        segments = (amp / r)[..., None] * ((1.0 - frac) * p + frac * p_next)
        oracle = np.zeros_like(frame.samples)
        for i in range(geom.element_count):
            np.add.at(oracle[i], k0[:, i, None] + np.arange(p.size), segments[:, i])
        assert np.max(np.abs(frame.samples - oracle)) <= 1e-12 * np.max(np.abs(oracle))

    def test_rejects_empty_phantom(self):
        geom = linear_array(4, 0.3e-3)
        empty = Phantom(
            scatterers=np.zeros((0, 3)), label=PhantomLabel.CUSTOM,
            x_bounds=(0.0, 0.0), z_bounds=(1e-3, 1e-3),
        )
        with pytest.raises(ValueError):
            synthesize_rf(empty, geom, PULSE, FS)

    def test_sample_count_covers_round_trip(self):
        geom = linear_array(4, 0.3e-3)
        z = 25e-3
        frame = synthesize_rf(point_phantom(0.0, z), geom, PULSE, FS)
        assert frame.sample_count >= FS * 2 * z / 1540.0


@pytest.fixture(scope="module")
def frame():
    geom = linear_array(8, 0.3e-3)
    return synthesize_rf(point_phantom(0.0, 20e-3), geom, PULSE, FS)


class TestNoise:
    def test_huge_target_returns_frame_unchanged(self, frame):
        assert add_noise(frame, NoiseSpec(target_snr_db=300.0)) is frame

    def test_seeded_determinism(self, frame):
        a = add_noise(frame, NoiseSpec(target_snr_db=10.0, seed=42))
        b = add_noise(frame, NoiseSpec(target_snr_db=10.0, seed=42))
        c = add_noise(frame, NoiseSpec(target_snr_db=10.0, seed=43))
        assert np.array_equal(a.samples, b.samples)
        assert not np.array_equal(a.samples, c.samples)

    def test_zero_db_noise_power_matches_signal_power(self, frame):
        p_sig = signal_power(frame.samples)
        for seed in range(10):
            noisy = add_noise(frame, NoiseSpec(target_snr_db=0.0, seed=seed))
            p_noise = np.mean((noisy.samples - frame.samples) ** 2)
            assert abs(p_noise - p_sig) / p_sig < 0.05

    def test_rejects_all_zero_frame(self):
        from usbeam import RfFrame

        silent = RfFrame(samples=np.zeros((4, 100)), fs=FS, f0=3e6, c=1540.0)
        with pytest.raises(ValueError):
            add_noise(silent, NoiseSpec(target_snr_db=10.0))
