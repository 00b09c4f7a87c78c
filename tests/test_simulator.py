import math
import tracemalloc

import numpy as np
import pytest

from usbeam import (
    NoiseSpec,
    Phantom,
    PulseModel,
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
HALF_WAVE_PITCH = 0.5 * 1540.0 / 3e6


def speckle_phantom(seed):
    """2,548 uniformly placed scatterers with amplitudes of both signs,
    enough that many pairs share a train sample."""
    rng = np.random.default_rng(seed)
    count = 2548
    scatterers = np.column_stack([
        rng.uniform(-3e-3, 3e-3, count), rng.uniform(5e-3, 15e-3, count), rng.uniform(-1.0, 1.0, count)
    ])
    return Phantom(scatterers)


def point_phantom(x, z, amplitude=1.0):
    return Phantom(np.array([[x, z, amplitude]]))


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

    @pytest.mark.parametrize("factory", [make_cyst_phantom, make_tumor_phantom])
    @pytest.mark.parametrize("density", [np.inf, np.nan, 0.0, -1.0])
    def test_speckle_density_must_be_finite_and_positive(self, factory, density):
        with pytest.raises(ValueError, match="speckle_density must be finite and positive"):
            factory(speckle_density=density)

    @pytest.mark.parametrize("factory", [make_cyst_phantom, make_tumor_phantom])
    def test_negative_speckle_seed_is_named(self, factory):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
            factory(seed=-1)

    @pytest.mark.parametrize("separation", [np.inf, np.nan, 0.0])
    def test_pair_separation_must_be_finite_and_positive(self, separation):
        with pytest.raises(ValueError, match="^pair_separation must be finite and positive"):
            make_wire_phantom(separation)

    def test_tumor_phantom_contents(self):
        ph = make_tumor_phantom(seed=3)
        amp = ph.scatterers[:, 2]
        # exactly one isolated bright wire
        assert np.count_nonzero(amp == TUMOR_WIRE_AMPLITUDE) == 1
        # elevated-amplitude ellipse: interior amplitudes spread ~3x wider
        assert np.abs(amp[:-1]).max() <= 3.0

    @pytest.mark.parametrize("z", [0.0, -5e-3])
    def test_phantom_rejects_scatterers_not_below_array_face(self, z):
        # the bad scatterer follows a valid one, so every row is checked
        with pytest.raises(ValueError, match=r"below the array face \(every z > 0\)"):
            Phantom(np.array([[0.0, 10e-3, 1.0], [1e-3, z, 1.0]]))

    @pytest.mark.parametrize("column", ["x", "z", "amplitude"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_phantom_rejects_non_finite_scatterers(self, column, bad):
        # the bad entry sits in the second row, after a valid scatterer
        s = np.array([[0.0, 10e-3, 1.0], [1e-3, 12e-3, 0.5]])
        s[1, ["x", "z", "amplitude"].index(column)] = bad
        with pytest.raises(ValueError, match="^scatterer entries must be finite"):
            Phantom(s)

    @pytest.mark.parametrize("shape", [(3,), (2, 2), (2, 4), (1, 3, 1)])
    def test_phantom_rejects_arrays_not_n_by_3(self, shape):
        with pytest.raises(ValueError, match=r"^scatterers must be an \(N, 3\) array"):
            Phantom(np.full(shape, 10e-3))


class TestPulse:
    def test_waveform_duration(self):
        w = pulse_waveform(PULSE, FS)
        expected = int(np.floor(PULSE.cycles / PULSE.f0 * FS)) + 1
        assert w.size == expected
        assert w[0] == 0.0

    @pytest.mark.parametrize(
        "f0,fs,cycles", [(3e6, 100e6, 2), (2.5e6, 40e6, 3), (5e6, 33.3e6, 1), (7.1e6, 123.4e6, 4)]
    )
    def test_round_trip_is_excitation_twice_through_a_hann_element(self, f0, fs, cycles):
        # the sampled bursts, written out independently of the package
        def burst(cycles, hann):
            duration = cycles / f0
            t = np.arange(int(np.floor(duration * fs)) + 1) / fs
            w = np.sin(2.0 * np.pi * f0 * t)
            if hann:
                w *= 0.5 * (1.0 - np.cos(2.0 * np.pi * t / duration))
            return w

        h = burst(2, hann=True)
        p = round_trip_pulse(PulseModel(f0=f0, cycles=cycles), fs)
        assert np.array_equal(p, np.convolve(np.convolve(burst(cycles, hann=False), h), h))
        # synthesize_rf's two-impulse placement relies on this
        assert p[0] == 0.0

    def test_round_trip_is_double_convolution(self):
        e = pulse_waveform(PULSE, FS)
        h = pulse_waveform(PulseModel(f0=3e6, cycles=2), FS)
        p = round_trip_pulse(PULSE, FS)
        assert p.size == e.size + 2 * h.size - 2

    @pytest.mark.parametrize("f0", [np.inf, np.nan, 0.0])
    def test_f0_must_be_finite_and_positive(self, f0):
        with pytest.raises(ValueError, match="^f0 must be finite and positive"):
            PulseModel(f0=f0)

    @pytest.mark.parametrize("fs", [np.inf, np.nan])
    def test_fs_must_be_finite_before_any_synthesis(self, fs):
        with pytest.raises(ValueError, match="^fs must be finite and positive"):
            pulse_waveform(PULSE, fs)
        with pytest.raises(ValueError, match="^fs must be finite and positive"):
            synthesize_rf(point_phantom(0.0, 10e-3), linear_array(4, 0.3e-3), PULSE, fs)

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
        p = round_trip_pulse(PULSE, FS)
        mid_channel = frame.samples[2]
        expected = FS * 2 * z / 1540.0 + np.argmax(np.abs(p))
        assert abs(np.argmax(np.abs(mid_channel)) - expected) <= 2

    def test_zero_amplitude_scatterer_contributes_nothing(self):
        geom = linear_array(4, 0.3e-3)
        base = Phantom(np.array([[0.0, 10e-3, 1.0], [1e-3, 12e-3, -0.5]]))
        with_zero = Phantom(np.array([[0.0, 10e-3, 1.0], [0.5e-3, 11e-3, 0.0], [1e-3, 12e-3, -0.5]]))
        a = synthesize_rf(base, geom, PULSE, FS)
        b = synthesize_rf(with_zero, geom, PULSE, FS)
        assert np.array_equal(a.samples, b.samples)

    def test_coincident_scatterers_superpose_exactly(self):
        geom = linear_array(4, 0.3e-3)
        single = synthesize_rf(point_phantom(0.5e-3, 15e-3), geom, PULSE, FS)
        double = Phantom(np.array([[0.5e-3, 15e-3, 1.0], [0.5e-3, 15e-3, 1.0]]))
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
        # k0 + n.
        phantom = speckle_phantom(8)
        scatterers = phantom.scatterers
        geom = linear_array(6, 0.3e-3)
        frame = synthesize_rf(phantom, geom, PULSE, FS)

        p = round_trip_pulse(PULSE, FS)
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

    def test_output_does_not_depend_on_worker_count(self, cpus):
        # 7 channels: two or three workers take unequal shares
        phantom = speckle_phantom(9)
        geom = linear_array(7, 0.3e-3)
        cpus(1)
        serial = synthesize_rf(phantom, geom, PULSE, FS).samples
        for count in (2, 3, 64):
            cpus(count)
            assert np.array_equal(synthesize_rf(phantom, geom, PULSE, FS).samples, serial)

    def test_synthesis_holds_two_frames(self, cpus):
        # The samples and RfFrame's padded copy are the only frame-sized
        # buffers; each worker's temporaries are a few scatterer-length
        # vectors.
        cpus(2)
        phantom = speckle_phantom(10)
        geom = linear_array(64, 0.3e-3)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            frame = synthesize_rf(phantom, geom, PULSE, FS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - entry) / frame.samples.nbytes <= 2.5

    def test_rejects_empty_phantom(self):
        geom = linear_array(4, 0.3e-3)
        empty = Phantom(np.zeros((0, 3)))
        with pytest.raises(ValueError):
            synthesize_rf(empty, geom, PULSE, FS)

    def test_sample_count_covers_round_trip(self):
        # the deepest z and widest |x|, seen from the farthest element, plus
        # the round-trip pulse, plus 2
        scenes = [
            ([[0.0, 25e-3, 1.0]], 4),
            ([[-2e-3, 18e-3, 1.0], [0.5e-3, 30e-3, -0.3], [1e-3, 7e-3, 0.8]], 6),
            ([[0.0, 10e-3, 1.0]], 64),
        ]
        for scatterers, m in scenes:
            geom = linear_array(m, HALF_WAVE_PITCH)
            s = np.array(scatterers)
            x_max, z_max = float(np.max(np.abs(s[:, 0]))), float(np.max(s[:, 1]))
            r = math.hypot(x_max + float(np.max(np.abs(geom.element_x))), z_max)
            rule = math.ceil(FS * (z_max + r) / 1540.0) + round_trip_pulse(PULSE, FS).size + 2
            frame = synthesize_rf(Phantom(s), geom, PULSE, FS)
            assert frame.sample_count == rule
        # one wire at 10 mm with M = 64: the frame ends just past its echoes
        assert frame.sample_count == 1686

    # add_noise fills its noise row by row, so a new frame length re-draws
    # every noisy acceptance image
    @pytest.mark.parametrize("make,m,length", [
        (lambda: make_wire_phantom(6e-3), 64, 8446),
        (make_wire_phantom, 128, 8543),
        (make_cyst_phantom, 64, 7646),
        (make_cyst_phantom, 128, 7882),
        (make_tumor_phantom, 128, 7179),
    ], ids=["wire-rig", "cli-wires", "cysts-64", "cysts-128", "tumor-128"])
    def test_shipped_scene_frame_lengths(self, make, m, length):
        frame = synthesize_rf(make(), linear_array(m, HALF_WAVE_PITCH), PULSE, FS)
        assert frame.sample_count == length

    def test_deeper_silent_scatterer_only_appends_zeros(self):
        geom = linear_array(8, 0.3e-3)
        wire = np.array([[0.4e-3, 12e-3, 1.0]])
        short = synthesize_rf(Phantom(wire), geom, PULSE, FS).samples
        deeper = Phantom(np.vstack([wire, [[0.0, 20e-3, 0.0]]]))
        long = synthesize_rf(deeper, geom, PULSE, FS).samples
        k = short.shape[1]
        assert long.shape[1] > k
        assert np.array_equal(long[:, :k], short)
        assert not np.any(long[:, k:])

    def test_frame_carries_the_array_through_noise(self):
        geom = linear_array(4, 0.2e-3, sound_speed=1480.0)
        clean = synthesize_rf(point_phantom(0.0, 20e-3), geom, PULSE, FS)
        noisy = add_noise(clean, NoiseSpec(target_snr_db=10.0, seed=1))
        assert clean.geometry is geom and noisy.geometry is geom
        assert noisy.c == 1480.0


@pytest.fixture(scope="module")
def frame():
    geom = linear_array(8, 0.3e-3)
    return synthesize_rf(point_phantom(0.0, 20e-3), geom, PULSE, FS)


class TestNoise:
    def test_huge_target_returns_frame_unchanged(self, frame):
        assert add_noise(frame, NoiseSpec(target_snr_db=300.0)) is frame
        assert add_noise(frame, NoiseSpec(target_snr_db=float("inf"))) is frame

    @pytest.mark.parametrize("target", [float("nan"), float("-inf")])
    def test_spec_rejects_nan_and_minus_infinity(self, target):
        with pytest.raises(ValueError, match="target_snr_db"):
            NoiseSpec(target_snr_db=target)

    def test_spec_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="^seed must be an integer >= 0, got -1$"):
            NoiseSpec(target_snr_db=10.0, seed=-1)

    @pytest.mark.parametrize("target", [-4000.0, -3100.0])
    def test_target_too_low_for_a_finite_variance_is_named(self, frame, target):
        # 10 ** -400 underflows to 0; 10 ** -310 is subnormal and the
        # variance overflows
        with pytest.raises(ValueError, match="target_snr_db"):
            add_noise(frame, NoiseSpec(target_snr_db=target))

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

        silent = RfFrame(samples=np.zeros((4, 100)), fs=FS, f0=3e6, geometry=linear_array(4, 0.3e-3))
        with pytest.raises(ValueError):
            add_noise(silent, NoiseSpec(target_snr_db=10.0))
