"""Synthetic RF generation: phantom factories, pulse models, a
single-scattering acoustic model, and calibrated noise injection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import ArrayGeometry, _require_count, _require_finite_positive
from .rfmodel import RfFrame
from .workers import distribute


@dataclass(frozen=True)
class PulseModel:
    """Sinusoidal burst with a rectangular envelope: f0 in Hz and an
    integer number of cycles."""

    f0: float
    cycles: int = 2

    def __post_init__(self):
        _require_finite_positive("f0", self.f0)
        _require_count("cycles", self.cycles, 1)


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise target: SNR in dB against the frame's signal power,
    reproducible under a fixed non-negative integer seed."""

    target_snr_db: float
    seed: int = 0

    def __post_init__(self):
        if not self.target_snr_db > -math.inf:
            raise ValueError(f"target_snr_db must be a number above -inf, got {self.target_snr_db!r}")
        _require_count("seed", self.seed, 0)


@dataclass(frozen=True, eq=False)
class Phantom:
    """Scene description: scatterers[:, (x, z, amplitude)], every one
    below the array face (z > 0). The scatterers' own extent sets the
    length of the frames synthesized from them. The phantom holds a
    read-only copy of them, so it never aliases the caller's array."""

    scatterers: np.ndarray

    def __post_init__(self):
        s = np.array(self.scatterers, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError("scatterers must be an (N, 3) array of (x, z, amplitude)")
        if not np.all(np.isfinite(s)):
            raise ValueError("scatterer entries must be finite")
        if not np.all(s[:, 1] > 0):
            raise ValueError("scatterers must lie below the array face (every z > 0)")
        s.flags.writeable = False
        object.__setattr__(self, "scatterers", s)


# Wire target layout (meters): laterally separated pairs at six depths,
# plus one isolated wire above and one below the pair stack.
WIRE_PAIR_DEPTHS = (35e-3, 40e-3, 45e-3, 50e-3, 55e-3, 60e-3)
WIRE_SINGLE_DEPTHS = (32e-3, 63e-3)
DEFAULT_PAIR_SEPARATION = 3e-3

# Cyst phantom layout (meters): an anechoic disc pair per depth, the wide
# one off-axis and the narrow one centered. The mirror position of the wide
# cyst stays pure speckle, giving contrast measurements a background patch
# with the same off-axis geometry as the cyst.
CYST_DEPTHS = (10e-3, 20e-3, 30e-3, 40e-3, 50e-3)
CYST_WIDE_RADIUS = 4e-3
CYST_NARROW_RADIUS = 2.5e-3
CYST_WIDE_X = -7.5e-3
CYST_NARROW_X = 0.0
_CYST_X_BOUNDS = (-15e-3, 15e-3)
_CYST_Z_BOUNDS = (5e-3, 55e-3)

# Default speckle density, scatterers per square meter. Sized for at least
# ten scatterers per nominal resolution cell (about 0.47 mm lateral by
# 1.54 mm axial for a 3 MHz, 128-element half-wavelength aperture at 30 mm
# depth), with margin.
DEFAULT_SPECKLE_DENSITY = 1.7e7

# Tumor phantom layout (meters).
_TUMOR_X_BOUNDS = (-12e-3, 12e-3)
_TUMOR_Z_BOUNDS = (20e-3, 50e-3)
TUMOR_CENTER = (0.0, 35e-3)
TUMOR_SEMI_AXES = (6e-3, 4e-3)
TUMOR_AMPLITUDE_GAIN = 3.0
TUMOR_WIRE_POSITION = (6e-3, 26e-3)
TUMOR_WIRE_AMPLITUDE = 8.0


def make_wire_phantom(pair_separation: float = DEFAULT_PAIR_SEPARATION) -> Phantom:
    """Point-target phantom: wire pairs at six depths plus two single wires."""
    _require_finite_positive("pair_separation", pair_separation)
    pts = [(0.0, z, 1.0) for z in WIRE_SINGLE_DEPTHS]
    for z in WIRE_PAIR_DEPTHS:
        pts.append((-pair_separation / 2.0, z, 1.0))
        pts.append((pair_separation / 2.0, z, 1.0))
    pts.sort(key=lambda p: (p[1], p[0]))
    return Phantom(np.array(pts, dtype=float))


def _speckle(seed: int, speckle_density: float, x_bounds, z_bounds):
    """Uniformly placed speckle scatterers in a box, amplitudes uniform on
    [-1, 1]: returns (x, z, amplitude) arrays, drawn in that order."""
    _require_count("seed", seed, 0)
    _require_finite_positive("speckle_density", speckle_density)
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (z_lo, z_hi) = x_bounds, z_bounds
    count = int(round(speckle_density * (x_hi - x_lo) * (z_hi - z_lo)))
    x = rng.uniform(x_lo, x_hi, count)
    z = rng.uniform(z_lo, z_hi, count)
    return x, z, rng.uniform(-1.0, 1.0, count)


def make_cyst_phantom(seed: int = 2024, speckle_density: float = DEFAULT_SPECKLE_DENSITY) -> Phantom:
    """Speckle slab with ten anechoic cysts, two radii at five depths.

    Speckle scatterers are uniformly placed with amplitudes uniform on
    [-1, 1]; any scatterer inside a cyst disc keeps its position but has
    its amplitude zeroed, which makes the discs anechoic.
    """
    x, z, amp = _speckle(seed, speckle_density, _CYST_X_BOUNDS, _CYST_Z_BOUNDS)
    for cz in CYST_DEPTHS:
        for cx, radius in ((CYST_WIDE_X, CYST_WIDE_RADIUS), (CYST_NARROW_X, CYST_NARROW_RADIUS)):
            inside = (x - cx) ** 2 + (z - cz) ** 2 <= radius**2
            amp[inside] = 0.0
    return Phantom(np.column_stack([x, z, amp]))


def make_tumor_phantom(seed: int = 2024, speckle_density: float = DEFAULT_SPECKLE_DENSITY) -> Phantom:
    """Speckle slab with a bright elliptical inclusion and one isolated wire."""
    x, z, amp = _speckle(seed, speckle_density, _TUMOR_X_BOUNDS, _TUMOR_Z_BOUNDS)
    cx, cz = TUMOR_CENTER
    ax, az = TUMOR_SEMI_AXES
    inside = ((x - cx) / ax) ** 2 + ((z - cz) / az) ** 2 <= 1.0
    amp[inside] *= TUMOR_AMPLITUDE_GAIN
    scatterers = np.column_stack([x, z, amp])
    wire = np.array([[TUMOR_WIRE_POSITION[0], TUMOR_WIRE_POSITION[1], TUMOR_WIRE_AMPLITUDE]])
    return Phantom(np.vstack([scatterers, wire]))


def pulse_waveform(pulse: PulseModel, fs: float) -> np.ndarray:
    """Sampled burst waveform at rate fs."""
    _require_finite_positive("fs", fs)
    if not fs > 2.0 * pulse.f0:
        raise ValueError("fs must exceed 2 * f0")
    n = int(math.floor(pulse.cycles / pulse.f0 * fs)) + 1
    t = np.arange(n) / fs
    return np.sin(2.0 * np.pi * pulse.f0 * t)


def round_trip_pulse(pulse: PulseModel, fs: float) -> np.ndarray:
    """Round-trip waveform: the excitation convolved twice (transmit and
    receive) with the element impulse response, a two-cycle Hann-weighted
    burst at the excitation's f0. Its first sample is exactly 0."""
    h = pulse_waveform(PulseModel(f0=pulse.f0, cycles=2), fs)
    t = np.arange(h.size) / fs
    h *= 0.5 * (1.0 - np.cos(2.0 * np.pi * t / (2 / pulse.f0)))
    return np.convolve(np.convolve(pulse_waveform(pulse, fs), h), h)


def synthesize_rf(
    phantom: Phantom,
    geometry: ArrayGeometry,
    pulse: PulseModel,
    fs: float,
) -> RfFrame:
    """Single-scattering channel data for a phantom.

    Each scatterer adds the round-trip pulse to every channel, delayed by
    the axial transmit time plus the scatterer-to-element return time and
    scaled by amplitude / return distance. There is no element directivity
    and no attenuation; spreading loss applies to the receive path only.

    The channels are built in the linear-systems form: each channel is an
    impulse train convolved once with the round-trip pulse p. A
    scatterer-element pair arriving at fractional sample ``a`` with
    weight w contributes w * (1 - frac) at k0 = ceil(a) and w * frac at
    k0 - 1, where frac = k0 - a. That equals the pair's linearly
    interpolated pulse w * ((1 - frac) * p[n] + frac * p[n + 1]) at k0 + n
    because p[0] == 0, and k0 - 1 >= 0 because every scatterer lies below
    the array face. Each train sample sums its k0 impulses in scatterer
    order, then adds the sum of its k0 - 1 impulses in scatterer order. The
    channels are split over the CPUs the process may use and each thread
    builds and convolves the trains of its own channels one at a time, so
    no sample depends on the thread count.

    Parameters
    ----------
    phantom : Phantom
    geometry : ArrayGeometry
    pulse : PulseModel
        Excitation burst; see :func:`round_trip_pulse` for the element
        impulse response.
    fs : float
        Sampling rate in Hz.

    Returns
    -------
    RfFrame
        Recorded by ``geometry``. The sample count is
        ``ceil(fs * (z_max + hypot(x_max + e_max, z_max)) / c)`` plus the
        length of :func:`round_trip_pulse` plus 2, where z_max is the
        scatterers' largest z, x_max their largest |x| and e_max the
        largest |element_x|. That covers the latest arrival of any
        scatterer at any element, plus the pulse.
    """
    scatterers = phantom.scatterers
    if scatterers.shape[0] == 0:
        raise ValueError("phantom has no scatterers")
    p = round_trip_pulse(pulse, fs)

    c = geometry.sound_speed
    ex = geometry.element_x
    m = geometry.element_count
    sx, sz, amp = scatterers.T
    z_max = float(np.max(sz))
    r_bound = math.hypot(float(np.max(np.abs(sx))) + float(np.max(np.abs(ex))), z_max)
    k_count = int(math.ceil(fs * (z_max + r_bound) / c)) + p.size + 2

    samples = np.empty((m, k_count))

    def fill(channels) -> None:
        for i in channels:
            r = np.sqrt((sx - ex[i]) ** 2 + sz**2)
            arrival = (sz / c + r / c) * fs
            k0 = np.ceil(arrival).astype(np.int64)
            frac = k0 - arrival
            w = amp / r
            train = np.bincount(k0, weights=w * (1.0 - frac), minlength=k_count)
            train += np.bincount(k0 - 1, weights=w * frac, minlength=k_count)
            samples[i] = np.convolve(train, p)[:k_count]

    distribute(m, fill)
    return RfFrame(samples=samples, fs=float(fs), f0=pulse.f0, geometry=geometry)


def signal_power(samples: np.ndarray) -> float:
    """Mean squared value over the signal support: samples whose magnitude
    exceeds 1% of the peak."""
    s = np.asarray(samples, dtype=float)
    peak = np.max(np.abs(s)) if s.size else 0.0
    if not peak > 0:
        raise ValueError("frame has no signal")
    support = np.abs(s) > 0.01 * peak
    return float(np.mean(s[support] ** 2))


def add_noise(frame: RfFrame, spec: NoiseSpec) -> RfFrame:
    """Add white Gaussian noise calibrated against the frame's signal power.

    The noise variance is signal_power / 10^(SNR/10); the realization is
    deterministic for a fixed seed. Targets of 300 dB or more return the
    input frame unchanged; targets too low for a finite variance raise.
    """
    if spec.target_snr_db >= 300.0:
        return frame
    power = signal_power(frame.samples)
    ratio = 10.0 ** (spec.target_snr_db / 10.0)
    if not (ratio > 0 and math.isfinite(power / ratio)):
        raise ValueError(f"target_snr_db={spec.target_snr_db:g} dB implies a noise variance that is not finite")
    sigma = math.sqrt(power / ratio)
    rng = np.random.default_rng(spec.seed)
    noisy = frame.samples + sigma * rng.standard_normal(frame.samples.shape)
    return RfFrame(samples=noisy, fs=frame.fs, f0=frame.f0, geometry=frame.geometry)
