"""Synthetic RF generation: phantom factories, pulse models, a
single-scattering acoustic model, and calibrated noise injection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ArrayGeometry
from .rfmodel import RfFrame


class PhantomLabel(Enum):
    WIRES = "wires"
    CYSTS = "cysts"
    TUMOR_WIRE = "tumor"
    CUSTOM = "custom"


class PulseWeighting(Enum):
    RECTANGULAR = "rectangular"
    HANN = "hann"


@dataclass(frozen=True)
class PulseModel:
    """Sinusoidal burst: f0 in Hz, an integer number of cycles, and an
    amplitude weighting window."""

    f0: float
    cycles: int = 2
    weighting: PulseWeighting = PulseWeighting.RECTANGULAR

    def __post_init__(self):
        if not self.f0 > 0:
            raise ValueError("f0 must be positive")
        if self.cycles < 1:
            raise ValueError("cycles must be >= 1")


@dataclass(frozen=True)
class NoiseSpec:
    """White-noise target: SNR in dB against the frame's signal power,
    reproducible under a fixed seed."""

    target_snr_db: float
    seed: int = 0


@dataclass(frozen=True)
class Phantom:
    """Scene description: scatterers[:, (x, z, amplitude)] plus the
    bounding box that the scatterers must lie in."""

    scatterers: np.ndarray
    label: PhantomLabel
    x_bounds: tuple[float, float]
    z_bounds: tuple[float, float]

    def __post_init__(self):
        s = np.asarray(self.scatterers, dtype=float)
        if s.ndim != 2 or s.shape[1] != 3:
            raise ValueError("scatterers must be an (N, 3) array of (x, z, amplitude)")
        if not np.all(np.isfinite(s)):
            raise ValueError("scatterer entries must be finite")
        for name in ("x_bounds", "z_bounds"):
            bounds = getattr(self, name)
            if not np.all(np.isfinite(bounds)):
                raise ValueError(f"{name} must be finite, got {bounds!r}")
        if not self.z_bounds[0] > 0:
            raise ValueError("scatterers must lie below the array face (z_bounds[0] > 0)")
        if s.shape[0]:
            x, z = s[:, 0], s[:, 1]
            if (
                x.min() < self.x_bounds[0]
                or x.max() > self.x_bounds[1]
                or z.min() < self.z_bounds[0]
                or z.max() > self.z_bounds[1]
            ):
                raise ValueError("scatterers must lie inside the declared bounding box")
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

# Scatterers per impulse-accumulation chunk. Fixed so a given scene always
# sums in the same order, keeping synthesis bit-reproducible; it also bounds
# the per-pair temporaries to a few (chunk, M) arrays.
_ACCUM_CHUNK = 2048


def make_wire_phantom(pair_separation: float = DEFAULT_PAIR_SEPARATION) -> Phantom:
    """Point-target phantom: wire pairs at six depths plus two single wires."""
    if not pair_separation > 0:
        raise ValueError("pair_separation must be positive")
    pts = [(0.0, z, 1.0) for z in WIRE_SINGLE_DEPTHS]
    for z in WIRE_PAIR_DEPTHS:
        pts.append((-pair_separation / 2.0, z, 1.0))
        pts.append((pair_separation / 2.0, z, 1.0))
    pts.sort(key=lambda p: (p[1], p[0]))
    half = pair_separation / 2.0
    return Phantom(
        scatterers=np.array(pts, dtype=float),
        label=PhantomLabel.WIRES,
        x_bounds=(-half, half),
        z_bounds=(WIRE_SINGLE_DEPTHS[0], WIRE_SINGLE_DEPTHS[1]),
    )


def _cyst_centers():
    centers = []
    for z in CYST_DEPTHS:
        centers.append((CYST_WIDE_X, z, CYST_WIDE_RADIUS))
        centers.append((CYST_NARROW_X, z, CYST_NARROW_RADIUS))
    return centers


def make_cyst_phantom(seed: int = 2024, speckle_density: float = DEFAULT_SPECKLE_DENSITY) -> Phantom:
    """Speckle slab with ten anechoic cysts, two radii at five depths.

    Speckle scatterers are uniformly placed with amplitudes uniform on
    [-1, 1]; any scatterer inside a cyst disc keeps its position but has
    its amplitude zeroed, which makes the discs anechoic.
    """
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (z_lo, z_hi) = _CYST_X_BOUNDS, _CYST_Z_BOUNDS
    count = int(round(speckle_density * (x_hi - x_lo) * (z_hi - z_lo)))
    x = rng.uniform(x_lo, x_hi, count)
    z = rng.uniform(z_lo, z_hi, count)
    amp = rng.uniform(-1.0, 1.0, count)
    for cx, cz, radius in _cyst_centers():
        inside = (x - cx) ** 2 + (z - cz) ** 2 <= radius**2
        amp[inside] = 0.0
    return Phantom(
        scatterers=np.column_stack([x, z, amp]),
        label=PhantomLabel.CYSTS,
        x_bounds=_CYST_X_BOUNDS,
        z_bounds=_CYST_Z_BOUNDS,
    )


def make_tumor_phantom(seed: int = 2024, speckle_density: float = DEFAULT_SPECKLE_DENSITY) -> Phantom:
    """Speckle slab with a bright elliptical inclusion and one isolated wire."""
    rng = np.random.default_rng(seed)
    (x_lo, x_hi), (z_lo, z_hi) = _TUMOR_X_BOUNDS, _TUMOR_Z_BOUNDS
    count = int(round(speckle_density * (x_hi - x_lo) * (z_hi - z_lo)))
    x = rng.uniform(x_lo, x_hi, count)
    z = rng.uniform(z_lo, z_hi, count)
    amp = rng.uniform(-1.0, 1.0, count)
    cx, cz = TUMOR_CENTER
    ax, az = TUMOR_SEMI_AXES
    inside = ((x - cx) / ax) ** 2 + ((z - cz) / az) ** 2 <= 1.0
    amp[inside] *= TUMOR_AMPLITUDE_GAIN
    scatterers = np.column_stack([x, z, amp])
    wire = np.array([[TUMOR_WIRE_POSITION[0], TUMOR_WIRE_POSITION[1], TUMOR_WIRE_AMPLITUDE]])
    return Phantom(
        scatterers=np.vstack([scatterers, wire]),
        label=PhantomLabel.TUMOR_WIRE,
        x_bounds=_TUMOR_X_BOUNDS,
        z_bounds=_TUMOR_Z_BOUNDS,
    )


def pulse_waveform(pulse: PulseModel, fs: float) -> np.ndarray:
    """Sampled burst waveform at rate fs."""
    if not fs > 2.0 * pulse.f0:
        raise ValueError("fs must exceed 2 * f0")
    duration = pulse.cycles / pulse.f0
    n = int(math.floor(duration * fs)) + 1
    t = np.arange(n) / fs
    w = np.sin(2.0 * np.pi * pulse.f0 * t)
    if pulse.weighting is PulseWeighting.HANN:
        w *= 0.5 * (1.0 - np.cos(2.0 * np.pi * t / duration))
    return w


def round_trip_pulse(excitation: PulseModel, impulse_response: PulseModel, fs: float) -> np.ndarray:
    """Round-trip waveform: the excitation convolved with the element
    impulse response twice (transmit and receive)."""
    e = pulse_waveform(excitation, fs)
    h = pulse_waveform(impulse_response, fs)
    return np.convolve(np.convolve(e, h), h)


def synthesize_rf(
    phantom: Phantom,
    geometry: ArrayGeometry,
    pulse: PulseModel,
    fs: float,
    impulse_response: PulseModel | None = None,
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
    the array face. Impulses accumulate in fixed-size scatterer chunks so
    that a given scene always sums in the same order.

    Parameters
    ----------
    phantom : Phantom
    geometry : ArrayGeometry
    pulse : PulseModel
        Excitation burst. The element impulse response defaults to a
        two-cycle Hann-weighted burst at the same center frequency.
    fs : float
        Sampling rate in Hz.
    impulse_response : PulseModel, optional

    Returns
    -------
    RfFrame
        The sample count covers the deepest possible round trip plus the
        pulse length.
    """
    scatterers = phantom.scatterers
    if scatterers.shape[0] == 0:
        raise ValueError("phantom has no scatterers")
    if impulse_response is None:
        impulse_response = PulseModel(f0=pulse.f0, cycles=2, weighting=PulseWeighting.HANN)
    p = round_trip_pulse(pulse, impulse_response, fs)

    c = geometry.sound_speed
    ex = geometry.element_x
    m = geometry.element_count
    x_abs_max = max(abs(phantom.x_bounds[0]), abs(phantom.x_bounds[1]))
    z_max = phantom.z_bounds[1]
    r_bound = math.hypot(x_abs_max + float(np.max(np.abs(ex))), z_max)
    k_count = int(math.ceil(fs * (z_max + r_bound) / c)) + p.size + 2

    train = np.zeros(m * k_count)
    chan_base = np.arange(m) * k_count
    for start in range(0, scatterers.shape[0], _ACCUM_CHUNK):
        chunk = scatterers[start : start + _ACCUM_CHUNK]
        sx = chunk[:, 0][:, None]
        sz = chunk[:, 1][:, None]
        r = np.sqrt((sx - ex[None, :]) ** 2 + sz**2)
        arrival = (sz / c + r / c) * fs
        k0 = np.ceil(arrival).astype(np.int64)
        frac = k0 - arrival
        weight = chunk[:, 2][:, None] / r
        flat = (chan_base + k0).ravel()
        train += np.bincount(flat, weights=(weight * (1.0 - frac)).ravel(), minlength=train.size)
        train += np.bincount(flat - 1, weights=(weight * frac).ravel(), minlength=train.size)
    samples = np.empty((m, k_count))
    for i, row in enumerate(train.reshape(m, k_count)):
        samples[i] = np.convolve(row, p)[:k_count]
    return RfFrame(samples=samples, fs=float(fs), f0=pulse.f0, c=c)


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
    input frame unchanged.
    """
    if spec.target_snr_db >= 300.0:
        return frame
    power = signal_power(frame.samples)
    sigma = math.sqrt(power / 10.0 ** (spec.target_snr_db / 10.0))
    rng = np.random.default_rng(spec.seed)
    noisy = frame.samples + sigma * rng.standard_normal(frame.samples.shape)
    return RfFrame(samples=noisy, fs=frame.fs, f0=frame.f0, c=frame.c)
