"""Post-beamforming signal chain: band-pass filtering, envelope detection,
log compression."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import _require_count, _require_finite_positive
from .workers import distribute

# Image columns per envelope transform. It bounds the complex work arrays to
# a few (nfft, block) arrays per thread, while keeping each FFT call wide
# enough that its Python overhead stays small.
_ENVELOPE_BLOCK = 32


@dataclass(frozen=True)
class FilterSpec:
    """Linear-phase FIR band-pass description.

    center and half_bandwidth are in Hz; taps must be odd so the group
    delay is an integer number of samples. The passband must stay clear of
    DC; :meth:`validate_rate` checks its Nyquist side against a sampling
    rate, and :meth:`validate_line` also checks a line's length.
    """

    center: float
    half_bandwidth: float
    taps: int = 63

    def __post_init__(self):
        _require_count("taps", self.taps, 3)
        if self.taps % 2 == 0:
            raise ValueError(f"taps must be odd, got {self.taps!r}")
        _require_finite_positive("center", self.center)
        _require_finite_positive("half_bandwidth", self.half_bandwidth)
        if not self.center - self.half_bandwidth > 0:
            raise ValueError("passband must not reach DC")

    def validate_rate(self, fs: float) -> None:
        _require_finite_positive("fs", fs)
        if not self.center + self.half_bandwidth < fs / 2.0:
            raise ValueError(
                f"passband edge {self.center + self.half_bandwidth:.6g} Hz reaches "
                f"the Nyquist limit for fs={fs:.6g} Hz"
            )

    def validate_line(self, n: int, fs: float) -> None:
        """Check that an n-sample line at rate fs can be filtered."""
        if n <= self.taps:
            raise ValueError("image has fewer axial samples than filter taps")
        self.validate_rate(fs)


def design_bandpass(spec: FilterSpec, fs: float) -> np.ndarray:
    """Design the band-pass taps for a given sampling rate.

    Hann-windowed ideal band-pass, with the DC response then nulled exactly
    and the gain at the center frequency normalized to one. The taps stay
    symmetric, so the filter is linear-phase with group delay
    (taps - 1) / 2 samples.
    """
    spec.validate_rate(fs)
    n = spec.taps
    mid = (n - 1) // 2
    t = np.arange(n, dtype=float) - mid
    f_lo = spec.center - spec.half_bandwidth
    f_hi = spec.center + spec.half_bandwidth
    h = (2 * f_hi / fs) * np.sinc(2 * f_hi * t / fs) - (2 * f_lo / fs) * np.sinc(2 * f_lo * t / fs)
    h *= np.hanning(n)
    h -= h.mean()
    gain = np.abs(np.sum(h * np.exp(-2j * np.pi * spec.center / fs * np.arange(n))))
    if not gain > 1e-12:
        raise ValueError("degenerate filter design: no gain at the center frequency")
    h /= gain
    return h


def bandpass_image(image: np.ndarray, spec: FilterSpec, axial_rate: float) -> np.ndarray:
    """Filter every column (one reconstructed line) of a writeable 2-D
    float64 image along depth, in place, and return the image.

    axial_rate is the line's equivalent sampling rate in Hz: c / (2 dz)
    for a grid with axial pixel spacing dz. The integer group delay of the
    symmetric taps is removed, so each column stays aligned to its input;
    its ends are edge-replicated. DC is rejected exactly and the gain at
    spec.center is one. One line x: ``bandpass_image(x[:, None].copy(), spec, fs)[:, 0]``.
    """
    img = _require_image(image)
    spec.validate_line(img.shape[0], axial_rate)
    h = design_bandpass(spec, axial_rate)
    mid = (h.size - 1) // 2

    def fill(columns) -> None:
        for j in columns:
            # Edge-replicate so boundary samples see a settled filter; the valid
            # convolution of the padded line is exactly group-delay aligned.
            x = img[:, j]
            padded = np.concatenate([np.full(mid, x[0]), x, np.full(mid, x[-1])])
            img[:, j] = np.convolve(padded, h, mode="valid")

    distribute(img.shape[1], fill)
    return img


def envelope_image(image: np.ndarray) -> np.ndarray:
    """Per-column envelope of a writeable 2-D float64 image along the
    axial axis, in place; returns the image.

    The envelope is the magnitude of the analytic signal: negative
    frequencies zeroed and positive ones doubled, at the next power-of-two
    length. The first and last few percent of samples carry edge
    transients. One line x: ``envelope_image(x[:, None].copy())[:, 0]``.

    The columns are transformed in blocks of ``_ENVELOPE_BLOCK``, split
    over the CPUs the process may use, so the complex work arrays are one
    block wide rather than one image wide; each block is transformed before
    its result is written back. Each column's transform is the same whatever
    the block it falls in, so the output does not depend on the blocking or
    the thread count.
    """
    img = _require_image(image)
    if img.shape[0] < 4:
        raise ValueError("image too short for envelope detection")
    nz, nx = img.shape
    nfft = 1 << (nz - 1).bit_length()
    weights = np.zeros(nfft)
    weights[0] = weights[nfft // 2] = 1.0
    weights[1 : nfft // 2] = 2.0

    def fill(blocks) -> None:
        for b in blocks:
            cols = slice(b * _ENVELOPE_BLOCK, (b + 1) * _ENVELOPE_BLOCK)
            img[:, cols] = _block_envelope(img[:, cols], weights)

    distribute(-(-nx // _ENVELOPE_BLOCK), fill)
    return img


def _require_image(image) -> np.ndarray:
    """Check that a per-column stage can transform the image in place."""
    float_image = isinstance(image, np.ndarray) and image.ndim == 2 and image.dtype == np.float64
    if not (float_image and image.flags.writeable):
        raise ValueError("image must be a writeable 2-D float64 array")
    return image


def _block_envelope(block: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # A function of its own, so a block's work arrays are freed before the
    # next block's are allocated.
    spectrum = np.fft.fft(block, weights.size, axis=0)
    analytic = np.fft.ifft(spectrum * weights[:, None], axis=0)
    return np.abs(analytic[: block.shape[0], :])


def log_compress(envelope_img, dynamic_range: float) -> np.ndarray:
    """Normalize a finite envelope image to its maximum and log-compress.

    Values map to 20 log10(v / max), floored at -dynamic_range dB, so the
    maximum pixel is exactly 0 dB and every value lies in
    [-dynamic_range, 0]; the result is invariant to a global positive
    scaling of the input.
    """
    env = np.asarray(envelope_img, dtype=float)
    if not np.all(np.isfinite(env)):
        raise ValueError("envelope image must be finite")
    if np.any(env < 0):
        raise ValueError("envelope image must be nonnegative")
    _require_finite_positive("dynamic_range", dynamic_range)
    peak = env.max() if env.size else 0.0
    if not peak > 0:
        raise ValueError("cannot normalize an all-zero image")
    with np.errstate(divide="ignore"):
        db = 20.0 * np.log10(env / peak)
    return np.maximum(db, -float(dynamic_range))
