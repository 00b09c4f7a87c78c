"""RF channel-data container and delayed-sample access."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class RfFrame:
    """Raw channel data plus acquisition metadata.

    samples[i, k] is the value recorded by element i at time index k.
    The frame is treated as immutable after construction.
    """

    samples: np.ndarray
    fs: float
    f0: float
    c: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("samples must be a 2-D elements-by-time matrix")
        if s.shape[0] < 1:
            raise ValueError("samples must hold at least one element")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        for name in ("fs", "f0", "c"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not self.fs > 2.0 * self.f0:
            raise ValueError("fs must exceed 2 * f0")
        object.__setattr__(self, "samples", s)

    @property
    def element_count(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_count(self) -> int:
        return self.samples.shape[1]


def signed_sqrt(x):
    """Square root that keeps the sign: sign(x) * sqrt(|x|).

    Odd function, total on finite reals; maps 0 to 0. Accepts scalars or
    arrays of any shape.
    """
    x = np.asarray(x, dtype=float)
    out = np.sign(x) * np.sqrt(np.abs(x))
    if out.ndim == 0:
        return float(out)
    return out


def fetch_delayed(frame: RfFrame, delays) -> np.ndarray:
    """Linearly interpolated channel samples at fractional delays.

    The last axis of ``delays`` indexes the elements, so a vector of M
    delays yields one delayed sample per element and an (nz, M) block
    yields a column of them. Sample positions outside [0, K-1] contribute
    zero (the pixel lies outside the recorded window).
    """
    d = np.asarray(delays, dtype=float)
    if d.shape[-1] != frame.element_count:
        raise ValueError("last axis of delays must match the frame's element count")
    samples = frame.samples
    k_last = frame.sample_count - 1
    i0 = np.floor(d).astype(np.int64)
    frac = d - i0
    chan = np.arange(frame.element_count).reshape((1,) * (d.ndim - 1) + (-1,))
    lo_ok = (i0 >= 0) & (i0 <= k_last)
    hi_ok = (i0 >= -1) & (i0 < k_last)
    lo = samples[chan, np.clip(i0, 0, k_last)]
    hi = samples[chan, np.clip(i0 + 1, 0, k_last)]
    return np.where(lo_ok, lo, 0.0) * (1.0 - frac) + np.where(hi_ok, hi, 0.0) * frac
