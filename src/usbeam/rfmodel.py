"""RF channel-data container and delayed-sample access."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import ArrayGeometry, _require_finite_positive


@dataclass(frozen=True, eq=False)
class RfFrame:
    """Raw channel data plus acquisition metadata.

    samples[i, k] is the value recorded by element i of ``geometry``, the
    array that recorded the frame, at time index k. The frame copies the
    samples into one read-only buffer with one zero before and two after
    each channel, the layout :func:`fetch_delayed` reads; ``samples`` is a
    view of that buffer, so the frame never aliases the caller's array.
    """

    samples: np.ndarray
    fs: float
    f0: float
    geometry: ArrayGeometry
    _padded: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError("samples must be a 2-D elements-by-time matrix")
        if not (isinstance(self.geometry, ArrayGeometry) and s.shape[0] == self.geometry.element_count):
            raise ValueError("geometry must be an ArrayGeometry with one element per sample row")
        if not np.all(np.isfinite(s)):
            raise ValueError("samples must be finite")
        for name in ("fs", "f0"):
            _require_finite_positive(name, getattr(self, name))
        if not self.fs > 2.0 * self.f0:
            raise ValueError("fs must exceed 2 * f0")
        padded = np.zeros((s.shape[0], s.shape[1] + 3))
        padded[:, 1:-2] = s
        padded.flags.writeable = False
        object.__setattr__(self, "_padded", padded)
        object.__setattr__(self, "samples", padded[:, 1:-2])

    @property
    def c(self) -> float:
        return self.geometry.sound_speed

    @property
    def element_count(self) -> int:
        return self.samples.shape[0]

    @property
    def sample_count(self) -> int:
        return self.samples.shape[1]


def signed_sqrt(x):
    """Square root that keeps the sign: sign(x) * sqrt(|x|).

    Odd function, total on finite reals; maps 0 to 0. Accepts scalars or
    arrays of any shape; a scalar gives a NumPy float64.
    """
    x = np.asarray(x, dtype=float)
    return np.copysign(np.sqrt(np.abs(x)), x)


def fetch_delayed(frame: RfFrame, delays) -> np.ndarray:
    """Linearly interpolated channel samples at fractional delays.

    The last axis of ``delays`` indexes the elements, so a vector of M
    delays yields one delayed sample per element and an (nz, M) block
    yields a column of them. Sample positions outside [0, K-1] contribute
    zero (the pixel lies outside the recorded window). The delays must be
    finite.

    Both neighbours are read from the frame's zero-padded buffer by fancy
    indexing, which keeps the memory order of ``delays``: a transposed
    (M, nz) block, or its element-reversed view ``d[:, ::-1]``, reads each
    channel front to back and yields an F-ordered result whose transpose
    is C-contiguous. Clipping the delays to [-1, K] lands every
    out-of-window position on the padding, so no mask is needed and the
    result equals masking each neighbour outside [0, K-1] to zero.
    """
    d = np.asarray(delays, dtype=float)
    if d.shape[-1] != frame.element_count:
        raise ValueError("last axis of delays must match the frame's element count")
    if not np.all(np.isfinite(d)):
        raise ValueError("delays must be finite")
    padded = frame._padded
    frac = np.clip(d, -1.0, frame.sample_count)
    i0 = np.floor(frac)
    frac -= i0
    # flat index into the padded buffer: row base, plus one for the leading zero
    flat = i0.astype(np.int64)
    del i0
    flat += np.arange(frame.element_count) * padded.shape[1] + 1
    buffer = padded.reshape(-1)
    lo = buffer[flat]
    flat += 1
    hi = buffer[flat]
    del flat
    # lo * (1 - frac) + hi * frac, computed in place: the same products and sum
    hi *= frac
    np.subtract(1.0, frac, out=frac)
    lo *= frac
    lo += hi
    return lo
