"""Image-quality metrics: region SNR, FWHM, contrast ratio, generalized
contrast-to-noise ratio, lateral profiles and sidelobe levels.

Region metrics (SNR, CR, gCNR) operate on the envelope-domain image,
before log compression; profile metrics operate on normalized dB
profiles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import ImageGrid, _image_on_grid, _require_finite_positive


class RegionShape(Enum):
    RECT = "rect"
    DISC = "disc"


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned region of interest, in meters.

    For RECT, half_x / half_z are the half-widths; for DISC, half_x is the
    radius and half_z is ignored. The centre must be finite and each used
    extent finite and positive.
    """

    shape: RegionShape
    center_x: float
    center_z: float
    half_x: float
    half_z: float = 0.0

    def __post_init__(self):
        for name in ("center_x", "center_z"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        _require_finite_positive("half_x", self.half_x)
        if self.shape is RegionShape.RECT:
            _require_finite_positive("half_z", self.half_z)

    @classmethod
    def rect(cls, center_x, center_z, half_x, half_z):
        return cls(RegionShape.RECT, center_x, center_z, half_x, half_z)

    @classmethod
    def disc(cls, center_x, center_z, radius):
        return cls(RegionShape.DISC, center_x, center_z, radius, radius)

    def mask(self, grid: ImageGrid) -> np.ndarray:
        """Boolean pixel mask on a grid; the region must lie inside it."""
        hx = self.half_x
        hz = self.half_z if self.shape is RegionShape.RECT else self.half_x
        if (
            self.center_x - hx < grid.x_min
            or self.center_x + hx > grid.x_max
            or self.center_z - hz < grid.z_min
            or self.center_z + hz > grid.z_max
        ):
            raise ValueError("region extends outside the image grid")
        x = grid.x_axis[None, :] - self.center_x
        z = grid.z_axis[:, None] - self.center_z
        if self.shape is RegionShape.RECT:
            return (np.abs(x) <= hx) & (np.abs(z) <= hz)
        return x**2 + z**2 <= hx**2


def snr_region(image, region: RegionSpec, grid: ImageGrid) -> float:
    """Region SNR in dB: 20 log10((max - min) / std) over the region's
    pixels of a pre-log-compression intensity image; they must be finite."""
    pixels = _region_pixels(image, region, grid, "snr")
    if pixels.size < 2:
        raise ValueError("region must contain at least 2 pixels")
    spread = float(np.max(pixels) - np.min(pixels))
    std = float(np.std(pixels))
    if not std > 0:
        raise ValueError("region has zero variance")
    return 20.0 * np.log10(spread / std)


def cr(image, cyst: RegionSpec, background: RegionSpec, grid: ImageGrid) -> float:
    """Contrast ratio in dB: 20 log10(mean cyst / mean background) on the
    pre-log-compression intensity image. More negative is better anechoic
    contrast; an exactly empty cyst reports -inf. Each region must hold at
    least one pixel, and its pixels must be finite; a negative cyst mean or
    a background mean that is not positive is refused."""
    mu_cyst = float(np.mean(_region_pixels(image, cyst, grid, "cyst")))
    mu_bck = float(np.mean(_region_pixels(image, background, grid, "background")))
    if not mu_bck > 0:
        raise ValueError("background region has non-positive mean intensity")
    if mu_cyst < 0.0:
        raise ValueError("cyst region has negative mean intensity")
    if mu_cyst == 0.0:
        return float("-inf")
    return 20.0 * np.log10(mu_cyst / mu_bck)


def _region_pixels(image, region: RegionSpec, grid: ImageGrid, name: str) -> np.ndarray:
    pixels = _image_on_grid(image, grid)[region.mask(grid)]
    if pixels.size == 0:
        raise ValueError(f"{name} region contains no pixels")
    if not np.all(np.isfinite(pixels)):
        raise ValueError(f"{name} region holds non-finite pixels")
    return pixels


GCNR_BINS = 100


def gcnr(image, region_a: RegionSpec, region_b: RegionSpec, grid: ImageGrid) -> float:
    """Generalized contrast-to-noise ratio (Rodriguez-Molares et al., IEEE
    TUFFC 2020) of two regions of the pre-log-compression intensity image:
    one minus the overlap of their pixel-value distributions, from 0 for
    identical distributions to 1 for disjoint ones.

    Binning: ``GCNR_BINS`` (100) equal-width bins span the smallest to the
    largest pixel of both regions together, the last bin closed on the
    right (``np.histogram``). Each region's counts are normalized by its pixel
    count, and the overlap is the sum over bins of the smaller of the two.
    Each region must hold at least one pixel, and its pixels must be
    finite.
    """
    a = _region_pixels(image, region_a, grid, "first")
    b = _region_pixels(image, region_b, grid, "second")
    edges = np.histogram_bin_edges(np.concatenate((a, b)), GCNR_BINS)
    count_a = np.histogram(a, edges)[0]
    count_b = np.histogram(b, edges)[0]
    # integer cross-multiplied counts, so equal distributions overlap exactly
    overlap = np.minimum(count_a * b.size, count_b * a.size).sum() / (a.size * b.size)
    return float(1.0 - overlap)


@dataclass(frozen=True, eq=False)
class LateralProfile:
    """Lateral cut through an image at one depth.

    x holds the lateral positions in meters; value_db is normalized so its
    maximum is 0 dB. depth is the actual row depth. x and value_db are 1-D
    and of one length; x is finite and never decreases, and value_db holds
    no NaN (-inf, the level of a zero amplitude, is allowed).
    """

    depth: float
    x: np.ndarray
    value_db: np.ndarray

    def __post_init__(self):
        for name in ("x", "value_db"):
            if np.ndim(getattr(self, name)) != 1:
                raise ValueError(f"{name} must be 1-D, got shape {np.shape(getattr(self, name))}")
        x = np.asarray(self.x, dtype=float)
        value_db = np.asarray(self.value_db, dtype=float)
        if x.size != value_db.size:
            raise ValueError(f"x and value_db must have one length, got {x.size} and {value_db.size}")
        if not np.all(np.isfinite(x)):
            raise ValueError("x must be finite")
        if np.any(np.diff(x) < 0):
            raise ValueError("x must not decrease")
        if np.any(np.isnan(value_db)):
            raise ValueError("value_db must not hold NaN")


def lateral_profile(image: np.ndarray, depth: float, grid: ImageGrid) -> LateralProfile:
    """Extract the row of a 2-D dB image nearest a depth, renormalized to
    0 dB max. The image must be (grid.nz, grid.nx)."""
    image = _image_on_grid(image, grid)
    if not grid.z_min <= depth <= grid.z_max:
        raise ValueError(f"requested depth {depth!r} lies outside the grid")
    z = grid.z_axis
    row = int(np.argmin(np.abs(z - depth)))
    values = image[row, :]
    return LateralProfile(depth=float(z[row]), x=grid.x_axis, value_db=values - values.max())


def _crossing(x0, a0, x1, a1, level):
    return x0 + (x1 - x0) * (level - a0) / (a1 - a0)


def _mainlobe(profile: LateralProfile):
    """The profile's amplitude, its peak index, and the first sample below
    half the peak amplitude (-6.02 dB) on each side of the peak.

    The peak must not sit on either profile boundary and both samples must
    exist, else the mainlobe is truncated and ``ValueError`` is raised.
    """
    amp = 10.0 ** (np.asarray(profile.value_db, dtype=float) / 20.0)
    if amp.size < 3:
        raise ValueError("profile too short")
    peak = int(np.argmax(amp))
    if peak == 0 or peak == amp.size - 1:
        raise ValueError("profile peak sits on the boundary; mainlobe truncated")
    below = amp < 0.5 * amp[peak]
    left = np.flatnonzero(below[:peak])
    right = np.flatnonzero(below[peak + 1 :])
    if left.size == 0 or right.size == 0:
        raise ValueError("no half-maximum crossing on one side; mainlobe truncated")
    return amp, peak, int(left[-1]), peak + 1 + int(right[0])


def fwhm(profile: LateralProfile) -> float:
    """Full width at half maximum of the profile's mainlobe, in mm.

    Width between the two half-amplitude crossings (-6.02 dB, i.e. half of
    the peak intensity) nearest the peak, with linear interpolation of the
    amplitude between samples. The peak must not sit on either profile
    boundary and both crossings must exist.
    """
    amp, peak, lo, hi = _mainlobe(profile)
    half = 0.5 * amp[peak]
    x = np.asarray(profile.x, dtype=float)
    left = _crossing(x[lo], amp[lo], x[lo + 1], amp[lo + 1], half)
    right = _crossing(x[hi - 1], amp[hi - 1], x[hi], amp[hi], half)
    return float((right - left) * 1e3)


def sidelobe_level(profile: LateralProfile) -> float:
    """Highest profile value outside the mainlobe, in dB relative to the peak.

    The mainlobe runs from the peak past the half-amplitude samples of
    :func:`fwhm` to the first local minimum on each side, so dips above
    -6.02 dB (apex texture of the product beamformers) stay inside it. The
    sidelobe is the highest sample beyond either minimum; -inf when no
    sample lies there (single-lobe profile). Raises :func:`fwhm`'s errors.
    """
    _amp, peak, lo, hi = _mainlobe(profile)
    v = np.asarray(profile.value_db, dtype=float)
    while lo > 0 and v[lo - 1] <= v[lo]:
        lo -= 1
    while hi < v.size - 1 and v[hi + 1] <= v[hi]:
        hi += 1
    outside = np.concatenate((v[:lo], v[hi + 1 :]))
    if outside.size == 0:
        return float("-inf")
    return float(outside.max() - v[peak])
