"""Transducer geometry, image grids, and round-trip delay computation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Tolerance on element-spacing uniformity, in meters.
_SPACING_TOL = 1e-12


@dataclass(frozen=True)
class ArrayGeometry:
    """Linear transducer array.

    Parameters
    ----------
    element_count : int
        Number of elements, at least 2.
    pitch : float
        Center-to-center element spacing in meters.
    element_x : np.ndarray
        Lateral element positions in meters, strictly increasing with
        uniform spacing equal to ``pitch``.
    sound_speed : float
        Propagation speed in m/s.
    """

    element_count: int
    pitch: float
    element_x: np.ndarray
    sound_speed: float

    def __post_init__(self):
        if self.element_count < 2:
            raise ValueError("element_count must be >= 2")
        if not self.pitch > 0:
            raise ValueError("pitch must be positive")
        if not self.sound_speed > 0:
            raise ValueError("sound_speed must be positive")
        x = np.asarray(self.element_x, dtype=float)
        if x.shape != (self.element_count,):
            raise ValueError("element_x must hold element_count positions")
        gaps = np.diff(x)
        if np.any(gaps <= 0):
            raise ValueError("element_x must be strictly increasing")
        if np.any(np.abs(gaps - self.pitch) > _SPACING_TOL):
            raise ValueError("element spacing must be uniform and equal to pitch")
        object.__setattr__(self, "element_x", x)


def linear_array(element_count: int, pitch: float, sound_speed: float = 1540.0) -> ArrayGeometry:
    """Build a uniform linear array centered on x = 0."""
    idx = np.arange(element_count, dtype=float)
    x = (idx - (element_count - 1) / 2.0) * pitch
    return ArrayGeometry(element_count, pitch, x, sound_speed)


@dataclass(frozen=True)
class ImageGrid:
    """Rectangular pixel lattice to reconstruct, extents in meters.

    Depth (z) increases away from the array face; z_min must be strictly
    positive so the grid starts below the transducer.
    """

    x_min: float
    x_max: float
    z_min: float
    z_max: float
    nx: int
    nz: int

    def __post_init__(self):
        if self.nx < 1 or self.nz < 1:
            raise ValueError("nx and nz must be >= 1")
        for name in ("x_min", "x_max", "z_min", "z_max"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"grid extent {name} must be finite, got {value!r}")
        if not self.z_min > 0:
            raise ValueError("z_min must be positive (imaging starts below the array face)")
        if self.x_max < self.x_min or self.z_max < self.z_min:
            raise ValueError("grid extents must satisfy x_min <= x_max and z_min <= z_max")

    @property
    def x_axis(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.nx)

    @property
    def z_axis(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.nz)

    @property
    def dz(self) -> float:
        if self.nz < 2:
            raise ValueError("axial spacing is undefined for a single-row grid")
        return (self.z_max - self.z_min) / (self.nz - 1)


@dataclass(frozen=True)
class DelayTable:
    """Per-pixel, per-element fractional sample delays, computed on demand.

    The table is a descriptor of (geometry, grid, fs): ``column(j)`` gives
    the (nz, element_count) delays of image column j, and ``values`` builds
    the whole (nz, nx, element_count) table each time it is read, so
    nothing holds the full table unless a caller asks for it. Both use the
    same element-wise arithmetic, so a column equals the matching slice of
    the table bit for bit. fs is the sampling rate the delays are scaled
    with.
    """

    geometry: ArrayGeometry
    grid: ImageGrid
    fs: float

    def __post_init__(self):
        if not self.fs > 0:
            raise ValueError("fs must be positive")
        if not self.grid.z_min > 0:
            raise ValueError("grid must start below the array face (z_min > 0)")

    def _delays(self, x, z) -> np.ndarray:
        # x and z broadcast against the trailing element axis. The receive
        # path is built in one allocation, then the transmit time is added
        # and the sum scaled, all in place.
        c = self.geometry.sound_speed
        dx = x - self.geometry.element_x
        travel = dx * dx + z * z
        np.sqrt(travel, out=travel)
        travel /= c
        travel += z / c
        travel *= self.fs
        return travel

    def column(self, j: int) -> np.ndarray:
        """Delays of image column j, shape (nz, element_count)."""
        return self._delays(self.grid.x_axis[j], self.grid.z_axis[:, None])

    @property
    def values(self) -> np.ndarray:
        """The full (nz, nx, element_count) table, built on every read."""
        return self._delays(self.grid.x_axis[:, None], self.grid.z_axis[:, None, None])


def compute_delays(geometry: ArrayGeometry, grid: ImageGrid, fs: float) -> DelayTable:
    """Round-trip delays, in samples, for dynamically focused reconstruction.

    Transmit travel to a pixel is modeled as straight axial propagation
    (z / c); receive travel is the exact Euclidean distance from the pixel
    back to each element. The sum is scaled by the sampling rate, so the
    delays address fractional sample positions directly.

    Parameters
    ----------
    geometry : ArrayGeometry
    grid : ImageGrid
    fs : float
        Sampling rate in Hz. Doubling fs exactly doubles every delay.

    Returns
    -------
    DelayTable
        A descriptor that computes the delays per column
        (:meth:`DelayTable.column`) or as a full (nz, nx, element_count)
        table (:attr:`DelayTable.values`) when asked; building it allocates
        no delays.
    """
    return DelayTable(geometry, grid, float(fs))
