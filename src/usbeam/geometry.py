"""Transducer geometry, image grids, and round-trip delay computation."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _require_finite_positive(name: str, value) -> None:
    if not (np.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_count(name: str, value, minimum: int) -> None:
    """Check a count or a seed: a Python or NumPy integer, not a bool, of at least ``minimum``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear transducer array centered on x = 0.

    Parameters
    ----------
    element_count : int
        Number of elements, at least 1 (``op_count`` states each kind's minimum).
    pitch : float
        Center-to-center element spacing in meters.
    sound_speed : float
        Propagation speed in m/s, 1540 by default.

    The lateral element positions, ``element_x``, are derived from the
    count and pitch: ``(arange(M) - (M - 1) / 2) * pitch``, in meters, and
    are read-only, so two equal arrays always give the same delays.
    """

    element_count: int
    pitch: float
    sound_speed: float = 1540.0
    element_x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_count("element_count", self.element_count, 1)
        _require_finite_positive("pitch", self.pitch)
        _require_finite_positive("sound_speed", self.sound_speed)
        element_x = (np.arange(self.element_count, dtype=float) - (self.element_count - 1) / 2.0) * self.pitch
        element_x.flags.writeable = False
        object.__setattr__(self, "element_x", element_x)


# A second name for the constructor, kept because perfbench/workloads.py
# calls it; ROADMAP item 3 deletes it with the benchmark's other old names.
linear_array = ArrayGeometry


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
        _require_count("nx", self.nx, 1)
        _require_count("nz", self.nz, 1)
        for name in ("x_min", "x_max", "z_min", "z_max"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"grid extent {name} must be finite, got {value!r}")
        if not self.z_min > 0:
            raise ValueError("z_min must be positive (imaging starts below the array face)")
        if self.x_max < self.x_min or self.z_max < self.z_min:
            raise ValueError("grid extents must satisfy x_min <= x_max and z_min <= z_max")
        with np.errstate(over="ignore", invalid="ignore"):
            if not np.all(np.isfinite(self.x_axis)):
                raise ValueError(f"lateral positions of {self} are not all finite")

    @property
    def x_axis(self) -> np.ndarray:
        """Lateral positions, laid out about the span's midpoint as
        ``ArrayGeometry`` lays out its elements, so a centred grid
        (``x_min == -x_max``) is antisymmetric bit for bit. One column sits
        at ``x_min``."""
        if self.nx == 1:
            return np.array([self.x_min], dtype=float)
        step = (self.x_max - self.x_min) / (self.nx - 1)
        return 0.5 * (self.x_min + self.x_max) + (np.arange(self.nx) - (self.nx - 1) / 2) * step

    @property
    def z_axis(self) -> np.ndarray:
        return np.linspace(self.z_min, self.z_max, self.nz)

    @property
    def dz(self) -> float:
        if self.nz < 2:
            raise ValueError("axial spacing is undefined for a single-row grid")
        if self.z_max == self.z_min:
            raise ValueError("axial spacing is undefined for a zero-height grid")
        return (self.z_max - self.z_min) / (self.nz - 1)


def _image_on_grid(image, grid: ImageGrid) -> np.ndarray:
    """The image as a float array, refused unless it is (grid.nz, grid.nx)."""
    image = np.asarray(image, dtype=float)
    if image.shape != (grid.nz, grid.nx):
        raise ValueError(f"image shape {image.shape} does not match the grid's (nz, nx) = {(grid.nz, grid.nx)}")
    return image


@dataclass(frozen=True)
class DelayTable:
    """Round-trip delays, in samples, for dynamically focused reconstruction.

    Transmit travel to a pixel is modeled as straight axial propagation
    (z / c); receive travel is the exact Euclidean distance from the pixel
    back to each element. The sum is scaled by the sampling rate fs, in Hz,
    so the delays address fractional sample positions directly; doubling
    fs exactly doubles every delay.

    The table is a descriptor of (geometry, grid, fs) that computes the
    delays on demand: ``column(j)`` gives the (nz, element_count) delays of
    image column j, so nothing holds the full table; ``beamform_image``
    builds one from each frame's array and fs. The grid axes are built
    once, with the table. Building it computes only the two edge columns,
    where the largest delay lies, and refuses a table whose largest delay
    overflows float64, naming the grid, so every delay is finite.

    ``mirrored`` is true on a grid centred on the array (``x_min ==
    -x_max``, compared exactly), whose ``x_axis`` is antisymmetric, so
    ``column(nx - 1 - j)`` equals ``column(j)[:, ::-1]`` bit for bit.
    """

    geometry: ArrayGeometry
    grid: ImageGrid
    fs: float
    mirrored: bool = field(init=False, compare=False)
    _x_axis: np.ndarray = field(init=False, repr=False, compare=False)
    _z_axis: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_finite_positive("fs", self.fs)
        object.__setattr__(self, "mirrored", self.grid.x_min == -self.grid.x_max)
        object.__setattr__(self, "_x_axis", self.grid.x_axis)
        object.__setattr__(self, "_z_axis", self.grid.z_axis)
        with np.errstate(over="ignore"):
            # the largest delay lies in an edge column, at the deepest row
            if not np.all(np.isfinite([self.column(0)[-1], self.column(-1)[-1]])):
                raise ValueError(f"delays overflow float64 on {self.grid} at fs={self.fs!r}")

    def column(self, j: int) -> np.ndarray:
        """Delays of image column j, shape (nz, element_count).

        Computed element-major, as an (element_count, nz) block, and
        returned as its transpose, so each element's delays are contiguous.
        The receive path is built in one allocation, then the transmit time
        is added and the sum scaled, all in place.
        """
        c = self.geometry.sound_speed
        dx = self._x_axis[j] - self.geometry.element_x[:, None]
        travel = dx * dx + self._z_axis * self._z_axis
        np.sqrt(travel, out=travel)
        travel /= c
        travel += self._z_axis / c
        travel *= self.fs
        return travel.T

    @property
    def values(self) -> np.ndarray:
        """The full (nz, nx, element_count) table, filled from ``column(j)`` on every
        read; a second way to the delays, kept because perfbench/ reads it."""
        table = np.empty((self.grid.nz, self.grid.nx, self.geometry.element_count))
        for j in range(self.grid.nx):
            table[:, j, :] = self.column(j)
        return table


def compute_delays(geometry: ArrayGeometry, grid: ImageGrid, fs: float) -> DelayTable:
    """``DelayTable(geometry, grid, float(fs))`` under a second name, kept
    because perfbench/ calls and wraps it."""
    return DelayTable(geometry, grid, float(fs))
