"""Binary file formats: the RF channel-data container, the reconstructed
image container, and portable graymap rendering.

Both binary containers use a fixed 64-byte little-endian header followed
by a float32 payload; doubles in memory are quantized to float32 exactly
once, at write time, and a value that is not finite in float32 is
refused. Writes go to a temporary file in the target directory and are
renamed into place.
"""

from __future__ import annotations

import os
import struct

import numpy as np

from .geometry import ArrayGeometry, ImageGrid, _image_on_grid, _require_finite_positive
from .rfmodel import RfFrame

RF_MAGIC = b"URF1"
IMAGE_MAGIC = b"UIM1"
FORMAT_VERSION = 1

# magic, version, count16, count32, four f64 fields, reserved -> 64 bytes.
_HEADER = struct.Struct("<4sHHI4d20s")
_RESERVED = b"\x00" * 20
assert _HEADER.size == 64


def atomic_write(path: str, payload: bytes) -> None:
    """Write bytes to a uniquely named temporary file beside the target,
    then rename it into place; the temporary file is removed if either
    step fails."""
    tmp = f"{path}.{os.getpid()}.{os.urandom(4).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)  # umask applies, as with open()
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def check_rf_elements(element_count: int) -> None:
    """Raise unless an RF container can hold this many elements."""
    if element_count > 0xFFFF:
        raise ValueError("element count exceeds the container's 16-bit field")


def check_image_grid(grid: ImageGrid) -> None:
    """Raise unless an image container can hold an image on this grid."""
    if grid.nx > 0xFFFF:
        raise ValueError("grid width exceeds the container's 16-bit field")


def _float32_payload(path: str, values: np.ndarray) -> bytes:
    """The values quantized to float32, once; raises, naming the file, if
    any is not finite there, so no writer leaves a file its reader rejects."""
    with np.errstate(over="ignore"):
        payload = values.astype("<f4")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: values must be finite in float32")
    return payload.tobytes(order="C")


def write_rf(path: str, frame: RfFrame) -> None:
    """Write a frame, with its array's pitch, as an RF container (header + float32 channel-major body)."""
    m, k = frame.element_count, frame.sample_count
    check_rf_elements(m)
    header = _HEADER.pack(RF_MAGIC, FORMAT_VERSION, m, k, frame.fs, frame.f0, frame.c, frame.geometry.pitch, _RESERVED)
    atomic_write(path, header + _float32_payload(path, frame.samples))


def _read_container(path: str, magic: bytes, what: str):
    """Read and check a container; returns its two counts, its four floats
    and the flat float64 payload. ``what`` names it in error messages."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise ValueError(f"{path}: truncated {what} container header")
    found, version, count16, count32, *floats, _ = _HEADER.unpack_from(raw)
    if found != magic:
        raise ValueError(f"{path}: not an {what} container (bad magic)")
    if version != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported {what} container version {version}")
    expected = _HEADER.size + 4 * count16 * count32
    if len(raw) != expected:
        raise ValueError(f"{path}: {what} container size {len(raw)} != expected {expected}")
    payload = np.frombuffer(raw, dtype="<f4", offset=_HEADER.size).astype(float)
    return count16, count32, floats, payload


def read_rf(path: str) -> tuple[RfFrame, float]:
    """Read an RF container; returns the frame, with the array that recorded it, and that
    array's pitch, a second copy of ``frame.geometry.pitch`` kept because perfbench/ unpacks it."""
    m, k, (fs, f0, c, pitch), payload = _read_container(path, RF_MAGIC, "RF")
    try:
        frame = RfFrame(samples=payload.reshape(m, k), fs=fs, f0=f0, geometry=ArrayGeometry(m, pitch, c))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return frame, pitch


def write_image(path: str, image: np.ndarray, grid: ImageGrid) -> None:
    """Write a reconstructed image (rows along depth) with its grid extents."""
    img = _image_on_grid(image, grid)
    check_image_grid(grid)
    header = _HEADER.pack(
        IMAGE_MAGIC, FORMAT_VERSION, grid.nx, grid.nz, grid.x_min, grid.x_max, grid.z_min, grid.z_max, _RESERVED
    )
    atomic_write(path, header + _float32_payload(path, img))


def read_image(path: str) -> tuple[np.ndarray, ImageGrid]:
    """Read an image container; returns the image and its grid."""
    nx, nz, (x_min, x_max, z_min, z_max), payload = _read_container(path, IMAGE_MAGIC, "image")
    if not np.all(np.isfinite(payload)):
        raise ValueError(f"{path}: image container holds non-finite pixels")
    try:
        grid = ImageGrid(x_min=x_min, x_max=x_max, z_min=z_min, z_max=z_max, nx=nx, nz=nz)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return payload.reshape(nz, nx), grid


def db_to_gray(image: np.ndarray, dynamic_range: float) -> np.ndarray:
    """Map a dB image to 8-bit grayscale: 0 dB -> 255, the floor
    -dynamic_range dB -> 0, rounding halves up."""
    _require_finite_positive("dynamic_range", dynamic_range)
    levels = np.floor(255.0 * (image + dynamic_range) / dynamic_range + 0.5)
    return np.clip(levels, 0, 255).astype(np.uint8)


def write_pgm(path: str, gray: np.ndarray) -> None:
    """Write 8-bit grayscale pixels as a binary portable graymap (P5)."""
    g = np.asarray(gray)
    if g.ndim != 2 or g.dtype != np.uint8:
        raise ValueError("gray must be a 2-D uint8 array")
    header = f"P5\n{g.shape[1]} {g.shape[0]}\n255\n".encode("ascii")
    atomic_write(path, header + g.tobytes(order="C"))
