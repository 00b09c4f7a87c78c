import os
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usbeam import ArrayGeometry, ImageGrid, RfFrame, containers
from usbeam.containers import (
    atomic_write,
    db_to_gray,
    read_image,
    read_rf,
    write_image,
    write_pgm,
    write_rf,
)


@pytest.fixture()
def frame():
    rng = np.random.default_rng(17)
    return RfFrame(samples=rng.normal(size=(6, 500)), fs=100e6, f0=3e6, geometry=ArrayGeometry(6, 0.3e-3))


class TestRfContainer:
    def test_round_trip(self, frame, tmp_path):
        path = str(tmp_path / "frame.urf")
        write_rf(path, frame)
        loaded, _ = read_rf(path)
        assert loaded.geometry.pitch == 0.3e-3
        assert (loaded.fs, loaded.f0, loaded.geometry) == (frame.fs, frame.f0, frame.geometry)
        # float32 quantization applied exactly once at write time
        assert np.array_equal(loaded.samples, frame.samples.astype("<f4").astype(float))

    def test_rewrite_is_stable(self, frame, tmp_path):
        first = str(tmp_path / "a.urf")
        second = str(tmp_path / "b.urf")
        write_rf(first, frame)
        loaded, _ = read_rf(first)
        write_rf(second, loaded)
        assert (tmp_path / "a.urf").read_bytes() == (tmp_path / "b.urf").read_bytes()

    def test_file_size_64x6000(self, tmp_path):
        frame = RfFrame(samples=np.zeros((64, 6000)), fs=100e6, f0=3e6, geometry=ArrayGeometry(64, 0.3e-3))
        path = tmp_path / "size.urf"
        write_rf(str(path), frame)
        assert path.stat().st_size == 64 + 4 * 64 * 6000 == 1_536_064

    def test_bad_magic_rejected(self, frame, tmp_path):
        path = tmp_path / "bad.urf"
        write_rf(str(path), frame)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_rf(str(path))

    def test_bad_version_rejected(self, frame, tmp_path):
        path = tmp_path / "ver.urf"
        write_rf(str(path), frame)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_rf(str(path))

    def test_truncated_rejected(self, frame, tmp_path):
        path = tmp_path / "trunc.urf"
        write_rf(str(path), frame)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size"):
            read_rf(str(path))


    # header offsets: c at byte 28, pitch at 36; the float32 samples start at 64
    @pytest.mark.parametrize("offset,packed,message", [
        (36, struct.pack("<d", np.nan), "pitch must be finite and positive, got nan"),
        (28, struct.pack("<d", 0.0), "sound_speed must be finite and positive, got 0.0"),
        (64 + 4 * 7, struct.pack("<f", np.nan), "samples must be finite"),
    ], ids=["pitch", "sound_speed", "sample"])
    def test_reader_names_the_file(self, frame, tmp_path, offset, packed, message):
        path = tmp_path / "bad.urf"
        write_rf(str(path), frame)
        raw = bytearray(path.read_bytes())
        raw[offset : offset + len(packed)] = packed
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {message}$"):
            read_rf(str(path))


FLOAT32_MAX = float(np.finfo(np.float32).max)
# Above float32's maximum, yet below the midpoint to the next power of two,
# so the cast rounds it to the maximum.
NEAR_FLOAT32_MAX = FLOAT32_MAX * (1.0 + 2.0**-26)


def with_sample(frame, value):
    samples = frame.samples.copy()
    samples[2, 7] = value
    return RfFrame(samples=samples, fs=frame.fs, f0=frame.f0, geometry=frame.geometry)


def image_with_pixel(value):
    grid = ImageGrid(x_min=0.0, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=2, nz=2)
    image = np.ones((2, 2))
    image[1, 0] = value
    return image, grid


class TestWritersRefuseWhatTheirReadersReject:
    @pytest.mark.parametrize("value", [1e39, -1e39])
    def test_rf_sample_outside_float32(self, frame, tmp_path, value):
        path = tmp_path / "big.urf"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: values must be finite in float32$"):
            write_rf(str(path), with_sample(frame, value))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [1e39, -1e39, np.nan])
    def test_image_pixel_outside_float32(self, tmp_path, value):
        path = tmp_path / "big.uim"
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: values must be finite in float32$"):
            write_image(str(path), *image_with_pixel(value))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_values_that_round_to_the_float32_maximum_stay_writable(self, frame, tmp_path, sign):
        rf, image = str(tmp_path / "max.urf"), str(tmp_path / "max.uim")
        write_rf(rf, with_sample(frame, sign * NEAR_FLOAT32_MAX))
        write_image(image, *image_with_pixel(sign * NEAR_FLOAT32_MAX))
        assert read_rf(rf)[0].samples[2, 7] == sign * FLOAT32_MAX
        assert read_image(image)[0][1, 0] == sign * FLOAT32_MAX


class TestImageContainer:
    def test_round_trip_with_grid(self, tmp_path):
        grid = ImageGrid(x_min=-5e-3, x_max=5e-3, z_min=10e-3, z_max=40e-3, nx=20, nz=50)
        rng = np.random.default_rng(23)
        img = np.abs(rng.normal(size=(50, 20)))
        path = str(tmp_path / "img.uim")
        write_image(path, img, grid)
        loaded, loaded_grid = read_image(path)
        assert loaded_grid == grid
        assert np.array_equal(loaded, img.astype("<f4").astype(float))

    def test_shape_mismatch_rejected(self, tmp_path):
        grid = ImageGrid(x_min=0, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=4, nz=4)
        message = "image shape (3, 4) does not match the grid's (nz, nx) = (4, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_image(str(tmp_path / "x.uim"), np.zeros((3, 4)), grid)
        assert not (tmp_path / "x.uim").exists()

    def test_wrong_magic_rejected(self, frame, tmp_path):
        path = str(tmp_path / "cross.urf")
        write_rf(path, frame)
        with pytest.raises(ValueError, match="magic"):
            read_image(path)

    # header offsets: x_min at byte 12, x_max at 20, z_min at 28
    @pytest.mark.parametrize("offset,value,message", [
        (12, np.nan, "grid extent x_min must be finite, got nan"),
        (28, 0.0, "z_min must be positive (imaging starts below the array face)"),
        (28, -5e-3, "z_min must be positive (imaging starts below the array face)"),
        (20, -5e-3, "grid extents must satisfy x_min <= x_max and z_min <= z_max"),
    ], ids=["nan-x_min", "zero-z_min", "negative-z_min", "x_max-below-x_min"])
    def test_reader_names_the_file_of_an_invalid_grid(self, tmp_path, offset, value, message):
        path = tmp_path / "bad.uim"
        write_image(str(path), *image_with_pixel(1.0))
        raw = bytearray(path.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {re.escape(message)}$"):
            read_image(str(path))


property_settings = settings(max_examples=30)
values = st.floats(-1e30, 1e30)  # finite after float32 quantization
sizes = st.integers(1, 6)


@st.composite
def rf_frames(draw):
    f0 = draw(st.floats(1e3, 1e8))
    m = draw(sizes)
    return RfFrame(
        samples=draw(arrays(float, (m, draw(st.integers(1, 12))), elements=values)),
        fs=f0 * draw(st.floats(2.001, 100.0)),
        f0=f0,
        geometry=ArrayGeometry(m, draw(st.floats(1e-6, 1e-2)), draw(st.floats(1.0, 1e4))),
    )


@st.composite
def images(draw):
    x_min, z_min = draw(st.floats(-1.0, 1.0)), draw(st.floats(1e-6, 1.0))
    grid = ImageGrid(
        x_min=x_min,
        x_max=x_min + draw(st.floats(0.0, 1.0)),
        z_min=z_min,
        z_max=z_min + draw(st.floats(0.0, 1.0)),
        nx=draw(sizes),
        nz=draw(sizes),
    )
    return draw(arrays(float, (grid.nz, grid.nx), elements=values)), grid


def written(path, item):
    """Write an RF frame or an (image, grid) pair; returns the reader."""
    if isinstance(item, RfFrame):
        write_rf(path, item)
        return read_rf
    write_image(path, *item)
    return read_image


def assert_reads_finite_or_raises_value_error(read, path):
    try:
        loaded = read(path)
    except ValueError:
        return
    if read is read_rf:
        frame, _ = loaded
        metadata = [frame.fs, frame.f0, frame.c, frame.geometry.pitch]
    else:
        grid = loaded[1]
        metadata = [grid.x_min, grid.x_max, grid.z_min, grid.z_max]
    assert np.all(np.isfinite(metadata))


class TestContainerProperties:
    @property_settings
    @given(rf_frames())
    def test_rf_round_trip_is_float32_quantization(self, tmp_path_factory, drawn):
        path = str(tmp_path_factory.mktemp("rf") / "f.urf")
        write_rf(path, drawn)
        loaded, _ = read_rf(path)
        assert (loaded.fs, loaded.f0, loaded.geometry) == (drawn.fs, drawn.f0, drawn.geometry)
        assert loaded.geometry.pitch == drawn.geometry.pitch
        assert np.array_equal(loaded.samples, drawn.samples.astype("<f4").astype(float))

    @property_settings
    @given(images())
    def test_image_round_trip_is_float32_quantization(self, tmp_path_factory, item):
        path = str(tmp_path_factory.mktemp("img") / "i.uim")
        image, grid = item
        write_image(path, image, grid)
        loaded, loaded_grid = read_image(path)
        assert loaded_grid == grid
        assert np.array_equal(loaded, image.astype("<f4").astype(float))

    @property_settings
    @given(st.one_of(rf_frames(), images()))
    def test_every_truncation_is_rejected(self, tmp_path_factory, item):
        path = tmp_path_factory.mktemp("cut") / "f.bin"
        read = written(str(path), item)
        raw = path.read_bytes()
        for length in range(len(raw)):
            path.write_bytes(raw[:length])
            with pytest.raises(ValueError):
                read(str(path))

    @property_settings
    @given(st.one_of(rf_frames(), images()), st.sampled_from((0, 4, 6, 12)), st.binary(min_size=64, max_size=64))
    def test_random_header_bytes_read_finite_or_raise_value_error(self, tmp_path_factory, item, keep, noise):
        # keep the first 0, 4 (magic), 6 (+ version) or 12 (+ counts) header
        # bytes and replace the rest with random bytes
        path = tmp_path_factory.mktemp("fuzz") / "f.bin"
        read = written(str(path), item)
        raw = path.read_bytes()
        path.write_bytes(raw[:keep] + noise[keep:] + raw[64:])
        assert_reads_finite_or_raises_value_error(read, str(path))

    @property_settings
    @given(
        st.one_of(rf_frames(), images()),
        st.integers(0, 3),
        st.sampled_from((np.inf, -np.inf, np.nan)) | st.floats(),
    )
    def test_random_float_field_reads_finite_or_raises_value_error(self, tmp_path_factory, item, field, value):
        # overwrite one of the four float64 header fields (bytes 12-43)
        path = tmp_path_factory.mktemp("fuzz") / "f.bin"
        read = written(str(path), item)
        raw = bytearray(path.read_bytes())
        raw[12 + 8 * field : 20 + 8 * field] = struct.pack("<d", value)
        path.write_bytes(bytes(raw))
        assert_reads_finite_or_raises_value_error(read, str(path))


class TestAtomicWrite:
    def test_leaves_existing_tmp_sibling_untouched(self, tmp_path):
        sibling = tmp_path / "out.bin.tmp"
        sibling.write_bytes(b"someone else's data")
        atomic_write(str(tmp_path / "out.bin"), b"payload")
        assert (tmp_path / "out.bin").read_bytes() == b"payload"
        assert sibling.read_bytes() == b"someone else's data"

    def test_failed_rename_reraises_and_cleans_up(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(containers.os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write(str(tmp_path / "out.bin"), b"payload")
        assert list(tmp_path.iterdir()) == []

    def test_mode_matches_plain_open(self, tmp_path):
        with open(tmp_path / "plain.bin", "wb") as fh:
            fh.write(b"x")
        atomic_write(str(tmp_path / "atomic.bin"), b"x")
        plain = os.stat(tmp_path / "plain.bin").st_mode
        assert os.stat(tmp_path / "atomic.bin").st_mode == plain


class TestRendering:
    def test_gray_mapping_reference_points(self):
        gray = db_to_gray(np.array([[0.0, -35.0, -70.0]]), 70.0)
        # -35 dB maps to 127.5 which rounds half-up to 128
        assert list(gray[0]) == [255, 128, 0]

    @pytest.mark.parametrize("dynamic_range", [0.0, -1.0, np.nan, np.inf])
    def test_floor_must_be_finite_and_positive(self, dynamic_range):
        with pytest.raises(ValueError, match="^dynamic_range must be finite and positive"):
            db_to_gray(np.zeros((2, 2)), dynamic_range)

    def test_pgm_layout(self, tmp_path):
        gray = np.arange(6, dtype=np.uint8).reshape(2, 3)
        path = tmp_path / "img.pgm"
        write_pgm(str(path), gray)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n3 2\n255\n")
        assert raw[-6:] == bytes(range(6))

    def test_pgm_requires_uint8(self, tmp_path):
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "bad.pgm"), np.zeros((2, 2)))
