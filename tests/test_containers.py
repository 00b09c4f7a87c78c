import os

import numpy as np
import pytest

from usbeam import DbImage, ImageGrid, RfFrame, containers
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
    return RfFrame(samples=rng.normal(size=(6, 500)), fs=100e6, f0=3e6, c=1540.0)


class TestRfContainer:
    def test_round_trip(self, frame, tmp_path):
        path = str(tmp_path / "frame.urf")
        write_rf(path, frame, pitch=0.3e-3)
        loaded, pitch = read_rf(path)
        assert pitch == 0.3e-3
        assert (loaded.fs, loaded.f0, loaded.c) == (frame.fs, frame.f0, frame.c)
        # float32 quantization applied exactly once at write time
        assert np.array_equal(loaded.samples, frame.samples.astype("<f4").astype(float))

    def test_rewrite_is_stable(self, frame, tmp_path):
        first = str(tmp_path / "a.urf")
        second = str(tmp_path / "b.urf")
        write_rf(first, frame, pitch=0.3e-3)
        loaded, pitch = read_rf(first)
        write_rf(second, loaded, pitch=pitch)
        assert (tmp_path / "a.urf").read_bytes() == (tmp_path / "b.urf").read_bytes()

    def test_file_size_64x6000(self, tmp_path):
        frame = RfFrame(samples=np.zeros((64, 6000)), fs=100e6, f0=3e6, c=1540.0)
        path = tmp_path / "size.urf"
        write_rf(str(path), frame, pitch=0.3e-3)
        assert path.stat().st_size == 64 + 4 * 64 * 6000 == 1_536_064

    def test_bad_magic_rejected(self, frame, tmp_path):
        path = tmp_path / "bad.urf"
        write_rf(str(path), frame, pitch=0.3e-3)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="magic"):
            read_rf(str(path))

    def test_bad_version_rejected(self, frame, tmp_path):
        path = tmp_path / "ver.urf"
        write_rf(str(path), frame, pitch=0.3e-3)
        raw = bytearray(path.read_bytes())
        raw[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="version"):
            read_rf(str(path))

    def test_truncated_rejected(self, frame, tmp_path):
        path = tmp_path / "trunc.urf"
        write_rf(str(path), frame, pitch=0.3e-3)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match="size"):
            read_rf(str(path))


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
        with pytest.raises(ValueError):
            write_image(str(tmp_path / "x.uim"), np.zeros((3, 4)), grid)

    def test_wrong_magic_rejected(self, frame, tmp_path):
        path = str(tmp_path / "cross.urf")
        write_rf(path, frame, pitch=0.3e-3)
        with pytest.raises(ValueError, match="magic"):
            read_image(path)


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
        db = DbImage(values=np.array([[0.0, -35.0, -70.0]]), dynamic_range=70.0)
        gray = db_to_gray(db)
        # -35 dB maps to 127.5 which rounds half-up to 128
        assert list(gray[0]) == [255, 128, 0]

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
