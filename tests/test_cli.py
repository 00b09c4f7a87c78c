import dataclasses
import inspect
import io
import os
import re
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from usbeam import (ArrayGeometry, BeamformerKind, FilterSpec, ImageGrid, Phantom, PulseModel, cli, log_compress,
                    make_cyst_phantom, make_tumor_phantom, make_wire_phantom, pipeline)
from usbeam.config import RunConfig
from usbeam.containers import read_image, read_rf, write_image
from usbeam.metrics import LateralProfile, RegionSpec, gcnr, lateral_profile, sidelobe_level


def run(args):
    return cli.main(args)


def unreachable(*args, **kwargs):
    raise AssertionError("the command reached work it should have refused")


@pytest.fixture()
def wire_rf(tmp_path):
    path = str(tmp_path / "wire.urf")
    code = run([
        "simulate", "--phantom", "custom", "--custom-scatterers", "0,15,1",
        "--elements", "16", "--snr-db", "400", "--out", path,
    ])
    assert code == 0
    return path


GRID_FLAGS = [
    "--x-min=-4e-3", "--x-max=4e-3",
    "--z-min=13e-3", "--z-max=18e-3",
    "--nx=33", "--nz=150",
]


class TestSimulate:
    def test_seeded_runs_are_byte_identical(self, tmp_path):
        args = ["simulate", "--phantom", "wires", "--elements", "8",
                "--snr-db", "20", "--seed", "3"]
        a, b = tmp_path / "a.urf", tmp_path / "b.urf"
        assert run(args + ["--out", str(a)]) == 0
        assert run(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_header_round_trip(self, wire_rf):
        frame, pitch = read_rf(wire_rf)
        assert frame.element_count == 16
        assert frame.fs == 100e6
        assert frame.f0 == 3e6
        assert frame.c == 1540.0
        assert pitch > 0

    def test_summary_reports_realized_snr(self, tmp_path, capsys):
        out = str(tmp_path / "noisy.urf")
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,12,1",
                    "--elements", "8", "--snr-db", "10", "--seed", "5", "--out", out]) == 0
        text = capsys.readouterr().out
        realized = float(dict(line.split("=") for line in text.splitlines())["realized_snr_db"])
        assert realized == pytest.approx(10.0, abs=0.5)

    @pytest.mark.parametrize("snr", ["-inf", "-4000", "nan"])
    def test_unusable_snr_target_is_named(self, snr, tmp_path, capsys):
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,12,1",
                    "--elements", "8", f"--snr-db={snr}", "--out", str(tmp_path / "x.urf")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "target_snr_db" in err
        assert "Traceback" not in err

    def test_noise_target_is_checked_before_synthesis(self, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(cli, "synthesize_rf", lambda *args: calls.append(args))
        out = tmp_path / "x.urf"
        assert run(["simulate", "--phantom", "cysts", "--snr-db=nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: target_snr_db")
        assert calls == []
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["--phantom", "wires", "--seed", "-1"],
        ["--phantom", "cysts", "--speckle-seed", "-1"],
    ], ids=["seed", "speckle_seed"])
    def test_negative_seed_is_named_before_synthesis(self, argv, monkeypatch, tmp_path, capsys):
        calls = []
        monkeypatch.setattr(cli, "synthesize_rf", lambda *args: calls.append(args))
        out = tmp_path / "x.urf"
        assert run(["simulate", *argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: seed must be an integer >= 0, got -1")
        assert calls == []
        assert not out.exists()

    # a value only another phantom reads is not checked
    @pytest.mark.parametrize("argv", [
        ["--phantom", "wires", "--speckle-density", "0"],
        ["--phantom", "cysts", "--speckle-density", "2e5", "--pair-separation", "0"],
    ], ids=["wires-speckle_density", "cysts-pair_separation"])
    def test_value_the_phantom_does_not_read_is_not_checked(self, argv, tmp_path):
        out = tmp_path / "x.urf"
        assert run(["simulate", *argv, "--elements", "8", "--out", str(out)]) == 0
        assert out.exists()

    def test_unknown_phantom_fails(self, tmp_path, capsys):
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "",
                    "--out", str(tmp_path / "x.urf")]) == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("entry,message", [
        ("a,15,1", "custom scatterer 'a,15,1' must be x_mm,z_mm,amplitude"),
        ("0,15", "custom scatterer '0,15' must be x_mm,z_mm,amplitude"),
        ("nan,15,1", "scatterer entries must be finite"),
    ], ids=["non-numeric", "field-count", "nan"])
    def test_unusable_custom_scatterer_is_named(self, entry, message, tmp_path, capsys):
        out = tmp_path / "f.urf"
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", entry,
                    "--elements", "4", "--out", str(out)]) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not out.exists()

    def test_unknown_phantom_in_config_file_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("phantom = x\n")
        out = tmp_path / "x.urf"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: unknown phantom 'x' (one of wires, cysts, tumor, custom)\n"
        assert not out.exists()

    def test_scatterer_above_array_face_fails(self, tmp_path, capsys):
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,-5,1",
                    "--elements", "4", "--snr-db", "300", "--out", str(tmp_path / "f.urf")]) == 1
        assert "below the array face" in capsys.readouterr().err

    def test_element_limit_is_checked_before_synthesis(self, monkeypatch, tmp_path, capsys):
        monkeypatch.setattr(cli, "synthesize_rf", unreachable)
        out = tmp_path / "x.urf"
        assert run(["simulate", "--elements", "65536", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: element count exceeds the container's 16-bit field\n"
        assert not out.exists()

    @pytest.mark.parametrize("phantom", ["cysts", "tumor"])
    def test_speckle_phantoms_simulate(self, tmp_path, phantom):
        # sparse speckle keeps the run fast; exercises the phantom builders
        out = str(tmp_path / f"{phantom}.urf")
        assert run(["simulate", "--phantom", phantom, "--elements", "8",
                    "--speckle-density", "2e5", "--snr-db", "20", "--seed", "1",
                    "--out", out]) == 0
        frame, _ = read_rf(out)
        assert frame.element_count == 8
        assert np.any(frame.samples != 0)

    # Each phantom name at default settings and with its own flags set,
    # with the library scene those settings name.
    @pytest.mark.parametrize("phantom,flags,expected", [
        ("wires", [], make_wire_phantom),
        ("wires", ["--pair-separation", "5e-3"], lambda: make_wire_phantom(5e-3)),
        ("cysts", [], make_cyst_phantom),
        ("cysts", ["--speckle-seed", "7", "--speckle-density", "2e5"], lambda: make_cyst_phantom(7, 2e5)),
        ("tumor", [], make_tumor_phantom),
        ("tumor", ["--speckle-seed", "7", "--speckle-density", "2e5"], lambda: make_tumor_phantom(7, 2e5)),
        ("custom", ["--custom-scatterers", "1.5,40,2; -3,45,-0.5"],
         lambda: Phantom(np.array([[1.5 * 1e-3, 40 * 1e-3, 2.0], [-3 * 1e-3, 45 * 1e-3, -0.5]]))),
    ], ids=["wires", "wires-flags", "cysts", "cysts-flags", "tumor", "tumor-flags", "custom"])
    def test_each_phantom_name_builds_the_librarys_phantom(self, phantom, flags, expected, monkeypatch,
                                                           tmp_path):
        class Built(Exception):
            pass

        built = []

        def record(scene, *args):
            built.append(scene)
            raise Built

        monkeypatch.setattr(cli, "synthesize_rf", record)
        with pytest.raises(Built):
            run(["simulate", "--phantom", phantom, *flags, "--out", str(tmp_path / "x.urf")])
        assert np.array_equal(built[0].scatterers, expected().scatterers)


class TestBeamform:
    def test_report_op_counts_for_128_element_dsdmas(self, tmp_path, capsys):
        rf = str(tmp_path / "m128.urf")
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,15,1",
                    "--elements", "128", "--snr-db", "400", "--out", rf]) == 0
        capsys.readouterr()
        img = str(tmp_path / "m128.uim")
        assert run(["beamform", rf, "--algo", "dsdmas", *GRID_FLAGS, "--out", img]) == 0
        report = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert report["ops_per_pixel_total"] == "16637"
        assert report["ops_per_pixel_multiplies"] == "16256"
        assert report["ops_per_pixel_special_ops"] == "381"

    def test_report_file_matches_stdout(self, wire_rf, tmp_path, capsys):
        img = str(tmp_path / "img.uim")
        report = tmp_path / "report.txt"
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS,
                    "--out", img, "--report", str(report)]) == 0
        assert report.read_text() == capsys.readouterr().out

    def test_unknown_algo_is_usage_error(self, wire_rf, tmp_path):
        # dmas-naive named a second DMAS image kernel that no longer exists
        for algo in ("mv", "dmas-naive"):
            with pytest.raises(SystemExit) as excinfo:
                run(["beamform", wire_rf, "--algo", algo, "--out", str(tmp_path / "x.uim")])
            assert excinfo.value.code == 2

    def test_dsdmas_needs_three_elements(self, tmp_path, capsys):
        rf = str(tmp_path / "m2.urf")
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,15,1",
                    "--elements", "2", "--snr-db", "400", "--out", rf]) == 0
        assert run(["beamform", rf, "--algo", "dsdmas", *GRID_FLAGS,
                    "--out", str(tmp_path / "x.uim")]) == 1
        assert "at least 3" in capsys.readouterr().err

    def test_non_finite_sound_speed_is_named(self, wire_rf, tmp_path, capsys):
        with open(wire_rf, "rb") as fh:
            raw = bytearray(fh.read())
        raw[28:36] = struct.pack("<d", float("inf"))  # the c field of the header
        bad = tmp_path / "bad_c.urf"
        bad.write_bytes(bytes(raw))
        assert run(["beamform", str(bad), "--algo", "das", *GRID_FLAGS,
                    "--out", str(tmp_path / "x.uim")]) == 1
        assert capsys.readouterr().err == f"error: {bad}: sound_speed must be finite and positive, got inf\n"

    def test_non_finite_sample_is_named_with_the_file(self, wire_rf, tmp_path, capsys):
        with open(wire_rf, "rb") as fh:
            raw = bytearray(fh.read())
        raw[64 + 4 * 100 : 64 + 4 * 101] = struct.pack("<f", np.nan)  # sample 100 of channel 0
        bad = tmp_path / "nan_sample.urf"
        bad.write_bytes(bytes(raw))
        out = tmp_path / "x.uim"
        assert run(["beamform", str(bad), "--algo", "das", *GRID_FLAGS, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: samples must be finite\n"
        assert not out.exists()

    def test_one_element_array_beamforms_with_das_only(self, tmp_path, capsys):
        rf = str(tmp_path / "m1.urf")
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,15,1",
                    "--elements", "1", "--snr-db", "400", "--out", rf]) == 0
        assert run(["beamform", rf, "--algo", "das", *GRID_FLAGS,
                    "--out", str(tmp_path / "das.uim")]) == 0
        capsys.readouterr()
        out = tmp_path / "dmas.uim"
        assert run(["beamform", rf, "--algo", "dmas", *GRID_FLAGS, "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: DMAS needs at least 2 elements\n"
        assert not out.exists()

    def test_grid_above_array_face_is_named(self, wire_rf, tmp_path, capsys):
        flags = [f for f in GRID_FLAGS if not f.startswith("--z-min")]
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "das", *flags, "--z-min=-1e-3",
                    "--out", str(out)]) == 1
        assert "z_min must be positive (imaging starts below the array face)" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_grid_is_named(self, wire_rf, tmp_path, capsys):
        # pytest turns a RuntimeWarning into an error, so none escapes either
        flags = [f for f in GRID_FLAGS if not f.startswith("--x-")]
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "das", *flags, "--x-min=-1e200", "--x-max=1e200",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: delays overflow float64 on ImageGrid(x_min=-1e+200, x_max=1e+200, z_min=0.013, "
            "z_max=0.018, nx=33, nz=150) at fs=100000000.0\n")
        assert not out.exists()

    def test_zero_height_grid_is_named(self, wire_rf, tmp_path, capsys):
        flags = [f for f in GRID_FLAGS if not f.startswith(("--z-", "--nz"))]
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "das", *flags, "--z-min=30e-3",
                    "--z-max=30e-3", "--nz=100", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: axial spacing is undefined for a zero-height grid\n"
        assert not out.exists()

    # The band-pass is the kernel's band (f0 for DAS, 2 f0 for the product
    # kernels, f0 / 2 wide, 63 taps) unless set; a center of 0 selects the
    # kernel's band center.
    @pytest.mark.parametrize("algo", ["das", "dmas", "dsdmas"])
    def test_report_states_the_filter_band(self, algo, wire_rf, tmp_path, capsys):
        def beamform(name, *flags):
            out = tmp_path / f"{name}.uim"
            assert run(["beamform", wire_rf, "--algo", algo, *GRID_FLAGS, *flags,
                        "--out", str(out)]) == 0
            report = capsys.readouterr().out
            band = [line for line in report.splitlines() if line.startswith("filter_")]
            return band, report, out.read_bytes()

        center = "3000000.0" if algo == "das" else "6000000.0"
        default = beamform("default")
        assert default[0] == [f"filter_center_hz={center}", "filter_half_bandwidth_hz=1500000.0",
                              "filter_taps=63"]
        assert beamform("auto", "--filter-center", "0") == default
        assert beamform("set", "--filter-center", "5e6", "--filter-half-bw", "1e6",
                        "--filter-taps", "31")[0] == [
            "filter_center_hz=5000000.0", "filter_half_bandwidth_hz=1000000.0", "filter_taps=31"]

    def test_missing_rf_file_is_runtime_error(self, tmp_path):
        assert run(["beamform", str(tmp_path / "nope.urf"), "--algo", "das",
                    "--out", str(tmp_path / "x.uim")]) == 1

    def test_grid_too_coarse_for_filter_is_rejected(self, wire_rf, tmp_path, capsys):
        code = run(["beamform", wire_rf, "--algo", "dmas",
                    "--x-min=-4e-3", "--x-max=4e-3",
                    "--z-min=10e-3", "--z-max=40e-3",
                    "--nx=9", "--nz=80", "--out", str(tmp_path / "x.uim")])
        assert code == 1
        assert "Nyquist" in capsys.readouterr().err

    def test_filter_center_is_checked_before_beamforming(self, wire_rf, monkeypatch, tmp_path,
                                                         capsys):
        calls = []
        monkeypatch.setattr(pipeline, "beamform_image", lambda *args: calls.append(args))
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "dsdmas", *GRID_FLAGS,
                    "--filter-center", "inf", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: center must be finite and positive")
        assert calls == []
        assert not out.exists()

    def test_width_limit_is_checked_before_reconstruction(self, wire_rf, monkeypatch, tmp_path,
                                                          capsys):
        monkeypatch.setattr(cli, "reconstruct_envelope", unreachable)
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--nx=65536",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: grid width exceeds the container's 16-bit field\n"
        assert not out.exists()


@pytest.fixture()
def nan_image(tmp_path):
    """An image container of ones whose pixel at x = 0, z = 15 mm is NaN."""
    grid = ImageGrid(x_min=-4e-3, x_max=4e-3, z_min=10e-3, z_max=20e-3, nx=33, nz=41)
    path = tmp_path / "nan.uim"
    write_image(str(path), np.ones((41, 33)), grid)
    raw = bytearray(path.read_bytes())
    pixel = 64 + 4 * (20 * 33 + 16)  # row 20, column 16, after the 64-byte header
    raw[pixel : pixel + 4] = struct.pack("<f", np.nan)
    path.write_bytes(bytes(raw))
    return str(path)


# The NaN pixel lies in the cr row's cyst disc.
@pytest.mark.parametrize("argv", [
    ["render", "--out", "x.pgm"],
    ["profile", "--depth-mm", "15", "--out", "x.csv"],
    ["metrics", "--regions", "regions.csv"],
], ids=["render", "profile", "metrics"])
def test_non_finite_pixel_is_rejected_naming_the_file(argv, nan_image, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "regions.csv").write_text("cr,15,0,1.0,-2.5,1.0\n")
    assert run([argv[0], nan_image, *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {nan_image}: image container holds non-finite pixels\n")
    assert not (tmp_path / "x.pgm").exists() and not (tmp_path / "x.csv").exists()


class TestRender:
    def test_reference_gray_levels(self, tmp_path):
        grid = ImageGrid(x_min=0.0, x_max=3e-3, z_min=1e-3, z_max=2e-3, nx=4, nz=2)
        env = np.array([[1.0, 10 ** (-35 / 20), 10 ** (-70 / 20), 10 ** (-90 / 20)],
                        [0.5, 0.5, 0.5, 0.5]])
        src = str(tmp_path / "env.uim")
        write_image(src, env, grid)
        out = tmp_path / "img.pgm"
        assert run(["render", src, "--dynamic-range", "70", "--out", str(out)]) == 0
        raw = out.read_bytes()
        assert raw.startswith(b"P5\n4 2\n255\n")
        top_row = list(raw[-8:-4])
        assert top_row == [255, 128, 0, 0]

    def test_invalid_header_grid_is_named_with_the_file(self, tmp_path, capsys):
        grid = ImageGrid(x_min=0.0, x_max=3e-3, z_min=1e-3, z_max=2e-3, nx=4, nz=2)
        src = tmp_path / "env.uim"
        write_image(str(src), np.ones((2, 4)), grid)
        raw = bytearray(src.read_bytes())
        raw[28:36] = struct.pack("<d", -5e-3)  # z_min
        src.write_bytes(bytes(raw))
        out = tmp_path / "img.pgm"
        assert run(["render", str(src), "--out", str(out)]) == 1
        assert capsys.readouterr() == (
            "", f"error: {src}: z_min must be positive (imaging starts below the array face)\n"
        )
        assert not out.exists()


    def test_ignores_config_grid_fields(self, tmp_path):
        # render reads its grid from the image, so a grid in the config is unused
        grid = ImageGrid(x_min=0.0, x_max=3e-3, z_min=1e-3, z_max=2e-3, nx=4, nz=2)
        src = str(tmp_path / "env.uim")
        write_image(src, np.ones((2, 4)), grid)
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("z_min = -1e-3\n")
        out = tmp_path / "img.pgm"
        assert run(["render", src, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.read_bytes().startswith(b"P5\n4 2\n255\n")


class TestMetrics:
    @pytest.fixture()
    def image(self, wire_rf, tmp_path):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "dmas", *GRID_FLAGS, "--out", img]) == 0
        return img

    def test_identical_cr_regions_read_zero(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("cr,15,1.0,1.0,1.0,1.0\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "depth_mm,metric,value"
        assert rows[1] == "15.000,cr_db,0.000000"

    def test_report_is_deterministic(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text(
            "snr,15,0,3,2\n"
            "fwhm,15.8,0,3\n"
            "cr,15,1.5,1.0,-1.5,1.0\n"
        )
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        first = capsys.readouterr().out
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        assert capsys.readouterr().out == first

    def test_cr_matches_independent_recomputation(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("cr,15,1.5,1.0,-1.5,1.0\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        value = float(capsys.readouterr().out.splitlines()[1].split(",")[2])
        env, grid = read_image(image)
        cyst = env[RegionSpec.disc(1.5e-3, 15e-3, 1e-3).mask(grid)]
        bck = env[RegionSpec.disc(-1.5e-3, 15e-3, 1e-3).mask(grid)]
        oracle = 20 * np.log10(cyst.mean() / bck.mean())
        assert value == pytest.approx(oracle, abs=1e-6)

    def test_gcnr_row_matches_library(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        # the wire's disc against a background disc beside it, then a disc against itself
        regions.write_text("gcnr,15,0,1.0,2.5,1.0\ngcnr,15,1.0,1.0,1.0,1.0\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        rows = capsys.readouterr().out.splitlines()
        env, grid = read_image(image)
        value = gcnr(env, RegionSpec.disc(0.0, 15e-3, 1e-3), RegionSpec.disc(2.5e-3, 15e-3, 1e-3), grid)
        assert rows[1:] == [f"15.000,gcnr,{value:.6f}", "15.000,gcnr,0.000000"]
        assert 0.0 < value < 1.0

    def test_sidelobe_matches_library_on_windowed_profile(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("sidelobe,15.8,0,3\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 0
        depth, name, value = capsys.readouterr().out.splitlines()[1].split(",")
        assert (depth, name) == ("15.800", "sidelobe_db")
        env, grid = read_image(image)
        profile = lateral_profile(log_compress(env, 400.0), 15.8e-3, grid)
        keep = np.abs(profile.x) <= 3e-3
        windowed = LateralProfile(
            depth=profile.depth, x=profile.x[keep],
            value_db=profile.value_db[keep] - profile.value_db[keep].max(),
        )
        oracle = sidelobe_level(windowed)
        assert float(value) == pytest.approx(oracle, abs=1e-6)
        assert float(value) < -10.0

    def test_empty_cyst_reports_negative_infinity(self, tmp_path, capsys):
        grid = ImageGrid(x_min=-4e-3, x_max=4e-3, z_min=10e-3, z_max=20e-3, nx=33, nz=41)
        env = np.ones((41, 33))
        env[RegionSpec.disc(1.5e-3, 15e-3, 1e-3).mask(grid)] = 0.0
        src = str(tmp_path / "anechoic.uim")
        write_image(src, env, grid)
        regions = tmp_path / "regions.csv"
        regions.write_text("cr,15,1.5,1.0,-1.5,1.0\n")
        assert run(["metrics", src, "--regions", str(regions)]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "15.000,cr_db,-inf"

    def test_region_outside_grid_fails(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("snr,15,0,30,2\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 1
        assert "outside" in capsys.readouterr().err

    # the image's pixel columns are 0.25 mm apart, so a 1 um disc midway
    # between two of them holds no pixel
    @pytest.mark.parametrize("row,message", [
        ("fwhm,nan,0,3", "requested depth nan lies outside the grid"),
        ("cr,15,nan,1.0,-1.5,1.0", "center_x must be finite, got nan"),
        ("cr,15,0.125,0.001,-1.5,1.0", "cyst region contains no pixels"),
        ("cr,15,1.5,1.0,0.125,0.001", "background region contains no pixels"),
        ("cr,15,1.5,-1.0,-1.5,1.0", "half_x must be finite and positive, got -0.001"),
        ("snr,15,0,3,-2", "half_z must be finite and positive, got -0.002"),
        ("fwhm,15.8,0.125,0.001", "profile window contains no pixels"),
        ("bogus,15,0,3", "unknown metric row 'bogus' or wrong field count"),
        ("snr,15,0,3", "unknown metric row 'snr' or wrong field count"),
    ], ids=["nan-depth", "nan-centre", "empty-cyst-disc", "empty-background-disc",
            "negative-radius", "negative-half-height", "empty-profile-window", "unknown-metric",
            "field-count"])
    def test_unusable_region_names_its_line(self, row, message, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text(f"cr,15,1.0,1.0,1.0,1.0\n{row}\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: regions line 2: {message}\n"

    def test_unparseable_value_names_its_line(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("cr,15,1.0,1.0,1.0,1.0\nfwhm,np.float64(15.8),0,3\n")
        assert run(["metrics", image, "--regions", str(regions)]) == 1
        assert capsys.readouterr().err.startswith("error: regions line 2:")

    def test_takes_no_settings(self, capsys):
        # the one settings resolution in cli.main gives metrics no --config
        with pytest.raises(SystemExit) as excinfo:
            run(["metrics", "img.uim", "--regions", "r.txt", "--config", "run.cfg"])
        assert excinfo.value.code == 2
        with pytest.raises(SystemExit):
            run(["metrics", "--help"])
        assert "--config" not in capsys.readouterr().out

    def test_writes_report_file(self, image, tmp_path, capsys):
        regions = tmp_path / "regions.csv"
        regions.write_text("cr,15,1.0,1.0,1.0,1.0\n")
        out = tmp_path / "report.csv"
        assert run(["metrics", image, "--regions", str(regions), "--out", str(out)]) == 0
        assert out.read_text() == capsys.readouterr().out


class TestProfile:
    def test_profile_rows_match_library(self, wire_rf, tmp_path, capsys):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", img]) == 0
        out = tmp_path / "profile.csv"
        assert run(["profile", img, "--depth-mm", "15.8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "x_mm,value_db"
        env, grid = read_image(img)
        assert len(lines) - 1 == grid.nx
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert values.max() == 0.0
        profile = lateral_profile(log_compress(env, 70.0), 15.8e-3, grid)
        assert np.allclose(values, np.round(profile.value_db, 6), atol=5e-7)

    # 15.8 mm falls between rows; 13 mm is the first row
    @pytest.mark.parametrize("depth_mm", [15.8, 13.0])
    def test_depth_offset_is_the_distance_to_the_nearest_row(self, depth_mm, wire_rf, tmp_path, capsys):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", img]) == 0
        capsys.readouterr()
        assert run(["profile", img, "--depth-mm", str(depth_mm), "--out", str(tmp_path / "p.csv")]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        z = read_image(img)[1].z_axis
        depth = depth_mm * 1e-3
        row = int(np.argmin(np.abs(z - depth)))
        assert printed["depth_mm"] == f"{z[row] * 1e3:.3f}"
        assert printed["depth_offset_mm"] == f"{abs(z[row] - depth) * 1e3:.6f}"
        assert (float(printed["depth_offset_mm"]) == 0.0) == (depth_mm == 13.0)

    def test_depth_outside_grid_fails(self, wire_rf, tmp_path):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", img]) == 0
        assert run(["profile", img, "--depth-mm", "40", "--out", str(tmp_path / "p.csv")]) == 1

    def test_nan_depth_fails(self, wire_rf, tmp_path, capsys):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", img]) == 0
        capsys.readouterr()
        out = tmp_path / "p.csv"
        assert run(["profile", img, "--depth-mm", "nan", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: requested depth nan lies outside the grid\n"
        assert not out.exists()


# Per subcommand: arguments shared by every run, a config-file line, and a
# flag setting the same field to another value, with the output's suffix.
# Both values change the output, so whichever one wins shows in it.
OVERRIDE_CASES = {
    "simulate": (["--phantom", "custom", "--custom-scatterers", "0,15,1", "--snr-db", "400"],
                 "elements = 8", ["--elements", "12"], "urf"),
    "beamform": (["--algo", "das", *(f for f in GRID_FLAGS if not f.startswith("--nx"))],
                 "nx = 21", ["--nx", "33"], "uim"),
    "render": ([], "dynamic_range = 20", ["--dynamic-range", "70"], "pgm"),
    "profile": (["--depth-mm", "15"], "dynamic_range = 20", ["--dynamic-range", "70"], "csv"),
}


def input_args(command, shared, wire_rf, tmp_path):
    """``shared`` led by the subcommand's input file, made on demand."""
    if command in ("render", "profile"):
        source = str(tmp_path / "in.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", source]) == 0
        return [source, *shared]
    if command == "beamform":
        return [wire_rf, *shared]
    return shared


class TestConfig:
    @pytest.mark.parametrize("command", list(OVERRIDE_CASES))
    def test_flags_override_config_file(self, command, wire_rf, tmp_path):
        shared, line, flag, suffix = OVERRIDE_CASES[command]
        shared = input_args(command, shared, wire_rf, tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")

        def output(name, extra):
            out = tmp_path / f"{name}.{suffix}"
            assert run([command, *shared, *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        both = output("both", ["--config", str(cfg), *flag])
        assert both == output("flag", flag)
        assert both != output("file", ["--config", str(cfg)])

    # Every flag value the CLI rejects, with the library field whose check
    # names it: float fields get inf and NaN, int fields 0. The CLI checks
    # nothing itself, so each rule is stated once, by the object using it;
    # every float field goes through the one finite-and-positive check.
    @pytest.mark.parametrize("argv,flag,value,field", [
        pytest.param(argv, flag, value, field, id=f"{field}={value}")
        for argv, flag, values, field in [
            (["simulate"], "--fs", ("inf", "nan"), "fs"),
            (["simulate"], "--f0", ("inf", "nan"), "f0"),
            (["simulate"], "--pitch", ("inf", "nan"), "pitch"),
            (["simulate"], "--c", ("inf", "nan"), "sound_speed"),
            (["simulate"], "--elements", ("0",), "element_count"),
            (["simulate"], "--cycles", ("0",), "cycles"),
            (["simulate"], "--pair-separation", ("inf", "nan"), "pair_separation"),
            (["simulate", "--phantom", "cysts"], "--speckle-density", ("inf", "nan"),
             "speckle_density"),
            (["beamform", "RF", "--algo", "das", *GRID_FLAGS], "--filter-taps", ("0",), "taps"),
            (["beamform", "RF", "--algo", "das", *GRID_FLAGS], "--filter-half-bw", ("inf", "nan"),
             "half_bandwidth"),
            (["beamform", "RF", "--algo", "das", *GRID_FLAGS], "--filter-center", ("inf", "nan"),
             "center"),
            (["beamform", "RF", "--algo", "das", *GRID_FLAGS], "--nx", ("0",), "nx"),
            (["beamform", "RF", "--algo", "das", *GRID_FLAGS], "--nz", ("0",), "nz"),
            (["render", "IMAGE"], "--dynamic-range", ("inf", "nan"), "dynamic_range"),
        ]
        for value in values
    ])
    def test_rejected_value_names_the_library_field(self, argv, flag, value, field, wire_rf,
                                                    tmp_path, capsys):
        image = str(tmp_path / "in.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", image]) == 0
        argv = [{"RF": wire_rf, "IMAGE": image}.get(arg, arg) for arg in argv]
        capsys.readouterr()
        out = tmp_path / "x.out"
        assert run([*argv, flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        first = err.splitlines()[0]
        assert first.startswith("error: ")
        # the int fields' rules have messages of their own
        rule = r"\b" if value == "0" else " must be finite and positive"
        assert re.search(rf"\b{field}{rule}", first)
        assert not out.exists()

    # beamform takes fs, f0 and the element count from the RF file; render
    # and profile read only dynamic_range
    @pytest.mark.parametrize("command", ["beamform", "render", "profile"])
    def test_fields_the_command_does_not_read_are_not_checked(self, command, wire_rf, tmp_path):
        shared, _, _, suffix = OVERRIDE_CASES[command]
        shared = input_args(command, shared, wire_rf, tmp_path)
        cfg = tmp_path / "other.cfg"
        cfg.write_text("fs = 1e6  # violates fs > 2 f0\nelements = 0\n")
        out = tmp_path / f"out.{suffix}"
        assert run([command, *shared, "--config", str(cfg), "--out", str(out)]) == 0
        assert out.exists()

    def test_fs_flag_below_twice_f0_fails(self, tmp_path, capsys):
        out = tmp_path / "x.urf"
        assert run(["simulate", "--fs", "1e6", "--out", str(out)]) == 1
        assert "fs must exceed 2 * f0" in capsys.readouterr().err
        assert not out.exists()

    def test_config_comments_and_blank_lines(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\n\nelements = 8  # trailing\nsnr_db=400\n"
                       "phantom=custom\ncustom_scatterers=0,15,1\n")
        out = str(tmp_path / "ok.urf")
        assert run(["simulate", "--config", str(cfg), "--out", out]) == 0

    # algo is not a config key: beamform --algo picks the kernel
    @pytest.mark.parametrize("line", ["element_count = 8", "algo = dmas"],
                             ids=["element_count", "algo"])
    def test_unknown_key_fails(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(line + "\n")
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.urf")]) == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_line_without_equals_names_the_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("# run\nelements 8\n")
        out = tmp_path / "x.urf"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: expected key=value, got 'elements 8'\n"
        assert not out.exists()

    # a file value takes the type of its field's default
    @pytest.mark.parametrize("key,value,reason", [
        ("elements", "8.5", "invalid literal for int() with base 10: '8.5'"),
        ("fs", "fast", "could not convert string to float: 'fast'"),
    ], ids=["int", "float"])
    def test_unparseable_value_names_the_line(self, key, value, reason, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"# run\n{key} = {value}\n")
        out = tmp_path / "x.urf"
        assert run(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {cfg}:2: bad value for {key}: {reason}\n"
        assert not out.exists()

    def test_invalid_value_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fs = 1e6\n")  # violates fs > 2 f0
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.urf")]) == 1
        assert "fs" in capsys.readouterr().err

    # Each RunConfig default the library also states, with the library's
    # own statement of it: a dataclass field's default or a factory
    # parameter's, read from the owner, not restated here.
    @pytest.mark.parametrize("field,owner,name", [
        ("c", ArrayGeometry, "sound_speed"),
        ("cycles", PulseModel, "cycles"),
        ("filter_taps", FilterSpec, "taps"),
        ("pair_separation", make_wire_phantom, "pair_separation"),
        ("speckle_density", make_cyst_phantom, "speckle_density"),
        ("speckle_density", make_tumor_phantom, "speckle_density"),
        ("speckle_seed", make_cyst_phantom, "seed"),
        ("speckle_seed", make_tumor_phantom, "seed"),
    ], ids=lambda v: v.__name__ if callable(v) else None)
    def test_run_config_defaults_are_the_librarys(self, field, owner, name):
        if dataclasses.is_dataclass(owner):
            expected = next(f.default for f in dataclasses.fields(owner) if f.name == name)
        else:
            expected = inspect.signature(owner).parameters[name].default
        value = getattr(RunConfig(), field)
        assert value == expected
        # a file value takes the type of its field's default
        assert type(value) is type(expected)

    def test_default_pitch_is_half_a_wavelength(self):
        cfg = RunConfig()
        assert cfg.pitch == 0.5 * cfg.c / cfg.f0


# Every flag of each subcommand (of the whole program: its subcommands)
# and the notes its help must keep. argparse formats help only when asked,
# so a help string it cannot format fails here and nowhere else.
HELP_LISTS = {
    None: ["simulate", "beamform", "render", "metrics", "profile"],
    "simulate": ["--config", "--phantom", "--elements", "--pitch", "--f0", "--fs", "--c", "--cycles",
                 "--snr-db", "--seed", "--pair-separation", "--speckle-density", "--speckle-seed",
                 "--custom-scatterers", "--out", "300 or more adds no noise",
                 "Write --flag=VALUE if VALUE starts with -."],
    "beamform": ["--algo", "--config", "--x-min", "--x-max", "--z-min", "--z-max", "--nx", "--nz",
                 "--filter-taps", "--filter-half-bw", "--filter-center", "--out", "--report",
                 "--filter-center of 0 selects f0", "Write --flag=VALUE if VALUE starts with -."],
    "render": ["--config", "--dynamic-range DYNAMIC_RANGE default 70.0", "--out"],
    "metrics": ["--regions", "--out", "gCNR over 100 bins"],
    "profile": ["--config", "--dynamic-range", "--depth-mm", "--out"],
}


@pytest.mark.parametrize("command", list(HELP_LISTS), ids=lambda c: c or "usbeam")
def test_help_exits_zero_and_lists_every_flag(command, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run([command, "--help"] if command else ["--help"])
    assert excinfo.value.code == 0
    text = " ".join(capsys.readouterr().out.split())
    for item in HELP_LISTS[command]:
        assert re.search(rf"(?<![\w-]){re.escape(item)}(?![\w-])", text), item


# Values that start with '-' and are not plain decimals such as -0.004 or
# -10: some Python versions read them as flags when given as a separate
# token, so the CLI documents --flag=value, and these tests pin that form.
DASH_VALUES = {
    "snr_db": (["simulate", "--phantom=custom", "--custom-scatterers=0,12,1", "--elements=4"],
               "--snr-db", "-1e1"),
    "custom_scatterers": (["simulate", "--phantom=custom", "--elements=4", "--snr-db=400"],
                          "--custom-scatterers", "-4,12,1;0,45,0.8"),
    "x_min": (["beamform", "RF", "--algo=das", *(f for f in GRID_FLAGS if not f.startswith("--x-min"))],
              "--x-min", "-14e-3"),
}


class TestDashValues:
    @staticmethod
    def argv(field, request):
        """The shared flags, the flag and its value; 'RF' becomes the wire
        frame's path, synthesized only for the cases that read it."""
        shared, flag, value = DASH_VALUES[field]
        return [request.getfixturevalue("wire_rf") if arg == "RF" else arg for arg in shared], flag, value

    def test_snr_target_reaches_the_noise(self, request, tmp_path, capsys):
        shared, flag, value = self.argv("snr_db", request)
        capsys.readouterr()
        assert run([*shared, f"{flag}={value}", "--out", str(tmp_path / "x.urf")]) == 0
        printed = dict(line.split("=") for line in capsys.readouterr().out.splitlines())
        assert printed["target_snr_db"] == "-10.000000"
        assert float(printed["realized_snr_db"]) == pytest.approx(-10.0, abs=0.5)

    def test_scatterers_reach_the_phantom(self, request, tmp_path, monkeypatch):
        shared, flag, value = self.argv("custom_scatterers", request)
        phantoms = []
        synthesize = cli.synthesize_rf
        monkeypatch.setattr(cli, "synthesize_rf",
                            lambda phantom, *args: phantoms.append(phantom) or synthesize(phantom, *args))
        assert run([*shared, f"{flag}={value}", "--out", str(tmp_path / "x.urf")]) == 0
        assert np.array_equal(phantoms[0].scatterers, [[-4e-3, 12e-3, 1.0], [0.0, 45e-3, 0.8]])

    def test_grid_edge_reaches_the_image(self, request, tmp_path):
        shared, flag, value = self.argv("x_min", request)
        out = tmp_path / "x.uim"
        assert run([*shared, f"{flag}={value}", "--out", str(out)]) == 0
        assert read_image(str(out))[1].x_min == -14e-3


@st.composite
def cli_scenes(draw):
    """Well-formed settings for simulate and for beamform, as {flag: value}."""
    f0 = draw(st.floats(0.5e6, 5e6))
    z_min = draw(st.floats(5e-3, 30e-3))
    z_max = z_min + draw(st.floats(0.5e-3, 4e-3))
    x_min = draw(st.floats(-3e-3, 1e-3))
    # (x_mm, z_mm, amplitude), inside the grid's depth span
    points = draw(st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(z_min * 1e3, z_max * 1e3),
                                     st.floats(0.1, 1.0)), min_size=1, max_size=4))
    simulate = {
        "phantom": "custom",
        "custom-scatterers": ";".join(f"{x},{z},{amp}" for x, z, amp in points),
        "elements": draw(st.integers(1, 8)),
        "f0": f0,
        "fs": f0 * draw(st.floats(2.05, 40.0)),
        "cycles": draw(st.integers(1, 3)),
        "snr-db": draw(st.sampled_from([400.0, 30.0, 0.0, -20.0])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }
    beamform = {
        "x-min": x_min,
        "x-max": x_min + draw(st.floats(0.0, 4e-3)),
        "z-min": z_min,
        "z-max": z_max,
        "nx": draw(st.integers(1, 16)),
        "nz": draw(st.integers(40, 120)),
    }
    return simulate, beamform


def runs_or_names_an_error(argv) -> bool:
    """Run one command: it must exit 0, or exit 1 with one stderr line that
    starts ``error: ``. True when it exits 0."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    lines = err.getvalue().splitlines()
    ok = (code, lines) == (0, []) or (code == 1 and len(lines) == 1 and lines[0].startswith("error: "))
    assert ok, (argv, code, err.getvalue())
    return code == 0


# Every setting is written --flag=value, so no value is read as a flag. A
# command may refuse a scene (a band that reaches DC or the line's Nyquist
# limit, too few elements for a kernel, a line shorter than the filter),
# but only with exit 1 and one error line: never a traceback or exit 2.
@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(cli_scenes())
def test_well_formed_settings_run_or_name_an_error(scene):
    simulate, beamform = scene
    with tempfile.TemporaryDirectory() as tmp:
        rf = os.path.join(tmp, "frame.urf")
        if not runs_or_names_an_error(["simulate", *(f"--{k}={v}" for k, v in simulate.items()),
                                       f"--out={rf}"]):
            return
        for kind in BeamformerKind:
            image = os.path.join(tmp, f"{kind.value}.uim")
            if runs_or_names_an_error(["beamform", rf, f"--algo={kind.value}",
                                       *(f"--{k}={v}" for k, v in beamform.items()), f"--out={image}"]):
                runs_or_names_an_error(["render", image, f"--out={image}.pgm"])
