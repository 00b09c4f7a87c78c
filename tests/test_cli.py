import struct

import numpy as np
import pytest

from usbeam import ImageGrid, cli, log_compress
from usbeam.containers import read_image, read_rf, write_image
from usbeam.metrics import RegionSpec, lateral_profile


def run(args):
    return cli.main(args)


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

    def test_unknown_phantom_fails(self, tmp_path, capsys):
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "",
                    "--out", str(tmp_path / "x.urf")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_scatterer_above_array_face_fails(self, tmp_path, capsys):
        assert run(["simulate", "--phantom", "custom", "--custom-scatterers", "0,-5,1",
                    "--elements", "4", "--snr-db", "300", "--out", str(tmp_path / "f.urf")]) == 1
        assert "below the array face" in capsys.readouterr().err

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
        assert "c must be finite" in capsys.readouterr().err

    def test_grid_above_array_face_is_named(self, wire_rf, tmp_path, capsys):
        flags = [f for f in GRID_FLAGS if not f.startswith("--z-min")]
        out = tmp_path / "x.uim"
        assert run(["beamform", wire_rf, "--algo", "das", *flags, "--z-min=-1e-3",
                    "--out", str(out)]) == 1
        assert "z_min must be positive (imaging starts below the array face)" in capsys.readouterr().err
        assert not out.exists()

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

    def test_depth_outside_grid_fails(self, wire_rf, tmp_path):
        img = str(tmp_path / "img.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", img]) == 0
        assert run(["profile", img, "--depth-mm", "40", "--out", str(tmp_path / "p.csv")]) == 1


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


class TestConfig:
    @pytest.mark.parametrize("command", list(OVERRIDE_CASES))
    def test_flags_override_config_file(self, command, wire_rf, tmp_path):
        shared, line, flag, suffix = OVERRIDE_CASES[command]
        if command in ("render", "profile"):
            source = str(tmp_path / "in.uim")
            assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", source]) == 0
            shared = [source, *shared]
        elif command == "beamform":
            shared = [wire_rf, *shared]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")

        def output(name, extra):
            out = tmp_path / f"{name}.{suffix}"
            assert run([command, *shared, *extra, "--out", str(out)]) == 0
            return out.read_bytes()

        both = output("both", ["--config", str(cfg), *flag])
        assert both == output("flag", flag)
        assert both != output("file", ["--config", str(cfg)])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--fs", "inf"],
            ["simulate", "--phantom", "cysts", "--speckle-density", "inf"],
            ["render", "IMAGE", "--dynamic-range", "inf"],
        ],
        ids=["fs", "speckle_density", "dynamic_range"],
    )
    def test_non_finite_flag_is_named(self, argv, wire_rf, tmp_path, capsys):
        image = str(tmp_path / "in.uim")
        assert run(["beamform", wire_rf, "--algo", "das", *GRID_FLAGS, "--out", image]) == 0
        argv = [image if arg == "IMAGE" else arg for arg in argv]
        out = tmp_path / "x.out"
        assert run([*argv, "--out", str(out)]) == 1
        field = argv[-2].lstrip("-").replace("-", "_")
        assert f"{field} must be finite and positive" in capsys.readouterr().err
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

    def test_invalid_value_fails(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("fs = 1e6\n")  # violates fs > 2 f0
        assert run(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x.urf")]) == 1
        assert "fs" in capsys.readouterr().err
