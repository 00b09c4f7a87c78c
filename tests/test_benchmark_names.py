"""The names the benchmark under ``perfbench/`` reaches in the package and
in the acceptance suite.

``perfbench/workloads.py`` calls package names, ``perfbench/tracer.py``
wraps the call sites in ``Tracer.SITES`` and files each span under the
defining module and name of the function it finds there, and
``perfbench/margins.py`` reads the rigs' constants and helpers from
``tests/test_acceptance.py``. The lists are written out here, not imported
from ``perfbench/``, so the benchmark can be rewritten freely; a rename in
the package that would break it fails here, and not only in a traced
benchmark run. So does a change to the shape of a value the benchmark
unpacks, pinned on a tiny scene at the end of this file.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from usbeam import (
    BeamformerKind,
    DelayTable,
    ImageGrid,
    OpCount,
    Phantom,
    PulseModel,
    beamformers,
    cli,
    compute_delays,
    containers,
    linear_array,
    pipeline,
    rfmodel,
    synthesize_rf,
)
from usbeam.config import RunConfig
from usbeam.dsp import FilterSpec

# (module, name) pairs the workloads call
CALLED = [
    ("usbeam.cli", "main"),
    ("usbeam.config", "RunConfig"),
    ("usbeam.containers", "read_rf"),
    ("usbeam.dsp", "FilterSpec"),
    ("usbeam.dsp", "design_bandpass"),
    ("usbeam.geometry", "ImageGrid"),
    ("usbeam.geometry", "compute_delays"),
    ("usbeam.geometry", "linear_array"),
    ("usbeam.pipeline", "reconstruct_envelope_from_delays"),
    ("usbeam.rfmodel", "fetch_delayed"),
    ("usbeam.simulator", "NoiseSpec"),
    ("usbeam.simulator", "add_noise"),
    ("usbeam.simulator", "make_cyst_phantom"),
    ("usbeam.simulator", "make_wire_phantom"),
    ("usbeam.simulator", "synthesize_rf"),
]

# (module, name, span label) of each site the tracer wraps; the gather
# counter wraps beamformers.fetch_delayed
WRAPPED = [
    ("usbeam.simulator", "synthesize_rf", "simulator.synthesize_rf"),
    ("usbeam.simulator", "add_noise", "simulator.add_noise"),
    ("usbeam.geometry", "compute_delays", "geometry.compute_delays"),
    ("usbeam.pipeline", "reconstruct_envelope", "pipeline.reconstruct_envelope"),
    ("usbeam.pipeline", "reconstruct_envelope_from_delays", "pipeline.reconstruct_envelope_from_delays"),
    ("usbeam.pipeline", "compute_delays", "geometry.compute_delays"),
    ("usbeam.pipeline", "beamform_image", "beamformers.beamform_image"),
    ("usbeam.pipeline", "bandpass_image", "dsp.bandpass_image"),
    ("usbeam.pipeline", "envelope_image", "dsp.envelope_image"),
    ("usbeam.cli", "synthesize_rf", "simulator.synthesize_rf"),
    ("usbeam.cli", "add_noise", "simulator.add_noise"),
    ("usbeam.cli", "reconstruct_envelope", "pipeline.reconstruct_envelope"),
    ("usbeam.cli", "log_compress", "dsp.log_compress"),
    ("usbeam.containers", "write_rf", "containers.write_rf"),
    ("usbeam.containers", "read_rf", "containers.read_rf"),
    ("usbeam.containers", "write_image", "containers.write_image"),
    ("usbeam.containers", "read_image", "containers.read_image"),
    ("usbeam.containers", "write_pgm", "containers.write_pgm"),
    ("usbeam.beamformers", "fetch_delayed", "rfmodel.fetch_delayed"),
]

# constants and helpers read from the acceptance suite
SUITE_NAMES = [
    "FS", "C", "PITCH", "PULSE", "KINDS", "WIRE_M", "WIRE_SEP", "WIRE_GRID", "CYST_M",
    "CYST_GRID", "CYST_DEPTHS", "CYST_WIDE_X", "SIDELOBE_BANDS", "NOISE_BANDS", "WIRE_TARGETS",
    "SNR_REGIONS", "RegionSpec", "apparent_peak", "first_sidelobe_right", "row_db", "fwhm",
    "windowed_profile", "snr_region", "contrast_ratio",
]


@pytest.mark.parametrize("module,name", CALLED)
def test_called_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(module), name))


@pytest.mark.parametrize("module,name,label", WRAPPED)
def test_wrapped_sites_resolve_under_their_span_labels(module, name, label):
    fn = getattr(importlib.import_module(module), name)
    assert f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}" == label


def test_attributes_and_kind_values():
    # spans and `beamform --algo` use the kind values, in this order
    assert [kind.value for kind in BeamformerKind] == ["das", "dmas", "dsdmas"]
    assert isinstance(DelayTable.values, property)
    for field in ("x_min", "x_max", "z_min", "z_max", "nx", "nz",
                  "filter_center", "filter_half_bandwidth", "filter_taps"):
        assert hasattr(RunConfig, field)


def test_cli_default_command_lines_parse():
    # the cli-default workload runs these three command lines; the noise
    # seed must arrive as an int
    parser = cli.build_parser()
    sim = parser.parse_args(["simulate", "--seed", "601", "--out", "frame.urf"])
    assert (sim.func, sim.seed, sim.out) == (cli.cmd_simulate, 601, "frame.urf")
    assert type(sim.seed) is int
    bf = parser.parse_args(["beamform", "frame.urf", "--algo", "dsdmas", "--out", "d.uim", "--report", "d.txt"])
    assert (bf.func, bf.rf_path, bf.algo, bf.out, bf.report) == (
        cli.cmd_beamform, "frame.urf", "dsdmas", "d.uim", "d.txt")
    ren = parser.parse_args(["render", "d.uim", "--out", "d.pgm"])
    assert (ren.func, ren.image_path, ren.out) == (cli.cmd_render, "d.uim", "d.pgm")


def test_run_config_defaults_build_the_oracles_grid_and_band():
    # the cli-default check builds the grid and each kind's band from
    # RunConfig()'s defaults, so they must stay values, not None
    cfg = RunConfig()
    grid = ImageGrid(cfg.x_min, cfg.x_max, cfg.z_min, cfg.z_max, cfg.nx, cfg.nz)
    for kind in BeamformerKind:
        f0_or_2f0 = cfg.f0 if kind.value == "das" else 2.0 * cfg.f0
        spec = FilterSpec(cfg.filter_center or f0_or_2f0, cfg.filter_half_bandwidth, cfg.filter_taps)
        spec.validate_line(grid.nz, pipeline.axial_sample_rate(grid, cfg.c))


def load_acceptance_suite():
    spec = importlib.util.spec_from_file_location(
        "acceptance_names", Path(__file__).with_name("test_acceptance.py")
    )
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    return suite


def test_acceptance_suite_names_resolve():
    suite = load_acceptance_suite()
    missing = [name for name in SUITE_NAMES if not hasattr(suite, name)]
    assert not missing
    # the margins unpack each rig's images as DAS, DMAS, DS-DMAS
    assert suite.KINDS == tuple(BeamformerKind)
    assert set(suite.SIDELOBE_BANDS) == set(suite.NOISE_BANDS) == set(BeamformerKind)


def test_every_workload_grid_is_centred():
    # beamform_image computes one delay block per mirror pair only on a
    # centred grid; a workload grid moved off-centre would silently leave
    # that path, so it fails here instead
    suite = load_acceptance_suite()
    cfg = RunConfig()
    grids = {
        "WIRE_GRID": suite.WIRE_GRID,
        "CYST_GRID": suite.CYST_GRID,
        "RunConfig()": ImageGrid(cfg.x_min, cfg.x_max, cfg.z_min, cfg.z_max, cfg.nx, cfg.nz),
    }
    for name, grid in grids.items():
        assert grid.x_min == -grid.x_max, name
        assert compute_delays(linear_array(4, 0.3e-3), grid, 100e6).mirrored, name


@pytest.fixture(scope="module")
def tiny():
    geom = linear_array(4, 0.3e-3)
    phantom = Phantom(np.array([[0.0, 20e-3, 1.0]]))
    frame = synthesize_rf(phantom, geom, PulseModel(f0=3e6), 100e6)
    grid = ImageGrid(x_min=-0.5e-3, x_max=0.5e-3, z_min=19e-3, z_max=21e-3, nx=3, nz=40)
    return frame, compute_delays(geom, grid, 100e6), grid


def test_reconstruction_returns_a_pair_led_by_the_envelope(tiny):
    # the workloads keep item 0 of each reconstruction
    frame, delays, grid = tiny
    result = pipeline.reconstruct_envelope_from_delays(
        frame, delays, grid, BeamformerKind.DMAS, filter_spec=FilterSpec(center=4e6, half_bandwidth=1e6, taps=31)
    )
    assert isinstance(result, tuple) and len(result) == 2
    assert result[0].shape == (grid.nz, grid.nx)


def test_beamform_image_returns_image_and_op_count(tiny):
    # the tracer unpacks ``image, ops`` and reads ``ops.total``
    frame, delays, grid = tiny
    image, ops = pipeline.beamform_image(frame, delays, BeamformerKind.DSDMAS)
    assert isinstance(image, np.ndarray) and image.shape == (grid.nz, grid.nx)
    assert isinstance(ops, OpCount) and ops.total > 0


def test_gather_can_be_replaced_by_a_two_argument_function(tiny, monkeypatch):
    # the tracer's gather counter takes exactly (frame, delays) and counts
    # delays.size // delays.shape[-1] pixels per call
    frame, delays, grid = tiny
    expected, _ = pipeline.beamform_image(frame, delays, BeamformerKind.DAS)
    original = beamformers.fetch_delayed
    calls = []

    def counted(frame, delays):
        calls.append(delays.shape)
        return original(frame, delays)

    monkeypatch.setattr(beamformers, "fetch_delayed", counted)
    image, _ = pipeline.beamform_image(frame, delays, BeamformerKind.DAS)
    assert calls == [(grid.nz, frame.element_count)] * grid.nx
    assert np.array_equal(image, expected)


def test_gather_of_one_table_column_is_an_element_block(tiny):
    # the gather replay fetches ``delays.values[:, j, :]`` column by column
    frame, delays, grid = tiny
    block = rfmodel.fetch_delayed(frame, delays.values[:, 1, :])
    assert block.shape == (grid.nz, frame.element_count)


def test_rf_reader_returns_the_frame_and_its_pitch(tiny, tmp_path):
    # the cli-default gather replay unpacks ``frame, pitch = read_rf(path)``
    # and rebuilds the array from the pitch, frame.c and frame.element_count,
    # then reads frame.fs
    frame, _, _ = tiny
    path = str(tmp_path / "tiny.urf")
    containers.write_rf(path, frame)
    result = containers.read_rf(path)
    assert isinstance(result, tuple) and len(result) == 2
    loaded, pitch = result
    assert pitch == frame.geometry.pitch
    assert (loaded.c, loaded.fs, loaded.element_count) == (frame.c, frame.fs, frame.element_count)
