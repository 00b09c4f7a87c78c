"""The names the benchmark under ``perfbench/`` reaches in the package and
in the acceptance suite.

``perfbench/workloads.py`` calls package names, ``perfbench/tracer.py``
wraps the call sites in ``Tracer.SITES`` and files each span under the
defining module and name of the function it finds there, and
``perfbench/margins.py`` reads the rigs' constants and helpers from
``tests/test_acceptance.py``. The lists are written out here, not imported
from ``perfbench/``, so the benchmark can be rewritten freely; a rename in
the package that would break it fails here, and not only in a traced
benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from usbeam import BeamformerKind, DelayTable
from usbeam.config import RunConfig

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


def test_acceptance_suite_names_resolve():
    spec = importlib.util.spec_from_file_location(
        "acceptance_names", Path(__file__).with_name("test_acceptance.py")
    )
    suite = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(suite)
    missing = [name for name in SUITE_NAMES if not hasattr(suite, name)]
    assert not missing
    # the margins unpack each rig's images as DAS, DMAS, DS-DMAS
    assert suite.KINDS == tuple(BeamformerKind)
    assert set(suite.SIDELOBE_BANDS) == set(suite.NOISE_BANDS) == set(BeamformerKind)
