"""Linear-array ultrasound image reconstruction toolkit.

Implements the DAS, DMAS and double-stage DMAS beamformers end to end:
synthetic RF generation, dynamic-focus delay computation, beamforming,
band-pass filtering, envelope detection, log compression, and image
quality metrics, plus binary containers and a pipeline CLI.
"""

from .beamformers import (
    BeamformerKind,
    OpCount,
    beamform_image,
    beamform_pixel,
    dmas_pixel_naive,
    op_count,
    stage_one_terms,
)
from .dsp import FilterSpec, bandpass_image, envelope_image, log_compress
from .geometry import ArrayGeometry, DelayTable, ImageGrid, compute_delays, linear_array
from .metrics import LateralProfile, RegionShape, RegionSpec, cr, fwhm, gcnr, lateral_profile, sidelobe_level, snr_region
from .pipeline import axial_sample_rate, default_filter, reconstruct_envelope, reconstruct_envelope_from_delays
from .rfmodel import RfFrame, fetch_delayed, signed_sqrt
from .simulator import (
    NoiseSpec,
    Phantom,
    PulseModel,
    add_noise,
    make_cyst_phantom,
    make_tumor_phantom,
    make_wire_phantom,
    pulse_waveform,
    round_trip_pulse,
    signal_power,
    synthesize_rf,
)

__version__ = "0.1.0"
