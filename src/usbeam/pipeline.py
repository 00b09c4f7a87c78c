"""End-to-end reconstruction helpers shared by the CLI and the test rigs."""

from __future__ import annotations

from .beamformers import BeamformerKind, beamform_image
from .dsp import FilterSpec, bandpass_image, envelope_image
from .geometry import ImageGrid, compute_delays
from .rfmodel import RfFrame


def axial_sample_rate(grid: ImageGrid, c: float) -> float:
    """Equivalent sampling rate of an image line in Hz.

    A pixel step dz along depth corresponds to a 2 dz / c step in
    round-trip time, so the line samples time at c / (2 dz)."""
    return c / (2.0 * grid.dz)


def default_filter(kind: BeamformerKind, f0: float) -> FilterSpec:
    """The post-beamforming band-pass for a kernel.

    The pairwise-product beamformers shift the signal band to twice the
    center frequency, so their filter sits at 2 f0; plain DAS keeps the
    fundamental and is filtered at f0 for a comparable envelope. The
    passband half-width is f0 / 2, over FilterSpec's default taps.
    """
    center = f0 if kind is BeamformerKind.DAS else 2.0 * f0
    return FilterSpec(center=center, half_bandwidth=0.5 * f0)


def reconstruct_envelope(
    frame: RfFrame,
    grid: ImageGrid,
    kind: BeamformerKind,
    filter_spec: FilterSpec | None = None,
):
    """Full reconstruction chain: delays from the frame's array, beamforming,
    band-pass along each line, envelope detection.

    Returns the envelope-domain image (nz, nx) and the per-pixel operation
    count of the beamforming kernel. ``filter_spec=None`` selects
    ``default_filter(kind, frame.f0)``. The grid's axial spacing must be
    fine enough for the filter passband to clear the line's Nyquist limit,
    and nz must exceed the filter's taps; both are checked before any
    beamforming.
    """
    delays = compute_delays(frame.geometry, grid, frame.fs)
    return reconstruct_envelope_from_delays(frame, delays, grid, kind, filter_spec=filter_spec)


def reconstruct_envelope_from_delays(
    frame: RfFrame,
    delays,
    grid: ImageGrid,
    kind: BeamformerKind,
    filter_spec: FilterSpec | None = None,
):
    """Reconstruction chain reusing a delay table from :func:`compute_delays`.

    ``grid`` must equal the grid the delays were computed on; it sets the
    band-pass's axial sampling rate.
    """
    if grid != delays.grid:
        raise ValueError(f"grid {grid} differs from the delay table's grid {delays.grid}")
    spec = filter_spec or default_filter(kind, frame.f0)
    axial_rate = axial_sample_rate(grid, frame.c)
    spec.validate_line(grid.nz, axial_rate)  # fail before beamforming, not after
    # The band-pass and the envelope transform the beamformer's output in
    # place, so the chain holds one (nz, nx) image and returns that buffer.
    image, ops = beamform_image(frame, delays, kind)
    bandpass_image(image, spec, axial_rate)
    return envelope_image(image), ops
