"""DAS, DMAS and double-stage DMAS reconstruction kernels.

DAS sums the delayed samples, DMAS sums one signed-sqrt coupling stage of
them and DS-DMAS sums two. ``beamform_image`` applies a kernel over a whole
image grid, one lateral column of delays at a time, and reports the per-pixel
operation count of the standard complexity model for that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import DelayTable, ImageGrid, _require_count
from .rfmodel import RfFrame, fetch_delayed, signed_sqrt
from .workers import distribute


class BeamformerKind(Enum):
    DAS = "das"
    DMAS = "dmas"
    DSDMAS = "dsdmas"


@dataclass(frozen=True)
class OpCount:
    """Per-pixel operation counts under the complexity model.

    ``multiplies`` counts pairwise products (sample accumulations count as
    the total for DAS, which multiplies nothing); ``special_ops`` is the
    per-aperture overhead term of the model, with a sign/abs/sqrt triple
    counted as one operation; ``total`` is the headline figure.
    """

    multiplies: int
    special_ops: int
    total: int


def op_count(kind: BeamformerKind, element_count: int) -> OpCount:
    """Operation count per pixel for a beamformer kind and aperture size.

    The counts follow the accepted complexity model for these algorithms —
    M for DAS, M(M-1)/2 + 2(M-1) for DMAS, M(M-1) + 3(M-1) for the
    double-stage form — independent of any algebraic shortcut the
    implementation takes, such as the closed-form pair sums that evaluate
    DMAS and the second DS-DMAS stage. ``element_count`` must be an
    integer, not a bool.
    """
    _require_count("element_count", element_count, 0)
    m = int(element_count)
    if kind is BeamformerKind.DAS:
        if m < 1:
            raise ValueError("DAS needs at least 1 element")
        return OpCount(multiplies=0, special_ops=0, total=m)
    if kind is BeamformerKind.DMAS:
        if m < 2:
            raise ValueError("DMAS needs at least 2 elements")
        pairs = m * (m - 1) // 2
        return OpCount(multiplies=pairs, special_ops=2 * (m - 1), total=pairs + 2 * (m - 1))
    if kind is BeamformerKind.DSDMAS:
        if m < 3:
            raise ValueError("DS-DMAS needs at least 3 elements")
        coupled = m * (m - 1)
        return OpCount(multiplies=coupled, special_ops=3 * (m - 1), total=coupled + 3 * (m - 1))
    raise ValueError(f"unknown beamformer kind: {kind!r}")


def _couple(x: np.ndarray) -> np.ndarray:
    """One signed-sqrt coupling stage along axis 0 (the elements): term i
    is s_i times the sum of s_j over j > i, with s = signed_sqrt(x), so the
    M-1 terms add up to the pairwise products of DMAS. The terms depend on
    element order, which is why DS-DMAS keeps this form for stage one."""
    v = signed_sqrt(x)
    suffix = np.flip(np.cumsum(np.flip(v, 0), 0), 0)
    return v[:-1] * suffix[1:]


def _pair_sum(x: np.ndarray) -> np.ndarray:
    """Sum over element pairs i < j (axis 0) of signed_sqrt(x_i * x_j), in
    closed form: with s = signed_sqrt(x) it is ((sum s)^2 - sum s^2) / 2."""
    v = signed_sqrt(x)
    return 0.5 * (np.sum(v, axis=0) ** 2 - np.sum(v * v, axis=0))


# One reduction over axis 0 (the elements) per kind, shared by the
# per-pixel function and beamform_image, which passes (M, nz) blocks.
_KERNELS = {
    BeamformerKind.DAS: lambda x: np.sum(x, axis=0),
    BeamformerKind.DMAS: _pair_sum,
    BeamformerKind.DSDMAS: lambda x: _pair_sum(_couple(x)),
}


def _vector(delayed, kind: BeamformerKind) -> np.ndarray:
    """The delayed samples as a 1-D vector, sized for ``kind`` by :func:`op_count`."""
    xd = np.asarray(delayed, dtype=float)
    if xd.ndim != 1:
        raise ValueError("delayed samples must form a 1-D vector")
    op_count(kind, xd.size)
    return xd


def beamform_pixel(delayed, kind: BeamformerKind) -> float:
    """One pixel of ``kind`` from its delayed samples, a 1-D vector sized by
    :func:`op_count`: the same reduction :func:`beamform_image` applies per
    column. DMAS takes the signed square root once per element and sums the
    pairs in closed form; it equals :func:`dmas_pixel_naive`. DS-DMAS couples
    the M samples into the M-1 :func:`stage_one_terms` and sums their pairs
    in the same closed form.

    Conditioning: a DS-DMAS stage-one term that cancels to rounding noise
    (about 1e-15 of its pair terms) passes through the second square root as
    the root of that noise. Two algebraically equal evaluations, such as this
    kernel and the literal pair expansion, then agree to 1e-9 of the
    absolute pair terms only away from such terms; on
    [100, 12, 26, -(sqrt(12) + sqrt(26))**2] they differ by 7.5 times that
    scale.
    """
    return float(_KERNELS[kind](_vector(delayed, kind)))


def dmas_pixel_naive(delayed) -> float:
    """Pairwise-product beamformer, evaluated pair by pair.

    Every element pair (i, j) with i < j contributes
    sign(xi * xj) * sqrt(|xi * xj|); the pairs accumulate in index order.
    Quadratic in the aperture size — kept as the reference evaluation the
    closed form of :func:`beamform_pixel` is checked against.
    """
    xs = _vector(delayed, BeamformerKind.DMAS).tolist()
    total = 0.0
    for i in range(len(xs) - 1):
        xi = xs[i]
        for j in range(i + 1, len(xs)):
            p = xi * xs[j]
            if p >= 0.0:
                total += math.sqrt(p)
            else:
                total -= math.sqrt(-p)
    return total


def stage_one_terms(delayed) -> np.ndarray:
    """First-stage coupling terms of the double-stage beamformer.

    Term i couples the signed-sqrt sample of element i with the summed
    signed-sqrt samples of all later elements, so the M-1 terms add up to
    the DMAS output. Stage two runs the pairwise coupling again on these
    terms.
    """
    return _couple(_vector(delayed, BeamformerKind.DSDMAS))


def beamform_image(frame: RfFrame, grid: ImageGrid, kind: BeamformerKind):
    """Apply a beamforming kernel at every pixel of a grid.

    Parameters
    ----------
    frame : RfFrame
        Channel data; its array and sampling rate give the delays,
        ``DelayTable(frame.geometry, grid, frame.fs)``, built here.
    grid : ImageGrid
    kind : BeamformerKind

    Returns
    -------
    (np.ndarray, OpCount)
        The raw, pre-filter beamformer output of shape (nz, nx), and the
        per-pixel operation count for this kernel.

    Each column's delays are computed, gathered and reduced over the
    elements as an element-major (M, nz) block, so the full (nz, nx, M)
    table is never built. The output equals per-pixel application of the
    corresponding kernel up to rounding order.

    Item j is column j or, on a mirrored table (see :class:`DelayTable`),
    columns j and nx - 1 - j, the second gathered from the first's delays
    reversed over the elements. Each column has its own ``fetch_delayed``
    call and equals ``kernel(fetch_delayed(frame, delays.column(j)).T)``
    bit for bit.

    Items are independent, so they are split over the CPUs the process
    may use (:func:`usbeam.workers.distribute`). Every column is computed
    by the same calls whatever the thread count, so the output does not
    depend on it. An error in any thread is raised here once every thread
    has finished, and no partial image is returned.
    """
    ops = op_count(kind, frame.element_count)
    delays = DelayTable(frame.geometry, grid, frame.fs)
    kernel = _KERNELS[kind]
    nx = grid.nx
    out = np.empty((grid.nz, nx))

    def fill(items) -> None:
        for j in items:
            d = delays.column(j)
            out[:, j] = kernel(fetch_delayed(frame, d).T)
            if delays.mirrored and nx - 1 - j != j:
                out[:, nx - 1 - j] = kernel(fetch_delayed(frame, d[:, ::-1]).T)

    distribute((nx + 1) // 2 if delays.mirrored else nx, fill)
    return out, ops
