"""DAS, DMAS and double-stage DMAS reconstruction kernels.

DAS sums the delayed samples, DMAS sums one signed-sqrt coupling stage of
them and DS-DMAS sums two. ``beamform_image`` applies a kernel over a whole
delay table, one lateral column at a time, and reports the per-pixel
operation count of the standard complexity model for that kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import DelayTable
from .rfmodel import RfFrame, fetch_delayed, signed_sqrt


class BeamformerKind(Enum):
    DAS = "das"
    DMAS_NAIVE = "dmas-naive"
    DMAS_FAST = "dmas"
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
    implementation takes. The DMAS figure covers both the naive and the
    fast evaluation since they compute the same quantity.
    """
    m = int(element_count)
    if kind is BeamformerKind.DAS:
        if m < 1:
            raise ValueError("DAS needs at least 1 element")
        return OpCount(multiplies=0, special_ops=0, total=m)
    if kind in (BeamformerKind.DMAS_NAIVE, BeamformerKind.DMAS_FAST):
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
    """One signed-sqrt coupling stage along the last axis: term i is s_i
    times the sum of s_j over j > i, with s = signed_sqrt(x), so the M-1
    terms add up to the pairwise products of DMAS."""
    v = signed_sqrt(x)
    suffix = np.flip(np.cumsum(np.flip(v, -1), -1), -1)
    return v[..., :-1] * suffix[..., 1:]


def _dmas_naive_rows(xd: np.ndarray) -> np.ndarray:
    """Direct pairwise evaluation for a (rows, M) block of delayed samples."""
    acc = np.zeros(xd.shape[0])
    for i in range(xd.shape[1] - 1):
        acc += np.sum(signed_sqrt(xd[:, i : i + 1] * xd[:, i + 1 :]), axis=1)
    return acc


# One reduction over the last (element) axis per kind, shared by the
# per-pixel functions and beamform_image.
_KERNELS = {
    BeamformerKind.DAS: lambda x: np.sum(x, axis=-1),
    BeamformerKind.DMAS_NAIVE: _dmas_naive_rows,
    BeamformerKind.DMAS_FAST: lambda x: np.sum(_couple(x), axis=-1),
    BeamformerKind.DSDMAS: lambda x: np.sum(_couple(_couple(x)), axis=-1),
}


def _vector(delayed, min_size: int, message: str) -> np.ndarray:
    xd = np.asarray(delayed, dtype=float)
    if xd.ndim != 1 or xd.size < min_size:
        raise ValueError(message)
    return xd


def das_pixel(delayed) -> float:
    """Sum of the delayed samples across the aperture."""
    xd = _vector(delayed, 1, "delayed samples must form a 1-D vector with at least 1 entry")
    return float(_KERNELS[BeamformerKind.DAS](xd))


def dmas_pixel_naive(delayed) -> float:
    """Pairwise-product beamformer, evaluated pair by pair.

    Every element pair (i, j) with i < j contributes
    sign(xi * xj) * sqrt(|xi * xj|); the pairs accumulate in index order.
    Quadratic in the aperture size — kept as the reference evaluation the
    fast form is checked against.
    """
    xs = _vector(delayed, 2, "pairwise coupling needs at least 2 elements").tolist()
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


def dmas_pixel_fast(delayed) -> float:
    """Pairwise-product beamformer via per-element signed square roots.

    Takes the signed square root once per element and sums the products of
    the transformed samples over all pairs, which reduces the sign/abs/sqrt
    work from one per pair to one per element while computing the same
    value as :func:`dmas_pixel_naive`.
    """
    xd = _vector(delayed, 2, "pairwise coupling needs at least 2 elements")
    return float(_KERNELS[BeamformerKind.DMAS_FAST](xd))


def stage_one_terms(delayed) -> np.ndarray:
    """First-stage coupling terms of the double-stage beamformer.

    Term i couples the signed-sqrt sample of element i with the summed
    signed-sqrt samples of all later elements, so the M-1 terms add up to
    the DMAS output. Stage two runs the pairwise coupling again on these
    terms.
    """
    return _couple(_vector(delayed, 3, "stage decomposition needs at least 3 elements"))


def dsdmas_pixel(delayed) -> float:
    """Double-stage pairwise-product beamformer.

    Runs the signed-sqrt pair coupling twice: the first pass turns the M
    delayed samples into M-1 stage terms, the second pass couples the
    signed square roots of those terms over all their pairs.
    """
    xd = _vector(delayed, 3, "stage decomposition needs at least 3 elements")
    return float(_KERNELS[BeamformerKind.DSDMAS](xd))


def beamform_image(frame: RfFrame, delays: DelayTable, kind: BeamformerKind):
    """Apply a beamforming kernel at every pixel of a delay table.

    Parameters
    ----------
    frame : RfFrame
        Channel data; its element count and sampling rate must match the
        delay table.
    delays : DelayTable
        Values of shape (nz, nx, M) from :func:`compute_delays`.
    kind : BeamformerKind

    Returns
    -------
    (np.ndarray, OpCount)
        The raw, pre-filter beamformer output of shape (nz, nx), and the
        per-pixel operation count for this kernel.

    Columns are processed one at a time to bound memory; the output equals
    per-pixel application of the corresponding kernel.
    """
    values = delays.values
    if values.ndim != 3:
        raise ValueError("delay table values must have shape (nz, nx, elements)")
    nz, nx, m = values.shape
    if m != frame.element_count:
        raise ValueError("delay table does not match the frame's element count")
    if delays.fs != frame.fs:
        raise ValueError(f"delay table built for fs={delays.fs:.6g} Hz, frame sampled at fs={frame.fs:.6g} Hz")
    ops = op_count(kind, m)
    kernel = _KERNELS[kind]
    out = np.empty((nz, nx))
    for j in range(nx):
        out[:, j] = kernel(fetch_delayed(frame, values[:, j, :]))
    return out, ops
