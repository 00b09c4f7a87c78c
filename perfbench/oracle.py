"""Independent NumPy oracle for whole image columns.

Nothing here calls the package's delay, gather or kernel code. Delays are
the closed form (axial transmit plus Euclidean receive path, times fs), the
gather is ``np.interp`` over the zero-padded channel, and DMAS / DS-DMAS
are summed over explicit pair matrices of signed square roots. The
post-beamforming chain is re-implemented too (edge-replicated FIR, FFT
analytic signal at the next power of two); only the filter taps come from
``usbeam.dsp.design_bandpass``, which defines the filter being applied.
"""

from __future__ import annotations

import numpy as np

# Relative tolerance of the package's kernel identities (ROADMAP).
REL_TOL = 1e-9

# Rows per block of explicit pairs, which bounds the oracle's memory at
# ROWS * M * (M - 1) / 2 doubles.
_ROWS = 64


def element_positions(count: int, pitch: float) -> np.ndarray:
    return (np.arange(count) - (count - 1) / 2.0) * pitch


def gather_column(samples, fs, c, element_x, x, z_axis):
    """Delayed samples (nz, M) for the image column at lateral position x."""
    m, k = samples.shape
    delays = fs * (z_axis[:, None] / c + np.hypot(x - element_x[None, :], z_axis[:, None]) / c)
    positions = np.arange(-1, k + 1, dtype=float)
    out = np.empty((z_axis.size, m))
    for i in range(m):
        padded = np.concatenate(([0.0], samples[i], [0.0]))
        out[:, i] = np.interp(delays[:, i], positions, padded, left=0.0, right=0.0)
    return out


def _pair_terms(values):
    """signed_sqrt(v_i * v_j) for every pair i < j, as (rows, pairs), with
    the pairs grouped by i; also the start of each i's group."""
    m = values.shape[1]
    i, j = np.triu_indices(m, 1)
    p = values[:, i] * values[:, j]
    return np.sign(p) * np.sqrt(np.abs(p)), np.flatnonzero(np.diff(i, prepend=-1))


def kernel_column(xd, kind: str) -> np.ndarray:
    """Raw beamformer output for a (rows, M) block of delayed samples."""
    if kind == "das":
        return xd.sum(axis=1)
    out = np.empty(xd.shape[0])
    for start in range(0, xd.shape[0], _ROWS):
        pairs, groups = _pair_terms(xd[start : start + _ROWS])
        if kind == "dmas":
            out[start : start + _ROWS] = pairs.sum(axis=1)
        elif kind == "dsdmas":
            # stage one: term i sums element i's pairs with every later element
            terms = np.add.reduceat(pairs, groups, axis=1)
            out[start : start + _ROWS] = _pair_terms(terms)[0].sum(axis=1)
        else:
            raise ValueError(f"no oracle for kernel {kind!r}")
    return out


def envelope_column(raw, taps) -> np.ndarray:
    """Band-pass (edge-replicated, group-delay aligned) then analytic-signal
    magnitude with the transform at the next power of two."""
    mid = (taps.size - 1) // 2
    padded = np.concatenate([np.repeat(raw[0], mid), raw, np.repeat(raw[-1], mid)])
    filtered = np.convolve(padded, taps, mode="valid")
    n = filtered.size
    nfft = 1 << (n - 1).bit_length()
    weights = np.zeros(nfft)
    weights[0] = weights[nfft // 2] = 1.0
    weights[1 : nfft // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(filtered, nfft) * weights)[:n])


def column_indices(nx: int) -> tuple[int, ...]:
    """The fixed columns checked in every image: both edges and the centre."""
    return tuple(sorted({0, nx // 2, nx - 1}))


def mismatched_columns(image, gathered, kind, taps, float32_output=False):
    """Number of checked columns of ``image`` that miss the oracle.

    ``gathered`` maps column index to the oracle's delayed samples. With
    ``float32_output`` the image went through a float32 container, so one
    float32 step is allowed on top of the relative tolerance.
    """
    bad = 0
    for j, xd in gathered.items():
        ref = envelope_column(kernel_column(xd, kind), taps)
        got = np.asarray(image[:, j], dtype=float)
        allowed = REL_TOL * np.max(np.abs(ref))
        if float32_output:
            allowed = allowed + np.spacing(np.abs(ref).astype(np.float32)).astype(float)
        if not np.all(np.abs(got - ref) <= allowed):
            bad += 1
    return bad
