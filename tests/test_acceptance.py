"""Acceptance suite: one test per numbered criterion.

Each test prints one line, ``ACCEPTANCE <n>: PASS|FAIL - <measurements>``,
before asserting its stated bounds (run with ``pytest -s`` to see the lines
for passing criteria too).

The image-quality experiments share two reconstruction rigs. The wire rig
runs the wire phantom (6 mm pair separation so every pair is resolved by
all three beamformers) at 50 dB and -10 dB channel SNR over a 561 x 951
grid. Sidelobe reads use filters with a matched 25% fractional bandwidth
(DAS at f0 +- f0/4, product kernels at the 2 f0 +- f0/2 default) and take
the first lobe beyond the first sub-half-power minimum on the right side
of an isolated wire, where no neighboring wire or point-spread arm lands.
"""

import math
import time

import numpy as np
import pytest

from usbeam import (
    ArrayGeometry,
    BeamformerKind,
    FilterSpec,
    ImageGrid,
    LateralProfile,
    NoiseSpec,
    PulseModel,
    RegionSpec,
    add_noise,
    bandpass_image,
    cli,
    beamform_pixel,
    dmas_pixel_naive,
    envelope_image,
    fwhm,
    log_compress,
    make_cyst_phantom,
    make_wire_phantom,
    op_count,
    reconstruct_envelope,
    signal_power,
    snr_region,
    stage_one_terms,
    synthesize_rf,
)
from usbeam.metrics import cr as contrast_ratio
from usbeam.metrics import gcnr
from usbeam.simulator import CYST_DEPTHS, CYST_WIDE_X

F0 = 3e6
FS = 100e6
C = 1540.0
PITCH = 0.5 * C / F0
PULSE = PulseModel(f0=F0, cycles=2)
KINDS = (BeamformerKind.DAS, BeamformerKind.DMAS, BeamformerKind.DSDMAS)

WIRE_M = 64
WIRE_SEP = 6e-3
WIRE_GRID = ImageGrid(x_min=-14e-3, x_max=14e-3, z_min=28e-3, z_max=66e-3, nx=561, nz=951)
# matched-Q sidelobe filters: 25% fractional bandwidth for every kernel
SIDELOBE_BANDS = {
    BeamformerKind.DAS: FilterSpec(center=F0, half_bandwidth=0.25 * F0, taps=63),
    BeamformerKind.DMAS: FilterSpec(center=2 * F0, half_bandwidth=0.5 * F0, taps=63),
    BeamformerKind.DSDMAS: FilterSpec(center=2 * F0, half_bandwidth=0.5 * F0, taps=63),
}
# package-default bands for the noise and contrast experiments
NOISE_BANDS = {
    BeamformerKind.DAS: FilterSpec(center=F0, half_bandwidth=0.5 * F0, taps=63),
    BeamformerKind.DMAS: FilterSpec(center=2 * F0, half_bandwidth=0.5 * F0, taps=63),
    BeamformerKind.DSDMAS: FilterSpec(center=2 * F0, half_bandwidth=0.5 * F0, taps=63),
}

CYST_M = 64
CYST_GRID = ImageGrid(x_min=-12e-3, x_max=12e-3, z_min=5.5e-3, z_max=55e-3, nx=161, nz=1238)


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def scalar_signed_sqrt(v):
    return math.sqrt(v) if v >= 0 else -math.sqrt(-v)


def dsdmas_expansion_oracle(xd):
    """Literal term-by-term expansion of the double-stage sum, in scalar
    math throughout, independent of the vectorized implementation."""
    xs = [float(v) for v in xd]
    m = len(xs)
    terms = []
    for i in range(m - 1):
        acc = 0.0
        for j in range(i + 1, m):
            acc += scalar_signed_sqrt(xs[i] * xs[j])
        terms.append(acc)
    out = 0.0
    for i in range(m - 2):
        for j in range(i + 1, m - 1):
            out += scalar_signed_sqrt(terms[i] * terms[j])
    return out


@pytest.fixture(scope="module")
def wire_rig():
    t0 = time.perf_counter()
    geom = ArrayGeometry(WIRE_M, PITCH)
    phantom = make_wire_phantom(pair_separation=WIRE_SEP)
    clean = synthesize_rf(phantom, geom, PULSE, FS)
    frame50 = add_noise(clean, NoiseSpec(target_snr_db=50.0, seed=7))
    envs50 = {
        kind: reconstruct_envelope(frame50, WIRE_GRID, kind, filter_spec=SIDELOBE_BANDS[kind])[0]
        for kind in KINDS
    }
    elapsed50 = time.perf_counter() - t0
    frame_noisy = add_noise(clean, NoiseSpec(target_snr_db=-10.0, seed=7))
    envs_noisy = {
        kind: reconstruct_envelope(frame_noisy, WIRE_GRID, kind, filter_spec=NOISE_BANDS[kind])[0]
        for kind in KINDS
    }
    return {"envs50": envs50, "envs_noisy": envs_noisy, "elapsed50": elapsed50}


@pytest.fixture(scope="module")
def cyst_rig():
    geom = ArrayGeometry(CYST_M, PITCH)
    phantom = make_cyst_phantom(seed=2024)
    clean = synthesize_rf(phantom, geom, PULSE, FS)
    frame = add_noise(clean, NoiseSpec(target_snr_db=20.0, seed=11))
    return {kind: reconstruct_envelope(frame, CYST_GRID, kind, filter_spec=NOISE_BANDS[kind])[0] for kind in KINDS}


def apparent_peak(env, grid, z, x, z_halfwin=2e-3, x_halfwin=1.2e-3):
    """Row and column index of the envelope peak near a nominal target;
    the image of a wire sits below its depth by the pulse group delay."""
    zs, xs = grid.z_axis, grid.x_axis
    zsel = np.abs(zs - z) <= z_halfwin
    xsel = np.abs(xs - x) <= x_halfwin
    sub = env[np.ix_(zsel, xsel)]
    izl, ixl = np.unravel_index(np.argmax(sub), sub.shape)
    return np.where(zsel)[0][izl], np.where(xsel)[0][ixl]


def row_db(env, iz):
    row = env[iz, :]
    return 20.0 * np.log10(np.maximum(row, 1e-300) / row.max())


def first_sidelobe_right(db, peak):
    """Level of the first lobe right of the mainlobe, relative to the peak.

    Descends from the peak to the first local minimum lying below the
    half-power level (apex micro-structure above -6 dB is mainlobe
    texture), then climbs to the next local maximum.
    """
    k = peak
    while k < db.size - 1 and db[k] > -6.02:
        k += 1
    while k < db.size - 1 and db[k + 1] <= db[k]:
        k += 1
    if k >= db.size - 1:
        return float("-inf")
    while k < db.size - 1 and db[k + 1] >= db[k]:
        k += 1
    return db[k] - db[peak]


def windowed_profile(env, grid, z, x, half_window):
    iz, _ = apparent_peak(env, grid, z, x)
    keep = np.abs(grid.x_axis - x) <= half_window
    row = env[iz, keep]
    db = 20.0 * np.log10(np.maximum(row, 1e-300) / row.max())
    return LateralProfile(depth=grid.z_axis[iz], x=grid.x_axis[keep], value_db=db)


def test_criterion_01_dmas_fast_naive_equivalence():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for m in range(2, 33):
        for _ in range(100):
            xd = rng.uniform(-1.0, 1.0, m)
            naive = dmas_pixel_naive(xd)
            fast = beamform_pixel(xd, BeamformerKind.DMAS)
            worst = max(worst, abs(fast - naive) / (1.0 + abs(naive)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"worst residual {worst:.3e} (tol 1e-9), elapsed {elapsed:.2f}s (< 1 s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_02_dsdmas_expansion_equivalence():
    rng = np.random.default_rng(102)
    start = time.perf_counter()
    worst = 0.0
    for m in range(3, 17):
        for _ in range(100):
            xd = rng.uniform(-1.0, 1.0, m)
            oracle = dsdmas_expansion_oracle(xd)
            value = beamform_pixel(xd, BeamformerKind.DSDMAS)
            worst = max(worst, abs(value - oracle) / (1.0 + abs(oracle)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 1.0
    report(2, ok, f"worst residual {worst:.3e} (tol 1e-9), elapsed {elapsed:.2f}s (< 1 s)")
    assert worst <= 1e-9
    assert elapsed < 1.0


def test_criterion_03_stage_one_decomposition():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(3, 33))
        xd = rng.uniform(-1.0, 1.0, m)
        naive = dmas_pixel_naive(xd)
        total = float(stage_one_terms(xd).sum())
        worst = max(worst, abs(total - naive) / (1.0 + abs(naive)))
    ok = worst <= 1e-9
    report(3, ok, f"worst residual {worst:.3e} (tol 1e-9), 100 trials")
    assert worst <= 1e-9


def test_criterion_04_op_counts_match_complexity_model():
    bad = []
    for m in range(2, 129):
        if op_count(BeamformerKind.DAS, m).total != m:
            bad.append(("das", m))
        if op_count(BeamformerKind.DMAS, m).total != m * (m - 1) // 2 + 2 * (m - 1):
            bad.append(("dmas", m))
        if m >= 3 and op_count(BeamformerKind.DSDMAS, m).total != m * (m - 1) + 3 * (m - 1):
            bad.append(("dsdmas", m))
    spot = (
        op_count(BeamformerKind.DAS, 128).total,
        op_count(BeamformerKind.DMAS, 128).total,
        op_count(BeamformerKind.DSDMAS, 128).total,
    )
    ok = not bad and spot == (128, 8382, 16637)
    report(4, ok, f"all M in 2..128 exact, spot values at 128: {spot}")
    assert not bad
    assert spot == (128, 8382, 16637)


def test_criterion_05_sidelobe_ordering(wire_rig):
    assert WIRE_GRID.nx >= 200 and WIRE_GRID.nz >= 300
    envs = wire_rig["envs50"]
    lines = []
    ok = True
    measured = []
    for z in (32e-3, 63e-3):
        levels = {}
        for kind in KINDS:
            iz, ix = apparent_peak(envs[kind], WIRE_GRID, z, 0.0)
            levels[kind] = first_sidelobe_right(row_db(envs[kind], iz), ix)
        das, dmas, dsd = (levels[k] for k in KINDS)
        measured.append(levels)
        ok &= dmas <= das - 10.0 and dsd <= dmas - 8.0
        lines.append(
            f"z={z * 1e3:.0f}mm das={das:.2f} dmas={dmas:.2f} dsdmas={dsd:.2f} "
            f"(gaps {das - dmas:.2f}/{dmas - dsd:.2f} dB, need >= 10/8)"
        )
    elapsed = wire_rig["elapsed50"]
    ok &= elapsed < 60.0
    report(5, ok, "; ".join(lines) + f"; chain {elapsed:.1f}s (< 60 s)")
    for levels in measured:
        assert levels[BeamformerKind.DMAS] <= levels[BeamformerKind.DAS] - 10.0
        assert levels[BeamformerKind.DSDMAS] <= levels[BeamformerKind.DMAS] - 8.0
    assert elapsed < 60.0


WIRE_TARGETS = [
    (32e-3, 0.0),
    (35e-3, WIRE_SEP / 2),
    (40e-3, WIRE_SEP / 2),
    (45e-3, WIRE_SEP / 2),
    (50e-3, WIRE_SEP / 2),
    (55e-3, WIRE_SEP / 2),
    (60e-3, WIRE_SEP / 2),
    (63e-3, 0.0),
]


def test_criterion_06_fwhm_monotonicity(wire_rig):
    envs = wire_rig["envs50"]
    rows = []
    ok = True
    measured = []
    for z, wx in WIRE_TARGETS:
        widths = {
            kind: fwhm(windowed_profile(envs[kind], WIRE_GRID, z, wx, 3e-3)) for kind in KINDS
        }
        das, dmas, dsd = (widths[k] for k in KINDS)
        measured.append(widths)
        gap1 = (das - dmas) / das
        gap2 = (dmas - dsd) / dmas
        ok &= gap1 >= 0.05 and gap2 >= 0.05
        rows.append(f"z={z * 1e3:.0f}: {das:.2f}/{dmas:.2f}/{dsd:.2f}mm ({gap1:.0%},{gap2:.0%})")
    report(6, ok, " ".join(rows) + " (each gap >= 5%)")
    for widths in measured:
        das, dmas, dsd = (widths[k] for k in KINDS)
        assert dsd < dmas < das
        assert (das - dmas) / das >= 0.05
        assert (dmas - dsd) / dmas >= 0.05


# Region-SNR boxes for the heavy-noise experiment: wide and axially tight
# around each isolated wire's apparent depth, so background dominates.
SNR_REGIONS = [
    RegionSpec.rect(0.0, 33e-3, 10e-3, 1.5e-3),
    RegionSpec.rect(0.0, 64e-3, 10e-3, 1.5e-3),
]


def test_criterion_07_snr_ordering_under_heavy_noise(wire_rig):
    envs = wire_rig["envs_noisy"]
    rows = []
    ok = True
    measured = []
    for region in SNR_REGIONS:
        values = {kind: snr_region(envs[kind], region, WIRE_GRID) for kind in KINDS}
        das, dmas, dsd = (values[k] for k in KINDS)
        measured.append(values)
        ok &= dsd > dmas + 5.0 and dmas + 5.0 > das + 10.0
        rows.append(
            f"z={region.center_z * 1e3:.0f}mm das={das:.2f} dmas={dmas:.2f} dsdmas={dsd:.2f} "
            f"(steps {dmas - das:.2f}/{dsd - dmas:.2f} dB, need > 5/5)"
        )
    report(7, ok, "; ".join(rows))
    for values in measured:
        das, dmas, dsd = (values[k] for k in KINDS)
        assert dsd > dmas + 5.0
        assert dmas + 5.0 > das + 10.0


def test_criterion_08_cr_ordering(cyst_rig):
    rows = []
    ok = True
    measured = []
    for depth in CYST_DEPTHS:
        # background disc mirrors the cyst position so off-axis effects cancel
        cyst = RegionSpec.disc(CYST_WIDE_X, depth, 3e-3)
        background = RegionSpec.disc(-CYST_WIDE_X, depth, 3e-3)
        values = {
            kind: contrast_ratio(cyst_rig[kind], cyst, background, CYST_GRID) for kind in KINDS
        }
        das, dmas, dsd = (values[k] for k in KINDS)
        measured.append(values)
        ok &= dsd <= dmas - 5.0 and dmas - 5.0 <= das - 10.0
        # gCNR is reported beside CR, not asserted
        g = "/".join(f"{gcnr(cyst_rig[k], cyst, background, CYST_GRID):.3f}" for k in KINDS)
        rows.append(f"z={depth * 1e3:.0f}: {das:.1f}/{dmas:.1f}/{dsd:.1f}dB gCNR {g}")
    report(8, ok, " ".join(rows) + " (need dsdmas <= dmas-5 <= das-10)")
    for values in measured:
        das, dmas, dsd = (values[k] for k in KINDS)
        assert dsd <= dmas - 5.0
        assert dmas - 5.0 <= das - 10.0


def test_criterion_09_dsp_unit_suite():
    spec = FilterSpec(center=2 * F0, half_bandwidth=1.5e6, taps=63)
    dc = float(np.max(np.abs(bandpass_image(np.ones((4000, 1)), spec, FS))))
    t = np.arange(4000)[:, None] / FS
    tone_out = bandpass_image(np.sin(2 * np.pi * 2 * F0 * t), spec, FS)[:, 0]
    tone_amp = float(np.max(np.abs(tone_out[1500:2500])))
    env = envelope_image(np.sin(2 * np.pi * F0 * t))[:, 0]
    env_err = float(np.max(np.abs(env[200:-200] - 1.0)))
    rng = np.random.default_rng(109)
    img = np.abs(rng.normal(size=(40, 30))) + 0.01
    base = log_compress(img, 70.0)
    exact = all(
        np.array_equal(base, log_compress(img * 2.0**k, 70.0)) for k in (-5, 3, 8)
    )
    ok = dc <= 0.01 and 0.89 <= tone_amp <= 1.12 and env_err < 0.02 and exact
    report(
        9,
        ok,
        f"DC leak {dc:.2e} (<= 0.01), 2f0 gain {tone_amp:.4f} (within +-1 dB), "
        f"envelope ripple {env_err:.4f} (< 2%), scale invariance exact: {exact}",
    )
    assert dc <= 0.01
    assert 0.89 <= tone_amp <= 1.12
    assert env_err < 0.02
    assert exact


def test_criterion_10_noise_calibration():
    geom = ArrayGeometry(32, PITCH)
    frame = synthesize_rf(make_wire_phantom(), geom, PULSE, FS)
    p_signal = signal_power(frame.samples)
    worst = 0.0
    for target in (50.0, 20.0, 0.0, -10.0):
        for seed in range(10):
            noisy = add_noise(frame, NoiseSpec(target_snr_db=target, seed=seed))
            p_noise = float(np.mean((noisy.samples - frame.samples) ** 2))
            realized = 10.0 * np.log10(p_signal / p_noise)
            worst = max(worst, abs(realized - target))
    ok = worst <= 0.5
    report(10, ok, f"worst |realized - target| {worst:.3f} dB over 10 seeds x 4 targets (<= 0.5)")
    assert worst <= 0.5


def run_mini_pipeline(workdir):
    rf = str(workdir / "frame.urf")
    img = str(workdir / "image.uim")
    rep = str(workdir / "beamform.txt")
    met = str(workdir / "metrics.csv")
    prof = str(workdir / "profile.csv")
    pgm = str(workdir / "image.pgm")
    regions = workdir / "regions.csv"
    regions.write_text("snr,32.8,0,3,1.2\ncr,32.8,1.5,1.0,-1.5,1.0\n")
    assert cli.main(["simulate", "--phantom", "wires", "--elements", "16",
                     "--snr-db", "20", "--seed", "3", "--out", rf]) == 0
    assert cli.main(["beamform", rf, "--algo", "dmas",
                     "--x-min=-4e-3", "--x-max=4e-3", "--z-min=30e-3", "--z-max=35e-3",
                     "--nx=41", "--nz=180", "--out", img, "--report", rep]) == 0
    assert cli.main(["metrics", img, "--regions", str(regions), "--out", met]) == 0
    assert cli.main(["profile", img, "--depth-mm", "32.8", "--out", prof]) == 0
    assert cli.main(["render", img, "--dynamic-range", "70", "--out", pgm]) == 0
    return {name: (workdir / name).read_bytes()
            for name in ("frame.urf", "image.uim", "beamform.txt",
                         "metrics.csv", "profile.csv", "image.pgm")}


def test_criterion_11_pipeline_determinism(tmp_path):
    first_dir = tmp_path / "first"
    second_dir = tmp_path / "second"
    first_dir.mkdir()
    second_dir.mkdir()
    first = run_mini_pipeline(first_dir)
    second = run_mini_pipeline(second_dir)
    same = {name: first[name] == second[name] for name in first}
    ok = all(same.values())
    report(11, ok, "byte-identical artifacts: " + ", ".join(f"{k}={v}" for k, v in same.items()))
    assert ok
