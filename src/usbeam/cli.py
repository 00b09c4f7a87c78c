"""Pipeline command-line interface.

Five subcommands cover the reconstruction workflow end to end:
simulate -> beamform -> metrics / render / profile. Exit codes: 0 on
success, 1 on runtime errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import containers
from .beamformers import BeamformerKind
from .config import RunConfig, load_config
from .dsp import FilterSpec, log_compress
from .geometry import ArrayGeometry, ImageGrid
from .metrics import (GCNR_BINS, LateralProfile, RegionSpec, cr, fwhm, gcnr, lateral_profile, sidelobe_level,
                      snr_region)
from .pipeline import default_filter, reconstruct_envelope
from .simulator import (
    NoiseSpec,
    Phantom,
    PulseModel,
    add_noise,
    make_cyst_phantom,
    make_tumor_phantom,
    make_wire_phantom,
    signal_power,
    synthesize_rf,
)

# Dynamic range used when metrics need a dB profile; deep enough that the
# floor never clips a measurable feature.
_METRICS_DB_RANGE = 400.0

PHANTOMS = {
    "wires": lambda cfg: make_wire_phantom(cfg.pair_separation),
    "cysts": lambda cfg: make_cyst_phantom(cfg.speckle_seed, cfg.speckle_density),
    "tumor": lambda cfg: make_tumor_phantom(cfg.speckle_seed, cfg.speckle_density),
    "custom": lambda cfg: Phantom(_parse_custom_scatterers(cfg.custom_scatterers)),
}
# settings flags spelled other than --field-name
_FLAG_NAMES = {"filter_half_bandwidth": "--filter-half-bw"}


def _parse_custom_scatterers(text: str) -> np.ndarray:
    points = []
    for item in text.split(";"):
        item = item.strip()
        if not item:
            continue
        try:
            x_mm, z_mm, amp = (float(p) for p in item.split(","))
        except ValueError:
            raise ValueError(f"custom scatterer {item!r} must be x_mm,z_mm,amplitude") from None
        points.append((x_mm * 1e-3, z_mm * 1e-3, amp))
    if not points:
        raise ValueError("phantom=custom needs custom_scatterers entries")
    return np.array(points, dtype=float)


def cmd_simulate(args, cfg: RunConfig) -> int:
    noise = NoiseSpec(target_snr_db=cfg.snr_db, seed=cfg.seed)
    geometry = ArrayGeometry(cfg.elements, cfg.pitch, cfg.c)
    containers.check_rf_elements(geometry.element_count)
    if cfg.phantom not in PHANTOMS:
        raise ValueError(f"unknown phantom {cfg.phantom!r} (one of {', '.join(PHANTOMS)})")
    phantom = PHANTOMS[cfg.phantom](cfg)
    pulse = PulseModel(f0=cfg.f0, cycles=cfg.cycles)
    clean = synthesize_rf(phantom, geometry, pulse, cfg.fs)
    frame = add_noise(clean, noise)
    if frame is clean:
        realized = "inf"
    else:
        noise_power = float(np.mean((frame.samples - clean.samples) ** 2))
        realized = f"{10.0 * np.log10(signal_power(clean.samples) / noise_power):.6f}"
    containers.write_rf(args.out, frame)
    print(f"phantom={cfg.phantom}")
    print(f"elements={frame.element_count}")
    print(f"samples={frame.sample_count}")
    print(f"target_snr_db={cfg.snr_db:.6f}")
    print(f"realized_snr_db={realized}")
    print(f"out={args.out}")
    return 0


def cmd_beamform(args, cfg: RunConfig) -> int:
    frame, _pitch = containers.read_rf(args.rf_path)
    kind = BeamformerKind(args.algo)
    grid = ImageGrid(cfg.x_min, cfg.x_max, cfg.z_min, cfg.z_max, cfg.nx, cfg.nz)
    containers.check_image_grid(grid)
    # A filter center of 0 selects the kernel's band center.
    spec = FilterSpec(cfg.filter_center or default_filter(kind, frame.f0).center,
                      cfg.filter_half_bandwidth, cfg.filter_taps)
    env, ops = reconstruct_envelope(frame, grid, kind, filter_spec=spec)
    containers.write_image(args.out, env, grid)
    lines = [
        f"algo={args.algo}",
        f"elements={frame.element_count}",
        f"samples={frame.sample_count}",
        f"grid_nx={grid.nx}",
        f"grid_nz={grid.nz}",
        f"pixels={grid.nx * grid.nz}",
        f"ops_per_pixel_multiplies={ops.multiplies}",
        f"ops_per_pixel_special_ops={ops.special_ops}",
        f"ops_per_pixel_total={ops.total}",
        f"ops_total={ops.total * grid.nx * grid.nz}",
        f"filter_center_hz={spec.center:.1f}",
        f"filter_half_bandwidth_hz={spec.half_bandwidth:.1f}",
        f"filter_taps={spec.taps}",
    ]
    # paths stay out of the report so reruns into different directories
    # produce identical bytes
    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.report:
        containers.atomic_write(args.report, report.encode("ascii"))
    return 0


def cmd_render(args, cfg: RunConfig) -> int:
    env, _grid = containers.read_image(args.image_path)
    gray = containers.db_to_gray(log_compress(env, cfg.dynamic_range), cfg.dynamic_range)
    containers.write_pgm(args.out, gray)
    print(f"out={args.out}")
    return 0


def _windowed_profile(db_image, depth, center_x, half_window, grid: ImageGrid) -> LateralProfile:
    """The lateral profile at a depth, cut to |x - center_x| <= half_window
    and renormalized to 0 dB max."""
    profile = lateral_profile(db_image, depth, grid)
    keep = np.abs(profile.x - center_x) <= half_window
    if not np.any(keep):
        raise ValueError("profile window contains no pixels")
    return LateralProfile(
        depth=profile.depth,
        x=profile.x[keep],
        value_db=profile.value_db[keep] - profile.value_db[keep].max(),
    )


_PROFILE_METRICS = {"fwhm": ("fwhm_mm", fwhm), "sidelobe": ("sidelobe_db", sidelobe_level)}
_DISC_PAIR_METRICS = {"cr": ("cr_db", cr), "gcnr": ("gcnr", gcnr)}


def _metrics_rows(env: np.ndarray, grid: ImageGrid, lines) -> list[str]:
    rows = []
    db_image = None
    for lineno, spec in lines:
        kind = spec[0]
        try:
            vals = [float(v) for v in spec[1:]]
            if kind == "snr" and len(vals) == 4:
                depth, center_x, half_x, half_z = (v * 1e-3 for v in vals)
                region = RegionSpec.rect(center_x, depth, half_x, half_z)
                value = snr_region(env, region, grid)
                rows.append(f"{vals[0]:.3f},snr_db,{value:.6f}")
            elif kind in _PROFILE_METRICS and len(vals) == 3:
                if db_image is None:
                    db_image = log_compress(env, _METRICS_DB_RANGE)
                name, metric = _PROFILE_METRICS[kind]
                value = metric(_windowed_profile(db_image, *(v * 1e-3 for v in vals), grid))
                rows.append(f"{vals[0]:.3f},{name},{value:.6f}")
            elif kind in _DISC_PAIR_METRICS and len(vals) == 5:
                depth, cyst_x, cyst_r, bck_x, bck_r = (v * 1e-3 for v in vals)
                name, metric = _DISC_PAIR_METRICS[kind]
                value = metric(
                    env,
                    RegionSpec.disc(cyst_x, depth, cyst_r),
                    RegionSpec.disc(bck_x, depth, bck_r),
                    grid,
                )
                rows.append(f"{vals[0]:.3f},{name},{value:.6f}")
            else:
                raise ValueError(f"unknown metric row {kind!r} or wrong field count")
        except ValueError as exc:
            raise ValueError(f"regions line {lineno}: {exc}") from exc
    return rows


def cmd_metrics(args, _cfg: RunConfig) -> int:
    env, grid = containers.read_image(args.image_path)
    lines = []
    with open(args.regions, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            text = raw.split("#", 1)[0].strip()
            if text:
                lines.append((lineno, [part.strip() for part in text.split(",")]))
    rows = _metrics_rows(env, grid, lines)
    report = "depth_mm,metric,value\n" + "".join(row + "\n" for row in rows)
    sys.stdout.write(report)
    if args.out:
        containers.atomic_write(args.out, report.encode("ascii"))
    return 0


def cmd_profile(args, cfg: RunConfig) -> int:
    env, grid = containers.read_image(args.image_path)
    depth = args.depth_mm * 1e-3
    profile = lateral_profile(log_compress(env, cfg.dynamic_range), depth, grid)
    body = "x_mm,value_db\n" + "".join(
        f"{x * 1e3:.6f},{v:.6f}\n" for x, v in zip(profile.x, profile.value_db)
    )
    containers.atomic_write(args.out, body.encode("ascii"))
    print(f"depth_mm={profile.depth * 1e3:.3f}")
    print(f"depth_offset_mm={abs(profile.depth - depth) * 1e3:.6f}")
    print(f"out={args.out}")
    return 0


def _add_settings(parser: argparse.ArgumentParser, *names: str) -> None:
    """Add ``--config`` and a flag for each named RunConfig field: spelled
    ``--field-name`` unless _FLAG_NAMES keeps another spelling, and typed
    like the field's default, as load_config types file values."""
    parser.epilog = "Write --flag=VALUE if VALUE starts with -."
    parser.add_argument("--config", help="key=value config file")
    defaults = RunConfig()
    for name in names:
        default = getattr(defaults, name)
        parser.add_argument(_FLAG_NAMES.get(name, "--" + name.replace("_", "-")), dest=name,
                            type=type(default), choices=PHANTOMS if name == "phantom" else None,
                            help=f"default {default!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="usbeam",
        description="Linear-array ultrasound reconstruction pipeline "
        "(simulate, beamform, metrics, render, profile). Settings are SI "
        "units (m, Hz, m/s) or dB; flags override a --config file.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="synthesize an RF channel-data container",
                         description="Synthesize an RF channel-data container. "
                         "An --snr-db of 300 or more adds no noise.")
    _add_settings(sim, "phantom", "elements", "pitch", "f0", "fs", "c", "cycles", "snr_db", "seed",
                  "pair_separation", "speckle_density", "speckle_seed", "custom_scatterers")
    sim.add_argument("--out", required=True, help="output RF container path")
    sim.set_defaults(func=cmd_simulate)

    bf = sub.add_parser("beamform", help="reconstruct an envelope image from RF data",
                        description="Reconstruct an envelope image from RF data. "
                        "A --filter-center of 0 selects f0 (das) or 2*f0 (dmas, dsdmas).")
    bf.add_argument("rf_path", help="input RF container")
    bf.add_argument("--algo", required=True, choices=[kind.value for kind in BeamformerKind])
    _add_settings(bf, "x_min", "x_max", "z_min", "z_max", "nx", "nz",
                  "filter_taps", "filter_half_bandwidth", "filter_center")
    bf.add_argument("--out", required=True, help="output image container path")
    bf.add_argument("--report", help="also write the op-count report here")
    bf.set_defaults(func=cmd_beamform)

    ren = sub.add_parser("render", help="render an image container to a PGM")
    ren.add_argument("image_path")
    _add_settings(ren, "dynamic_range")
    ren.add_argument("--out", required=True, help="output PGM path")
    ren.set_defaults(func=cmd_render)

    met = sub.add_parser("metrics", help="evaluate SNR / FWHM / sidelobe / CR / gCNR over configured regions")
    met.add_argument("image_path")
    met.add_argument("--regions", required=True,
                     help="region file: snr,depth,x,hx,hz | fwhm,depth,x,window | "
                          "sidelobe,depth,x,window | cr,depth,cx,cr,bx,br | "
                          f"gcnr,depth,cx,cr,bx,br (all mm; gCNR over {GCNR_BINS} bins)")
    met.add_argument("--out", help="also write the CSV report here")
    met.set_defaults(func=cmd_metrics, config=None)

    prof = sub.add_parser("profile", help="export a lateral dB profile at a depth")
    prof.add_argument("image_path")
    _add_settings(prof, "dynamic_range")
    prof.add_argument("--depth-mm", dest="depth_mm", type=float, required=True)
    prof.add_argument("--out", required=True, help="output CSV path")
    prof.set_defaults(func=cmd_profile)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, load_config(args.config, vars(args)))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
