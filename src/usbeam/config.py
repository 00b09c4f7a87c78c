"""Run configuration: a flat key=value file with command-line overrides.

All physical quantities are SI (meters, Hz, m/s); angles of attack like
grid extents may be negative, but rates, counts and ranges must be
positive. Flags win over file values, which win over the defaults below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

# Half a wavelength at 3 MHz in 1540 m/s tissue.
DEFAULT_PITCH = 0.5 * 1540.0 / 3.0e6


@dataclass
class RunConfig:
    # phantom / scene
    phantom: str = "wires"
    pair_separation: float = 3e-3
    speckle_density: float = 1.7e7
    speckle_seed: int = 2024
    custom_scatterers: str = ""  # "x_mm,z_mm,amp;..." when phantom=custom
    # acquisition
    elements: int = 128
    pitch: float = DEFAULT_PITCH
    f0: float = 3e6
    fs: float = 100e6
    c: float = 1540.0
    cycles: int = 2
    # noise
    snr_db: float = 50.0
    seed: int = 1234
    # reconstruction grid (meters / pixel counts)
    x_min: float = -11e-3
    x_max: float = 11e-3
    z_min: float = 28e-3
    z_max: float = 66e-3
    nx: int = 220
    nz: int = 951
    # post-processing (the beamformer itself is picked by beamform --algo)
    filter_taps: int = 63
    filter_half_bandwidth: float = 1.5e6
    filter_center: float = 0.0  # 0 selects f0 (das) or 2*f0 (product kernels)
    dynamic_range: float = 70.0

    def validate(self) -> None:
        positive = (
            ("pair_separation", self.pair_separation),
            ("speckle_density", self.speckle_density),
            ("elements", self.elements),
            ("pitch", self.pitch),
            ("f0", self.f0),
            ("fs", self.fs),
            ("c", self.c),
            ("cycles", self.cycles),
            ("nx", self.nx),
            ("nz", self.nz),
            ("filter_taps", self.filter_taps),
            ("filter_half_bandwidth", self.filter_half_bandwidth),
            ("dynamic_range", self.dynamic_range),
        )
        for name, value in positive:
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"config value {name} must be finite and positive, got {value!r}")
        if self.fs <= 2.0 * self.f0:
            raise ValueError("fs must exceed 2 * f0")
        if self.filter_center < 0:
            raise ValueError("filter_center must be zero (auto) or positive")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, text: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def load_config(path: str | None) -> RunConfig:
    """Build a RunConfig from defaults plus an optional key=value file."""
    cfg = RunConfig()
    if path is None:
        return cfg
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _FIELD_TYPES:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            try:
                setattr(cfg, key, _coerce(key, value))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def apply_overrides(cfg: RunConfig, overrides: dict) -> RunConfig:
    """Apply non-None flag values, keyed by RunConfig field name, onto a
    config; flags win."""
    for key, value in overrides.items():
        if value is not None:
            setattr(cfg, key, value)
    return cfg
