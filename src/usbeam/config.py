"""Run configuration: a flat key=value file with command-line overrides.

All physical quantities are SI (meters, Hz, m/s); grid extents may be
negative, but rates, counts and ranges must be positive. Flags win over
file values, which win over the defaults below. A value is checked by the
library object that uses it, so a value no run reads is never checked.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .dsp import FilterSpec
from .geometry import ArrayGeometry
from .simulator import DEFAULT_PAIR_SEPARATION, DEFAULT_SPECKLE_DENSITY, DEFAULT_SPECKLE_SEED, PulseModel


@dataclass
class RunConfig:
    # phantom / scene
    phantom: str = "wires"
    pair_separation: float = DEFAULT_PAIR_SEPARATION
    speckle_density: float = DEFAULT_SPECKLE_DENSITY
    speckle_seed: int = DEFAULT_SPECKLE_SEED
    custom_scatterers: str = ""  # "x_mm,z_mm,amp;..." when phantom=custom
    # acquisition
    elements: int = 128
    f0: float = 3e6
    fs: float = 100e6
    c: float = ArrayGeometry.sound_speed
    pitch: float = 0.5 * c / f0  # half a wavelength at the default f0 and c
    cycles: int = PulseModel.cycles
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
    filter_taps: int = FilterSpec.taps
    filter_half_bandwidth: float = 1.5e6
    filter_center: float = 0.0  # 0 selects f0 (das) or 2*f0 (product kernels)
    dynamic_range: float = 70.0


_FIELDS = {f.name for f in fields(RunConfig)}


def load_config(path: str | None, overrides: dict) -> RunConfig:
    """Build a RunConfig from the defaults, then an optional key=value file,
    then the non-None ``overrides`` whose keys name a field; overrides win.

    A file value takes the type of its field's default.
    """
    cfg = RunConfig()
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                if key not in _FIELDS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    setattr(cfg, key, type(getattr(cfg, key))(value))
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    for key, value in overrides.items():
        if key in _FIELDS and value is not None:
            setattr(cfg, key, value)
    return cfg
