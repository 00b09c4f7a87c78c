"""Image-quality margins of acceptance criteria 5-8.

Each margin is the minimum, over the criterion's depths and inequalities,
of the measured gap minus the required gap, so a positive value means the
criterion passes. The rigs' constants and the peak search, sidelobe walk,
windowed FWHM profile and regions are those of ``tests/test_acceptance.py``,
loaded from that file as ``suite``; only the gap arithmetic lives here. The
margins are reported as measured and never clamped.

Loading the suite imports ``pytest``. Callers that time their imports
import ``pytest`` first, outside the timer.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

SUITE_PATH = Path(__file__).resolve().parent.parent / "tests" / "test_acceptance.py"


def _load_suite():
    spec = importlib.util.spec_from_file_location("acceptance_suite", SUITE_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


suite = _load_suite()

NAMES = (
    "c5_sidelobe_margin_db",
    "c6_fwhm_margin_pct",
    "c7_snr_margin_db",
    "c8_cr_margin_db",
)


def wire_margins(envs50, envs_noisy):
    """c5, c6 and c7 from the wire rig's six images, each a list ordered
    DAS, DMAS, DS-DMAS."""
    grid = suite.WIRE_GRID
    c5 = []
    for z in (32e-3, 63e-3):
        levels = []
        for env in envs50:
            iz, ix = suite.apparent_peak(env, grid, z, 0.0)
            levels.append(suite.first_sidelobe_right(suite.row_db(env, iz), ix))
        das, dmas, dsd = levels
        c5 += [(das - dmas) - 10.0, (dmas - dsd) - 8.0]
    c6 = []
    for z, wx in suite.WIRE_TARGETS:
        das, dmas, dsd = (
            suite.fwhm(suite.windowed_profile(env, grid, z, wx, 3e-3)) for env in envs50
        )
        c6 += [100.0 * ((das - dmas) / das - 0.05), 100.0 * ((dmas - dsd) / dmas - 0.05)]
    c7 = []
    for region in suite.SNR_REGIONS:
        das, dmas, dsd = (suite.snr_region(env, region, grid) for env in envs_noisy)
        c7 += [(dsd - dmas) - 5.0, (dmas - das) - 5.0]
    return {NAMES[0]: min(c5), NAMES[1]: min(c6), NAMES[2]: min(c7)}


def cyst_margins(envs):
    """c8 from the cyst rig's three images, ordered DAS, DMAS, DS-DMAS."""
    c8 = []
    for depth in suite.CYST_DEPTHS:
        cyst = suite.RegionSpec.disc(suite.CYST_WIDE_X, depth, 3e-3)
        background = suite.RegionSpec.disc(-suite.CYST_WIDE_X, depth, 3e-3)
        das, dmas, dsd = (
            suite.contrast_ratio(env, cyst, background, suite.CYST_GRID) for env in envs
        )
        c8 += [(dmas - 5.0) - dsd, (das - 10.0) - (dmas - 5.0)]
    return {NAMES[3]: min(c8)}
