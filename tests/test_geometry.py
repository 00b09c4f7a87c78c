import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usbeam import ArrayGeometry, DelayTable, FilterSpec, ImageGrid, NoiseSpec, PulseModel
from usbeam.geometry import compute_delays, linear_array


def test_linear_array_centered_and_uniform():
    geom = ArrayGeometry(8, 0.3e-3)
    assert geom.element_count == 8
    assert np.allclose(geom.element_x + geom.element_x[::-1], 0.0)
    assert np.allclose(np.diff(geom.element_x), 0.3e-3)


def test_geometry_derives_centred_positions():
    geom = ArrayGeometry(4, 1e-3, 1540.0)
    assert np.allclose(geom.element_x, [-1.5e-3, -0.5e-3, 0.5e-3, 1.5e-3], rtol=0, atol=1e-18)
    assert geom == ArrayGeometry(4, 1e-3)
    assert linear_array is ArrayGeometry


def test_element_positions_are_read_only():
    # equal arrays must give equal delays, so no position can move
    geom = ArrayGeometry(8, 3e-4)
    with pytest.raises(ValueError, match="read-only"):
        geom.element_x[0] = 5e-3


def test_geometry_rejects_too_few_elements():
    with pytest.raises(ValueError, match="^element_count must be an integer >= 1, got 0$"):
        ArrayGeometry(0, 0.3e-3)


def test_geometry_accepts_one_element():
    # each beamformer's minimum aperture is op_count's rule, not the array's
    assert np.array_equal(ArrayGeometry(1, 0.3e-3).element_x, [0.0])


def test_geometry_rejects_bad_sound_speed():
    with pytest.raises(ValueError):
        ArrayGeometry(4, 0.3e-3, sound_speed=0.0)


@pytest.mark.parametrize("field", ["pitch", "sound_speed"])
@pytest.mark.parametrize("value", [np.inf, np.nan])
def test_geometry_rejects_non_finite_scalars(field, value):
    kwargs = dict(pitch=1e-3, sound_speed=1540.0)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ArrayGeometry(3, **kwargs)


# Every count a constructor takes, built with the count set to a value.
COUNTS = {
    "element_count": lambda n: ArrayGeometry(n, 0.3e-3),
    "nx": lambda n: ImageGrid(x_min=0.0, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=n, nz=2),
    "nz": lambda n: ImageGrid(x_min=0.0, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=2, nz=n),
    "taps": lambda n: FilterSpec(center=6e6, half_bandwidth=1e6, taps=n),
    "cycles": lambda n: PulseModel(f0=3e6, cycles=n),
}


@pytest.mark.parametrize("field", COUNTS)
@pytest.mark.parametrize("value", [2.5, 63.0, np.float64(5.0), "5", None])
def test_counts_must_be_integers(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        COUNTS[field](value)


@pytest.mark.parametrize("field", COUNTS)
@pytest.mark.parametrize("value", [5, np.int32(5), np.int64(5), np.uint16(5)])
def test_counts_accept_python_and_numpy_integers(field, value):
    COUNTS[field](value)


@pytest.mark.parametrize("field", [*COUNTS, "seed"])
@pytest.mark.parametrize("value", [True, False, np.True_])
def test_counts_and_seeds_reject_bools(field, value):
    build = COUNTS.get(field, lambda n: NoiseSpec(target_snr_db=10.0, seed=n))
    with pytest.raises(ValueError, match=f"^{field} must be an integer >= "):
        build(value)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(x_min=0.0, x_max=1e-3, z_min=0.0, z_max=1e-3, nx=2, nz=2),
        dict(x_min=0.0, x_max=1e-3, z_min=-1e-3, z_max=1e-3, nx=2, nz=2),
        dict(x_min=0.0, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=0, nz=2),
        dict(x_min=1e-3, x_max=0.0, z_min=1e-3, z_max=2e-3, nx=2, nz=2),
    ],
)
def test_grid_invariants(kwargs):
    with pytest.raises(ValueError):
        ImageGrid(**kwargs)


@pytest.mark.parametrize("field", ["x_min", "x_max", "z_min", "z_max"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_grid_rejects_non_finite_extents(field, value):
    kwargs = dict(x_min=-1e-3, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=2, nz=2)
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"extent {field} must be finite"):
        ImageGrid(**kwargs)


# Finite extents whose lateral positions are not: from -1.7e308 to 1.7e308 m
# the span overflows float64, and an odd grid's middle column lands at
# inf * 0 = nan; from 1e308 to 1.7e308 m the midpoint overflows.
@pytest.mark.parametrize("x_min,x_max", [(-1.7e308, 1.7e308), (1e308, 1.7e308)], ids=["span", "midpoint"])
@pytest.mark.parametrize("nx", [2, 3])
def test_grid_refuses_lateral_positions_that_overflow(x_min, x_max, nx):
    message = (f"lateral positions of ImageGrid(x_min={x_min!r}, x_max={x_max!r}, z_min=0.005, z_max=0.025, "
               f"nx={nx}, nz=13) are not all finite")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ImageGrid(x_min=x_min, x_max=x_max, z_min=5e-3, z_max=25e-3, nx=nx, nz=13)


# A single-depth grid has no axial spacing whatever its row count; the
# axial sample rate of the band-pass would divide by it.
@pytest.mark.parametrize("z_max,nz", [(2e-3, 1), (1e-3, 100)], ids=["one-row", "zero-height"])
def test_grid_without_axial_extent_has_no_spacing(z_max, nz):
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=1e-3, z_max=z_max, nx=2, nz=nz)
    with pytest.raises(ValueError, match="axial spacing is undefined"):
        grid.dz


def stacked(table):
    """The whole (nz, nx, element_count) table, stacked from its columns."""
    return np.stack([table.column(j) for j in range(table.grid.nx)], axis=1)


def test_delays_on_axis_round_trip():
    # pixel directly above an element: transmit and receive paths are both z/c
    geom = ArrayGeometry(3, 1e-4)
    grid = ImageGrid(x_min=0.0, x_max=0.0, z_min=20e-3, z_max=20e-3, nx=1, nz=1)
    table = DelayTable(geom, grid, 50e6)
    mid = 1  # element at x = 0
    assert table.column(0)[0, mid] == pytest.approx(50e6 * 2 * 20e-3 / 1540.0, rel=1e-12)


def test_delays_reference_depth_35mm():
    # 100 MHz, 1540 m/s, wire depth 35 mm: 1e8 * 0.070 / 1540 samples
    geom = ArrayGeometry(3, 1e-4, sound_speed=1540.0)
    grid = ImageGrid(x_min=0.0, x_max=0.0, z_min=35e-3, z_max=35e-3, nx=1, nz=1)
    table = DelayTable(geom, grid, 100e6)
    assert table.column(0)[0, 1] == pytest.approx(4545.454545454545, abs=1e-9)


def test_delays_three_four_five_triangle():
    # lateral offset 3 mm at depth 4 mm: receive path is 5 mm
    geom = ArrayGeometry(3, 3e-3, sound_speed=1540.0)
    grid = ImageGrid(x_min=3e-3, x_max=3e-3, z_min=4e-3, z_max=4e-3, nx=1, nz=1)
    table = DelayTable(geom, grid, 100e6)
    assert table.column(0)[0, 1] == pytest.approx(100e6 * (4e-3 + 5e-3) / 1540.0, rel=1e-12)


def test_delays_reject_bad_inputs():
    geom = ArrayGeometry(4, 1e-4)
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=3, nz=3)
    with pytest.raises(ValueError):
        DelayTable(geom, grid, 0.0)
    with pytest.raises(ValueError):
        DelayTable(geom, grid, -1e6)
    for fs in (np.inf, np.nan):
        with pytest.raises(ValueError, match="fs must be finite"):
            DelayTable(geom, grid, fs)


def test_delays_nonnegative_and_monotone_in_element_distance():
    rng = np.random.default_rng(42)
    geom = ArrayGeometry(16, 0.25e-3)
    for _ in range(20):
        x = rng.uniform(-5e-3, 5e-3)
        z = rng.uniform(5e-3, 50e-3)
        grid = ImageGrid(x_min=x, x_max=x, z_min=z, z_max=z, nx=1, nz=1)
        d = DelayTable(geom, grid, 100e6).column(0)[0]
        assert np.all(d >= 0)
        order = np.argsort(np.abs(geom.element_x - x), kind="stable")
        assert np.all(np.diff(d[order]) >= -1e-9)


def test_delay_mirror_symmetry():
    geom = ArrayGeometry(12, 0.3e-3)
    grid = ImageGrid(x_min=-4e-3, x_max=4e-3, z_min=10e-3, z_max=30e-3, nx=9, nz=7)
    d = stacked(DelayTable(geom, grid, 100e6))
    # pixel at -x with element at -x_i matches (+x, +x_i)
    assert np.array_equal(d, d[:, ::-1, ::-1])


def test_delay_scaling_with_fs_is_exact():
    geom = ArrayGeometry(8, 0.3e-3)
    grid = ImageGrid(x_min=-3e-3, x_max=3e-3, z_min=5e-3, z_max=25e-3, nx=11, nz=13)
    d1 = stacked(DelayTable(geom, grid, 50e6))
    d2 = stacked(DelayTable(geom, grid, 100e6))
    assert np.array_equal(d2, 2.0 * d1)


def test_delay_column_equals_table_slice():
    geom = ArrayGeometry(8, 0.3e-3)
    grid = ImageGrid(x_min=-3e-3, x_max=3e-3, z_min=5e-3, z_max=25e-3, nx=11, nz=13)
    table = DelayTable(geom, grid, 100e6)
    assert compute_delays(geom, grid, 100e6) == table
    values = table.values
    assert values.shape == (13, 11, 8)
    for j in range(grid.nx):
        assert np.array_equal(table.column(j), values[:, j, :])
    # the round-trip expression, broadcast over the whole table at once
    dx = grid.x_axis[:, None] - geom.element_x
    z = grid.z_axis[:, None, None]
    assert np.array_equal(values, 100e6 * (np.sqrt(dx * dx + z * z) / 1540.0 + z / 1540.0))


# x from -1e200 to 1e200 m, and z down to 1e200 m: a squared distance
# overflows float64, so no delay table is built on either grid.
@pytest.mark.parametrize("grid", [
    ImageGrid(x_min=-1e200, x_max=1e200, z_min=5e-3, z_max=25e-3, nx=11, nz=13),
    ImageGrid(x_min=-3e-3, x_max=3e-3, z_min=5e-3, z_max=1e200, nx=11, nz=13),
], ids=["x", "z"])
def test_delays_refuse_a_grid_whose_delays_overflow(grid):
    message = f"delays overflow float64 on {grid} at fs=100000000.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DelayTable(ArrayGeometry(8, 0.3e-3), grid, 100e6)


def test_delays_build_on_a_wide_finite_grid():
    grid = ImageGrid(x_min=-1e150, x_max=1e150, z_min=5e-3, z_max=25e-3, nx=11, nz=13)
    table = DelayTable(ArrayGeometry(8, 0.3e-3), grid, 100e6)
    assert np.all(np.isfinite(stacked(table)))
    assert table.column(0)[-1, 0] == pytest.approx(100e6 * 1e150 / 1540.0, rel=1e-12)


# Grids of 1, 2, odd and even column counts, random extents of 1 um to 1 m
# and random apertures; derandomized so every run draws the same examples.
column_counts = st.one_of(
    st.sampled_from((1, 2)),
    st.integers(1, 150).map(lambda k: 2 * k + 1),
    st.integers(2, 150).map(lambda k: 2 * k),
)
extents = st.floats(1e-6, 1.0)
mirror_settings = settings(max_examples=60)


@mirror_settings
@given(extent=extents, nx=column_counts, m=st.integers(1, 64))
def test_centred_grid_mirrors_each_column_pair_bit_for_bit(extent, nx, m):
    grid = ImageGrid(x_min=-extent, x_max=extent, z_min=5e-3, z_max=25e-3, nx=nx, nz=3)
    table = DelayTable(ArrayGeometry(m, 0.3e-3), grid, 100e6)
    assert table.mirrored
    for j in range(nx // 2):
        assert np.array_equal(table.column(nx - 1 - j), table.column(j)[:, ::-1])


# Centred and off-centre grids, with the wire and cyst rigs' grids and the
# CLI default grid as fixed examples.
@mirror_settings
@given(x_min=st.floats(-1.0, 1.0), half_width=extents, nx=column_counts, centred=st.booleans())
@example(x_min=0.0, half_width=14e-3, nx=561, centred=True)
@example(x_min=0.0, half_width=12e-3, nx=161, centred=True)
@example(x_min=0.0, half_width=11e-3, nx=220, centred=True)
def test_grid_positions_are_the_delay_tables_and_mirror_on_centred_grids(x_min, half_width, nx, centred):
    lo, hi = (-half_width, half_width) if centred else (x_min, x_min + 2 * half_width)
    grid = ImageGrid(x_min=lo, x_max=hi, z_min=5e-3, z_max=25e-3, nx=nx, nz=3)
    x = grid.x_axis
    table = DelayTable(ArrayGeometry(4, 0.3e-3), grid, 100e6)
    assert table.mirrored == (lo == -hi)
    assert np.array_equal(table._x_axis, x)
    # linspace and the midpoint layout round differently; off the centre
    # they have been seen 3 ulps of the larger extent apart, so the bound
    # counts ulps of the width as well
    assert np.all(np.abs(x - np.linspace(lo, hi, nx)) <= 2 * np.spacing(max(abs(lo), abs(hi), hi - lo)))
    if nx == 1:
        assert x.tolist() == [lo]
    elif lo == -hi:
        assert np.array_equal(x, -x[::-1])
