import numpy as np
import pytest

from usbeam import ArrayGeometry, ImageGrid, compute_delays, linear_array


def test_linear_array_centered_and_uniform():
    geom = linear_array(8, 0.3e-3)
    assert geom.element_count == 8
    assert np.allclose(geom.element_x + geom.element_x[::-1], 0.0)
    assert np.allclose(np.diff(geom.element_x), 0.3e-3)


def test_geometry_rejects_too_few_elements():
    with pytest.raises(ValueError):
        linear_array(1, 0.3e-3)


def test_geometry_rejects_nonuniform_spacing():
    x = np.array([0.0, 1e-3, 2.5e-3])
    with pytest.raises(ValueError):
        ArrayGeometry(3, 1e-3, x, 1540.0)


def test_geometry_rejects_decreasing_positions():
    x = np.array([0.0, -1e-3, -2e-3])
    with pytest.raises(ValueError):
        ArrayGeometry(3, 1e-3, x, 1540.0)


def test_geometry_rejects_bad_sound_speed():
    with pytest.raises(ValueError):
        linear_array(4, 0.3e-3, sound_speed=0.0)


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


def test_delays_on_axis_round_trip():
    # pixel directly above an element: transmit and receive paths are both z/c
    geom = linear_array(3, 1e-4)
    grid = ImageGrid(x_min=0.0, x_max=0.0, z_min=20e-3, z_max=20e-3, nx=1, nz=1)
    table = compute_delays(geom, grid, 50e6)
    mid = 1  # element at x = 0
    assert table.values[0, 0, mid] == pytest.approx(50e6 * 2 * 20e-3 / 1540.0, rel=1e-12)


def test_delays_reference_depth_35mm():
    # 100 MHz, 1540 m/s, wire depth 35 mm: 1e8 * 0.070 / 1540 samples
    geom = linear_array(3, 1e-4, sound_speed=1540.0)
    grid = ImageGrid(x_min=0.0, x_max=0.0, z_min=35e-3, z_max=35e-3, nx=1, nz=1)
    table = compute_delays(geom, grid, 100e6)
    assert table.values[0, 0, 1] == pytest.approx(4545.454545454545, abs=1e-9)


def test_delays_three_four_five_triangle():
    # lateral offset 3 mm at depth 4 mm: receive path is 5 mm
    geom = linear_array(3, 3e-3, sound_speed=1540.0)
    grid = ImageGrid(x_min=3e-3, x_max=3e-3, z_min=4e-3, z_max=4e-3, nx=1, nz=1)
    table = compute_delays(geom, grid, 100e6)
    assert table.values[0, 0, 1] == pytest.approx(100e6 * (4e-3 + 5e-3) / 1540.0, rel=1e-12)


def test_delays_reject_bad_inputs():
    geom = linear_array(4, 1e-4)
    grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=1e-3, z_max=2e-3, nx=3, nz=3)
    with pytest.raises(ValueError):
        compute_delays(geom, grid, 0.0)
    with pytest.raises(ValueError):
        compute_delays(geom, grid, -1e6)


def test_delays_nonnegative_and_monotone_in_element_distance():
    rng = np.random.default_rng(42)
    geom = linear_array(16, 0.25e-3)
    for _ in range(20):
        x = rng.uniform(-5e-3, 5e-3)
        z = rng.uniform(5e-3, 50e-3)
        grid = ImageGrid(x_min=x, x_max=x, z_min=z, z_max=z, nx=1, nz=1)
        d = compute_delays(geom, grid, 100e6).values[0, 0, :]
        assert np.all(d >= 0)
        order = np.argsort(np.abs(geom.element_x - x), kind="stable")
        assert np.all(np.diff(d[order]) >= -1e-9)


def test_delay_mirror_symmetry():
    geom = linear_array(12, 0.3e-3)
    grid = ImageGrid(x_min=-4e-3, x_max=4e-3, z_min=10e-3, z_max=30e-3, nx=9, nz=7)
    d = compute_delays(geom, grid, 100e6).values
    # pixel at -x with element at -x_i matches (+x, +x_i)
    assert np.array_equal(d, d[:, ::-1, ::-1])


def test_delay_scaling_with_fs_is_exact():
    geom = linear_array(8, 0.3e-3)
    grid = ImageGrid(x_min=-3e-3, x_max=3e-3, z_min=5e-3, z_max=25e-3, nx=11, nz=13)
    d1 = compute_delays(geom, grid, 50e6).values
    d2 = compute_delays(geom, grid, 100e6).values
    assert np.array_equal(d2, 2.0 * d1)


def test_delay_column_equals_table_slice():
    geom = linear_array(8, 0.3e-3)
    grid = ImageGrid(x_min=-3e-3, x_max=3e-3, z_min=5e-3, z_max=25e-3, nx=11, nz=13)
    table = compute_delays(geom, grid, 100e6)
    values = table.values
    assert values.shape == (13, 11, 8)
    for j in range(grid.nx):
        assert np.array_equal(table.column(j), values[:, j, :])
