import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from usbeam import (
    ArrayGeometry,
    LateralProfile,
    Phantom,
    RfFrame,
    fetch_delayed,
    linear_array,
    signed_sqrt,
)


def make_frame(samples, fs=100e6, f0=3e6, c=1540.0):
    """A frame recorded by a 0.3 mm-pitch array with one element per row."""
    samples = np.asarray(samples, dtype=float)
    return RfFrame(samples=samples, fs=fs, f0=f0, geometry=linear_array(len(samples), 0.3e-3, c))


def test_frame_validation():
    with pytest.raises(ValueError):
        make_frame(np.zeros((4, 8)), fs=5e6, f0=3e6)  # fs <= 2 f0
    with pytest.raises(ValueError):
        make_frame(np.array([[np.nan, 0.0]]))
    with pytest.raises(ValueError):
        make_frame(np.zeros(8))  # not 2-D


def test_frame_rejects_zero_elements():
    with pytest.raises(ValueError, match="one element per sample row"):
        RfFrame(samples=np.zeros((0, 8)), fs=100e6, f0=3e6, geometry=linear_array(1, 0.3e-3))


@pytest.mark.parametrize("rows,elements", [(3, 4), (4, 3), (1, 2)])
def test_frame_rejects_an_array_of_another_element_count(rows, elements):
    with pytest.raises(ValueError, match="^geometry must be an ArrayGeometry with one element per sample row$"):
        RfFrame(samples=np.zeros((rows, 8)), fs=100e6, f0=3e6, geometry=linear_array(elements, 0.3e-3))


@pytest.mark.parametrize("geometry", [None, 1540.0, (2, 0.3e-3, 1540.0)])
def test_frame_rejects_a_geometry_that_is_not_an_array(geometry):
    with pytest.raises(ValueError, match="^geometry must be an ArrayGeometry"):
        RfFrame(samples=np.zeros((2, 8)), fs=100e6, f0=3e6, geometry=geometry)


def test_frame_sound_speed_is_its_arrays():
    frame = RfFrame(samples=np.zeros((3, 8)), fs=100e6, f0=3e6, geometry=ArrayGeometry(3, 0.3e-3, 1480.0))
    assert frame.c == 1480.0
    with pytest.raises(AttributeError):
        frame.c = 1540.0


@pytest.mark.parametrize("field", ["fs", "f0", "c"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
def test_frame_rejects_non_finite_metadata(field, value):
    # the frame states the rules for fs and f0, its array the one for c
    name = "sound_speed" if field == "c" else field
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make_frame(np.zeros((2, 8)), **{field: value})


# The value objects that hold arrays compare by identity: a field-wise ==
# would ask an array for its truth value, and hash would fail on it.
@pytest.mark.parametrize("make", [
    lambda: make_frame(np.ones((2, 4))),
    lambda: Phantom(np.array([[0.0, 20e-3, 1.0], [0.0, 20e-3, 0.5]])),
    lambda: LateralProfile(depth=20e-3, x=np.array([0.0, 1e-3]), value_db=np.array([0.0, -6.0])),
], ids=["RfFrame", "Phantom", "LateralProfile"])
def test_array_holding_values_compare_by_identity(make):
    a, b = make(), make()
    assert (a == b) is False
    assert (a == a) is True
    assert len({a, b, a}) == 2


def test_signed_sqrt_reference_values():
    assert signed_sqrt(0.0) == 0.0
    assert signed_sqrt(4.0) == 2.0
    assert signed_sqrt(-4.0) == -2.0
    assert signed_sqrt(0.25) == 0.5


def test_signed_sqrt_properties():
    rng = np.random.default_rng(7)
    x = rng.uniform(-100.0, 100.0, 500)
    s = signed_sqrt(x)
    assert np.array_equal(np.sign(s), np.sign(x))
    assert np.allclose(s * s, np.abs(x), rtol=1e-12)
    assert np.allclose(s * np.abs(s), x, rtol=1e-12)
    # odd function
    assert np.array_equal(signed_sqrt(-x), -s)


def test_fetch_integer_delay_is_exact():
    samples = np.arange(24, dtype=float).reshape(2, 12)
    frame = make_frame(samples)
    out = fetch_delayed(frame, np.array([7.0, 3.0]))
    assert out[0] == samples[0, 7]
    assert out[1] == samples[1, 3]


def test_fetch_midpoint_interpolation():
    samples = np.zeros((1, 12))
    samples[0, 7] = 2.0
    samples[0, 8] = 4.0
    frame = make_frame(samples)
    assert fetch_delayed(frame, np.array([7.5]))[0] == pytest.approx(3.0)


def test_fetch_out_of_window_yields_zero():
    frame = make_frame(np.ones((3, 10)))
    out = fetch_delayed(frame, np.array([20.0, -5.0, 9.0]))
    assert out[0] == 0.0
    assert out[1] == 0.0
    assert out[2] == 1.0


def test_fetch_linear_in_frame():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 50))
    b = rng.normal(size=(4, 50))
    d = rng.uniform(-2, 52, size=4)
    alpha, beta = 2.5, -1.25
    fa = fetch_delayed(make_frame(a), d)
    fb = fetch_delayed(make_frame(b), d)
    fab = fetch_delayed(make_frame(alpha * a + beta * b), d)
    assert np.allclose(fab, alpha * fa + beta * fb, rtol=1e-12, atol=1e-12)


def test_fetch_block_shape():
    rng = np.random.default_rng(5)
    frame = make_frame(rng.normal(size=(6, 40)))
    block = rng.uniform(0, 39, size=(13, 6))
    out = fetch_delayed(frame, block)
    assert out.shape == (13, 6)
    # each row matches the vector path
    for r in range(13):
        assert np.array_equal(out[r], fetch_delayed(frame, block[r]))


def test_fetch_of_an_element_reversed_view_keeps_the_element_major_layout():
    # beamform_image gathers a mirrored column from d[:, ::-1], d being the
    # transpose of an element-major (M, nz) block, and reduces the result's
    # transpose over axis 0 as it does an unreversed column's
    rng = np.random.default_rng(6)
    frame = make_frame(rng.normal(size=(6, 40)))
    d = rng.uniform(-2.0, 41.0, size=(6, 13)).T
    reversed_view = d[:, ::-1]
    out = fetch_delayed(frame, reversed_view)
    assert np.array_equal(out, fetch_delayed(frame, np.ascontiguousarray(reversed_view)))
    assert out.T.flags.c_contiguous


def test_fetch_rejects_wrong_element_count():
    frame = make_frame(np.zeros((4, 10)))
    with pytest.raises(ValueError):
        fetch_delayed(frame, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fetch_rejects_non_finite_delays(bad):
    frame = make_frame(np.ones((3, 10)))
    with pytest.raises(ValueError, match="delays must be finite"):
        fetch_delayed(frame, np.array([[2.0, 3.0, 4.0], [1.0, bad, 5.0]]))


def test_frame_copies_its_input():
    samples = np.zeros((2, 6))
    frame = make_frame(samples)
    samples[0, 3] = 1.0
    assert not np.shares_memory(frame.samples, samples)
    assert frame.samples[0, 3] == 0.0
    assert fetch_delayed(frame, np.array([3.0, 3.0]))[0] == 0.0


def masked_gather(samples, d):
    """The earlier masked form of fetch_delayed, kept as the oracle:
    clamped indices, then each neighbour outside [0, K-1] masked to zero."""
    k_last = samples.shape[1] - 1
    i0 = np.floor(d).astype(np.int64)
    frac = d - i0
    chan = np.arange(samples.shape[0]).reshape((1,) * (d.ndim - 1) + (-1,))
    lo_ok = (i0 >= 0) & (i0 <= k_last)
    hi_ok = (i0 >= -1) & (i0 < k_last)
    lo = samples[chan, np.clip(i0, 0, k_last)]
    hi = samples[chan, np.clip(i0 + 1, 0, k_last)]
    return np.where(lo_ok, lo, 0.0) * (1.0 - frac) + np.where(hi_ok, hi, 0.0) * frac


@st.composite
def gather_cases(draw):
    m = draw(st.integers(1, 8))
    k = draw(st.integers(1, 50))
    values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    samples = draw(arrays(float, (m, k), elements=values))
    rows = draw(st.integers(1, 4))
    delays = draw(arrays(float, (rows, m), elements=st.floats(-3.0, k + 2.0)))
    return samples, delays


def edge_case(k):
    """Seven channels of nonzero samples, one per edge delay:
    -1, -0.5, 0, K-1, K-0.5, K and K+1."""
    samples = np.arange(1.0, 7 * k + 1).reshape(7, k) * np.where(np.arange(k) % 2, -1.0, 1.0)
    delays = np.array([[-1.0, -0.5, 0.0, k - 1.0, k - 0.5, float(k), k + 1.0]])
    return samples, delays


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(case=gather_cases())
@example(case=edge_case(1))
@example(case=edge_case(2))
@example(case=edge_case(10))
def test_fetch_matches_masked_gather(case):
    samples, delays = case
    assert np.array_equal(fetch_delayed(make_frame(samples), delays), masked_gather(samples, delays))
