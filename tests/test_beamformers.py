import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from usbeam import (
    BeamformerKind,
    DelayTable,
    RfFrame,
    beamform_image,
    beamform_pixel,
    beamformers,
    compute_delays,
    dmas_pixel_naive,
    fetch_delayed,
    linear_array,
    op_count,
    stage_one_terms,
)
from usbeam.geometry import ImageGrid

from test_acceptance import dsdmas_expansion_oracle


def abs_pair_sum(values):
    """Sum of |signed_sqrt(v_i * v_j)| over all pairs i < j: the scale that
    cancellation among the pair terms of a coupling stage can reach."""
    r = np.sqrt(np.abs(np.asarray(values, dtype=float)))
    return float((r.sum() ** 2 - np.sum(r * r)) / 2.0)


def dsdmas_tolerance(xd):
    """1e-9 times the absolute pair terms of both stages, plus a 1e-9
    relative error of each stage-one term carried through the second
    signed square root. That root amplifies the error of a term that
    nearly cancels: |sqrt(t + d) - sqrt(t)| <= min(sqrt(d), d / sqrt(t))."""
    r = np.sqrt(np.abs(xd))
    row_scale = r[:-1] * np.cumsum(r[::-1])[::-1][1:]
    terms = np.abs(stage_one_terms(xd))
    roots = np.sqrt(terms)
    delta = 1e-9 * row_scale
    ratio = np.divide(delta, roots, out=np.full_like(delta, np.inf), where=roots > 0)
    carried = np.minimum(np.sqrt(delta), ratio)
    return 1e-9 * (abs_pair_sum(xd) + abs_pair_sum(terms)) + float(np.sum(carried * (roots.sum() - roots)))


# Apertures of 3..128 elements: zeros and samples of either sign with
# magnitudes spanning thirteen decades, so no pair product under- or
# overflows; derandomized so every run draws the same examples.
samples = st.one_of(
    st.just(0.0),
    st.builds(lambda sign, mantissa, exponent: sign * mantissa * 10.0**exponent,
              st.sampled_from((-1.0, 1.0)), st.floats(1.0, 10.0), st.integers(-6, 6)),
)
apertures = st.integers(3, 128).flatmap(
    lambda m: st.lists(samples, min_size=m, max_size=m)
).map(np.array)
property_settings = settings(max_examples=30, derandomize=True, database=None, deadline=None)

# The last sample is -(sqrt(12) + sqrt(26))**2, so stage-one term 0 is
# rounding noise (-8.9e-15) and the double-stage output differs from the
# expansion by 7.5 times 1e-9 of the two stages' absolute pair terms.
CANCELLING_TERM = np.array([100.0, 12.0, 26.0, -73.32704346531139])

# One element dominates by thirteen decades, the widest spread the sampled
# apertures draw: the closed-form pair sum subtracts two squares of about
# 1e7 to leave a pair sum of about -3.
DOMINANT_ELEMENT = np.array([1e7, -1e-6, 0.0])


class TestKernelProperties:
    @property_settings
    @given(apertures)
    @example(DOMINANT_ELEMENT)
    def test_fast_dmas_matches_naive(self, xd):
        assert abs(beamform_pixel(xd, BeamformerKind.DMAS) - dmas_pixel_naive(xd)) <= 1e-9 * abs_pair_sum(xd)

    @property_settings
    @given(apertures)
    def test_stage_one_terms_sum_to_dmas(self, xd):
        total = float(stage_one_terms(xd).sum())
        assert abs(total - dmas_pixel_naive(xd)) <= 1e-9 * abs_pair_sum(xd)

    @property_settings
    @given(apertures)
    @example(CANCELLING_TERM)
    @example(DOMINANT_ELEMENT)
    def test_dsdmas_matches_expansion_oracle(self, xd):
        assert abs(beamform_pixel(xd, BeamformerKind.DSDMAS) - dsdmas_expansion_oracle(xd)) <= dsdmas_tolerance(xd)


class TestDas:
    def test_zeros(self):
        assert beamform_pixel(np.zeros(8), BeamformerKind.DAS) == 0.0

    def test_constant_vector(self):
        assert beamform_pixel(np.full(5, 1.75), BeamformerKind.DAS) == pytest.approx(5 * 1.75, rel=1e-15)

    def test_matches_shuffled_summation_oracle(self):
        rng = np.random.default_rng(11)
        xd = rng.uniform(-1, 1, 16)
        perm = rng.permutation(16)
        oracle = sum(float(xd[k]) for k in perm)
        assert beamform_pixel(xd, BeamformerKind.DAS) == pytest.approx(oracle, rel=1e-12)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            beamform_pixel(np.array([]), BeamformerKind.DAS)


class TestDmas:
    def test_two_element_positive(self):
        assert dmas_pixel_naive(np.array([4.0, 9.0])) == pytest.approx(6.0)
        assert beamform_pixel(np.array([4.0, 9.0]), BeamformerKind.DMAS) == pytest.approx(6.0)

    def test_two_element_negative(self):
        assert dmas_pixel_naive(np.array([4.0, -9.0])) == pytest.approx(-6.0)

    def test_constant_vector_counts_pairs(self):
        # 8 identical nonnegative samples: C(8,2) = 28 pairs of value a
        assert dmas_pixel_naive(np.full(8, 0.5)) == pytest.approx(28 * 0.5)

    def test_single_nonzero_entry_gives_zero(self):
        xd = np.zeros(9)
        xd[4] = 3.7
        assert beamform_pixel(xd, BeamformerKind.DMAS) == 0.0

    def test_all_negative_inputs_give_positive_output(self):
        rng = np.random.default_rng(2)
        xd = -np.abs(rng.uniform(0.1, 2.0, 12))
        assert dmas_pixel_naive(xd) > 0
        assert beamform_pixel(xd, BeamformerKind.DMAS) > 0

    def test_fast_matches_naive(self):
        rng = np.random.default_rng(1)
        for m in range(2, 33):
            for _ in range(10):
                xd = rng.uniform(-1, 1, m)
                naive = dmas_pixel_naive(xd)
                fast = beamform_pixel(xd, BeamformerKind.DMAS)
                assert abs(fast - naive) <= 1e-9 * (1 + abs(naive))

    def test_scale_covariance_nonnegative_alpha(self):
        rng = np.random.default_rng(9)
        xd = rng.uniform(-1, 1, 10)
        for alpha in rng.uniform(0, 10, 5):
            assert beamform_pixel(alpha * xd, BeamformerKind.DMAS) == pytest.approx(
                alpha * beamform_pixel(xd, BeamformerKind.DMAS), rel=1e-9, abs=1e-12
            )

    def test_rejects_single_element(self):
        with pytest.raises(ValueError):
            dmas_pixel_naive(np.array([1.0]))
        with pytest.raises(ValueError):
            beamform_pixel(np.array([1.0]), BeamformerKind.DMAS)


class TestStageOne:
    def test_unit_vector(self):
        t = stage_one_terms(np.ones(3))
        assert np.allclose(t, [2.0, 1.0])
        assert t.sum() == pytest.approx(3.0)  # C(3,2) unit pairs

    def test_zeros(self):
        assert np.array_equal(stage_one_terms(np.zeros(6)), np.zeros(5))

    def test_sum_equals_dmas(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            xd = rng.uniform(-1, 1, 4)
            naive = dmas_pixel_naive(xd)
            assert abs(stage_one_terms(xd).sum() - naive) <= 1e-9 * (1 + abs(naive))

    def test_rejects_small_apertures(self):
        with pytest.raises(ValueError):
            stage_one_terms(np.array([1.0, 2.0]))


class TestDsdmas:
    def test_unit_three_element(self):
        # terms (2, 1) -> signed sqrts (sqrt(2), 1) -> single pair product
        assert beamform_pixel(np.ones(3), BeamformerKind.DSDMAS) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_zeros(self):
        assert beamform_pixel(np.zeros(5), BeamformerKind.DSDMAS) == 0.0

    def test_matches_expansion_oracle(self):
        rng = np.random.default_rng(6)
        for m in range(3, 17):
            for _ in range(10):
                xd = rng.uniform(-1, 1, m)
                oracle = dsdmas_expansion_oracle(xd)
                assert abs(beamform_pixel(xd, BeamformerKind.DSDMAS) - oracle) <= 1e-9 * (1 + abs(oracle))

    def test_scale_covariance_nonnegative_alpha(self):
        rng = np.random.default_rng(8)
        xd = rng.uniform(-1, 1, 9)
        for alpha in rng.uniform(0, 10, 5):
            assert beamform_pixel(alpha * xd, BeamformerKind.DSDMAS) == pytest.approx(
                alpha * beamform_pixel(xd, BeamformerKind.DSDMAS), rel=1e-9, abs=1e-12
            )

    def test_rejects_two_elements(self):
        with pytest.raises(ValueError):
            beamform_pixel(np.array([1.0, 2.0]), BeamformerKind.DSDMAS)


class TestOpCount:
    def test_closed_forms(self):
        for m in range(2, 129):
            assert op_count(BeamformerKind.DAS, m).total == m
            assert op_count(BeamformerKind.DMAS, m).total == m * (m - 1) // 2 + 2 * (m - 1)
            if m >= 3:
                assert op_count(BeamformerKind.DSDMAS, m).total == m * (m - 1) + 3 * (m - 1)

    def test_reference_values_at_128(self):
        assert op_count(BeamformerKind.DAS, 128).total == 128
        assert op_count(BeamformerKind.DMAS, 128).total == 8382
        assert op_count(BeamformerKind.DSDMAS, 128).total == 16637

    def test_totals_decompose(self):
        ops = op_count(BeamformerKind.DSDMAS, 16)
        assert ops.total == ops.multiplies + ops.special_ops

    def test_preconditions(self):
        with pytest.raises(ValueError):
            op_count(BeamformerKind.DMAS, 1)
        with pytest.raises(ValueError):
            op_count(BeamformerKind.DSDMAS, 2)

    @staticmethod
    def op_count_message(kind, size):
        with pytest.raises(ValueError) as stated:
            op_count(kind, size)
        return f"^{re.escape(str(stated.value))}$"

    @pytest.mark.parametrize(
        "kind,size", [(BeamformerKind.DAS, 0), (BeamformerKind.DMAS, 1), (BeamformerKind.DSDMAS, 2)]
    )
    def test_too_short_vectors_raise_the_op_count_message(self, kind, size):
        with pytest.raises(ValueError, match=self.op_count_message(kind, size)):
            beamform_pixel(np.ones(size), kind)

    @pytest.mark.parametrize(
        "reference_fn,kind,size",
        [(dmas_pixel_naive, BeamformerKind.DMAS, 1), (stage_one_terms, BeamformerKind.DSDMAS, 2)],
    )
    def test_too_short_vectors_raise_the_op_count_message_in_references(self, reference_fn, kind, size):
        with pytest.raises(ValueError, match=self.op_count_message(kind, size)):
            reference_fn(np.ones(size))


class TestBeamformImage:
    @pytest.fixture()
    def scene(self):
        rng = np.random.default_rng(12)
        geom = linear_array(8, 0.3e-3)
        frame = RfFrame(samples=rng.normal(size=(8, 200)), fs=100e6, f0=3e6, geometry=geom)
        grid = ImageGrid(x_min=-1e-3, x_max=1e-3, z_min=0.5e-3, z_max=1.4e-3, nx=5, nz=7)
        delays = compute_delays(geom, grid, frame.fs)
        return frame, delays

    @pytest.mark.parametrize("kind", list(BeamformerKind))
    def test_matches_per_pixel_kernels(self, scene, kind):
        frame, delays = scene
        image, ops = beamform_image(frame, delays, kind)
        nz, nx, _ = delays.values.shape
        assert image.shape == (nz, nx)
        assert ops == op_count(kind, frame.element_count)
        for i in range(nz):
            for j in range(nx):
                xd = fetch_delayed(frame, delays.values[i, j])
                expected = beamform_pixel(xd, kind)
                assert image[i, j] == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_never_builds_the_full_table(self, scene, monkeypatch):
        frame, delays = scene
        table = delays.values

        def forbidden(_):
            raise AssertionError("beamform_image read DelayTable.values")

        monkeypatch.setattr(DelayTable, "values", property(forbidden))
        image, _ = beamform_image(frame, delays, BeamformerKind.DAS)
        for j in range(table.shape[1]):
            gathered = fetch_delayed(frame, table[:, j, :])
            # element by element, the order of the kernel's axis-0 reduction
            expected = gathered[:, 0].copy()
            for i in range(1, gathered.shape[1]):
                expected += gathered[:, i]
            assert np.array_equal(image[:, j], expected)

    def test_gathers_element_major_blocks(self, scene):
        frame, delays = scene
        for j in range(delays.grid.nx):
            assert fetch_delayed(frame, delays.column(j)).T.flags.c_contiguous

    def test_rejects_mismatched_frame(self, scene):
        _, delays = scene
        other = RfFrame(samples=np.zeros((5, 50)), fs=100e6, f0=3e6, geometry=linear_array(5, 0.3e-3))
        with pytest.raises(ValueError):
            beamform_image(other, delays, BeamformerKind.DAS)

    def test_rejects_mismatched_sampling_rate(self, scene):
        frame, delays = scene
        slower = RfFrame(samples=frame.samples, fs=50e6, f0=3e6, geometry=frame.geometry)
        with pytest.raises(ValueError, match=r"fs=1e\+08 Hz, frame sampled at fs=5e\+07 Hz"):
            beamform_image(slower, delays, BeamformerKind.DAS)

    def test_rejects_mismatched_sound_speed(self, scene):
        frame, delays = scene
        slow = compute_delays(linear_array(8, 0.3e-3, sound_speed=1400.0), delays.grid, frame.fs)
        with pytest.raises(ValueError, match=r"sound_speed=1400\.0\), frame recorded by .*sound_speed=1540\.0\)$"):
            beamform_image(frame, slow, BeamformerKind.DAS)

    def test_rejects_a_table_for_another_pitch_before_any_gather(self, scene, monkeypatch):
        frame, delays = scene
        narrow = compute_delays(linear_array(8, 0.2e-3), delays.grid, frame.fs)
        calls = []
        monkeypatch.setattr(beamformers, "fetch_delayed", lambda *args: calls.append(args))
        with pytest.raises(
            ValueError,
            match=re.escape(
                "delay table built for ArrayGeometry(element_count=8, pitch=0.0002, sound_speed=1540.0), "
                "frame recorded by ArrayGeometry(element_count=8, pitch=0.0003, sound_speed=1540.0)"
            ),
        ):
            beamform_image(frame, narrow, BeamformerKind.DAS)
        assert calls == []

    @pytest.fixture()
    def single_column_scene(self, scene):
        frame, delays = scene
        grid = ImageGrid(x_min=0.2e-3, x_max=0.2e-3, z_min=0.5e-3, z_max=1.4e-3, nx=1, nz=7)
        return frame, compute_delays(delays.geometry, grid, frame.fs)

    @pytest.mark.parametrize("scene_name", ["scene", "single_column_scene"])
    @pytest.mark.parametrize("kind", list(BeamformerKind))
    def test_output_does_not_depend_on_worker_count(self, request, scene_name, kind, cpus):
        frame, delays = request.getfixturevalue(scene_name)
        default, _ = beamform_image(frame, delays, kind)
        cpus(1)
        serial, _ = beamform_image(frame, delays, kind)
        assert np.array_equal(default, serial)

    def test_more_workers_than_cores_fill_every_column(self, scene, cpus):
        frame, delays = scene
        cpus(1)
        serial, _ = beamform_image(frame, delays, BeamformerKind.DSDMAS)
        cpus(64)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                image, _ = beamform_image(frame, delays, BeamformerKind.DSDMAS)
                assert np.array_equal(image, serial)
        finally:
            sys.setswitchinterval(interval)

    def test_worker_error_is_raised_after_every_thread_ends(self, scene, monkeypatch, cpus):
        frame, delays = scene
        gather = beamformers.fetch_delayed

        def fails_off_main_thread(frame, block):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("gather failed in a worker")
            return gather(frame, block)

        cpus(2)
        monkeypatch.setattr(beamformers, "fetch_delayed", fails_off_main_thread)
        threads_before = threading.active_count()
        with pytest.raises(ValueError, match="gather failed in a worker"):
            beamform_image(frame, delays, BeamformerKind.DMAS)
        assert threading.active_count() == threads_before

    def test_gathers_each_column_once_through_the_module_global(self, scene, monkeypatch, cpus):
        frame, delays = scene
        gather = beamformers.fetch_delayed
        calls = []

        def counted(frame, block):
            calls.append(block.shape)
            return gather(frame, block)

        cpus(2)
        monkeypatch.setattr(beamformers, "fetch_delayed", counted)
        beamform_image(frame, delays, BeamformerKind.DAS)
        assert len(calls) == delays.grid.nx

    @pytest.mark.parametrize("x_min", [-1e-3, -0.7e-3], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("nx", [6, 7])
    @pytest.mark.parametrize("kind", list(BeamformerKind))
    @pytest.mark.parametrize("workers", [1, 2])
    def test_columns_equal_the_unpaired_reference(self, scene, x_min, nx, kind, workers, cpus):
        frame, _ = scene
        grid = ImageGrid(x_min=x_min, x_max=1e-3, z_min=0.5e-3, z_max=1.4e-3, nx=nx, nz=7)
        delays = compute_delays(frame.geometry, grid, frame.fs)
        assert delays.mirrored == (x_min == -1e-3)
        cpus(workers)
        image, _ = beamform_image(frame, delays, kind)
        kernel = beamformers._KERNELS[kind]
        for j in range(nx):
            assert np.array_equal(image[:, j], kernel(fetch_delayed(frame, delays.column(j)).T))

    @pytest.mark.parametrize("x_min,computed", [(-1e-3, 3), (-0.7e-3, 5)], ids=["centred", "off-centre"])
    def test_computes_one_delay_block_per_mirror_pair(self, scene, monkeypatch, x_min, computed):
        frame, _ = scene
        grid = ImageGrid(x_min=x_min, x_max=1e-3, z_min=0.5e-3, z_max=1.4e-3, nx=5, nz=7)
        delays = compute_delays(frame.geometry, grid, frame.fs)
        column = DelayTable.column
        calls = []

        def counted(table, j):
            calls.append(j)
            return column(table, j)

        monkeypatch.setattr(DelayTable, "column", counted)
        beamform_image(frame, delays, BeamformerKind.DAS)
        assert sorted(calls) == list(range(computed))

    def test_propagates_kernel_preconditions(self):
        geom = linear_array(2, 0.3e-3)
        frame = RfFrame(samples=np.zeros((2, 50)), fs=100e6, f0=3e6, geometry=geom)
        grid = ImageGrid(x_min=0.0, x_max=0.0, z_min=1e-3, z_max=1e-3, nx=1, nz=1)
        delays = compute_delays(geom, grid, frame.fs)
        with pytest.raises(ValueError):
            beamform_image(frame, delays, BeamformerKind.DSDMAS)
