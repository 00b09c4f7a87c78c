import re

import numpy as np
import pytest

from usbeam import (
    ImageGrid,
    LateralProfile,
    RegionShape,
    RegionSpec,
    cr,
    fwhm,
    gcnr,
    lateral_profile,
    log_compress,
    sidelobe_level,
    snr_region,
)

GRID = ImageGrid(x_min=-10e-3, x_max=10e-3, z_min=10e-3, z_max=50e-3, nx=41, nz=81)


def profile_from_amplitude(x, amp, depth=0.03):
    with np.errstate(divide="ignore"):
        db = 20 * np.log10(np.asarray(amp) / np.max(amp))
    return LateralProfile(depth=depth, x=np.asarray(x), value_db=db)


class TestRegions:
    def test_rect_mask_extent(self):
        region = RegionSpec.rect(0.0, 30e-3, 2e-3, 4e-3)
        mask = region.mask(GRID)
        xs, zs = GRID.x_axis, GRID.z_axis
        inside = mask.nonzero()
        assert np.all(np.abs(xs[inside[1]]) <= 2e-3 + 1e-12)
        assert np.all(np.abs(zs[inside[0]] - 30e-3) <= 4e-3 + 1e-12)

    def test_disc_mask(self):
        region = RegionSpec.disc(0.0, 30e-3, 3e-3)
        mask = region.mask(GRID)
        xs = np.broadcast_to(GRID.x_axis[None, :], mask.shape)
        zs = np.broadcast_to(GRID.z_axis[:, None], mask.shape)
        r2 = (xs - 0.0) ** 2 + (zs - 30e-3) ** 2
        assert np.all(r2[mask] <= 9e-6 + 1e-15)

    def test_region_outside_grid_rejected(self):
        with pytest.raises(ValueError):
            RegionSpec.rect(9e-3, 30e-3, 2e-3, 2e-3).mask(GRID)
        with pytest.raises(ValueError):
            RegionSpec.disc(0.0, 49e-3, 3e-3).mask(GRID)

    @pytest.mark.parametrize("shape", list(RegionShape))
    @pytest.mark.parametrize("field", ["center_x", "center_z"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_centre_must_be_finite(self, shape, field, bad):
        values = {"center_x": 0.0, "center_z": 30e-3, "half_x": 2e-3, "half_z": 2e-3, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            RegionSpec(shape, **values)

    # a disc reads only half_x, its radius
    @pytest.mark.parametrize("shape,field", [
        (RegionShape.RECT, "half_x"), (RegionShape.RECT, "half_z"), (RegionShape.DISC, "half_x"),
    ])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 0.0, -2e-3])
    def test_extent_must_be_finite_and_positive(self, shape, field, bad):
        values = {"center_x": 0.0, "center_z": 30e-3, "half_x": 2e-3, "half_z": 2e-3, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite and positive"):
            RegionSpec(shape, **values)


class TestRegionSnr:
    def test_reference_value(self):
        # scale region pixels so (max - min) is exactly 10x the std: 20 dB
        img = np.zeros((81, 41))
        region = RegionSpec.rect(0.0, 30e-3, 4e-3, 8e-3)
        mask = region.mask(GRID)
        pixels = np.full(mask.sum(), 0.5)
        pixels[0], pixels[1] = 1.0, 0.0
        pixels = 0.5 + (pixels - 0.5) * (0.1 / np.std(pixels))
        img[mask] = pixels
        spread = pixels.max() - pixels.min()
        assert np.std(pixels) == pytest.approx(0.1, rel=1e-12)
        assert snr_region(img, region, GRID) == pytest.approx(20 * np.log10(spread / 0.1), abs=1e-9)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        img = np.abs(rng.normal(size=(81, 41))) + 0.1
        region = RegionSpec.disc(0.0, 30e-3, 4e-3)
        base = snr_region(img, region, GRID)
        assert snr_region(img * 7.3, region, GRID) == pytest.approx(base, abs=1e-9)

    def test_matches_independent_recomputation(self):
        rng = np.random.default_rng(2)
        img = np.abs(rng.normal(size=(81, 41)))
        region = RegionSpec.rect(-2e-3, 25e-3, 3e-3, 5e-3)
        pixels = img[region.mask(GRID)]
        oracle = 20 * np.log10((pixels.max() - pixels.min()) / pixels.std())
        assert snr_region(img, region, GRID) == pytest.approx(oracle, abs=1e-12)

    def test_zero_variance_is_error(self):
        img = np.ones((81, 41))
        with pytest.raises(ValueError):
            snr_region(img, RegionSpec.rect(0.0, 30e-3, 2e-3, 2e-3), GRID)

    def test_one_pixel_region_is_error(self):
        # GRID's pixels are 0.5 mm apart, so a 0.1 mm half-width holds one
        with pytest.raises(ValueError, match="^region must contain at least 2 pixels$"):
            snr_region(np.ones((81, 41)), RegionSpec.rect(0.0, 30e-3, 0.1e-3, 0.1e-3), GRID)


class TestContrastRatio:
    def test_identical_regions_give_zero(self):
        rng = np.random.default_rng(3)
        img = np.abs(rng.normal(size=(81, 41))) + 0.2
        region = RegionSpec.disc(0.0, 30e-3, 3e-3)
        assert cr(img, region, region, GRID) == 0.0

    def test_reference_ratio(self):
        img = np.full((81, 41), 1.0)
        cyst = RegionSpec.rect(-5e-3, 30e-3, 2e-3, 2e-3)
        img[cyst.mask(GRID)] = 0.1
        bck = RegionSpec.rect(5e-3, 30e-3, 2e-3, 2e-3)
        assert cr(img, cyst, bck, GRID) == pytest.approx(-20.0, abs=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(4)
        img = np.abs(rng.normal(size=(81, 41))) + 0.1
        cyst = RegionSpec.disc(-4e-3, 30e-3, 2e-3)
        bck = RegionSpec.disc(4e-3, 30e-3, 2e-3)
        assert cr(img * 42.0, cyst, bck, GRID) == pytest.approx(cr(img, cyst, bck, GRID), abs=1e-12)

    def test_empty_cyst_is_negative_infinity(self):
        img = np.ones((81, 41))
        cyst = RegionSpec.disc(-4e-3, 30e-3, 2e-3)
        img[cyst.mask(GRID)] = 0.0
        bck = RegionSpec.disc(4e-3, 30e-3, 2e-3)
        assert cr(img, cyst, bck, GRID) == float("-inf")

    def test_zero_background_is_error(self):
        img = np.zeros((81, 41))
        img[0, 0] = 1.0
        cyst = RegionSpec.disc(-4e-3, 30e-3, 2e-3)
        bck = RegionSpec.disc(4e-3, 30e-3, 2e-3)
        with pytest.raises(ValueError):
            cr(img, cyst, bck, GRID)

    @pytest.mark.parametrize("negative,message", [
        ("cyst", "cyst region has negative mean intensity"),
        ("background", "background region has non-positive mean intensity"),
    ])
    def test_negative_region_mean_is_named(self, negative, message):
        regions = {
            "cyst": RegionSpec.disc(-4e-3, 30e-3, 2e-3),
            "background": RegionSpec.disc(4e-3, 30e-3, 2e-3),
        }
        img = np.ones((81, 41))
        img[regions[negative].mask(GRID)] = -1.0
        with pytest.raises(ValueError, match=f"^{message}$"):
            cr(img, regions["cyst"], regions["background"], GRID)

    @pytest.mark.parametrize("empty", ["cyst", "background"])
    def test_region_without_pixels_is_named(self, empty):
        # a 1 um disc midway between pixel columns 0.5 mm apart
        regions = {
            "cyst": RegionSpec.disc(-4e-3, 30e-3, 2e-3),
            "background": RegionSpec.disc(4e-3, 30e-3, 2e-3),
        }
        regions[empty] = RegionSpec.disc(0.25e-3, 30e-3, 1e-6)
        with pytest.raises(ValueError, match=f"^{empty} region contains no pixels$"):
            cr(np.ones((81, 41)), regions["cyst"], regions["background"], GRID)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_region_metrics_refuse_non_finite_pixels(bad):
    img = np.ones((81, 41))
    img[40, 10] = bad  # x = -5 mm, z = 30 mm
    cyst = RegionSpec.disc(-5e-3, 30e-3, 2e-3)
    bck = RegionSpec.disc(5e-3, 30e-3, 2e-3)
    with pytest.raises(ValueError, match="^cyst region holds non-finite pixels$"):
        cr(img, cyst, bck, GRID)
    with pytest.raises(ValueError, match="^background region holds non-finite pixels$"):
        cr(img, bck, cyst, GRID)
    with pytest.raises(ValueError, match="^snr region holds non-finite pixels$"):
        snr_region(img, cyst, GRID)


# Each metric that reads an image on a grid, called on a region or row the
# 81 x 41 grid holds.
ON_GRID = {
    "lateral_profile": lambda img: lateral_profile(img, 30e-3, GRID),
    "snr_region": lambda img: snr_region(img, RegionSpec.disc(0.0, 30e-3, 2e-3), GRID),
    "cr": lambda img: cr(img, RegionSpec.disc(-5e-3, 30e-3, 2e-3), RegionSpec.disc(5e-3, 30e-3, 2e-3), GRID),
    "gcnr": lambda img: gcnr(img, RegionSpec.disc(-5e-3, 30e-3, 2e-3), RegionSpec.disc(5e-3, 30e-3, 2e-3), GRID),
}


# A column short, a row short, transposed and one-dimensional: unchecked, a
# column short pairs 41 positions with 40 profile values
@pytest.mark.parametrize("shape", [(81, 40), (80, 41), (41, 81), (81,)])
@pytest.mark.parametrize("metric", ON_GRID)
def test_metrics_refuse_an_image_that_does_not_match_the_grid(metric, shape):
    message = f"image shape {shape} does not match the grid's (nz, nx) = (81, 41)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ON_GRID[metric](np.ones(shape))


class TestGcnr:
    # two 9 x 9 pixel squares 20 columns apart; the half-widths fall between
    # pixels, so both hold the same number of pixels
    LEFT = RegionSpec.rect(-5e-3, 30e-3, 2.2e-3, 2.2e-3)
    RIGHT = RegionSpec.rect(5e-3, 30e-3, 2.2e-3, 2.2e-3)

    def speckle(self, seed):
        return np.random.default_rng(seed).uniform(0.0, 1.0, size=(81, 41))

    def test_disjoint_uniform_samples_give_one(self):
        img = self.speckle(5)
        right = self.RIGHT.mask(GRID)
        img[right] = np.random.default_rng(6).uniform(2.0, 3.0, size=np.count_nonzero(right))
        assert gcnr(img, self.LEFT, self.RIGHT, GRID) == 1.0

    def test_identical_samples_give_zero(self):
        img = self.speckle(7)
        left, right = self.LEFT.mask(GRID), self.RIGHT.mask(GRID)
        assert np.count_nonzero(left) == np.count_nonzero(right) == 81
        img[right] = img[left][::-1]
        assert gcnr(img, self.LEFT, self.RIGHT, GRID) == 0.0
        assert gcnr(img, self.LEFT, self.LEFT, GRID) == 0.0

    def test_bins_span_both_regions_and_close_the_last(self):
        # 100 bins over [0, 2], the last [1.98, 2] closed: the left square's
        # 40 zeros fall in the first, its 41 2.0s and all of the right
        # square's 2.0s in the last
        img = np.zeros((81, 41))
        img[self.LEFT.mask(GRID)] = np.where(np.arange(81) >= 40, 2.0, 0.0)
        img[self.RIGHT.mask(GRID)] = 2.0
        assert gcnr(img, self.LEFT, self.RIGHT, GRID) == pytest.approx(40 / 81, abs=1e-15)

    def test_scale_invariance(self):
        img = self.speckle(8)
        img[self.RIGHT.mask(GRID)] *= 1.7
        value = gcnr(img, self.LEFT, self.RIGHT, GRID)
        assert 0.0 < value < 1.0
        assert gcnr(img * 42.0, self.LEFT, self.RIGHT, GRID) == value

    def test_rejects_empty_and_non_finite_regions(self):
        empty = RegionSpec.disc(0.25e-3, 30e-3, 1e-6)
        with pytest.raises(ValueError, match="^second region contains no pixels$"):
            gcnr(self.speckle(10), self.LEFT, empty, GRID)
        img = self.speckle(10)
        img[self.LEFT.mask(GRID)] = np.nan
        with pytest.raises(ValueError, match="^first region holds non-finite pixels$"):
            gcnr(img, self.LEFT, self.RIGHT, GRID)


class TestFwhm:
    def test_gaussian_width(self):
        sigma = 0.8e-3
        x = np.linspace(-8e-3, 8e-3, 1601)
        amp = np.exp(-(x**2) / (2 * sigma**2))
        width_mm = fwhm(profile_from_amplitude(x, amp))
        assert width_mm == pytest.approx(2 * np.sqrt(2 * np.log(2)) * sigma * 1e3, rel=0.01)

    def test_rectangular_profile(self):
        x = np.linspace(-5e-3, 5e-3, 201)
        amp = np.where(np.abs(x) <= 1.5e-3, 1.0, 1e-12)
        width_mm = fwhm(profile_from_amplitude(x, amp))
        assert abs(width_mm - 3.0) <= 0.05 + 1e-9  # one sample spacing

    def test_grid_refinement_stability(self):
        def beam(x):
            return np.exp(-(x**2) / (2 * (0.6e-3) ** 2)) + 0.05 * np.exp(
                -((np.abs(x) - 2e-3) ** 2) / (2 * (0.3e-3) ** 2)
            )

        coarse = np.linspace(-6e-3, 6e-3, 301)
        fine = np.linspace(-6e-3, 6e-3, 601)
        w1 = fwhm(profile_from_amplitude(coarse, beam(coarse)))
        w2 = fwhm(profile_from_amplitude(fine, beam(fine)))
        assert abs(w2 - w1) / w1 < 0.02

    def test_db_vs_linear_consistency(self):
        # crossing interpolated in amplitude vs in dB agrees within 2%
        x = np.linspace(-6e-3, 6e-3, 241)
        amp = np.exp(-(x**2) / (2 * (0.7e-3) ** 2))
        width_amp = fwhm(profile_from_amplitude(x, amp))

        db = 20 * np.log10(amp)
        db -= db.max()
        peak = int(np.argmax(db))
        level = -20 * np.log10(2.0)
        k = peak
        while db[k] > level:
            k += 1
        right = x[k - 1] + (x[k] - x[k - 1]) * (level - db[k - 1]) / (db[k] - db[k - 1])
        k = peak
        while db[k] > level:
            k -= 1
        left = x[k + 1] + (x[k] - x[k + 1]) * (level - db[k + 1]) / (db[k] - db[k + 1])
        width_db = (right - left) * 1e3
        assert abs(width_db - width_amp) / width_amp < 0.02

    def test_boundary_peak_is_error(self):
        x = np.linspace(0, 5e-3, 100)
        amp = np.exp(-x / 1e-3)
        with pytest.raises(ValueError):
            fwhm(profile_from_amplitude(x, amp))

    def test_missing_crossing_is_error(self):
        x = np.linspace(-5e-3, 5e-3, 101)
        amp = np.full(101, 0.9)
        amp[50] = 1.0  # peak barely above a high plateau: no half crossing
        with pytest.raises(ValueError):
            fwhm(profile_from_amplitude(x, amp))

    def test_profile_of_two_samples_is_error(self):
        with pytest.raises(ValueError, match="^profile too short$"):
            fwhm(profile_from_amplitude([0.0, 1e-3], [1.0, 0.1]))


class TestLateralProfile:
    @pytest.fixture()
    def db_image(self):
        rng = np.random.default_rng(5)
        env = np.abs(rng.normal(size=(81, 41))) + 0.05
        env[40, 20] = env.max() * 3.0
        return log_compress(env, 200.0)

    def test_extracts_nearest_row(self, db_image):
        depth = 30.2e-3
        profile = lateral_profile(db_image, depth, GRID)
        row = int(np.argmin(np.abs(GRID.z_axis - depth)))
        assert profile.depth == GRID.z_axis[row]
        assert profile.value_db.max() == 0.0

    def test_row_containing_image_max_unchanged_up_to_shift(self, db_image):
        profile = lateral_profile(db_image, GRID.z_axis[40], GRID)
        assert np.array_equal(profile.value_db, db_image[40, :])

    def test_constant_row_normalizes_to_zero(self):
        profile = lateral_profile(np.full((81, 41), -13.0), 30e-3, GRID)
        assert np.array_equal(profile.value_db, np.zeros(41))

    def test_depth_outside_grid_rejected(self, db_image):
        with pytest.raises(ValueError):
            lateral_profile(db_image, 60e-3, GRID)

    def test_nan_depth_rejected(self, db_image):
        with pytest.raises(ValueError, match="^requested depth nan lies outside the grid$"):
            lateral_profile(db_image, np.nan, GRID)


class TestSidelobeLevel:
    def test_two_lobe_profile(self):
        x = np.linspace(-5e-3, 5e-3, 501)
        main = np.exp(-(x**2) / (2 * (0.5e-3) ** 2))
        second = 10 ** (-30 / 20) * np.exp(-((x - 2.5e-3) ** 2) / (2 * (0.3e-3) ** 2))
        level = sidelobe_level(profile_from_amplitude(x, main + second))
        assert level == pytest.approx(-30.0, abs=0.5)

    def test_single_lobe_returns_negative_infinity(self):
        x = np.linspace(-5e-3, 5e-3, 301)
        amp = np.exp(-(x**2) / (2 * (1.0e-3) ** 2))
        assert sidelobe_level(profile_from_amplitude(x, amp)) == float("-inf")

    def test_sinc_squared_first_sidelobe(self):
        x = np.linspace(-6e-3, 6e-3, 2401)
        amp = np.sinc(x / 1.5e-3) ** 2
        level = sidelobe_level(profile_from_amplitude(x, np.maximum(amp, 1e-12)))
        assert level == pytest.approx(-26.5, abs=0.5)

    def test_dip_near_the_apex_stays_in_the_mainlobe(self):
        # a -0.7 dB dip a few samples left of the apex, as on a DMAS wire
        # row, is mainlobe texture and must not end the mainlobe
        x = np.linspace(-5e-3, 5e-3, 501)
        main = np.exp(-(x**2) / (2 * (0.5e-3) ** 2))
        lobe = 10 ** (-25 / 20) * np.exp(-((x - 2.5e-3) ** 2) / (2 * (0.3e-3) ** 2))
        amp = main + lobe
        apex = int(np.argmax(amp))
        amp[apex - 5 : apex - 2] *= 10 ** (-0.7 / 20)
        level = sidelobe_level(profile_from_amplitude(x, amp))
        assert level == pytest.approx(-25.0, abs=0.5)

    def test_propagates_fwhm_errors(self):
        x = np.linspace(0, 5e-3, 100)
        amp = np.exp(-x / 1e-3)
        with pytest.raises(ValueError):
            sidelobe_level(profile_from_amplitude(x, amp))
