import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import naive_otsu_local_mask, naive_window_stats, otsu_exact

from scrollbin.classical import niblack, otsu_global, otsu_local, sauvola, window_mean_std
from scrollbin.errors import ScrollbinError
from scrollbin.imagecore import GrayImage


def gray(arr):
    return GrayImage(np.asarray(arr, dtype=np.uint8))


class TestOtsuGlobal:
    def test_perfect_bimodal(self):
        values = np.array([0] * 50 + [255] * 50, dtype=np.uint8).reshape(10, 10)
        t, mask = otsu_global(gray(values))
        assert np.array_equal(mask.ink, values == 0)
        assert t == 0  # ties broken toward the smallest threshold

    def test_constant_image_degenerates(self):
        t, mask = otsu_global(gray(np.full((5, 5), 131)))
        assert t == 0
        assert not mask.ink.any()

    def test_matches_exact_bruteforce(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            px = rng.integers(0, 256, (16, 16), dtype=np.uint8)
            t, mask = otsu_global(gray(px))
            assert t == otsu_exact(px)
            assert np.array_equal(mask.ink, px <= t)

    def test_matches_bruteforce_on_narrow_ranges(self):
        rng = np.random.default_rng(8)
        for lo, hi in ((0, 4), (100, 110), (250, 256)):
            for _ in range(20):
                px = rng.integers(lo, hi, (8, 8), dtype=np.uint8)
                t, mask = otsu_global(gray(px))
                expected = otsu_exact(px)
                if expected is None:
                    assert t == 0 and not mask.ink.any()
                else:
                    assert t == expected

    def test_inversion_complements_mask(self):
        # clearly bimodal images: the maximizing partition is unique, so
        # thresholding the inverted image selects the complementary classes
        rng = np.random.default_rng(9)
        for _ in range(20):
            low = rng.integers(0, 60, (12, 12), dtype=np.uint8)
            high = rng.integers(180, 256, (12, 12), dtype=np.uint8)
            px = np.where(rng.random((12, 12)) < 0.5, low, high)
            _, mask = otsu_global(gray(px))
            _, mask_inv = otsu_global(gray(255 - px))
            assert np.array_equal(mask_inv.ink, ~mask.ink)


class TestLocalWindowStats:
    def test_integral_matches_naive(self):
        rng = np.random.default_rng(10)
        px = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        mean, std = window_mean_std(gray(px), 7)
        nmean, nstd = naive_window_stats(px, 7)
        assert np.max(np.abs(mean - nmean)) < 1e-6
        assert np.max(np.abs(std - nstd)) < 1e-6

    def test_window_validation(self):
        img = gray(np.zeros((8, 8)))
        with pytest.raises(ScrollbinError):
            window_mean_std(img, 2)

    def test_even_window_snaps_to_next_odd(self):
        rng = np.random.default_rng(16)
        img = gray(rng.integers(0, 256, (12, 12)))
        even_mean, even_std = window_mean_std(img, 70)
        odd_mean, odd_std = window_mean_std(img, 71)
        assert np.array_equal(even_mean, odd_mean)
        assert np.array_equal(even_std, odd_std)


class TestNiblack:
    def test_constant_image_is_all_ink(self):
        mask = niblack(gray(np.full((9, 9), 77)), window=3)
        assert mask.ink.all()

    def test_three_by_three_hand_case(self):
        # values 0..8; the full window appears only at the center: m=4,
        # s=sqrt(60/9), T ~ 3.484; clamped corner/edge windows work out so
        # that exactly the pixels valued 0..3 are ink
        px = np.arange(9, dtype=np.uint8).reshape(3, 3)
        mask = niblack(gray(px), window=3, k=-0.2)
        assert np.array_equal(mask.ink, px <= 3)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(11)
        px = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        mask = niblack(gray(px), window=9)
        mean, std = naive_window_stats(px, 9)
        expected = px.astype(np.float64) <= mean - 0.2 * std
        assert np.array_equal(mask.ink, expected)


class TestSauvola:
    def test_constant_nonzero_is_background(self):
        mask = sauvola(gray(np.full((9, 9), 150)), window=3)
        assert not mask.ink.any()

    def test_all_zero_is_ink(self):
        mask = sauvola(gray(np.zeros((9, 9))), window=3)
        assert mask.ink.all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(12)
        px = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        mask = sauvola(gray(px), window=9, k=0.5, r=128.0)
        mean, std = naive_window_stats(px, 9)
        expected = px.astype(np.float64) <= mean * (1.0 + 0.5 * (std / 128.0 - 1.0))
        assert np.array_equal(mask.ink, expected)

    def test_r_must_be_positive(self):
        with pytest.raises(ScrollbinError):
            sauvola(gray(np.zeros((8, 8))), window=3, r=0.0)


class TestOtsuLocal:
    def test_uniform_image_is_background(self):
        mask = otsu_local(gray(np.full((12, 12), 128)), window=5)
        assert not mask.ink.any()

    def test_two_tone_edges(self):
        # half 0, half 255: windows straddling the boundary split the tones
        # (dark side ink), windows inside a constant region are degenerate
        px = np.zeros((12, 12), dtype=np.uint8)
        px[:, 6:] = 255
        mask = otsu_local(gray(px), window=5)
        assert np.array_equal(mask.ink, naive_otsu_local_mask(px, 5))
        assert mask.ink[:, 4:6].all()  # dark pixels seeing the edge
        assert not mask.ink[:, 6:].any()  # bright side never ink
        assert not mask.ink[:, :4].any()  # deep interior is degenerate

    def test_dark_dot_on_bright_field(self):
        px = np.full((8, 8), 220, dtype=np.uint8)
        px[4, 3] = 15
        mask = otsu_local(gray(px), window=7)
        assert mask.ink[4, 3]
        assert np.array_equal(mask.ink, naive_otsu_local_mask(px, 7))

    def test_matches_naive_oracle_random(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            px = rng.integers(0, 256, (14, 11), dtype=np.uint8)
            mask = otsu_local(gray(px), window=5)
            assert np.array_equal(mask.ink, naive_otsu_local_mask(px, 5))

    @settings(max_examples=40, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))), st.integers(3, 41))
    @example(np.arange(0, 240, 7, dtype=np.uint8).reshape(5, 7), 4)  # even window
    @example(np.arange(0, 240, 20, dtype=np.uint8).reshape(3, 4), 40)  # larger than the image
    def test_matches_naive_oracle_any_image_and_window(self, px, window):
        mask = otsu_local(gray(px), window=window)
        assert np.array_equal(mask.ink, naive_otsu_local_mask(px, window))

    def test_memory_is_per_row(self):
        rng = np.random.default_rng(14)
        img = gray(rng.integers(0, 256, (250, 330)))
        tracemalloc.start()
        try:
            otsu_local(img, window=71)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 1024 * 1024


def test_interior_pixels_unaffected_by_clamping():
    # statistics of fully interior windows match the unclamped computation
    rng = np.random.default_rng(15)
    px = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    mean, std = window_mean_std(gray(px), 5)
    for y in range(2, 18):
        for x in range(2, 18):
            win = px[y - 2 : y + 3, x - 2 : x + 3].astype(np.float64)
            assert abs(mean[y, x] - win.mean()) < 1e-9
            assert abs(std[y, x] - win.std()) < 1e-9
