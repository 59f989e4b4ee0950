import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import make_text_patch
from oracles import naive_otsu_local_mask, naive_window_stats, otsu_exact, rowwise_otsu_local

from scrollbin import classical
from scrollbin.classical import niblack, otsu_global, otsu_local, sauvola
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


def naive_niblack(px, window, k=-0.2):
    mean, std = naive_window_stats(px, window)
    return px.astype(np.float64) <= mean + k * std


def naive_sauvola(px, window, k=0.5, r=128.0):
    mean, std = naive_window_stats(px, window)
    return px.astype(np.float64) <= mean * (1.0 + k * (std / r - 1.0))


class TestLocalWindowStats:
    """The clamped-window mean and std of Niblack and Sauvola, seen through their masks."""

    def test_masks_match_naive_oracle(self):
        rng = np.random.default_rng(10)
        px = rng.integers(0, 256, (32, 32), dtype=np.uint8)
        assert np.array_equal(niblack(gray(px), 7).ink, naive_niblack(px, 7))
        assert np.array_equal(sauvola(gray(px), 7).ink, naive_sauvola(px, 7))

    def test_window_validation(self):
        img = gray(np.zeros((8, 8)))
        for method in (niblack, sauvola):
            with pytest.raises(ScrollbinError, match="window must be >= 3"):
                method(img, 2)

    def test_even_window_snaps_to_next_odd(self):
        # 90x100 is larger than a 71 window, so 70 and 71 clamp at the edges only
        rng = np.random.default_rng(16)
        img = gray(rng.integers(0, 256, (90, 100)))
        for method in (niblack, sauvola):
            for even in (4, 70):
                assert np.array_equal(method(img, even).ink, method(img, even + 1).ink)
            assert not np.array_equal(method(img, 69).ink, method(img, 71).ink)


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

    def test_k_zero_is_the_window_mean_at_any_r(self):
        # s/R overflowed to inf at a tiny R, and 0 * inf = NaN left no ink
        img = gray(np.random.default_rng(40).integers(0, 256, (40, 50)))
        mask = sauvola(img, window=15, k=0.0, r=1e-308)
        assert mask.ink.any()
        assert np.array_equal(mask.ink, sauvola(img, window=15, k=0.0, r=1.0).ink)


@pytest.mark.parametrize(
    "method, params, ink",
    [(niblack, {"k": 1e308}, True), (niblack, {"k": -1e308}, False),
     (sauvola, {"k": 2.0, "r": 1e-308}, True), (sauvola, {"k": -2.0, "r": 1e-308}, False)],
)
def test_overflowing_threshold_is_its_infinite_limit(method, params, ink):
    # every window varies, so T overflows everywhere; an overflow warning is an error in this suite
    img = gray(np.random.default_rng(41).integers(0, 256, (20, 30)))
    assert (method(img, window=5, **params).ink == ink).all()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "method, param",
    [(niblack, "k"), (sauvola, "k"), (sauvola, "r")],
)
def test_non_finite_parameters_are_rejected(method, param, value):
    # nan gave an all-background mask and inf an all-ink one
    with pytest.raises(ScrollbinError, match="must be finite"):
        method(gray(np.arange(64).reshape(8, 8)), window=3, **{param: value})


@pytest.mark.parametrize("method", [otsu_local, niblack, sauvola])
def test_window_beyond_the_image_clamps(method):
    rng = np.random.default_rng(17)
    img = gray(rng.integers(0, 256, (9, 13)))
    full = method(img, window=2 * 13 + 1)
    for window in (2 * 13 + 3, 10**6, 10**20):
        assert np.array_equal(method(img, window=window).ink, full.ink)


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

    # Tiles of 4 and 7 columns make these <= 20-px images cross tile edges.
    @pytest.mark.parametrize("tile", [4, 7])
    @settings(max_examples=40, deadline=None)
    @given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))), st.integers(3, 41))
    @example(np.arange(0, 240, 7, dtype=np.uint8).reshape(5, 7), 4)
    @example(np.arange(0, 240, 20, dtype=np.uint8).reshape(3, 4), 40)
    def test_matches_naive_oracle_across_tile_edges(self, tile, px, window):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classical, "TILE", tile)
            mask = otsu_local(gray(px), window=window)
        assert np.array_equal(mask.ink, naive_otsu_local_mask(px, window))

    def test_memory_is_per_row(self):
        rng = np.random.default_rng(14)
        # The row-wide sweep held 64 MB on the 3608-wide page.
        for shape, limit_mb in (((250, 330), 32), ((40, 3608), 8)):
            img = gray(rng.integers(0, 256, shape))
            tracemalloc.start()
            try:
                otsu_local(img, window=71)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < limit_mb * 1024 * 1024, shape

    @pytest.mark.parametrize("window", [3, 71, classical.TILE + 17])
    def test_matches_rowwise_reference_across_tiles(self, window):
        rng = np.random.default_rng(18)
        width = 2 * classical.TILE + 132  # three tiles
        pages = [rng.integers(0, 256, (30, width), dtype=np.uint8)]
        text, _ = make_text_patch(rng, size=width)
        pages.append(text.pixels[:30])
        banded = rng.integers(0, 256, (30, width), dtype=np.uint8)
        banded[:, : classical.TILE + 100] = 77  # a whole tile and its windows constant
        pages.append(banded)
        pages += [rng.integers(0, 256, (1, width), dtype=np.uint8), rng.integers(0, 256, (width, 1), dtype=np.uint8)]
        for px in pages:
            mask = otsu_local(gray(px), window=window)
            assert np.array_equal(mask.ink, rowwise_otsu_local(px, window))

    def test_int64_sweep_matches_rowwise_reference(self, monkeypatch):
        monkeypatch.setattr(classical, "_sweep_dtypes", lambda area, table_px: (np.int64, np.int64))
        monkeypatch.setattr(classical, "TILE", 7)
        rng = np.random.default_rng(19)
        px = rng.integers(0, 256, (12, 30), dtype=np.uint8)
        px[:, :12] = 200
        for window in (3, 9, 99):
            assert np.array_equal(otsu_local(gray(px), window=window).ink, rowwise_otsu_local(px, window))

    def test_sweep_dtypes_at_their_bounds(self):
        exact = math.isqrt((2**53 - 1) // 255)  # largest area with 255 * area**2 < 2**53
        assert 255 * exact**2 < 2**53 <= 255 * (exact + 1) ** 2
        fast, wide = (np.int32, np.float64), (np.int64, np.int64)
        assert classical._sweep_dtypes(exact, 2**31 - 1) == fast
        assert classical._sweep_dtypes(exact + 1, 1) == wide
        assert classical._sweep_dtypes(1, 2**31) == wide

    @pytest.mark.parametrize(
        "shape, window, area, table_px",
        [((20, 30), 7, 7 * 7, 7 * 30), ((20, 30), 999, 20 * 30, 20 * 30), ((5, 900), 3, 3 * 3, 3 * (classical.TILE + 2))],
    )
    def test_sweep_dtypes_follow_the_window_area(self, monkeypatch, shape, window, area, table_px):
        seen = []
        real = classical._sweep_dtypes
        monkeypatch.setattr(classical, "_sweep_dtypes", lambda *args: seen.append(args) or real(*args))
        otsu_local(gray(np.zeros(shape)), window=window)
        assert seen == [(area, table_px)]


def test_interior_pixels_unaffected_by_clamping():
    # pixels whose 5x5 window lies inside the image threshold on the
    # statistics of that whole window
    rng = np.random.default_rng(15)
    px = rng.integers(0, 256, (20, 20), dtype=np.uint8)
    nib, sau = niblack(gray(px), 5).ink, sauvola(gray(px), 5).ink
    for y in range(2, 18):
        for x in range(2, 18):
            win = px[y - 2 : y + 3, x - 2 : x + 3].astype(np.float64)
            mean = win.mean()
            std = math.sqrt(max(0.0, (win * win).mean() - mean * mean))
            assert nib[y, x] == (px[y, x] <= mean - 0.2 * std)
            assert sau[y, x] == (px[y, x] <= mean * (1.0 + 0.5 * (std / 128.0 - 1.0)))


# Tiles of 4 and 7 columns make these <= 20-px images cross tile edges.
@pytest.mark.parametrize("tile", [4, 7])
@settings(max_examples=40, deadline=None)
@given(arrays(np.uint8, st.tuples(st.integers(1, 20), st.integers(1, 20))), st.integers(3, 41))
@example(np.arange(0, 240, 7, dtype=np.uint8).reshape(5, 7), 4)
@example(np.arange(0, 240, 20, dtype=np.uint8).reshape(3, 4), 40)
def test_niblack_and_sauvola_match_naive_oracle_across_tile_edges(tile, px, window):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classical, "TILE", tile)
        nib, sau = niblack(gray(px), window).ink, sauvola(gray(px), window).ink
    assert np.array_equal(nib, naive_niblack(px, window))
    assert np.array_equal(sau, naive_sauvola(px, window))


@pytest.mark.parametrize("window", [3, 71, 301])
def test_niblack_and_sauvola_memory_per_pixel(window):
    # The full-page integral images this sweep replaced peaked at 72 B/px,
    # and whole-height column tiles at 57 B/px on a 3608x300 page.
    rng = np.random.default_rng(20)
    for shape in ((120, 3608), (3608, 120)):
        img = gray(rng.integers(0, 256, shape))
        for method in (niblack, sauvola):
            tracemalloc.start()
            try:
                method(img, window)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 16 * img.pixels.size, (method.__name__, shape)

