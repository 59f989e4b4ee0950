"""Niblack and Sauvola against the integral-image statistics they replaced.

`integral_window_mean_std` is the earlier implementation: full-page int64
integral images of the values and their squares, read by four-term box
gathers. The column-tile sweep sums the same exact integers and then takes
the same float64 steps, so its masks must match the reference byte for byte.
The reference lives here rather than in `oracles.py` so that it is compiled
only by the tests.
"""

import numpy as np
import pytest

from conftest import make_text_patch
from oracles import naive_window_stats

from scrollbin import classical
from scrollbin.classical import niblack, sauvola
from scrollbin.imagecore import GrayImage


def _window_bounds(size, half):
    half = min(half, size)
    idx = np.arange(size)
    return np.clip(idx - half, 0, size), np.clip(idx + half + 1, 0, size)


def integral_window_mean_std(pixels, window):
    half = window // 2
    h, w = pixels.shape
    vals = pixels.astype(np.int64)

    integral = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral_sq = np.zeros((h + 1, w + 1), dtype=np.int64)
    integral[1:, 1:] = vals.cumsum(0).cumsum(1)
    integral_sq[1:, 1:] = (vals * vals).cumsum(0).cumsum(1)

    y0, y1 = _window_bounds(h, half)
    x0, x1 = _window_bounds(w, half)
    count = (y1 - y0)[:, None] * (x1 - x0)[None, :]

    def box(table):
        return (
            table[y1[:, None], x1[None, :]]
            - table[y0[:, None], x1[None, :]]
            - table[y1[:, None], x0[None, :]]
            + table[y0[:, None], x0[None, :]]
        )

    total = box(integral).astype(np.float64)
    total_sq = box(integral_sq).astype(np.float64)
    mean = total / count
    var = np.maximum(total_sq / count - mean * mean, 0.0)
    return mean, np.sqrt(var)


def reference_masks(px, window, k_niblack=-0.2, k_sauvola=0.5, r=128.0):
    mean, std = integral_window_mean_std(px, window)
    values = px.astype(np.float64)
    return values <= mean + k_niblack * std, values <= mean * (1.0 + k_sauvola * (std / r - 1.0))


def assert_matches_reference(px, window):
    nib, sau = reference_masks(px, window)
    assert np.array_equal(niblack(GrayImage(px), window).ink, nib), (px.shape, window)
    assert np.array_equal(sauvola(GrayImage(px), window).ink, sau), (px.shape, window)


def test_reference_matches_naive_stats():
    rng = np.random.default_rng(10)
    px = rng.integers(0, 256, (32, 32), dtype=np.uint8)
    mean, std = integral_window_mean_std(px, 7)
    nmean, nstd = naive_window_stats(px, 7)
    assert np.max(np.abs(mean - nmean)) < 1e-6
    assert np.max(np.abs(std - nstd)) < 1e-6


@pytest.mark.parametrize("window", [3, 4, 71, 301, 10**6])
def test_masks_match_integral_reference(window):
    rng = np.random.default_rng(21)
    text, _ = make_text_patch(rng, size=330)
    pages = [
        text.pixels[:250],
        rng.integers(0, 256, (250, 330), dtype=np.uint8),
        rng.integers(0, 256, (40, 3608), dtype=np.uint8),  # ten tiles
        rng.integers(0, 256, (1, 9), dtype=np.uint8),
        rng.integers(0, 256, (40, 1), dtype=np.uint8),
        np.full((17, 23), 99, dtype=np.uint8),
    ]
    for px in pages:
        assert_matches_reference(px, window)


@pytest.mark.parametrize("tile", [4, 7])
def test_masks_match_integral_reference_across_tile_edges(monkeypatch, tile):
    monkeypatch.setattr(classical, "TILE", tile)
    rng = np.random.default_rng(22 + tile)
    for _ in range(30):
        px = rng.integers(0, 256, tuple(rng.integers(1, 30, 2)), dtype=np.uint8)
        assert_matches_reference(px, int(rng.integers(3, 41)))
