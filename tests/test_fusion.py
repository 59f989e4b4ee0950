import numpy as np
import pytest

from scrollbin.errors import DimensionMismatchError
from scrollbin.fusion import fuse_bands
from scrollbin.imagecore import GrayImage


def gray(arr):
    return GrayImage(np.asarray(arr, dtype=np.uint8))


def test_identical_bands_render_gray():
    rng = np.random.default_rng(0)
    band = gray(rng.integers(0, 256, (6, 5)))
    fused = fuse_bands(band, band, band)
    assert np.array_equal(fused.pixels[:, :, 0], fused.pixels[:, :, 1])
    assert np.array_equal(fused.pixels[:, :, 1], fused.pixels[:, :, 2])


def test_pure_red():
    full = gray(np.full((3, 3), 255))
    dark = gray(np.zeros((3, 3)))
    fused = fuse_bands(full, dark, dark)
    assert np.all(fused.pixels[:, :, 0] == 255)
    assert np.all(fused.pixels[:, :, 1:] == 0)


def test_channel_projection_recovers_inputs():
    rng = np.random.default_rng(1)
    bands = [gray(rng.integers(0, 256, (7, 4))) for _ in range(3)]
    fused = fuse_bands(*bands)
    for c in range(3):
        assert np.array_equal(fused.pixels[:, :, c], bands[c].pixels)


def test_mismatch_names_offending_band():
    a = gray(np.zeros((4, 4)))
    b = gray(np.zeros((4, 5)))
    with pytest.raises(DimensionMismatchError, match="band g"):
        fuse_bands(a, b, a)
    with pytest.raises(DimensionMismatchError, match="band b"):
        fuse_bands(a, a, b)
