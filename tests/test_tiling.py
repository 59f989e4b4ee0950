import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from scrollbin import tiling
from scrollbin.errors import ScrollbinError
from scrollbin.imagecore import BinaryMask, GrayImage, RgbImage
from scrollbin.tiling import PatchGrid, reassemble, split


def random_gray(rng, w, h):
    return GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))


def test_fragment_size_gives_165_patches():
    img = GrayImage(np.zeros((3608, 2706), dtype=np.uint8))
    grid = split(img, 256)
    assert grid.rows == 15 and grid.cols == 11
    assert len(grid.patches) == 165
    assert all(p.width == 256 and p.height == 256 for p in grid.patches)


def test_exact_fit_single_patch():
    rng = np.random.default_rng(0)
    img = random_gray(rng, 256, 256)
    grid = split(img, 256)
    assert len(grid.patches) == 1
    assert np.array_equal(grid.patches[0].pixels, img.pixels)


@pytest.mark.parametrize("kind", [GrayImage, RgbImage, BinaryMask])
def test_edge_padding_replicates(kind):
    rng = np.random.default_rng(1)
    shape = (70, 100) + ((3,) if kind is RgbImage else ())
    arr = rng.random(shape) < 0.5 if kind is BinaryMask else rng.integers(0, 256, shape, dtype=np.uint8)
    patch = split(kind(arr), 128).patches[0]
    assert type(patch) is kind
    out = patch.array
    assert np.array_equal(out[:70, :100], arr)
    # right padding copies the last column, bottom padding the last row
    assert np.all(out[:70, 100:] == arr[:, -1:])
    assert np.all(out[70:, :100] == arr[-1:, :])
    assert np.all(out[70:, 100:] == arr[-1, -1])


def test_roundtrip_random_sizes():
    rng = np.random.default_rng(2)
    for _ in range(25):
        w = int(rng.integers(1, 600))
        h = int(rng.integers(1, 600))
        patch = int(rng.integers(1, 300))
        img = random_gray(rng, w, h)
        grid = split(img, patch)
        assert grid.rows == -(-h // patch) and grid.cols == -(-w // patch)
        out = reassemble(grid)
        assert isinstance(out, GrayImage)
        assert np.array_equal(out.pixels, img.pixels)


def test_roundtrip_rgb_and_mask():
    rng = np.random.default_rng(3)
    rgb = RgbImage(rng.integers(0, 256, (70, 45, 3), dtype=np.uint8))
    assert np.array_equal(reassemble(split(rgb, 32)).pixels, rgb.pixels)
    mask = BinaryMask(rng.random((70, 45)) < 0.5)
    assert np.array_equal(reassemble(split(mask, 32)).ink, mask.ink)


def test_locality_of_patch_edits():
    rng = np.random.default_rng(4)
    img = random_gray(rng, 300, 300)
    grid = split(img, 128)
    edited = [BinaryMask(np.zeros((128, 128), dtype=bool)) for _ in grid.patches]
    target = 1 * grid.cols + 2  # row 1, col 2
    edited[target] = BinaryMask(np.ones((128, 128), dtype=bool))
    out = reassemble(replace(grid, patches=edited))
    assert isinstance(out, BinaryMask)
    expect = np.zeros((300, 300), dtype=bool)
    expect[128:256, 256:300] = True
    assert np.array_equal(out.ink, expect)


def test_reassemble_validates_grid():
    rng = np.random.default_rng(5)
    grid = split(random_gray(rng, 100, 100), 64)
    with pytest.raises(ScrollbinError):
        reassemble(replace(grid, patches=grid.patches[:-1]))
    bad = list(grid.patches)
    bad[0] = GrayImage(np.zeros((32, 32), dtype=np.uint8))
    with pytest.raises(ScrollbinError):
        reassemble(replace(grid, patches=bad))


@pytest.mark.parametrize("width,height", [(0, 40), (-5, 40), (53, 0)])
def test_reassemble_rejects_empty_image(width, height):
    grid = split(GrayImage(np.zeros((37, 53), dtype=np.uint8)), 16)
    sized = PatchGrid(16, grid.rows, grid.cols, width, height, grid.patches)
    with pytest.raises(ScrollbinError, match="at least 1x1"):
        reassemble(sized)
    with pytest.raises(ScrollbinError, match="no patches"):
        reassemble(PatchGrid(16, 0, 0, 53, 37, []))


def test_patch_size_must_be_positive():
    with pytest.raises(ScrollbinError):
        split(GrayImage(np.zeros((4, 4), dtype=np.uint8)), 0)


@pytest.mark.parametrize("patch", [100_000, 99999999999999999999])
def test_oversized_patch_is_rejected_before_allocating(patch):
    # 100000 on this page would have asked np.pad for about 10 GB
    img = GrayImage(np.zeros((48, 64), dtype=np.uint8))
    tracemalloc.start()
    try:
        with pytest.raises(ScrollbinError, match="would pad"):
            split(img, patch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_padding_cap_is_inclusive(monkeypatch):
    # 3x2 at patch 4 pads 16 - 6 = 10 pixels
    monkeypatch.setattr(tiling, "MAX_PAD_PIXELS", 10)
    img = GrayImage(np.zeros((2, 3), dtype=np.uint8))
    assert len(split(img, 4).patches) == 1
    with pytest.raises(ScrollbinError, match="would pad"):
        split(img, 5)


def test_grid_accessor():
    rng = np.random.default_rng(6)
    img = random_gray(rng, 100, 60)
    grid = split(img, 40)
    assert grid.patch_at(1, 2) is grid.patches[1 * grid.cols + 2]
    assert isinstance(grid, PatchGrid)
