"""Split arbitrary-size images into fixed-size square patches and reassemble.

Tiles are non-overlapping and row-major. Edge tiles are padded on the right
and bottom to the full patch size by replicating the last column and row, so
no artificial ink/background boundary is created at tile borders.
Reassembly discards the padding and restores the original dimensions, so
reassemble(split(x)) == x for any image.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScrollbinError
from .imagecore import Image

MAX_PAD_PIXELS = 1 << 26
"""Most pixels of padding split may add to an image (64 Mpx, 64 MiB per 8-bit
channel). A 2706x3608 page at patch 256 adds 1.0 Mpx. The image itself is
never refused; a patch size that would pad it past this is, before any
allocation."""


@dataclass
class PatchGrid:
    """Row-major grid of patch_size x patch_size tiles covering an image.

    rows = ceil(orig_height / patch_size), cols = ceil(orig_width / patch_size);
    patches holds rows*cols images, each exactly patch_size square.
    """

    patch_size: int
    rows: int
    cols: int
    orig_width: int
    orig_height: int
    patches: list

    def patch_at(self, row: int, col: int):
        return self.patches[row * self.cols + col]


def split(img: Image, patch_size: int) -> PatchGrid:
    """Tile an image into a PatchGrid of patch_size squares, replicating its edges."""
    if patch_size < 1:
        raise ScrollbinError(f"patch_size must be >= 1, got {patch_size}")
    rows = -(-img.height // patch_size)
    cols = -(-img.width // patch_size)
    padding = rows * cols * patch_size**2 - img.height * img.width
    if padding > MAX_PAD_PIXELS:
        raise ScrollbinError(
            f"patch_size {patch_size} would pad the {img.width}x{img.height} image by "
            f"{padding} pixels, more than the {MAX_PAD_PIXELS} allowed"
        )
    spatial = ((0, rows * patch_size - img.height), (0, cols * patch_size - img.width))
    padded = np.pad(img.array, spatial + ((0, 0),) * (img.array.ndim - 2), mode="edge")
    patches = []
    for r in range(rows):
        for c in range(cols):
            tile = padded[r * patch_size : (r + 1) * patch_size, c * patch_size : (c + 1) * patch_size]
            patches.append(type(img)(np.ascontiguousarray(tile)))
    return PatchGrid(patch_size, rows, cols, img.width, img.height, patches)


def reassemble(grid: PatchGrid) -> Image:
    """Stitch a PatchGrid back into a single orig_width x orig_height image.

    Padding regions are discarded; every interior pixel lands at its original
    coordinate. The output type follows the patch type, so a grid whose
    patches were replaced by BinaryMask outputs reassembles into a mask.
    """
    if grid.orig_width < 1 or grid.orig_height < 1:
        raise ScrollbinError(f"image size must be at least 1x1, got {grid.orig_width}x{grid.orig_height}")
    if not grid.patches:
        raise ScrollbinError("grid holds no patches")
    if len(grid.patches) != grid.rows * grid.cols:
        raise ScrollbinError(
            f"grid holds {len(grid.patches)} patches, expected rows*cols = {grid.rows * grid.cols}"
        )
    p = grid.patch_size
    first = grid.patches[0]
    for patch in grid.patches:
        if patch.width != p or patch.height != p or type(patch) is not type(first):
            raise ScrollbinError("inconsistent patch shape or type in grid")

    out_shape = (grid.rows * p, grid.cols * p) + first.array.shape[2:]
    canvas = np.empty(out_shape, dtype=first.array.dtype)
    for r in range(grid.rows):
        for c in range(grid.cols):
            canvas[r * p : (r + 1) * p, c * p : (c + 1) * p] = grid.patch_at(r, c).array
    return type(first)(np.ascontiguousarray(canvas[: grid.orig_height, : grid.orig_width]))
