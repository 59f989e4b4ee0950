"""Classical thresholding baselines: global/local Otsu, Niblack, Sauvola.

All four map a GrayImage to a BinaryMask under the fixed convention that
darker pixels are ink: a pixel is ink iff its value is <= the threshold.
Local window statistics are computed over the window clamped to the image
bounds, so only real pixels contribute. Windows must be odd so they center
on the pixel; the conventional 70x70 window snaps to 71. Niblack and Sauvola
read the window mean and std from integral images. Local Otsu slides one
histogram per column down the rows, so its memory is O(width x 256).
"""

from __future__ import annotations

import numpy as np

from .errors import ScrollbinError
from .imagecore import BinaryMask, GrayImage

DEFAULT_WINDOW = 71
NIBLACK_K = -0.2
SAUVOLA_K = 0.5
SAUVOLA_R = 128.0


# ---------------------------------------------------------------------------
# Global Otsu
# ---------------------------------------------------------------------------


def otsu_global(img: GrayImage) -> tuple[int, BinaryMask]:
    """Threshold maximizing the between-class variance of the histogram.

    Returns (threshold, mask) where mask marks pixels <= threshold as ink.
    The argmax is computed in exact integer arithmetic with ties broken
    toward the smallest threshold. A constant image has zero between-class
    variance everywhere and degenerates to threshold 0 with an all-background
    mask.
    """
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    t = _otsu_threshold_exact(hist)
    if t is None:
        return 0, BinaryMask(np.zeros_like(img.pixels, dtype=np.bool_))
    return t, BinaryMask(img.pixels <= t)


def _otsu_threshold_exact(hist) -> int | None:
    """Exact integer argmax of sigma_B^2 over t in [0, 255]; None if degenerate.

    sigma_B^2(t) = w0 w1 (mu0 - mu1)^2 = (S0*n1 - S1*n0)^2 / (n^2 * n0 * n1);
    the constant n^2 is dropped and candidates are compared by integer
    cross-multiplication, so no floating rounding can flip a tie.
    """
    counts = [int(c) for c in hist]
    n = sum(counts)
    s = sum(v * c for v, c in enumerate(counts))

    best_t = None
    best_num = best_den = 0  # score = num/den
    n0 = s0 = 0
    for t in range(256):
        n0 += counts[t]
        s0 += t * counts[t]
        n1 = n - n0
        if n0 == 0 or n1 == 0:
            continue
        num = (s0 * n1 - (s - s0) * n0) ** 2
        den = n0 * n1
        if best_t is None or num * best_den > best_num * den:
            best_t, best_num, best_den = t, num, den
    return best_t


# ---------------------------------------------------------------------------
# Clamped-window statistics via integral images
# ---------------------------------------------------------------------------


def _check_window(window: int) -> int:
    """Half-width h of the centered window, which spans 2h+1 pixels.

    Even sizes snap up to the next odd one (70 becomes 71), so windows always
    center on their pixel.
    """
    if window < 3:
        raise ScrollbinError(f"window must be >= 3, got {window}")
    return window // 2


def _window_bounds(size: int, half: int):
    idx = np.arange(size)
    lo = np.clip(idx - half, 0, size)
    hi = np.clip(idx + half + 1, 0, size)
    return lo, hi


def window_mean_std(img: GrayImage, window: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-pixel mean and population std over the edge-clamped window.

    Integral images of the values and their squares give O(1) statistics per
    pixel. Sums stay in int64 (exact); the variance is clamped at 0 to absorb
    the roundoff of the mean-square subtraction.
    """
    half = _check_window(window)
    h, w = img.pixels.shape
    vals = img.pixels.astype(np.int64)

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


def niblack(img: GrayImage, window: int = DEFAULT_WINDOW, k: float = NIBLACK_K) -> BinaryMask:
    """Niblack local threshold T = m + k*s; ink iff value <= T."""
    mean, std = window_mean_std(img, window)
    thresh = mean + k * std
    return BinaryMask(img.pixels.astype(np.float64) <= thresh)


def sauvola(
    img: GrayImage, window: int = DEFAULT_WINDOW, k: float = SAUVOLA_K, r: float = SAUVOLA_R
) -> BinaryMask:
    """Sauvola local threshold T = m * (1 + k*(s/R - 1)); ink iff value <= T."""
    if r <= 0:
        raise ScrollbinError(f"R must be positive, got {r}")
    mean, std = window_mean_std(img, window)
    thresh = mean * (1.0 + k * (std / r - 1.0))
    return BinaryMask(img.pixels.astype(np.float64) <= thresh)


# ---------------------------------------------------------------------------
# Local Otsu
# ---------------------------------------------------------------------------


def otsu_local(img: GrayImage, window: int = DEFAULT_WINDOW) -> BinaryMask:
    """Per-pixel Otsu threshold over the edge-clamped window.

    A pixel is ink iff its value is <= the Otsu threshold of its own window
    histogram. Windows with a constant histogram have no valid split and the
    pixel is classified background, which keeps blank margins blank.

    One histogram per column covers the rows of the current window and slides
    down the image: each row adds the image rows entering the window and
    subtracts those leaving it (Perreault & Hebert 2007). A prefix sum over
    the columns then gives all window histograms of the row, so memory stays
    O(width x 256). Their Otsu scan scores each split t by
    (S0*n1 - S1*n0)^2 / (n0*n1) over the pixel counts n and value sums S
    below (0) and above (1) t. The squared term can exceed int64, so it is
    evaluated in float64 from exact int64 sums; the first maximum wins ties.
    """
    half = _check_window(window)
    pixels = img.pixels
    h, w = pixels.shape
    y0, y1 = _window_bounds(h, half)
    x0, x1 = _window_bounds(w, half)

    # Row 0 stays zero so the cumulative sum is the prefix over columns.
    cols = np.zeros((w + 1, 256), dtype=np.int32)
    col = np.arange(1, w + 1)
    # Work arrays are allocated once: fresh ones each row cost more in page
    # faults than the arithmetic does.
    prefix = np.empty((w + 1, 256), dtype=np.int64)
    hists, tmp, n0, n1, s0 = np.empty((5, w, 256), dtype=np.int64)
    score = np.empty((w, 256))
    ink = np.empty((h, w), dtype=np.bool_)
    top = bottom = 0
    for r in range(h):
        for y in range(bottom, y1[r]):
            cols[col, pixels[y]] += 1
        for y in range(top, y0[r]):
            cols[col, pixels[y]] -= 1
        top, bottom = y0[r], y1[r]
        np.cumsum(cols, axis=0, out=prefix)
        np.take(prefix, x1, axis=0, out=hists)
        hists -= np.take(prefix, x0, axis=0, out=tmp)

        # n0, s0: count and value sum of the pixels <= each split t.
        np.cumsum(hists, axis=1, out=n0)
        hists *= np.arange(256)
        np.cumsum(hists, axis=1, out=s0)
        n, s = n0[:, -1:].copy(), s0[:, -1:].copy()
        np.subtract(n, n0, out=n1)
        # tmp = S0*n1 - S1*n0, with s0 turned into S1*n0 in place.
        np.multiply(s0, n1, out=tmp)
        np.subtract(s, s0, out=s0)
        s0 *= n0
        tmp -= s0
        np.copyto(score, tmp)
        score *= score
        n1 *= n0  # zero where a class is empty
        valid = n1 > 0
        np.divide(score, n1, out=score, where=valid)
        score[~valid] = -1.0
        ink[r] = (pixels[r] <= score.argmax(axis=1)) & valid.any(axis=1)
    return BinaryMask(ink)
