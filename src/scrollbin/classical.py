"""Classical thresholding baselines: global/local Otsu, Niblack, Sauvola.

All four map a GrayImage to a BinaryMask under the fixed convention that
darker pixels are ink: a pixel is ink iff its value is <= the threshold.
Local window statistics are computed over the window clamped to the image
bounds, so only real pixels contribute. Windows must be odd so they center
on the pixel; the conventional 70x70 window snaps to 71. All three local
methods sweep tiles and read each window's sums from prefix sums through
one helper. Niblack and Sauvola sum the values and their squares as exact
int64 over tiles of TILE x TILE pixels, so their memory grows with neither
the height nor the width; local Otsu sweeps tiles of TILE columns and
slides one histogram per column down the rows, so its memory is
O((TILE + window) x 256). A window larger than the image clamps to it: any
window from 2*max(h, w) + 1 up gives the same mask.
"""

from __future__ import annotations

import itertools
import math

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
# Clamped windows, swept in column tiles
# ---------------------------------------------------------------------------

TILE = 384
"""Columns per tile of the local sweeps (and rows, for Niblack and Sauvola); a
tile's tables hold TILE plus one window of columns.

Measured for local Otsu on 2 cores: at 256 the 330-wide bench page takes two
tiles and ran slower; on a 3608-wide page 256, 384 and 512 ran within 5% of
each other at window 71, 384 ran fastest at window 301, and 384 peaks under 6 MB.
"""


def _half_widths(window: int, h: int, w: int) -> tuple[int, int]:
    """Half-widths (hy, hx) on an h x w image of the window, which spans 2h+1 pixels.

    Even sizes snap up to the next odd one (70 becomes 71), so windows always
    center on their pixel. A half-width past the image gives the same clamped
    windows, so each is capped at its side less one.
    """
    if window < 3:
        raise ScrollbinError(f"window must be >= 3, got {window}")
    return min(window // 2, h - 1), min(window // 2, w - 1)


def _check_finite(name: str, value: float) -> None:
    """A nan or infinite k or R would silently give an all-ink or blank mask."""
    if not math.isfinite(value):
        raise ScrollbinError(f"{name} must be finite, got {value}")


def _window_bounds(size: int, half: int):
    """Clamped [lo, hi) of each window."""
    idx = np.arange(size)
    lo = np.clip(idx - half, 0, size)
    hi = np.clip(idx + half + 1, 0, size)
    return lo, hi


def _window_sums(prefix, a: int, t: int, half: int, size: int, out):
    """Sums over the clamped windows of positions [a, a + t) of the last axis.

    prefix[..., j] sums positions [lo, lo + j), lo = max(a - half, 0), up to
    min(a + t + half, size), the last position those windows reach. The
    window of a + x ends at that last position from x = xu on, and it starts
    at position 0 before x = xl. Writes the sums into out and returns it.
    """
    lo = max(a - half, 0)
    first = a + half + 1 - lo
    xu, xl = min(max(size - half - a, 0), t), min(max(half - a, 0), t)
    out[..., :xu] = prefix[..., first : first + xu]
    out[..., xu:] = prefix[..., -1:]
    out[..., xl:] -= prefix[..., : t - xl]
    return out


def _local_threshold(img: GrayImage, window: int, threshold) -> BinaryMask:
    """Ink iff value <= threshold(mean, std) of the pixel's edge-clamped window; threshold may overwrite std.

    Each TILE x TILE tile sums its values and their squares down the rows and
    then across the columns, as exact int64 prefix sums, so memory is
    O((TILE + window)^2) whatever the page size. The variance is clamped at 0
    to absorb the roundoff of the mean-square subtraction. A threshold past
    float64's range is the +-inf it tends to, and keeps every pixel or none.
    """
    h, w = img.pixels.shape
    hy, hx = _half_widths(window, h, w)
    (y0, y1), (x0, x1) = _window_bounds(h, hy), _window_bounds(w, hx)
    ink = np.empty((h, w), dtype=np.bool_)
    for r, a in itertools.product(range(0, h, TILE), range(0, w, TILE)):
        s, b = min(r + TILE, h), min(a + TILE, w)
        band = img.pixels[max(r - hy, 0) : s + hy, max(a - hx, 0) : b + hx]
        # Values in plane 0, squares in plane 1, each with a zero first row and
        # column; rebinding sums frees each table once the next one is built.
        sums = np.zeros((2, band.shape[0] + 1, band.shape[1] + 1), dtype=np.int64)
        np.cumsum(band, axis=0, dtype=np.int64, out=sums[0, 1:, 1:])
        np.cumsum(np.square(band, dtype=np.int64), axis=0, out=sums[1, 1:, 1:])
        sums = _window_sums(sums.mT, r, s - r, hy, h, np.empty_like(sums[:, : s - r]).mT).mT
        np.cumsum(sums, axis=2, out=sums)
        total, total_sq = sums = _window_sums(sums, a, b - a, hx, w, np.empty((2, s - r, b - a), dtype=np.int64))
        count = (y1 - y0)[r:s, None] * (x1 - x0)[None, a:b]
        mean = total / count
        var = np.maximum(total_sq / count - mean * mean, 0.0)
        with np.errstate(over="ignore"):
            ink[r:s, a:b] = img.pixels[r:s, a:b] <= threshold(mean, np.sqrt(var))
    return BinaryMask(ink)


def niblack(img: GrayImage, window: int = DEFAULT_WINDOW, k: float = NIBLACK_K) -> BinaryMask:
    """Niblack local threshold T = m + k*s; ink iff value <= T."""
    _check_finite("k", k)
    return _local_threshold(img, window, lambda mean, std: mean + k * std)


def sauvola(
    img: GrayImage, window: int = DEFAULT_WINDOW, k: float = SAUVOLA_K, r: float = SAUVOLA_R
) -> BinaryMask:
    """Sauvola local threshold T = m * (1 + k*(s/R - 1)); ink iff value <= T.

    s/R is clamped to float64's largest value, so that at k = 0 T stays the
    window mean however small R is, rather than 0 * inf = NaN.
    """
    _check_finite("k", k)
    _check_finite("R", r)
    if r <= 0:
        raise ScrollbinError(f"R must be positive, got {r}")

    def threshold(mean: np.ndarray, std: np.ndarray) -> np.ndarray:
        ratio = np.minimum(np.divide(std, r, out=std), np.finfo(np.float64).max, out=std)  # std is not read again
        return mean * (1.0 + k * (ratio - 1.0))

    return _local_threshold(img, window, threshold)


# ---------------------------------------------------------------------------
# Local Otsu
# ---------------------------------------------------------------------------


def _sweep_dtypes(area: int, table_px: int):
    """Dtypes of the local Otsu counts and of its split scan.

    area bounds every window's pixel count and table_px every entry of a
    tile's column prefix. int32 counts are exact while table_px < 2**31.
    The float64 scan is exact while 255 * area**2 < 2**53: the class sums
    S0 and S are at most 255 * area (so they also fit int32), and S0*n, S*n0
    and n0*n1 are integers below 2**53 (a window of up to about 2437 x 2437
    pixels). Past either bound the counts and the scan stay in int64.
    """
    if table_px < 2**31 and 255 * area * area < 2**53:
        return np.int32, np.float64
    return np.int64, np.int64


def _prefix_sums(a, spare, k):
    """Inclusive prefix sums along axis 1 of a[:, :k], by doubling.

    log2(k) whole-array adds: numpy's cumsum adds one element at a time and
    measured about 2x slower on these arrays. Overwrites a and spare and returns
    the view of whichever holds the sums.
    """
    step = 1
    while step < k:
        spare[:, :step] = a[:, :step]
        np.add(a[:, step:k], a[:, : k - step], out=spare[:, step:k])
        a, spare = spare, a
        step *= 2
    return a[:, :k]


def _split_scores(n0, s0, den):
    """Otsu score of each split t of each column: (S0*n1 - S1*n0)^2 / (n0*n1).

    n0 and s0 hold the pixel count and the value sum at or below each t,
    down axis 0. The denominator is max(n0*n1, 1): a split with an empty
    class has S0*n1 - S1*n0 = 0 and scores exactly 0, and every valid split
    scores above 0, so the first maximum is the first over valid splits.
    The scores overwrite a float64 s0; int64 sums keep an exact int64
    numerator, rounded once, as float64 holds it when it is below 2**53.
    """
    n, s = n0[-1].copy(), s0[-1].copy()
    if s0.dtype == np.float64:
        np.subtract(n, n0, out=den)
        den *= n0
        # S0*n - S*n0 is the same integer as S0*n1 - S1*n0, one pass cheaper.
        score = s0
        score *= n
        n0 *= s
        score -= n0
    else:
        n1 = n - n0
        score = (s0 * n1 - (s - s0) * n0).astype(np.float64)
        np.copyto(den, n0 * n1)
    np.maximum(den, 1.0, out=den)
    score *= score
    score /= den
    return score


def _otsu_tile(pixels, a: int, b: int, hx: int, y0, y1, dtypes, ink) -> None:
    """Local Otsu of image columns [a, b), written into ink[:, a:b]."""
    count, scan = dtypes
    w = pixels.shape[1]
    t = b - a
    # The tile's table holds image columns [lo, hi): its own and those of
    # its windows. prefix[:, j] sums table columns [0, j).
    lo, hi = max(a - hx, 0), min(b + hx, w)
    band = pixels[:, lo:hi]
    where = np.arange(hi - lo)
    # Work arrays are allocated once: fresh ones each row cost more in page
    # faults than the arithmetic does.
    cols = np.zeros((256, hi - lo), dtype=count)
    present = np.zeros(256, dtype=np.int64)  # pixels of each value in cols
    prefix = np.zeros((256, hi - lo + 1), dtype=count)
    sums, spare = np.empty((2, 2, 256, t), dtype=count)
    floats = np.empty((3, 256, t))
    columns = np.arange(t)
    top = bottom = 0
    for r in range(len(y0)):
        for y in range(bottom, y1[r]):
            cols[band[y], where] += 1
            present += np.bincount(band[y], minlength=256)
        for y in range(top, y0[r]):
            cols[band[y], where] -= 1
            present -= np.bincount(band[y], minlength=256)
        top, bottom = y0[r], y1[r]
        # Only values present in the tile's windows can hold a first
        # maximum: an absent value t scores the same as t - 1 in every window.
        values = np.flatnonzero(present)
        k = len(values)
        if k < 2:  # one value: no window of the tile has a valid split
            ink[r, a:b] = False
            continue
        np.take(cols, values, axis=0, out=prefix[:k, 1:], mode="clip")
        np.cumsum(prefix[:k, 1:], axis=1, dtype=count, out=prefix[:k, 1:])
        hist = _window_sums(prefix[:k], a, t, hx, w, sums[0, :k])
        np.multiply(hist, values.astype(count)[:, None], out=sums[1, :k])
        n0, s0 = _prefix_sums(sums, spare, k)
        if scan is np.float64:
            np.copyto(floats[0, :k], n0)
            np.copyto(floats[1, :k], s0)
            n0, s0 = floats[:2, :k]
        score = _split_scores(n0, s0, floats[2, :k])
        best = score.argmax(axis=0)
        valid = score[best, columns] > 0
        ink[r, a:b] = (pixels[r, a:b] <= values[best]) & valid


def otsu_local(img: GrayImage, window: int = DEFAULT_WINDOW) -> BinaryMask:
    """Per-pixel Otsu threshold over the edge-clamped window.

    A pixel is ink iff its value is <= the Otsu threshold of its own window
    histogram. Windows with a constant histogram have no valid split and the
    pixel is classified background, which keeps blank margins blank.

    The image is swept in tiles of TILE columns, one after another. Each
    tile keeps one histogram per column for its columns plus half a window
    on either side, and slides them down the rows: each row adds the image
    rows entering the window and subtracts those leaving it (Perreault &
    Hebert 2007). A prefix sum over those columns gives every window
    histogram of the row, so memory is O((TILE + window) x 256) whatever the
    width. The Otsu scan scores each split t by (S0*n1 - S1*n0)^2 / (n0*n1)
    over the pixel counts n and value sums S at or below (0) and above (1) t;
    the first maximum wins ties. Two identities keep it short:
    S0*n1 - S1*n0 = S0*n - S*n0, and with the denominator max(n0*n1, 1) an
    empty class scores 0 while every valid split scores above 0. The scan
    visits only the values present in the tile's windows, in float64 while
    every product is an integer below 2**53 (see _sweep_dtypes), and
    otherwise in exact int64.
    """
    pixels = img.pixels
    h, w = pixels.shape
    hy, hx = _half_widths(window, h, w)
    y0, y1 = _window_bounds(h, hy)
    rows = min(h, 2 * hy + 1)
    dtypes = _sweep_dtypes(rows * min(w, 2 * hx + 1), rows * min(w, TILE + 2 * hx))
    ink = np.empty((h, w), dtype=np.bool_)
    for a in range(0, w, TILE):
        _otsu_tile(pixels, a, min(a + TILE, w), hx, y0, y1, dtypes, ink)
    return BinaryMask(ink)
