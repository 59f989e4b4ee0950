"""Binarization quality measures: F-measure, pseudo-F-measure, PSNR, DRD.

All four compare a predicted BinaryMask against a ground-truth BinaryMask of
the same dimensions, with ink as the positive class. PSNR of identical masks
is reported as +inf (serialized as the string "inf"); aggregation excludes
infinite PSNR values and counts them separately. evaluate, pseudo_f_measure,
drd and the weight maps also take a GroundTruth, which prepares one ground
truth once for scoring many predictions against it.

The pseudo-F weights are a self-contained approximation of the
stroke-width-weighted recall/precision idea: recall weights scale each
ground-truth ink pixel by its distance-to-background relative to the deepest
point of its stroke component, and precision weights form a [1, 2] band that
decays over one stroke width away from the ink. Values are internally
consistent but not bit-compatible with any external evaluation binary.

Both weight maps rest on one exact Euclidean nearest-feature search in
numpy (_nearest_feature). Like the linear-time method of Maurer, Qi &
Raghavan (IEEE PAMI 2003) that scipy.ndimage uses, it makes two separable
passes: the nearest feature pixel of each column, then a pass along each
row, here a search outward that stops once no farther column can be nearer.
Distances are the square roots of exact integer squared distances. Among
equidistant feature pixels it keeps the one in the smallest column, then the
smallest row, which is scipy.ndimage.distance_transform_edt's tie rule.
Each map passes the squared distance where its search stops: the recall map
the squared diagonal, which no distance exceeds, the precision map the
squared largest stroke width, past which every precision weight is 1. So the
work per pixel grows with its distance to the nearest feature, and thick
blots cost more than pen strokes. One int64 key packs a squared distance
with its column offset, so a ground truth is too large to weigh from
1,321,124 pixels wide for one row, or 1,154,109 a side for a square.
Strokes are 8-connected components, found by uniting the ink runs of
adjacent rows. A ground truth with no background gives every ink pixel
recall weight 1, so its pseudo-F equals its F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import DimensionMismatchError, ScrollbinError
from .imagecore import BinaryMask

_FAR = 1 << 30  # column offset where a column has no feature; its square outranks any real one
_BLOCK = 1 << 18  # query pixels per block of rows, which bounds the row search's arrays


@dataclass(frozen=True)
class Confusion:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class ImageScores:
    f: float
    pf: float
    psnr: float
    drd: float


SCORES = tuple(field.name for field in fields(ImageScores))
"""The score names, in the order every report lists them."""


@dataclass(frozen=True)
class EvalReport:
    mean: dict
    std: dict
    psnr_inf_count: int


def _check_dims(pred: BinaryMask, gt: BinaryMask):
    if pred.ink.shape != gt.ink.shape:
        raise DimensionMismatchError(
            f"prediction is {pred.width}x{pred.height}, ground truth is {gt.width}x{gt.height}"
        )


def confusion(pred: BinaryMask, gt: BinaryMask) -> Confusion:
    _check_dims(pred, gt)
    p, g = pred.ink, gt.ink
    tp = int(np.count_nonzero(p & g))
    fp = int(np.count_nonzero(p & ~g))
    fn = int(np.count_nonzero(~p & g))
    tn = p.size - tp - fp - fn
    return Confusion(tp, fp, fn, tn)


def _harmonic(c: Confusion, rates) -> float:
    """Harmonic mean of the (recall, precision) pair that rates() returns.

    A prediction with no true positives scores 0 unless there was nothing to
    find and nothing found (tp = fp = fn = 0), which scores 1; rates is then
    not called.
    """
    if c.tp == 0:
        return 1.0 if c.fp == 0 and c.fn == 0 else 0.0
    recall, precision = rates()
    return float(2.0 * recall * precision / (recall + precision))


def f_measure(c: Confusion) -> float:
    """Harmonic mean of ink precision and recall."""
    return _harmonic(c, lambda: (c.tp / (c.tp + c.fn), c.tp / (c.tp + c.fp)))


# ---------------------------------------------------------------------------
# A ground truth prepared once
# ---------------------------------------------------------------------------


class GroundTruth:
    """One ground truth prepared for scoring any number of predictions.

    It holds the ground-truth work that every metric would otherwise redo for
    each pair: the non-uniform block count and the padded ink that DRD reads,
    built here, and the two pseudo-F weight maps, built on first use (a
    prediction without a true positive never needs them). The functions that
    read these parts take either a GroundTruth or a mask, which they prepare
    themselves. A GroundTruth is meant for one thread at a time.
    """

    def __init__(self, mask: BinaryMask):
        self.mask = mask
        self.blocks = nubn(mask)
        # Ink as 0/1 with a 2-pixel border of 2, a value no class equals.
        self.padded = np.pad(mask.ink.view(np.uint8), 2, constant_values=2)
        self._weights = None

    def weights(self) -> tuple[np.ndarray, np.ndarray]:
        """The recall and precision weight maps (see recall_weights and
        precision_weights), computed once from one set of stroke components."""
        if self._weights is None:
            g = self.mask.ink
            if g.all():
                self._weights = np.ones(g.shape), np.full(g.shape, 2.0)
            else:
                dist, *components = _stroke_components(g)
                recall = _recall_weights(g, dist, *components)
                del dist  # 8 B per ink pixel that the precision weights' own transform does not read
                self._weights = recall, _precision_weights(g, *components)
        return self._weights


def _prepared(gt: BinaryMask | GroundTruth) -> GroundTruth:
    return gt if isinstance(gt, GroundTruth) else GroundTruth(gt)


# ---------------------------------------------------------------------------
# Pseudo-F-measure
# ---------------------------------------------------------------------------


def _column_offsets(feature: np.ndarray) -> np.ndarray:
    """Signed row offset (int32) from each pixel to the nearest feature pixel
    of its own column, the upper one on a tie; at least _FAR - height in
    size where the column has no feature."""
    rows = np.arange(feature.shape[0], dtype=np.int32)[:, None]
    up = np.where(feature, rows, np.int32(-_FAR))
    np.maximum.accumulate(up, axis=0, out=up)
    up -= rows
    down = np.where(feature, rows, np.int32(_FAR))
    np.minimum.accumulate(down[::-1], axis=0, out=down[::-1])
    down -= rows
    np.copyto(up, down, where=down < -up)
    return up


def _nearest_feature(feature: np.ndarray, query: np.ndarray, limit: int):
    """Exact squared distance from each query pixel to the nearest feature
    pixel, one block of rows at a time.

    Yields (flat, d2, nearest): the query pixels' flat indices in raster
    order, their squared distances (int64) and the flat index of the nearest
    feature pixel under the module's tie rule. The search stops at squared
    distance limit: a pixel whose d2 exceeds it is only known to be farther,
    and its nearest is meaningless.
    """
    h, w = feature.shape
    off = _column_offsets(feature)
    # A key packs d2 and the column offset j in [-pad, pad], so that the
    # least key is the nearest pixel in the smallest column.
    pad = min(w - 1, math.isqrt(limit))
    radix, cap = 2 * pad + 1, limit + 1
    if (cap + pad * pad) * radix + 2 * pad >= 1 << 63:  # the largest key _row_search forms
        raise ScrollbinError(f"a {w}x{h} ground truth is too large to weigh")
    step = max(1, _BLOCK // w)
    for r0 in range(0, h, step):
        g2 = np.square(off[r0 : r0 + step], dtype=np.int64)
        np.minimum(g2, cap, out=g2)
        keys = np.full((g2.shape[0], w + 2 * pad), cap * radix, dtype=np.int64)
        np.multiply(g2, radix, out=keys[:, pad : pad + w])
        local = np.flatnonzero(query[r0 : r0 + step])
        best = _row_search(keys.ravel(), local + (local // w * 2 + 1) * pad, pad, radix)
        flat = local + r0 * w
        d2, j = np.divmod(best, radix)
        nearest = flat + j - pad
        np.clip(nearest, 0, off.size - 1, out=nearest)  # a pixel beyond the limit may point anywhere
        nearest += off.ravel()[nearest] * w
        yield flat, d2, nearest


def _row_search(keys: np.ndarray, idx: np.ndarray, pad: int, radix: int) -> np.ndarray:
    """The least key over the columns within pad of each query index in the
    row-padded keys, each raised by its squared column offset times radix
    and by its offset's place in [-pad, pad].

    Step k visits the columns k away on both sides. A pixel whose best key is
    below k*k*radix cannot improve, so the query set is compacted once half of
    it is done, and the search ends when all of it is.
    """
    best = keys[idx] + pad
    pos = None  # positions of the live entries in best, once compacted
    live_idx, live_best = idx, best
    shifted = np.empty(idx.size, dtype=np.int64)
    cand = np.empty(idx.size, dtype=np.int64)
    for k in range(1, pad + 1):
        floor = k * k * radix
        live = live_best >= floor
        n = np.count_nonzero(live)
        if n == 0:
            break
        if n <= live_best.size // 2:
            if pos is not None:
                best[pos] = live_best
            keep = np.flatnonzero(live)
            pos = keep if pos is None else pos[keep]
            live_idx, live_best = live_idx[keep], live_best[keep]
            shifted, cand = shifted[:n], cand[:n]
        for side in (-k, k):
            np.add(live_idx, side, out=shifted)
            np.take(keys, shifted, out=cand, mode="clip")
            cand += floor + pad + side
            np.minimum(live_best, cand, out=live_best)
    if pos is not None:
        best[pos] = live_best
    return best


def _ink_runs(g: np.ndarray):
    """Start and end (exclusive) of each horizontal ink run, as flat indices
    into g with a background column appended to every row, in raster order."""
    h, w = g.shape
    padded = np.zeros((h, w + 1), dtype=bool)
    padded[:, :w] = g
    edges = np.flatnonzero(np.diff(padded.ravel(), prepend=False))
    return edges[0::2], edges[1::2]


def _run_components(starts: np.ndarray, ends: np.ndarray, stride: int) -> np.ndarray:
    """Root run of each run's 8-connected component, by union-find over the
    pairs of runs in adjacent rows whose columns come within one of each
    other (stride is the padded row length of _ink_runs)."""
    # The runs below run i that touch it are a contiguous range: those that
    # end at or after its start and start at or before its end, one row down.
    lo = np.searchsorted(ends, starts + stride)
    count = np.maximum(np.searchsorted(starts, ends + stride, side="right") - lo, 0)
    a = np.repeat(np.arange(starts.size), count)
    b = np.repeat(lo - (np.cumsum(count) - count), count) + np.arange(a.size)
    parent = np.arange(starts.size)
    while a.size:
        ra, rb = parent[a], parent[b]
        differ = ra != rb
        a, b, ra, rb = a[differ], b[differ], ra[differ], rb[differ]
        if not a.size:
            break
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))  # hook roots to the least
        while True:  # then point every run at its root
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up
    return parent


def _stroke_components(gt_ink: np.ndarray):
    """Distance to background of each ink pixel in raster order, 8-connected
    labels (0 off ink), and each label's deepest distance (index 0 is 0).
    The ink must not cover the whole map."""
    h, w = gt_ink.shape
    d2 = np.concatenate([d2 for _, d2, _ in _nearest_feature(~gt_ink, gt_ink, (h - 1) ** 2 + (w - 1) ** 2)])
    dist = np.sqrt(d2.astype(np.float64))
    del d2
    starts, ends = _ink_runs(gt_ink)
    root = _run_components(starts, ends, gt_ink.shape[1] + 1) + 1
    lengths = ends - starts
    comp_max = np.zeros(starts.size + 1)
    np.maximum.at(comp_max, root, np.maximum.reduceat(dist, np.cumsum(lengths) - lengths))
    labels = np.zeros(gt_ink.shape, dtype=np.int32)
    labels[gt_ink] = np.repeat(root, lengths)
    return dist, labels, comp_max


def _recall_weights(g: np.ndarray, dist, labels, comp_max) -> np.ndarray:
    weights = np.zeros(g.shape, dtype=np.float64)
    weights[g] = np.clip(dist / comp_max[labels[g]], 0.0, 1.0)
    return weights


def _precision_weights(g: np.ndarray, labels, comp_max) -> np.ndarray:
    stroke_width = 2.0 * comp_max
    # Squared distances above limit exceed every stroke width, so weigh 1.
    limit = int(stroke_width.max() ** 2) + 1
    weights = np.where(g, 2.0, 1.0)
    out, label_of = weights.ravel(), labels.ravel()
    for flat, d2, nearest in _nearest_feature(g, ~g, limit):
        near = d2 <= limit
        d = np.sqrt(d2[near].astype(np.float64))
        sw = stroke_width[label_of[nearest[near]]]
        out[flat[near]] = np.where(d <= sw, np.clip(2.0 - d / sw, 1.0, 2.0), 1.0)
    return weights


def recall_weights(gt: BinaryMask | GroundTruth) -> np.ndarray:
    """Per-pixel recall weight in [0, 1]: zero off ink, and on ink the pixel's
    distance-to-background divided by the deepest distance of its component."""
    return _prepared(gt).weights()[0]


def precision_weights(gt: BinaryMask | GroundTruth) -> np.ndarray:
    """Per-pixel precision weight in [1, 2]: 2 on ink, decaying linearly to 1
    across one stroke width (twice the component's deepest distance) of the
    nearest ink component, and 1 beyond."""
    return _prepared(gt).weights()[1]


def pseudo_f_measure(pred: BinaryMask, gt: BinaryMask | GroundTruth) -> float:
    """F formula over stroke-weighted recall and contour-band-weighted precision."""
    truth = _prepared(gt)

    def rates():
        w_r, w_p = truth.weights()
        g = truth.mask.ink
        correct = pred.ink & g
        return w_r[correct].sum() / w_r[g].sum(), w_p[correct].sum() / w_p[pred.ink].sum()

    return _harmonic(confusion(pred, truth.mask), rates)


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def psnr(pred: BinaryMask, gt: BinaryMask) -> float:
    """10*log10(C^2/MSE) with masks valued in {0, 1}, so C = 1 and the MSE is
    the disagreeing-pixel fraction. Identical masks report +inf."""
    _check_dims(pred, gt)
    flipped = int(np.count_nonzero(pred.ink ^ gt.ink))
    if flipped == 0:
        return math.inf
    mse = flipped / pred.ink.size
    return 10.0 * math.log10(1.0 / mse)


# ---------------------------------------------------------------------------
# DRD
# ---------------------------------------------------------------------------


def drd_weight_matrix() -> np.ndarray:
    """5x5 reciprocal-distance weights, zero center, normalized to sum 1."""
    ii, jj = np.mgrid[0:5, 0:5]
    with np.errstate(divide="ignore"):
        w = 1.0 / np.sqrt((ii - 2.0) ** 2 + (jj - 2.0) ** 2)
    w[2, 2] = 0.0
    return w / w.sum()


def nubn(gt: BinaryMask) -> int:
    """Count of grid-aligned 8x8 ground-truth blocks holding both classes.

    Partial blocks at the right/bottom edges participate with their actual
    size.
    """
    g = gt.ink
    h, w = g.shape
    row_idx = np.arange(0, h, 8)
    col_idx = np.arange(0, w, 8)
    sums = np.add.reduceat(np.add.reduceat(g.astype(np.int64), row_idx, axis=0), col_idx, axis=1)
    row_sizes = np.diff(np.append(row_idx, h))
    col_sizes = np.diff(np.append(col_idx, w))
    sizes = row_sizes[:, None] * col_sizes[None, :]
    return int(np.count_nonzero((sums > 0) & (sums < sizes)))


def drd(pred: BinaryMask, gt: BinaryMask | GroundTruth) -> float:
    """Distance reciprocal distortion.

    Each flipped pixel contributes the weighted count of 5x5 ground-truth
    neighbors that disagree with its predicted value; neighbors outside the
    image are treated as agreeing (zero distortion). The total is divided by
    the non-uniform-block count; with no non-uniform blocks the score is 0
    for identical masks and +inf otherwise.
    """
    truth = _prepared(gt)
    _check_dims(pred, truth.mask)
    flipped = np.flatnonzero(pred.ink ^ truth.mask.ink)
    if truth.blocks == 0:
        return 0.0 if flipped.size == 0 else math.inf
    if flipped.size == 0:
        return 0.0

    # A flipped pixel predicts the class opposite to its ground truth, so a
    # neighbor disagrees with the prediction exactly when it equals the
    # pixel's own ground truth; the border value 2 equals neither class.
    # Terms are added from 0.0 in tap order and pixels summed in row-major
    # order, which tests/test_metrics_reference.py holds byte-identical to
    # the whole-map definition.
    w = drd_weight_matrix()
    stride = pred.width + 4
    padded = truth.padded.ravel()
    corner = flipped // pred.width * 4 + flipped  # the window's top-left in padded
    center = padded[corner + (2 * stride + 2)]
    distortion = np.zeros(flipped.size)
    for i in range(5):
        for j in range(5):
            if w[i, j] == 0.0:
                continue
            distortion += w[i, j] * (padded[corner + (i * stride + j)] == center)
    return float(distortion.sum()) / truth.blocks


# ---------------------------------------------------------------------------
# Per-image records and aggregation
# ---------------------------------------------------------------------------


def evaluate(pred: BinaryMask, gt: BinaryMask | GroundTruth) -> ImageScores:
    """All four scores of one prediction. Pass a GroundTruth to score several
    predictions against one ground truth without redoing its work."""
    truth = _prepared(gt)
    return ImageScores(
        f=f_measure(confusion(pred, truth.mask)),
        pf=pseudo_f_measure(pred, truth),
        psnr=psnr(pred, truth.mask),
        drd=drd(pred, truth),
    )


def aggregate(records: list) -> EvalReport:
    """Mean and sample standard deviation (n-1; a single record gets std 0)
    per metric, in the order of SCORES. Infinite PSNR values are
    left out of the aggregates and reported via psnr_inf_count. Any other
    metric with an infinite value (a DRD over a ground truth with no
    non-uniform block) gets mean inf and std None, since its spread has no
    finite value."""
    if not records:
        raise ScrollbinError("cannot aggregate an empty record list")

    def stats(values: list) -> tuple[float | None, float | None]:
        if not values:
            return None, None
        if any(math.isinf(v) for v in values):
            return math.inf, None
        mean = float(np.mean(values))
        std = 0.0 if len(values) == 1 else float(np.std(values, ddof=1))
        return mean, std

    mean: dict = {}
    std: dict = {}
    for key in SCORES:
        values = [getattr(r, key) for r in records]
        if key == "psnr":
            values = [v for v in values if math.isfinite(v)]
        mean[key], std[key] = stats(values)
    inf_count = sum(1 for r in records if math.isinf(r.psnr))
    return EvalReport(mean, std, inf_count)
