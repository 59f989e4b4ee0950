"""Binarization quality measures: F-measure, pseudo-F-measure, PSNR, DRD.

All four compare a predicted BinaryMask against a ground-truth BinaryMask of
the same dimensions, with ink as the positive class. PSNR of identical masks
is reported as +inf (serialized as the string "inf"); aggregation excludes
infinite PSNR values and counts them separately.

The pseudo-F weights are a self-contained approximation of the
stroke-width-weighted recall/precision idea: recall weights scale each
ground-truth ink pixel by its distance-to-background relative to the deepest
point of its stroke component, and precision weights form a [1, 2] band that
decays over one stroke width away from the ink. Values are internally
consistent but not bit-compatible with any external evaluation binary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import DimensionMismatchError, ScrollbinError
from .imagecore import BinaryMask

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


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


@dataclass(frozen=True)
class EvalReport:
    records: list
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


def f_measure(c: Confusion) -> float:
    """Harmonic mean of ink precision and recall.

    Conventions: a prediction with no true positives scores 0 unless there
    was nothing to find and nothing found (tp = fp = fn = 0), which scores 1.
    """
    if c.tp == 0:
        return 1.0 if c.fp == 0 and c.fn == 0 else 0.0
    recall = c.tp / (c.tp + c.fn)
    precision = c.tp / (c.tp + c.fp)
    return 2.0 * recall * precision / (recall + precision)


# ---------------------------------------------------------------------------
# Pseudo-F-measure
# ---------------------------------------------------------------------------


def _stroke_components(gt_ink: np.ndarray):
    dist = ndimage.distance_transform_edt(gt_ink)
    labels, count = ndimage.label(gt_ink, structure=_EIGHT_CONNECTED)
    if count == 0:
        return dist, labels, np.zeros(0)
    comp_max = ndimage.maximum(dist, labels, index=np.arange(1, count + 1))
    return dist, labels, np.atleast_1d(comp_max)


def _recall_weights(g: np.ndarray, components) -> np.ndarray:
    dist, labels, comp_max = components
    weights = np.zeros(g.shape, dtype=np.float64)
    weights[g] = np.clip(dist[g] / comp_max[labels[g] - 1], 0.0, 1.0)
    return weights


def _precision_weights(g: np.ndarray, components) -> np.ndarray:
    _, labels, comp_max = components
    stroke_width = 2.0 * comp_max
    d, (iy, ix) = ndimage.distance_transform_edt(~g, return_indices=True)
    sw = stroke_width[labels[iy, ix] - 1]
    return np.where(d <= sw, np.clip(2.0 - d / sw, 1.0, 2.0), 1.0)


def recall_weights(gt: BinaryMask) -> np.ndarray:
    """Per-pixel recall weight in [0, 1]: zero off ink, and on ink the pixel's
    distance-to-background divided by the deepest distance of its component."""
    g = gt.ink
    if not g.any():
        return np.zeros(g.shape, dtype=np.float64)
    return _recall_weights(g, _stroke_components(g))


def precision_weights(gt: BinaryMask) -> np.ndarray:
    """Per-pixel precision weight in [1, 2]: 2 on ink, decaying linearly to 1
    across one stroke width (twice the component's deepest distance) of the
    nearest ink component, and 1 beyond."""
    g = gt.ink
    if not g.any():
        return np.ones(g.shape, dtype=np.float64)
    return _precision_weights(g, _stroke_components(g))


def pseudo_f_measure(pred: BinaryMask, gt: BinaryMask) -> float:
    """F formula over stroke-weighted recall and contour-band-weighted precision.

    The stroke components (distance transform and 8-connected labelling) are
    computed once and feed both weightings.
    """
    _check_dims(pred, gt)
    c = confusion(pred, gt)
    if c.tp == 0:
        return 1.0 if c.fp == 0 and c.fn == 0 else 0.0
    g = gt.ink  # tp > 0, so the ground truth has ink
    components = _stroke_components(g)
    w_r = _recall_weights(g, components)
    w_p = _precision_weights(g, components)
    correct = pred.ink & g
    p_recall = w_r[correct].sum() / w_r[g].sum()
    p_precision = w_p[correct].sum() / w_p[pred.ink].sum()
    return 2.0 * p_recall * p_precision / (p_recall + p_precision)


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


def drd(pred: BinaryMask, gt: BinaryMask) -> float:
    """Distance reciprocal distortion.

    Each flipped pixel contributes the weighted count of 5x5 ground-truth
    neighbors that disagree with its predicted value; neighbors outside the
    image are treated as agreeing (zero distortion). The total is divided by
    the non-uniform-block count; with no non-uniform blocks the score is 0
    for identical masks and +inf otherwise.
    """
    _check_dims(pred, gt)
    flipped = pred.ink ^ gt.ink
    s = int(np.count_nonzero(flipped))
    blocks = nubn(gt)
    if blocks == 0:
        return 0.0 if s == 0 else math.inf
    if s == 0:
        return 0.0

    w = drd_weight_matrix()
    g = gt.ink.astype(np.float64)
    h, wid = g.shape
    # distortion against predicted value 1: sum of weights where gt == 0,
    # with out-of-bounds gt acting as 1; and symmetrically for value 0
    pad1 = np.pad(g, 2, constant_values=1.0)
    pad0 = np.pad(g, 2, constant_values=0.0)
    dist_vs_ink = np.zeros((h, wid))
    dist_vs_bg = np.zeros((h, wid))
    for i in range(5):
        for j in range(5):
            if w[i, j] == 0.0:
                continue
            dist_vs_ink += w[i, j] * (1.0 - pad1[i : i + h, j : j + wid])
            dist_vs_bg += w[i, j] * pad0[i : i + h, j : j + wid]

    total = float(np.where(pred.ink, dist_vs_ink, dist_vs_bg)[flipped].sum())
    return total / blocks


# ---------------------------------------------------------------------------
# Per-image records and aggregation
# ---------------------------------------------------------------------------


def evaluate(pred: BinaryMask, gt: BinaryMask) -> ImageScores:
    return ImageScores(
        f=f_measure(confusion(pred, gt)),
        pf=pseudo_f_measure(pred, gt),
        psnr=psnr(pred, gt),
        drd=drd(pred, gt),
    )


def aggregate(records: list) -> EvalReport:
    """Mean and sample standard deviation (n-1; a single record gets std 0)
    per metric, in the fixed order f, pf, psnr, drd. Infinite PSNR values are
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
    for key in ("f", "pf", "psnr", "drd"):
        values = [getattr(r, key) for r in records]
        if key == "psnr":
            values = [v for v in values if math.isfinite(v)]
        mean[key], std[key] = stats(values)
    inf_count = sum(1 for r in records if math.isinf(r.psnr))
    return EvalReport(list(records), mean, std, inf_count)
