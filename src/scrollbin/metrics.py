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

scipy.ndimage is imported inside the two functions that build the weights,
_stroke_components and _precision_weights, not at module level: only scoring
reads it, and importing it would triple the start-up time of every other
command.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

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
            if g.any():
                dist, *components = _stroke_components(g)
                recall = _recall_weights(g, dist, *components)
                del dist  # 8 B/px that the precision weights' own transform does not read
                self._weights = recall, _precision_weights(g, *components)
            else:
                self._weights = np.zeros(g.shape), np.ones(g.shape)
        return self._weights


def _prepared(gt: BinaryMask | GroundTruth) -> GroundTruth:
    return gt if isinstance(gt, GroundTruth) else GroundTruth(gt)


# ---------------------------------------------------------------------------
# Pseudo-F-measure
# ---------------------------------------------------------------------------


def _stroke_components(gt_ink: np.ndarray):
    """Distance to background, 8-connected labels, and each label's deepest
    distance (index 0, the background, is 0)."""
    from scipy import ndimage

    dist = ndimage.distance_transform_edt(gt_ink)
    labels, count = ndimage.label(gt_ink, structure=_EIGHT_CONNECTED)
    comp_max = np.zeros(count + 1)
    np.maximum.at(comp_max, labels[gt_ink], dist[gt_ink])
    return dist, labels, comp_max


def _recall_weights(g: np.ndarray, dist, labels, comp_max) -> np.ndarray:
    weights = np.zeros(g.shape, dtype=np.float64)
    weights[g] = np.clip(dist[g] / comp_max[labels[g]], 0.0, 1.0)
    return weights


def _precision_weights(g: np.ndarray, labels, comp_max) -> np.ndarray:
    from scipy import ndimage

    stroke_width = 2.0 * comp_max
    d, (iy, ix) = ndimage.distance_transform_edt(~g, return_indices=True)
    sw = stroke_width[labels[iy, ix]]
    return np.where(d <= sw, np.clip(2.0 - d / sw, 1.0, 2.0), 1.0)


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
