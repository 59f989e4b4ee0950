"""The metrics against the whole-map references they replaced.

`drd_whole_map` and `pseudo_f_per_pair` are the earlier implementations:
DRD built two full-page distortion maps, and pseudo-F rebuilt the stroke
components (with `ndimage.maximum`) and both weight maps for every pair.
The current code computes the same float64 values in the same order, so the
scores must match them exactly, not within a tolerance. The references live
here rather than in `oracles.py` so that they are compiled only by the tests.
The one deliberate difference: a ground truth with no background gives every
recall weight 1, where scipy measures each ink pixel's distance to a pixel
outside the map.

scipy.ndimage is also the reference for the numpy nearest-feature transform
and the 8-connected labelling that the weights are built on.
"""

import math

import numpy as np
import pytest
from scipy import ndimage

from scrollbin import metrics
from scrollbin.errors import ScrollbinError
from scrollbin.imagecore import BinaryMask
from scrollbin.metrics import GroundTruth, ImageScores, confusion, evaluate, f_measure, nubn, psnr


def stroke_components_reference(g):
    dist = ndimage.distance_transform_edt(g)
    labels, count = ndimage.label(g, structure=np.ones((3, 3), dtype=bool))
    if count == 0:
        return dist, labels, np.zeros(0)
    comp_max = ndimage.maximum(dist, labels, index=np.arange(1, count + 1))
    return dist, labels, np.atleast_1d(comp_max)


def pseudo_f_per_pair(pred: BinaryMask, gt: BinaryMask) -> float:
    c = confusion(pred, gt)
    if c.tp == 0:
        return 1.0 if c.fp == 0 and c.fn == 0 else 0.0
    g = gt.ink
    dist, labels, comp_max = stroke_components_reference(g)
    w_r = np.zeros(g.shape, dtype=np.float64)
    w_r[g] = 1.0 if g.all() else np.clip(dist[g] / comp_max[labels[g] - 1], 0.0, 1.0)
    d, (iy, ix) = ndimage.distance_transform_edt(~g, return_indices=True)
    sw = (2.0 * comp_max)[labels[iy, ix] - 1]
    w_p = np.where(d <= sw, np.clip(2.0 - d / sw, 1.0, 2.0), 1.0)
    correct = pred.ink & g
    p_recall = w_r[correct].sum() / w_r[g].sum()
    p_precision = w_p[correct].sum() / w_p[pred.ink].sum()
    return 2.0 * p_recall * p_precision / (p_recall + p_precision)


def drd_whole_map(pred: BinaryMask, gt: BinaryMask) -> float:
    flipped = pred.ink ^ gt.ink
    s = int(np.count_nonzero(flipped))
    blocks = nubn(gt)
    if blocks == 0:
        return 0.0 if s == 0 else math.inf
    if s == 0:
        return 0.0
    w = metrics.drd_weight_matrix()
    g = gt.ink.astype(np.float64)
    h, wid = g.shape
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


def reference_scores(pred: BinaryMask, gt: BinaryMask) -> ImageScores:
    return ImageScores(
        f=f_measure(confusion(pred, gt)),
        pf=float(pseudo_f_per_pair(pred, gt)),  # pseudo_f_measure returns a Python float
        psnr=psnr(pred, gt),
        drd=drd_whole_map(pred, gt),
    )


def strokes(rng, h, w):
    """Random bars and single pixels, so components vary in depth and size."""
    ink = np.zeros((h, w), dtype=bool)
    for _ in range(int(rng.integers(0, 8))):
        y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
        ink[y : y + int(rng.integers(1, 6)), x : x + int(rng.integers(1, 12))] = True
    ink |= rng.random((h, w)) < 0.01
    return ink


def ground_truths(rng):
    """Seeded ground truths of every kind the scores branch on."""
    shapes = [(1, 1), (1, 7), (6, 1), (1, 40), (9, 9), (16, 24), (33, 17), (40, 41)]
    for k in range(80):
        h, w = shapes[k % len(shapes)]
        kind = k // len(shapes) % 5
        if kind == 0:
            yield np.zeros((h, w), dtype=bool)  # empty
        elif kind == 1:
            yield np.ones((h, w), dtype=bool)  # all ink
        elif kind == 2:
            yield rng.random((h, w)) < 0.05  # mostly single-pixel components
        else:
            yield strokes(rng, h, w)


def predictions(rng, gt):
    """Five predictions of one ground truth: exact, sparse and dense flips,
    the border flipped, and the complement."""
    h, w = gt.shape
    border = np.zeros((h, w), dtype=bool)
    border[[0, -1], :] = border[:, [0, -1]] = True
    yield gt.copy()
    yield gt ^ (rng.random((h, w)) < 0.03)
    yield gt ^ (rng.random((h, w)) < 0.4)
    yield gt ^ (border & (rng.random((h, w)) < 0.7))
    yield ~gt


def test_scores_equal_whole_map_references():
    rng = np.random.default_rng(20261018)
    pairs = 0
    for g in ground_truths(rng):
        gt = BinaryMask(g)
        truth = GroundTruth(gt)
        for p in predictions(rng, g):
            pred = BinaryMask(p)
            want = repr(reference_scores(pred, gt))
            assert repr(evaluate(pred, gt)) == want
            assert repr(evaluate(pred, truth)) == want  # one record shared by the five
            pairs += 1
    assert pairs == 400


def test_scores_equal_references_on_a_text_page(text_dataset):
    _, gt = text_dataset[0]
    truth = GroundTruth(gt)
    rng = np.random.default_rng(7)
    for rate in (0.0, 0.001, 0.02, 0.3):
        pred = BinaryMask(gt.ink ^ (rng.random(gt.ink.shape) < rate))
        assert repr(evaluate(pred, truth)) == repr(reference_scores(pred, gt))


@pytest.mark.parametrize("seed", range(6))
def test_component_maxima_equal_ndimage_maximum(seed):
    rng = np.random.default_rng(seed)
    g = strokes(rng, 30, 45) | (rng.random((30, 45)) < 0.05)
    dist, labels, comp_max = metrics._stroke_components(g)
    want_dist, want_labels, want = stroke_components_reference(g)
    assert comp_max[0] == 0.0
    assert np.array_equal(dist, want_dist[g])
    # Labels are numbered differently, so compare each pixel's component maximum.
    assert np.array_equal(comp_max[labels], np.where(g, np.concatenate([[0.0], want])[want_labels], 0.0))


def random_masks(seed: int, count: int):
    """Masks of 1xN, Nx1 and general shapes at densities from 0.02 to 0.95."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 1), (1, 23), (17, 1), (2, 31), (29, 3)]
    for k in range(count):
        h, w = shapes[k] if k < len(shapes) else tuple(int(n) for n in rng.integers(1, 33, 2))
        density = (0.02, 0.2, 0.5, 0.8, 0.95)[k % 5]
        yield rng.random((h, w)) < density


def nearest_everywhere(feature, limit):
    """The transform's results for every pixel, as full maps."""
    d2 = np.zeros(feature.shape, dtype=np.int64)
    nearest = np.zeros(feature.shape, dtype=np.int64)
    for flat, block_d2, block_nearest in metrics._nearest_feature(feature, np.ones_like(feature), limit):
        d2.ravel()[flat] = block_d2
        nearest.ravel()[flat] = block_nearest
    return d2, nearest


def far_apart_features():
    """37x41 maps whose pixels lie far from their nearest feature: one
    feature pixel, a diagonal, an anti-diagonal, and feature everywhere but
    a 27x29 square."""
    single = np.zeros((37, 41), dtype=bool)
    single[11, 30] = True
    diagonal = np.eye(37, 41, dtype=bool)
    anti = diagonal[:, ::-1].copy()
    hole = np.ones((37, 41), dtype=bool)
    hole[5:32, 6:35] = False
    return [single, diagonal, anti, hole]


@pytest.mark.parametrize("seed", range(4))
def test_nearest_feature_equals_ndimage_transform(seed):
    checked = 0
    for feature in [*random_masks(seed, 60), *far_apart_features()]:
        if not feature.any():
            continue
        h, w = feature.shape
        d, (iy, ix) = ndimage.distance_transform_edt(~feature, return_indices=True)
        limit = (h - 1) ** 2 + (w - 1) ** 2  # the squared diagonal: every pixel is exact
        d2, nearest = nearest_everywhere(feature, limit)
        assert np.array_equal(np.sqrt(d2.astype(np.float64)), d)
        assert np.array_equal(nearest, iy * w + ix)  # nearest, then least column, then least row
        checked += 1
    assert checked > 54


def test_limits_at_the_int64_packing_bound():
    # Keys pack d2 (up to limit + 1) with the column offset in one int64. On
    # a map 3 wide (offsets within 2, radix 5) the largest key the row search
    # forms is (limit + 5) * 5 + 4, so the largest limit must still be exact.
    feature = np.zeros((2, 3), dtype=bool)
    feature[0, 0] = True
    largest = ((1 << 63) - 5) // 5 - 5
    d2, nearest = nearest_everywhere(feature, largest)
    assert d2.tolist() == [[0, 1, 4], [1, 2, 5]] and not nearest.any()
    for limit in (largest + 1, 1 << 62):
        with pytest.raises(ScrollbinError, match="a 3x2 ground truth is too large to weigh"):
            nearest_everywhere(feature, limit)


@pytest.mark.parametrize("limit", [0, 1, 2, 5, 13, 40])
def test_nearest_feature_is_exact_within_its_limit(limit):
    for feature in random_masks(limit, 40):
        if not feature.any():
            continue
        w = feature.shape[1]
        d, (iy, ix) = ndimage.distance_transform_edt(~feature, return_indices=True)
        d2, nearest = nearest_everywhere(feature, limit)
        near = d2 <= limit
        assert np.array_equal(np.sqrt(d2[near].astype(np.float64)), d[near])
        assert np.array_equal(nearest[near], (iy * w + ix)[near])
        assert (d[~near] ** 2 > limit).all()


def test_columns_without_feature():
    feature = np.zeros((12, 9), dtype=bool)
    feature[3, 2] = feature[8, 2] = feature[5, 7] = True  # every other column is empty
    d, (iy, ix) = ndimage.distance_transform_edt(~feature, return_indices=True)
    d2, nearest = nearest_everywhere(feature, 12 * 12 + 9 * 9)
    assert np.array_equal(np.sqrt(d2.astype(np.float64)), d)
    assert np.array_equal(nearest, iy * 9 + ix)


@pytest.mark.parametrize("seed", range(4))
def test_labels_partition_like_ndimage_label(seed):
    for g in random_masks(100 + seed, 60):
        if not g.any() or g.all():
            continue
        _, labels, _ = metrics._stroke_components(g)
        want, count = ndimage.label(g, structure=np.ones((3, 3), dtype=bool))
        assert np.array_equal(labels == 0, want == 0)
        # The same partition: each label maps to exactly one reference label and back.
        pairs = np.unique(np.stack([labels[g], want[g]]), axis=1)
        assert pairs.shape[1] == count == np.unique(labels[g]).size
