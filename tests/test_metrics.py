import math
import tracemalloc

import numpy as np
import pytest

from conftest import stroke_ink
from oracles import (
    naive_counts,
    naive_drd,
    naive_f_measure,
    naive_precision_weights,
    naive_pseudo_f,
    naive_psnr,
    naive_recall_weights,
)

from scrollbin.errors import DimensionMismatchError, ScrollbinError
from scrollbin.imagecore import BinaryMask
from scrollbin.metrics import (
    Confusion,
    aggregate,
    confusion,
    drd,
    drd_weight_matrix,
    evaluate,
    f_measure,
    nubn,
    precision_weights,
    pseudo_f_measure,
    psnr,
    recall_weights,
)


def mask(arr):
    return BinaryMask(np.asarray(arr, dtype=bool))


def random_pair(rng, h, w, p=0.5, q=0.5):
    return mask(rng.random((h, w)) < p), mask(rng.random((h, w)) < q)


class TestConfusion:
    def test_equal_masks(self):
        rng = np.random.default_rng(0)
        m, _ = random_pair(rng, 8, 8)
        c = confusion(m, m)
        assert c.fp == 0 and c.fn == 0
        assert c.tp == int(m.ink.sum())

    def test_complement(self):
        rng = np.random.default_rng(1)
        m, _ = random_pair(rng, 8, 8)
        c = confusion(BinaryMask(~m.ink), m)
        assert c.tp == 0 and c.tn == 0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            pred, gt = random_pair(rng, 8, 8)
            c = confusion(pred, gt)
            assert (c.tp, c.fp, c.fn, c.tn) == naive_counts(pred.ink, gt.ink)
            assert c.tp + c.fp + c.fn + c.tn == 64

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            confusion(mask(np.zeros((3, 3))), mask(np.zeros((3, 4))))


class TestFMeasure:
    def test_perfect(self):
        assert f_measure(Confusion(10, 0, 0, 54)) == 1.0

    def test_hand_case(self):
        # tp=1, fp=1, fn=0: P=0.5, R=1 -> F=2/3
        assert f_measure(Confusion(1, 1, 0, 62)) == pytest.approx(2.0 / 3.0)

    def test_all_background_prediction(self):
        assert f_measure(Confusion(0, 0, 12, 52)) == 0.0

    def test_both_empty(self):
        assert f_measure(Confusion(0, 0, 0, 64)) == 1.0

    def test_matches_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            pred, gt = random_pair(rng, 9, 7)
            assert f_measure(confusion(pred, gt)) == pytest.approx(
                naive_f_measure(pred.ink, gt.ink), abs=1e-12
            )


class TestPsnr:
    def test_single_flip_closed_form(self):
        gt = mask(np.zeros((16, 16)))
        pred_ink = np.zeros((16, 16), dtype=bool)
        pred_ink[5, 7] = True
        value = psnr(mask(pred_ink), gt)
        assert value == pytest.approx(10.0 * math.log10(256.0), abs=1e-3)  # ~24.082 dB

    def test_identical_is_infinite(self):
        rng = np.random.default_rng(4)
        m, _ = random_pair(rng, 8, 8)
        assert psnr(m, m) == math.inf

    def test_all_flipped_is_zero(self):
        m = mask(np.zeros((8, 8)))
        assert psnr(BinaryMask(~m.ink), m) == 0.0

    def test_monotone_in_hamming_distance(self):
        gt = mask(np.zeros((12, 12)))
        previous = math.inf
        ink = np.zeros((12, 12), dtype=bool)
        for k in range(5):
            ink[k, k] = True
            value = psnr(mask(ink.copy()), gt)
            assert value < previous
            previous = value

    def test_matches_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pred, gt = random_pair(rng, 10, 6)
            assert psnr(pred, gt) == pytest.approx(naive_psnr(pred.ink, gt.ink), abs=1e-9)


class TestDrd:
    def test_weight_matrix(self):
        w = drd_weight_matrix()
        assert w[2, 2] == 0.0
        assert w[0, 0] / w[2, 1] == pytest.approx(1.0 / math.sqrt(8.0))
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_equal_masks_zero(self):
        rng = np.random.default_rng(6)
        m, _ = random_pair(rng, 24, 24)
        assert drd(m, m) == 0.0

    def test_nubn_counts_partial_blocks(self):
        ink = np.zeros((10, 10), dtype=bool)
        assert nubn(mask(ink)) == 0
        ink[9, 9] = True  # only the bottom-right partial 2x2 block is mixed
        assert nubn(mask(ink)) == 1
        ink[0, 0] = True
        assert nubn(mask(ink)) == 2

    def test_nubn_uniform_blocks_excluded(self):
        ink = np.zeros((16, 16), dtype=bool)
        ink[:8, :8] = True  # one all-ink block, three all-background
        assert nubn(mask(ink)) == 0

    def test_uniform_gt_conventions(self):
        gt = mask(np.zeros((8, 8)))
        assert drd(gt, gt) == 0.0
        pred = np.zeros((8, 8), dtype=bool)
        pred[3, 3] = True
        assert drd(mask(pred), gt) == math.inf

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(7)
        for _ in range(8):
            pred, gt = random_pair(rng, 24, 24, p=0.3, q=0.35)
            assert drd(pred, gt) == pytest.approx(naive_drd(pred.ink, gt.ink), abs=1e-9)

    def test_matches_oracle_border_flips(self):
        # flips on the border exercise the out-of-bounds rule
        gt_ink = np.zeros((9, 9), dtype=bool)
        gt_ink[4:6, 2:7] = True
        pred_ink = np.zeros((9, 9), dtype=bool)
        pred_ink[0, 0] = True
        pred_ink[8, 8] = True
        pred_ink[4, 2] = True
        assert drd(mask(pred_ink), mask(gt_ink)) == pytest.approx(
            naive_drd(pred_ink, gt_ink), abs=1e-12
        )


class TestPseudoF:
    def test_equal_masks_score_one(self):
        rng = np.random.default_rng(8)
        ink = np.zeros((12, 12), dtype=bool)
        ink[3:6, 2:10] = True
        m = mask(ink)
        assert pseudo_f_measure(m, m) == pytest.approx(1.0)

    def test_both_empty_score_one(self):
        empty = mask(np.zeros((6, 6)))
        assert pseudo_f_measure(empty, empty) == 1.0

    def test_empty_prediction_scores_zero(self):
        ink = np.zeros((8, 8), dtype=bool)
        ink[2:5, 2:5] = True
        assert pseudo_f_measure(mask(np.zeros((8, 8))), mask(ink)) == 0.0

    def test_recall_weights_single_stroke(self):
        ink = np.zeros((9, 13), dtype=bool)
        ink[3:6, 2:11] = True
        w = recall_weights(mask(ink))
        assert np.allclose(w[ink], naive_recall_weights(ink)[ink])
        assert not w[~ink].any()
        assert w[ink].max() == 1.0
        assert (w[ink] > 0).all()

    def test_precision_weights_single_stroke(self):
        ink = np.zeros((9, 13), dtype=bool)
        ink[3:6, 2:11] = True
        w = precision_weights(mask(ink))
        naive = naive_precision_weights(ink)
        assert np.allclose(w, naive)
        assert np.all(w[ink] == 2.0)
        assert w.min() >= 1.0 and w.max() <= 2.0

    def test_single_stroke_self_consistency(self):
        # thick diagonal stroke, prediction erodes one end and adds a blotch
        ink = np.zeros((14, 14), dtype=bool)
        for i in range(10):
            ink[2 + i, 3 + i // 2 : 7 + i // 2] = True
        pred = ink.copy()
        pred[2:4] = False
        pred[11:13, 0:2] = True
        got = pseudo_f_measure(mask(pred), mask(ink))
        assert got == pytest.approx(naive_pseudo_f(pred, ink), abs=1e-9)

    def test_constant_weights_reduce_to_f(self):
        # single-pixel-wide strokes make every recall weight 1, and a
        # prediction inside the ink keeps every precision weight at 2, so the
        # weighted measure must equal the plain F-measure
        ink = np.zeros((10, 10), dtype=bool)
        ink[2, 1:9] = True
        ink[7, 2:8] = True
        pred = ink.copy()
        pred[2, 5:9] = False  # misses: recall < 1, no false positives
        m_pred, m_gt = mask(pred), mask(ink)
        w = recall_weights(m_gt)
        assert np.all(w[ink] == 1.0)
        assert pseudo_f_measure(m_pred, m_gt) == pytest.approx(f_measure(confusion(m_pred, m_gt)))

    def test_all_ink_ground_truth_scores_f(self):
        # With no background every recall weight is 1, so either half of an
        # all-ink map scores its F, whichever half it is.
        ink = np.ones((8, 8), dtype=bool)
        assert np.array_equal(recall_weights(mask(ink)), naive_recall_weights(ink))
        assert np.all(precision_weights(mask(ink)) == 2.0)
        for half in (slice(0, 4), slice(4, 8)):
            pred = np.zeros((8, 8), dtype=bool)
            pred[half] = True
            m_pred, m_gt = mask(pred), mask(ink)
            assert pseudo_f_measure(m_pred, m_gt) == pytest.approx(f_measure(confusion(m_pred, m_gt)), abs=1e-12)
            assert pseudo_f_measure(m_pred, m_gt) == pytest.approx(naive_pseudo_f(pred, ink), abs=1e-12)

    def test_weights_equal_oracles_exactly(self):
        # A thick block among single pixels: ink of two stroke widths is often
        # equidistant from a pixel, so this fails unless the oracle keeps the
        # same tie rule (it differed on 19 of these 200 masks).
        # A map with no ink comes first: recall weight 0 and precision weight 1.
        rng = np.random.default_rng(2026)
        inks = [np.zeros((7, 5), dtype=bool)]
        for _ in range(200):
            h, w = (int(n) for n in rng.integers(3, 11, 2))
            ink = rng.random((h, w)) < 0.08
            y, x = int(rng.integers(0, h)), int(rng.integers(0, w))
            ink[y : y + int(rng.integers(2, 5)), x : x + int(rng.integers(2, 5))] = True
            inks.append(ink)
        for ink in inks:
            w_r, w_p = recall_weights(mask(ink)), precision_weights(mask(ink))
            assert w_r.dtype == w_p.dtype == np.float64
            assert np.array_equal(w_r, naive_recall_weights(ink))
            assert np.array_equal(w_p, naive_precision_weights(ink))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            pseudo_f_measure(mask(np.zeros((3, 3))), mask(np.zeros((4, 3))))


class TestAggregate:
    def test_single_record(self):
        rec = evaluate(mask(np.eye(8)), mask(np.eye(8)))
        report = aggregate([rec])
        assert report.mean["f"] == 1.0
        assert report.std["f"] == 0.0
        assert report.psnr_inf_count == 1
        assert report.mean["psnr"] is None  # no finite values to average

    def test_two_record_hand_stats(self):
        from scrollbin.metrics import ImageScores

        a = ImageScores(f=10.0, pf=10.0, psnr=10.0, drd=10.0)
        b = ImageScores(f=20.0, pf=20.0, psnr=20.0, drd=20.0)
        report = aggregate([a, b])
        assert report.mean["f"] == pytest.approx(15.0)
        assert report.std["f"] == pytest.approx(7.0711, abs=1e-4)

    def test_infinite_psnr_excluded(self):
        from scrollbin.metrics import ImageScores

        a = ImageScores(f=1.0, pf=1.0, psnr=math.inf, drd=0.0)
        b = ImageScores(f=0.5, pf=0.5, psnr=12.0, drd=3.0)
        report = aggregate([a, b])
        assert report.mean["psnr"] == pytest.approx(12.0)
        assert report.std["psnr"] == 0.0
        assert report.psnr_inf_count == 1
        assert report.mean["f"] == pytest.approx(0.75)

    def test_infinite_drd_has_mean_inf_and_no_std(self):
        from scrollbin.metrics import ImageScores

        a = ImageScores(f=0.0, pf=0.0, psnr=12.0, drd=math.inf)
        b = ImageScores(f=0.5, pf=0.5, psnr=14.0, drd=3.0)
        report = aggregate([a, b])
        assert report.mean["drd"] == math.inf and report.std["drd"] is None
        assert report.mean["f"] == pytest.approx(0.25)
        single = aggregate([a])
        assert single.mean["drd"] == math.inf and single.std["drd"] is None
        assert single.std["f"] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ScrollbinError):
            aggregate([])


def test_evaluate_is_pure():
    rng = np.random.default_rng(9)
    pred, gt = random_pair(rng, 16, 16)
    before = (pred.ink.copy(), gt.ink.copy())
    evaluate(pred, gt)
    assert np.array_equal(pred.ink, before[0]) and np.array_equal(gt.ink, before[1])


def test_image_scores_are_python_floats():
    rng = np.random.default_rng(12)
    pred, gt = random_pair(rng, 24, 24, p=0.3, q=0.3)
    scores = evaluate(pred, gt)
    assert confusion(pred, gt).tp > 0  # pseudo-F reaches its weighted ratio
    assert [type(v) for v in vars(scores).values()] == [float] * 4, repr(scores)


def test_evaluate_peak_memory_per_pixel():
    # A page-sized pair with 1% of its pixels flipped; the whole-map DRD and
    # per-pair pseudo-F it replaced peaked at 61 B/px here, and keeping the
    # distance-to-background map alive through the precision transform at 62.
    rng = np.random.default_rng(11)
    h, w = 1200, 3608
    ink = stroke_ink(rng, h, w, 4000)
    pred, gt = mask(ink ^ (rng.random((h, w)) < 0.01)), mask(ink)
    tracemalloc.start()
    try:
        evaluate(pred, gt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 56 * h * w
