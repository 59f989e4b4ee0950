"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion (lines also appear without -s whenever a criterion fails).
"""

import functools
import math
import sys
import time

import numpy as np
import pytest

from oracles import (
    fd_gradient,
    max_rel_err,
    naive_conv2d,
    naive_drd,
    naive_f_measure,
    naive_psnr,
    otsu_exact,
)
from test_binet import e2e_check_fixture, eval_stage_shapes

from scrollbin import binet, metrics
from scrollbin.autodiff import (
    BatchNormParams,
    ConvParams,
    batchnorm_bwd,
    batchnorm_fwd,
    concat_channels,
    conv2d_bwd,
    conv2d_fwd,
    deconv2d_bwd,
    deconv2d_fwd,
    dropout,
    dropout_bwd,
    l1_loss,
    leaky_relu,
    leaky_relu_bwd,
    split_channels,
    tanh_act,
    tanh_bwd,
)
from scrollbin.classical import otsu_global, otsu_local
from scrollbin.cli import main as cli_main
from scrollbin.errors import WeightsFormatError, WeightsVersionError
from scrollbin.imagecore import BinaryMask, GrayImage, read_pnm, write_pnm
from scrollbin.metrics import confusion, drd, evaluate, f_measure, psnr
from scrollbin.tiling import reassemble, split


def criterion(number, title):
    # sys.__stderr__ dodges pytest's capture so one line prints per criterion
    # even in a plain `pytest` run
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:2d} FAIL  {title}", file=sys.__stderr__, flush=True)
                raise
            elapsed = time.time() - start
            print(
                f"ACCEPTANCE {number:2d} PASS  {title} ({elapsed:.1f}s)",
                file=sys.__stderr__,
                flush=True,
            )

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. Tiling arithmetic
# ---------------------------------------------------------------------------


@criterion(1, "tiling: 2706x3608 -> 165 patches, bit-exact reassembly")
def test_criterion_01_tiling_arithmetic():
    rng = np.random.default_rng(1)
    img = GrayImage(rng.integers(0, 256, (3608, 2706), dtype=np.uint8))
    grid = split(img, 256)
    assert len(grid.patches) == 165
    assert (grid.rows, grid.cols) == (15, 11)
    out = reassemble(grid)
    assert np.array_equal(out.pixels, img.pixels)


# ---------------------------------------------------------------------------
# 2. Architecture shape ladder
# ---------------------------------------------------------------------------


@criterion(2, "architecture: resolution ladder 128..1..256, output in (-1,1)")
def test_criterion_02_shape_ladder(monkeypatch):
    rng = np.random.default_rng(2)
    model = binet.build_model(1, seed=7)
    x = rng.normal(0, 0.5, (1, 1, 256, 256)).astype(np.float32)
    enc_shapes, dec_shapes = eval_stage_shapes(model, x, monkeypatch)
    assert [s[2] for s in enc_shapes] == [128, 64, 32, 16, 8, 4, 2, 1]
    assert [s[3] for s in enc_shapes] == [128, 64, 32, 16, 8, 4, 2, 1]
    assert [s[2] for s in dec_shapes] == [2, 4, 8, 16, 32, 64, 128, 256]
    out = binet.forward(model, x)
    assert out.shape == (1, 1, 256, 256)
    assert np.all(out > -1.0) and np.all(out < 1.0)


# ---------------------------------------------------------------------------
# 3. Gradient correctness
# ---------------------------------------------------------------------------

OP_TOL = 1e-3


def _sq_grad(out, target):
    return 2.0 * (out - target)


@criterion(3, "gradients: every op and the shrunken network pass FD checks")
def test_criterion_03_gradient_correctness():
    rng = np.random.default_rng(3)

    # conv2d: weight, bias, input
    x = rng.normal(0, 1, (1, 2, 4, 4))
    p = ConvParams(rng.normal(0, 0.5, (3, 2, 4, 4)), rng.normal(0, 0.5, 3))
    t = rng.normal(0, 1, (1, 3, 2, 2))
    gx = conv2d_bwd(x, p, _sq_grad(conv2d_fwd(x, p), t))
    loss = lambda: float(((conv2d_fwd(x, p) - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL
    assert max_rel_err(p.weight.grad, fd_gradient(loss, p.weight.data)) < OP_TOL
    assert max_rel_err(p.bias.grad, fd_gradient(loss, p.bias.data)) < OP_TOL
    # forward also agrees with the naive loop reference
    assert np.max(np.abs(conv2d_fwd(x, p) - naive_conv2d(x, p.weight.data, p.bias.data))) < 1e-5

    # deconv2d
    x = rng.normal(0, 1, (1, 3, 2, 2))
    p = ConvParams(rng.normal(0, 0.5, (3, 2, 4, 4)), rng.normal(0, 0.5, 2))
    t = rng.normal(0, 1, (1, 2, 4, 4))
    gx = deconv2d_bwd(x, p, _sq_grad(deconv2d_fwd(x, p), t))
    loss = lambda: float(((deconv2d_fwd(x, p) - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL
    assert max_rel_err(p.weight.grad, fd_gradient(loss, p.weight.data)) < OP_TOL
    assert max_rel_err(p.bias.grad, fd_gradient(loss, p.bias.data)) < OP_TOL

    # batchnorm (train statistics)
    x = rng.normal(0, 1, (2, 3, 3, 3))
    bn = BatchNormParams(rng.normal(1, 0.2, 3), rng.normal(0, 0.2, 3))
    t = rng.normal(0, 1, x.shape)
    out, cache = batchnorm_fwd(x, bn)
    gx = batchnorm_bwd(bn, cache, _sq_grad(out, t))
    loss = lambda: float(((batchnorm_fwd(x, bn)[0] - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL
    assert max_rel_err(bn.gamma.grad, fd_gradient(loss, bn.gamma.data)) < OP_TOL
    assert max_rel_err(bn.beta.grad, fd_gradient(loss, bn.beta.data)) < OP_TOL

    # leaky relu (away from the kink)
    x = rng.normal(0, 1, (1, 2, 4, 4))
    x[np.abs(x) < 1e-2] = 0.5
    t = rng.normal(0, 1, x.shape)
    gx = leaky_relu_bwd(x, _sq_grad(leaky_relu(x), t))
    loss = lambda: float(((leaky_relu(x) - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL

    # tanh
    x = rng.normal(0, 1, (1, 2, 3, 3))
    t = rng.normal(0, 1, x.shape)
    gx = tanh_bwd(tanh_act(x), _sq_grad(tanh_act(x), t))
    loss = lambda: float(((tanh_act(x) - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL

    # dropout with a frozen mask
    x = rng.normal(0, 1, (1, 2, 6, 6))
    t = rng.normal(0, 1, x.shape)
    frozen = lambda: dropout(x, np.random.default_rng(99))
    out, mask = frozen()
    gx = dropout_bwd(_sq_grad(out, t), mask)
    loss = lambda: float(((frozen()[0] - t) ** 2).sum())
    assert max_rel_err(gx, fd_gradient(loss, x)) < OP_TOL

    # channel concat routes gradients to both operands
    a = rng.normal(0, 1, (1, 2, 3, 3))
    b = rng.normal(0, 1, (1, 3, 3, 3))
    t = rng.normal(0, 1, (1, 5, 3, 3))
    ga, gb = split_channels(_sq_grad(concat_channels(a, b), t), 2)
    loss = lambda: float(((concat_channels(a, b) - t) ** 2).sum())
    assert max_rel_err(ga, fd_gradient(loss, a)) < OP_TOL
    assert max_rel_err(gb, fd_gradient(loss, b)) < OP_TOL

    # L1 loss, off ties
    pred = rng.normal(0, 1, (1, 2, 4, 4))
    target = pred + np.where(rng.random(pred.shape) < 0.5, 0.4, -0.4)
    _, grad = l1_loss(pred, target)
    loss = lambda: l1_loss(pred, target)[0]
    assert max_rel_err(grad, fd_gradient(loss, pred)) < OP_TOL

    # shrunken end-to-end network: every parameter
    m, x, target = e2e_check_fixture()
    out, cache = binet._forward_cached(m, x, np.random.default_rng(0))
    _, grad = l1_loss(out, target)
    for _ in binet.backward_stages(m, cache, grad):
        pass
    loss = lambda: l1_loss(binet._forward_cached(m, x, np.random.default_rng(0))[0], target)[0]
    worst = 0.0
    for p in m.params():
        worst = max(worst, max_rel_err(p.grad, fd_gradient(loss, p.data, eps=1e-5), floor=1e-7))
    assert worst < 1e-2


# ---------------------------------------------------------------------------
# 4. Overfit smoke test (desk-scale stand-in for corpus-scale training runs)
# ---------------------------------------------------------------------------


@criterion(4, "overfit: full model, 300 steps on 4 text patches, F >= 0.90")
def test_criterion_04_overfit_smoke(text_dataset):
    cfg = binet.TrainConfig(epochs=75, lr=2e-4, seed=11, batch_size=1)
    model, history = binet.train(text_dataset, cfg)
    assert model.step == 300
    f_values = []
    for img, gt in text_dataset:
        pred = binet.binarize_image(model, img)
        f_values.append(evaluate(pred, gt).f)
    assert float(np.mean(f_values)) >= 0.90
    assert history[-1] < history[0]


# ---------------------------------------------------------------------------
# 5. Metric oracles
# ---------------------------------------------------------------------------


@criterion(5, "metrics: 1000 random pairs match brute force; PSNR closed form")
def test_criterion_05_metric_oracles():
    gt = BinaryMask(np.zeros((16, 16), dtype=bool))
    one = np.zeros((16, 16), dtype=bool)
    one[5, 7] = True
    assert psnr(BinaryMask(one), gt) == pytest.approx(24.082, abs=1e-3)

    rng = np.random.default_rng(5)
    for _ in range(1000):
        h = int(rng.integers(4, 33))
        w = int(rng.integers(4, 33))
        gt_ink = rng.random((h, w)) < rng.uniform(0.1, 0.9)
        pred_ink = gt_ink ^ (rng.random((h, w)) < rng.uniform(0.0, 0.5))
        pred, gt = BinaryMask(pred_ink), BinaryMask(gt_ink)

        assert f_measure(confusion(pred, gt)) == naive_f_measure(pred_ink, gt_ink)
        got_psnr, want_psnr = psnr(pred, gt), naive_psnr(pred_ink, gt_ink)
        assert got_psnr == want_psnr or abs(got_psnr - want_psnr) < 1e-9
        got_drd, want_drd = drd(pred, gt), naive_drd(pred_ink, gt_ink)
        assert got_drd == want_drd or abs(got_drd - want_drd) < 1e-9


# ---------------------------------------------------------------------------
# 6. Otsu oracle
# ---------------------------------------------------------------------------


@criterion(6, "otsu: threshold equals exact exhaustive argmax on 500 images")
def test_criterion_06_otsu_oracle():
    rng = np.random.default_rng(6)
    for trial in range(500):
        h = int(rng.integers(2, 14))
        w = int(rng.integers(2, 14))
        if trial % 3 == 0:
            lo = int(rng.integers(0, 250))
            hi = int(rng.integers(lo + 1, 257))
            px = rng.integers(lo, hi, (h, w), dtype=np.uint8)
        else:
            px = rng.integers(0, 256, (h, w), dtype=np.uint8)
        t, mask = otsu_global(GrayImage(px))
        expected = otsu_exact(px)
        if expected is None:
            assert t == 0 and not mask.ink.any()
        else:
            assert t == expected
            assert np.array_equal(mask.ink, px <= t)


# ---------------------------------------------------------------------------
# 7. Classical-baseline ordering
# ---------------------------------------------------------------------------


def _ramp_text_fixture():
    """Low-contrast text over a strong left-to-right illumination ramp."""
    rng = np.random.default_rng(77)
    h = w = 200
    xs = np.arange(w)[None, :].repeat(h, 0)
    background = 60.0 + 140.0 * xs / (w - 1) + rng.normal(0, 6.0, (h, w))
    ink = np.zeros((h, w), dtype=bool)
    for gy in range(10, h - 14, 24):
        for gx in range(8, w - 16, 20):
            ink[gy : gy + 3, gx : gx + 12] = True
            ink[gy : gy + 10, gx : gx + 3] = True
    shaded = background.copy()
    shaded[ink] = background[ink] - 50.0
    return GrayImage(np.clip(shaded, 0, 255).astype(np.uint8)), BinaryMask(ink)


@criterion(7, "baselines: local Otsu beats global Otsu on textured fixture")
def test_criterion_07_baseline_ordering():
    img, gt = _ramp_text_fixture()
    _, global_mask = otsu_global(img)
    local_mask = otsu_local(img, 31)
    f_global = f_measure(confusion(global_mask, gt))
    f_local = f_measure(confusion(local_mask, gt))
    assert f_local > f_global


# ---------------------------------------------------------------------------
# 8. Transfer-learning mode
# ---------------------------------------------------------------------------


@criterion(8, "transfer: warm start lowers the first-epoch loss")
def test_criterion_08_transfer_learning(text_dataset, tmp_path):
    pre_cfg = binet.TrainConfig(epochs=2, lr=2e-4, seed=21)
    checkpoint, _ = binet.train(text_dataset, pre_cfg)
    path = tmp_path / "pre.bnet"
    binet.save_weights(checkpoint, path)

    one_epoch = binet.TrainConfig(epochs=1, lr=2e-4, seed=22)
    _, fresh_history = binet.train(text_dataset, one_epoch)
    warm_model, warm_history = binet.train(text_dataset, one_epoch, init=binet.load_weights(path))
    assert warm_history[0] < fresh_history[0]
    assert warm_model.step == checkpoint.step + len(text_dataset)


# ---------------------------------------------------------------------------
# 9. Serialization round-trip
# ---------------------------------------------------------------------------


@criterion(9, "weights: bit-identical round trip; corrupt files rejected")
def test_criterion_09_serialization(tmp_path):
    rng = np.random.default_rng(9)
    model = binet.build_model(
        3, seed=int(rng.integers(1 << 30)), encoder_channels=(8, 4, 2, 1), decoder_channels=(2, 4, 8, 1)
    )
    for st in model.stages:
        if st.bn is not None:
            st.bn.running_mean += rng.normal(0, 1, st.bn.channels).astype(np.float32)
            st.bn.running_var[:] = rng.random(st.bn.channels).astype(np.float32) + 0.1
    model.step = 987654321
    path = tmp_path / "model.bnet"
    binet.save_weights(model, path)
    assert binet.params_equal(binet.load_weights(path), model)

    blob = bytearray(path.read_bytes())
    bad_magic = tmp_path / "magic.bnet"
    bad_magic.write_bytes(b"NOPE" + bytes(blob[4:]))
    with pytest.raises(WeightsFormatError):
        binet.load_weights(bad_magic)

    bad_version = tmp_path / "version.bnet"
    bad_version.write_bytes(bytes(blob[:4]) + (2).to_bytes(4, "little") + bytes(blob[8:]))
    with pytest.raises(WeightsVersionError):
        binet.load_weights(bad_version)

    truncated = tmp_path / "short.bnet"
    truncated.write_bytes(bytes(blob[: len(blob) * 2 // 3]))
    with pytest.raises(WeightsFormatError):
        binet.load_weights(truncated)


# ---------------------------------------------------------------------------
# 10. Determinism
# ---------------------------------------------------------------------------


@criterion(10, "determinism: identical seeds give byte-identical train runs")
def test_criterion_10_determinism(tmp_path):
    rng = np.random.default_rng(10)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for i in range(2):
        arr = rng.integers(0, 256, (40, 30), dtype=np.uint8)
        ink = rng.random((40, 30)) < 0.2
        write_pnm(GrayImage(arr), data_dir / f"img{i}.pgm")
        write_pnm(BinaryMask(ink), data_dir / f"img{i}.gt.pbm")

    outputs = []
    for run in ("a", "b"):
        weights = tmp_path / f"model_{run}.bnet"
        history = tmp_path / f"history_{run}.json"
        code = cli_main(
            [
                "train", "--data", str(data_dir), "--mode", "gray", "--epochs", "2",
                "--lr", "0.0002", "--seed", "123",
                "--out", str(weights), "--history", str(history),
            ]
        )
        assert code == 0
        outputs.append((weights.read_bytes(), history.read_bytes()))
    assert outputs[0][0] == outputs[1][0], "weight files differ between identical runs"
    assert outputs[0][1] == outputs[1][1], "loss histories differ between identical runs"
