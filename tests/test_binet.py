import contextlib
import io
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, max_rel_err, naive_binet_eval

from scrollbin import binet
from scrollbin.autodiff import CHUNK, AdamState, BatchNormParams, Param, adam_step, l1_loss
from scrollbin.binet import (
    ENCODER_CHANNELS,
    GROUP,
    NetParams,
    TrainConfig,
    WeightsFile,
    backward_stages,
    binarize_image,
    build_model,
    denormalize_output,
    forward,
    load_weights,
    mask_to_target,
    normalize_input,
    params_equal,
    save_weights,
    train,
)
from scrollbin.errors import ScrollbinError, WeightsFormatError, WeightsVersionError
from scrollbin.cli import main
from scrollbin.imagecore import BinaryMask, GrayImage, RgbImage, read_pnm, to_grayscale, write_pnm
from scrollbin.tiling import reassemble, split

TINY_ENC = (8, 4, 2, 1)
TINY_DEC = (2, 4, 8, 1)


def tiny_model(seed=5, in_channels=1, dropout=(), dtype=np.float32):
    return build_model(
        in_channels,
        seed,
        encoder_channels=TINY_ENC,
        decoder_channels=TINY_DEC,
        dropout_stages=dropout,
        dtype=dtype,
    )


def stage(model, name):
    """The stage of model called name."""
    return next(st for st in model.stages if st.name == name)


def e2e_check_fixture(n=len(TINY_ENC)):
    """Shrunken float64 network of n stages a side plus input/target for gradient checking.

    Weights are rescaled well above the usual init so pre-activations land
    away from the LeakyReLU kink (verified by the caller).
    """
    m = build_model(1, 32, TINY_ENC[:n], TINY_DEC[-n:], dropout_stages=(), dtype=np.float64)
    rng = np.random.default_rng(132)
    for st in m.stages:
        st.conv.weight.data *= 25.0
        st.conv.bias.data[:] = rng.normal(0, 0.3, st.conv.bias.data.shape)
    size = m.patch
    x = rng.normal(0, 1, (1, 1, size, size))
    target = np.where(rng.random((1, 1, size, size)) < 0.5, 0.75, -0.75)
    return m, x, target



def eval_stage_shapes(model, x, monkeypatch):
    """Stage output shapes of an eval forward, read by wrapping binet's conv names.

    Returns (encoder shapes, decoder shapes); decoder shapes are the
    transposed-convolution outputs before skip concatenation.
    """
    shapes = {"conv2d_fwd": [], "deconv2d_fwd": []}
    for name, seen in shapes.items():
        original = getattr(binet, name)

        def recorded(*args, _seen=seen, _original=original):
            out = _original(*args)
            _seen.append(out.shape)
            return out

        monkeypatch.setattr(binet, name, recorded)
    forward(model, x)
    return list(shapes["conv2d_fwd"]), list(shapes["deconv2d_fwd"])


def random_gray(rng, w, h):
    return GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))


def fuzz_model():
    """The 2-stage model whose files the property tests edit."""
    return build_model(1, 3, encoder_channels=(2, 2), decoder_channels=(2, 1))


FUZZ_TENSORS = [name for name, _ in fuzz_model().named_tensors()]


class TestBuildModel:
    def test_first_conv_shape(self):
        m = build_model(1, 0)
        assert m.stages[0].conv.weight.shape == (64, 1, 4, 4)

    def test_parameter_counts_frozen(self):
        # frozen regression constants, cross-checked against a closed-form
        # sum over the channel ladders written independently of the builder
        def ladder_count(in_ch, enc, dec):
            n = len(enc)
            total = 0
            prev = in_ch
            for i, ch in enumerate(enc):
                total += ch * prev * 16 + ch
                if 0 < i < n - 1:
                    total += 2 * ch
                prev = ch
            for j, ch in enumerate(dec):
                total += prev * ch * 16 + ch
                if j < n - 1:
                    total += 2 * ch
                    prev = ch + enc[n - 2 - j]
            return total

        from scrollbin.binet import DECODER_CHANNELS

        assert ladder_count(1, ENCODER_CHANNELS, DECODER_CHANNELS) == 54_413_313
        assert ladder_count(3, ENCODER_CHANNELS, DECODER_CHANNELS) == 54_415_361
        assert build_model(1, 0).param_count() == 54_413_313
        assert build_model(3, 0).param_count() == 54_415_361

    def test_same_seed_bit_identical(self):
        assert params_equal(build_model(1, 9), build_model(1, 9))

    def test_draws_in_named_tensors_order(self):
        # the seeded bytes of every model ever built depend on this order
        m = build_model(1, 7, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        rng = np.random.default_rng(7)
        for name, arr in m.named_tensors():
            if name.endswith((".weight", ".gamma")):
                mean = 1.0 if name.endswith(".gamma") else 0.0
                assert arr.tobytes() == rng.normal(mean, 0.02, arr.shape).astype(np.float32).tobytes()
            else:
                assert np.all(arr == (1.0 if name.endswith(".running_var") else 0.0))

    def test_different_seed_differs(self):
        assert not params_equal(build_model(1, 9), build_model(1, 10))

    def test_batchnorm_placement(self):
        m = build_model(1, 0)
        # the first stage, the 1x1 bottleneck (batch size 1) and the final stage
        assert [st.name for st in m.stages if st.bn is None] == ["enc1", "enc8", "dec8"]
        assert [st.name for st in m.stages if st.drop] == ["dec1", "dec2", "dec3"]

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_stages_named_in_forward_order(self, n, tmp_path):
        m = build_model(1, 0, encoder_channels=(4,) * n, decoder_channels=(4,) * (n - 1) + (1,))
        names = [f"enc{i}" for i in range(1, n + 1)] + [f"dec{j}" for j in range(1, n + 1)]
        assert [st.name for st in m.stages] == names
        save_weights(m, tmp_path / "m.bnet")
        assert [st.name for st in load_weights(tmp_path / "m.bnet").stages] == names
        with WeightsFile(tmp_path / "m.bnet") as weights:
            assert [st.name for st in weights.model.stages] == names

    def test_bad_channel_count(self):
        with pytest.raises(ScrollbinError):
            build_model(2, 0)

    def test_decoder_input_widths_include_skips(self):
        m = build_model(1, 0)
        in_chs = [st.conv.weight.shape[0] for st in m.stages[m.depth :]]
        assert in_chs == [512, 1024, 1024, 1024, 1024, 512, 256, 128]


class TestForward:
    def test_shape_ladder(self, monkeypatch):
        m = build_model(1, 1)
        x = np.zeros((1, 1, 256, 256), dtype=np.float32)
        enc_shapes, dec_shapes = eval_stage_shapes(m, x, monkeypatch)
        assert [s[2] for s in enc_shapes] == [128, 64, 32, 16, 8, 4, 2, 1]
        assert [s[1] for s in enc_shapes] == list(ENCODER_CHANNELS)
        assert [s[2] for s in dec_shapes] == [2, 4, 8, 16, 32, 64, 128, 256]
        assert dec_shapes[-1] == (1, 1, 256, 256)

    def test_output_open_interval(self):
        rng = np.random.default_rng(2)
        m = tiny_model()
        x = rng.normal(0, 1, (2, 1, 16, 16)).astype(np.float32)
        out = forward(m, x)
        assert out.shape == (2, 1, 16, 16)
        assert np.all(out > -1.0) and np.all(out < 1.0)

    def test_eval_deterministic(self):
        rng = np.random.default_rng(3)
        m = tiny_model()
        x = rng.normal(0, 1, (1, 1, 16, 16)).astype(np.float32)
        assert np.array_equal(forward(m, x), forward(m, x))

    def test_input_validation(self):
        m = tiny_model()
        with pytest.raises(ScrollbinError):
            forward(m, np.zeros((1, 1, 32, 32), dtype=np.float32))
        with pytest.raises(ScrollbinError):
            forward(m, np.zeros((1, 3, 16, 16), dtype=np.float32))

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_eval_matches_float64_reference(self, n):
        # Non-trivial running stats, so the eval batch-norm affine is exercised;
        # weights are scaled up so outputs spread over most of (-1, 1).
        m = build_model(1, 41, encoder_channels=(8,) * n, decoder_channels=(8,) * (n - 1) + (1,))
        rng = np.random.default_rng(141)
        for st in m.stages:
            st.conv.weight.data *= 10.0
            st.conv.bias.data[:] = rng.normal(0, 0.1, st.conv.bias.data.shape)
            if st.bn is not None:
                ch = st.bn.channels
                st.bn.running_mean[:] = rng.uniform(-0.05, 0.05, ch)
                st.bn.running_var[:] = rng.uniform(0.5, 2.0, ch)
                st.bn.gamma.data[:] = rng.normal(1, 0.2, ch)
                st.bn.beta.data[:] = rng.normal(0, 0.1, ch)
        x = rng.uniform(-1, 1, (2, 1, m.patch, m.patch)).astype(np.float32)
        ref = naive_binet_eval(m, x)
        out = forward(m, x)
        assert out.dtype == np.float32
        # float32 rounding over 8 stages stays near 1e-6 at these magnitudes
        tol = 1e-6
        assert np.max(np.abs(out - ref)) < tol
        flipped = (out < 0) != (ref < 0)
        assert np.all(np.abs(ref[flipped]) < tol)

    @staticmethod
    def counted_calls(monkeypatch, names):
        """A dict of call counts, one per binet module name, each name wrapped to count its calls."""
        calls = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(binet, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(binet, name, counted)
        return calls

    def test_eval_runs_stages_through_module_names(self, monkeypatch):
        # bench/spans.py times each forward stage by wrapping these two names
        calls = self.counted_calls(monkeypatch, ("conv2d_fwd", "deconv2d_fwd"))
        m = build_model(1, 3, encoder_channels=(2,) * 8, decoder_channels=(2,) * 7 + (1,))
        forward(m, np.zeros((1, 1, 256, 256), dtype=np.float32))
        assert calls == {"conv2d_fwd": 8, "deconv2d_fwd": 8}

    def test_training_runs_stages_through_module_names(self, monkeypatch):
        # bench/spans.py times each training stage, forward and backward, by wrapping these four names
        calls = self.counted_calls(monkeypatch, ("conv2d_fwd", "deconv2d_fwd", "conv2d_bwd", "deconv2d_bwd"))
        m = build_model(1, 3, encoder_channels=(2,) * 8, decoder_channels=(2,) * 7 + (1,))
        rng = np.random.default_rng(24)
        data = [(random_gray(rng, 256, 256), BinaryMask(rng.random((256, 256)) < 0.3))]
        model, _ = train(data, TrainConfig(epochs=1, seed=1), init=m)
        assert model.step == 1
        assert calls == dict.fromkeys(calls, 8)

    def test_train_mode_with_dropout_needs_rng(self):
        m = tiny_model(dropout=(0,))
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        out, _ = binet._forward_cached(m, x, np.random.default_rng(0))
        assert out.shape == (1, 1, 16, 16)


class TestEndToEndGradients:
    @pytest.mark.parametrize("n", [1, 2, 4])  # one stage a side has no skip, two have one
    def test_every_parameter_matches_finite_differences(self, n):
        m, x, target = e2e_check_fixture(n)
        out, trace = binet._forward_cached(m, x, np.random.default_rng(0))

        # the loss is piecewise linear and the activations have kinks: the
        # fixture must keep every pre-activation and every residual clear of
        # them by much more than the probe step
        eps = 1e-5
        assert len(trace) == 2 * n
        min_kink = min(float(np.min(np.abs(t.out))) for t in trace[:-1])
        assert min_kink > 50 * eps
        assert np.min(np.abs(out - target)) > 50 * eps

        def loss():
            return l1_loss(binet._forward_cached(m, x, np.random.default_rng(0))[0], target)[0]

        _, grad = l1_loss(out, target)
        for _ in backward_stages(m, trace, grad):
            pass

        worst = 0.0
        for p in m.params():
            worst = max(worst, max_rel_err(p.grad, fd_gradient(loss, p.data, eps=eps), floor=1e-7))
        assert worst < 1e-2


class TestPixelMapping:
    def test_normalize_endpoints(self):
        img = GrayImage(np.array([[0, 255]], dtype=np.uint8))
        x = normalize_input(img)
        assert x.shape == (1, 1, 1, 2)
        assert x[0, 0, 0, 0] == -1.0 and x[0, 0, 0, 1] == 1.0

    def test_normalize_rgb_layout(self):
        img = RgbImage(np.arange(12, dtype=np.uint8).reshape(2, 2, 3))
        x = normalize_input(img)
        assert x.shape == (1, 3, 2, 2)
        assert x[0, 2, 1, 1] == pytest.approx(11 / 127.5 - 1)

    def test_target_polarity_roundtrip(self):
        rng = np.random.default_rng(4)
        mask = BinaryMask(rng.random((16, 16)) < 0.4)
        target = mask_to_target(mask)
        assert set(np.unique(target)) <= {-1.0, 1.0}
        assert np.array_equal(denormalize_output(target).ink, mask.ink)

    def test_threshold_symmetry(self):
        rng = np.random.default_rng(5)
        out = rng.normal(0, 0.5, (1, 1, 8, 8)).astype(np.float32)
        out[np.abs(out) < 1e-6] = 0.3
        flipped = denormalize_output(-out)
        assert np.array_equal(flipped.ink, ~denormalize_output(out).ink)


class TestTrain:
    def test_overfit_constant_background(self):
        # single sample whose target is constant +1; dropout off; lr raised to
        # 0.02 so 50 steps can actually saturate the tanh (at the pipeline's
        # 2e-4 the 50-step budget moves parameters by at most 0.01)
        rng = np.random.default_rng(6)
        img = random_gray(rng, 16, 16)
        mask = BinaryMask(np.zeros((16, 16), dtype=bool))
        cfg = TrainConfig(epochs=50, lr=0.02, seed=3)
        _, hist = train([(img, mask)], cfg, init=tiny_model(seed=5))
        assert hist[-1] < 0.05
        assert max(np.diff(hist)) < 0.01  # non-increasing within noise

    def test_empty_dataset_rejected(self):
        with pytest.raises(ScrollbinError):
            train([], TrainConfig(epochs=1, seed=0))

    def test_zero_epochs_rejected(self):
        with pytest.raises(ScrollbinError):
            TrainConfig(epochs=0, seed=0)

    def test_identical_seeds_identical_histories(self):
        rng = np.random.default_rng(7)
        data = [(random_gray(rng, 16, 16), BinaryMask(rng.random((16, 16)) < 0.3)) for _ in range(3)]
        cfg = TrainConfig(epochs=4, seed=12)
        m1, h1 = train(data, cfg, init=tiny_model(seed=2, dropout=(0,)))
        m2, h2 = train(data, cfg, init=tiny_model(seed=2, dropout=(0,)))
        assert h1 == h2
        assert params_equal(m1, m2)

    def test_channel_mismatch_rejected(self):
        rng = np.random.default_rng(8)
        data = [(random_gray(rng, 16, 16), BinaryMask(np.zeros((16, 16), dtype=bool)))]
        with pytest.raises(ScrollbinError):
            train(data, TrainConfig(epochs=1, seed=0), init=tiny_model(in_channels=3))

    def test_wrong_patch_size_rejected(self):
        rng = np.random.default_rng(9)
        data = [(random_gray(rng, 32, 32), BinaryMask(np.zeros((32, 32), dtype=bool)))]
        with pytest.raises(ScrollbinError):
            train(data, TrainConfig(epochs=1, seed=0), init=tiny_model())

    def test_warm_start_continues_step_counter(self):
        rng = np.random.default_rng(10)
        data = [(random_gray(rng, 16, 16), BinaryMask(rng.random((16, 16)) < 0.3))]
        cfg = TrainConfig(epochs=3, seed=1)
        m1, _ = train(data, cfg, init=tiny_model())
        assert m1.step == 3
        m2, _ = train(data, cfg, init=m1)
        assert m2.step == 6

    def test_batch_size_two(self):
        rng = np.random.default_rng(11)
        data = [(random_gray(rng, 16, 16), BinaryMask(rng.random((16, 16)) < 0.3)) for _ in range(3)]
        cfg = TrainConfig(epochs=2, seed=1, batch_size=2)
        model, hist = train(data, cfg, init=tiny_model())
        assert model.step == 4  # ceil(3/2) steps per epoch
        assert len(hist) == 2


def whole_model_train(dataset, cfg, model):
    """The training loop with one whole-model update per step: the full
    backward sets every gradient, then one adam_step updates all params.
    Returns (model, history). It composes the package's own ops, because
    what it pins is the order of the update, not the kernels. It lives here
    rather than in oracles.py because the benchmark loads oracles.py into
    the process whose memory it measures."""
    rng = np.random.default_rng(cfg.seed)
    params = model.params()
    state = AdamState(params)
    history = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            x = np.concatenate([normalize_input(dataset[i][0]) for i in batch], axis=0)
            t = np.concatenate([mask_to_target(dataset[i][1]) for i in batch], axis=0)
            out, cache = binet._forward_cached(model, x, rng)
            loss, grad = l1_loss(out, t)
            for _ in backward_stages(model, cache, grad):
                pass
            adam_step(params, state, lr=cfg.lr)
            model.step += 1
            losses.append(loss)
        history.append(float(np.mean(losses)))
    return model, history


class TestTrainPerStage:
    """train updates each stage inside the backward; the bytes stay those of
    one whole-model update after the full backward."""

    @pytest.mark.parametrize("batch, samples", [(1, 3), (2, 5)])  # 3 steps each
    def test_matches_whole_model_update(self, batch, samples):
        rng = np.random.default_rng(20)
        data = [(random_gray(rng, 16, 16), BinaryMask(rng.random((16, 16)) < 0.3)) for _ in range(samples)]
        cfg = TrainConfig(epochs=1, lr=1e-2, seed=4, batch_size=batch)
        got, got_hist = train(data, cfg, init=tiny_model(seed=6, dropout=(0, 1)))
        want, want_hist = whole_model_train(data, cfg, tiny_model(seed=6, dropout=(0, 1)))
        assert got.step == want.step == 3
        assert got_hist == want_hist
        for (name, a), (_, b) in zip(got.named_tensors(), want.named_tensors()):
            assert a.tobytes() == b.tobytes(), name

    def test_only_one_stage_holds_grads(self, monkeypatch):
        rng = np.random.default_rng(21)
        data = [(random_gray(rng, 16, 16), BinaryMask(rng.random((16, 16)) < 0.3)) for _ in range(2)]
        model = tiny_model(seed=7, dropout=(0,))
        everything = model.params()
        stages = model.stages[::-1]  # the order of the backward
        calls = []
        real_step = binet.adam_step

        def checked_step(params, state, **kw):
            with_grad = {id(p) for p in everything if p.grad is not None}
            assert with_grad == {id(p) for p in params}
            calls.append([id(p) for p in params])
            real_step(params, state, **kw)

        monkeypatch.setattr(binet, "adam_step", checked_step)
        train(data, TrainConfig(epochs=1, seed=2), init=model)
        one_step = [[id(p) for p in st.conv.params() + (st.bn.params() if st.bn else [])] for st in stages]
        assert calls == one_step * 2
        assert all(p.grad is None for p in everything)

    def test_full_model_backward_holds_one_stage_of_grads(self, text_dataset):
        # The full model's weights take 218 MB; its largest stage's, 32 MB.
        model = build_model(1, 8)
        peaks = []
        real_stages, real_step = binet.backward_stages, binet.adam_step

        def stages(*args):
            tracemalloc.reset_peak()
            peaks.append(tracemalloc.get_traced_memory()[0])  # the footprint at the start
            yield from real_stages(*args)

        def step(*args, **kw):
            real_step(*args, **kw)
            peaks.append(tracemalloc.get_traced_memory()[1])

        tracemalloc.start()
        try:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(binet, "backward_stages", stages)
                mp.setattr(binet, "adam_step", step)
                train(text_dataset[:1], TrainConfig(epochs=1, seed=1), init=model)
        finally:
            tracemalloc.stop()
        assert len(peaks) == 17
        assert max(peaks[1:]) - peaks[0] < 64 << 20

    def test_full_model_training_forward_holds_only_what_backward_reads(self):
        # Keeping each stage's pre-activation beside its activation held 57.9 MiB.
        model = build_model(1, 8)
        x = np.random.default_rng(9).uniform(-1, 1, (1, 1, 256, 256)).astype(np.float32)
        tracemalloc.start()
        try:
            kept = binet._forward_cached(model, x, np.random.default_rng(10))
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        del kept
        assert held <= 46 << 20


class TestBinarizeImage:
    def test_dimensions_preserved(self):
        rng = np.random.default_rng(12)
        m = tiny_model()
        img = random_gray(rng, 41, 23)
        mask = binarize_image(m, img)
        assert (mask.width, mask.height) == (41, 23)

    def test_saturated_bias_gives_all_background(self):
        rng = np.random.default_rng(13)
        m = tiny_model()
        m.stages[-1].conv.bias.data[:] = 10.0  # tanh ~ +1 everywhere
        mask = binarize_image(m, random_gray(rng, 40, 40))
        assert not mask.ink.any()
        m.stages[-1].conv.bias.data[:] = -10.0
        mask = binarize_image(m, random_gray(rng, 40, 40))
        assert mask.ink.all()

    def test_channel_mismatch(self):
        rng = np.random.default_rng(15)
        m = tiny_model()
        rgb = RgbImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
        with pytest.raises(ScrollbinError):
            binarize_image(m, rgb)

    @staticmethod
    def edge_model():
        """A tiny model whose deep stages see subnormal values and -0."""
        m = tiny_model()
        enc2, enc3 = stage(m, "enc2"), stage(m, "enc3")
        enc2.conv.weight.data *= np.float32(1e-36)  # enc2 outputs near FLT_MIN, enc3's inputs below it
        enc3.conv.weight.data[0] = 0.0  # enc3's channel 0 is exactly 0 ...
        enc3.conv.bias.data[:] = 0.0
        enc3.bn.gamma.data[0] = -1.0  # ... and, negated over a -0 shift, -0
        enc3.bn.beta.data[0] = -0.0
        enc3.bn.running_mean[0] = -0.0
        return m

    @pytest.mark.parametrize("kind", ["gray", "color", "edge"])
    def test_streamed_matches_per_patch_forward(self, tmp_path, monkeypatch, kind):
        m = {"gray": tiny_model, "color": lambda: tiny_model(seed=9, in_channels=3), "edge": self.edge_model}[kind]()
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        loaded = load_weights(path)
        seen = {"subnormal": 0, "negative zero": 0}
        if kind == "edge":
            for name in ("conv2d_fwd", "deconv2d_fwd"):
                original = getattr(binet, name)

                def recorded(x, p, _original=original):
                    seen["subnormal"] += int(((x != 0) & (np.abs(x) < np.finfo(np.float32).tiny)).sum())
                    seen["negative zero"] += int(((x == 0) & np.signbit(x)).sum())
                    return _original(x, p)

                monkeypatch.setattr(binet, name, recorded)
        rng = np.random.default_rng(18)
        # pages of 1, GROUP - 1, GROUP, GROUP + 1 and 2 * GROUP + 3 patches of 16x16
        for rows, cols in ((1, 1), (3, 5), (4, 4), (1, GROUP + 1), (5, 7)):
            assert rows * cols in (1, GROUP - 1, GROUP, GROUP + 1, 2 * GROUP + 3)
            shape = (16 * rows - 3, 16 * cols - 5) + ((3,) if m.in_channels == 3 else ())
            pixels = rng.integers(0, 256, shape, dtype=np.uint8)
            img = RgbImage(pixels) if m.in_channels == 3 else GrayImage(pixels)
            grid = split(img, loaded.patch)
            per_patch = reassemble(grid.with_patches(
                [denormalize_output(forward(loaded, normalize_input(p))) for p in grid.patches]
            ))
            with WeightsFile(path) as weights:
                streamed = binarize_image(weights, img)
            assert np.array_equal(streamed.ink, per_patch.ink), (rows, cols)
            assert np.array_equal(binarize_image(loaded, img).ink, per_patch.ink), (rows, cols)
        if kind == "edge":
            assert seen["subnormal"] > 0 and seen["negative zero"] > 0

    def test_streamed_peak_holds_one_stage(self, tmp_path):
        # enc4's and dec1's weights are 8 MiB each, of a 19 MiB file
        m = build_model(1, 3, encoder_channels=(32, 64, 256, 512), decoder_channels=(256, 64, 32, 1))
        path, page, out = tmp_path / "m.bnet", tmp_path / "page.pgm", tmp_path / "out.pbm"
        save_weights(m, path)
        write_pnm(random_gray(np.random.default_rng(19), 50, 40), page)
        size = path.stat().st_size
        largest = max(
            sum(arr.nbytes for tensor, arr in m.named_tensors() if tensor.startswith(f"{st.name}."))
            for st in m.stages
        )
        argv = ["binarize", "--model", str(path), "--input", str(page), "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < largest + (1 << 20)
        assert peak < size / 2

    def test_group_bounds_memory_of_long_pages(self, tmp_path):
        # 64x64 patches, each holding about 85 KB of skip features
        m = build_model(1, 4, encoder_channels=(16,) * 6, decoder_channels=(16,) * 5 + (1,))
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        rng = np.random.default_rng(20)
        peaks = []
        for rows, cols in ((4, GROUP // 4), (6, GROUP // 2)):  # GROUP and 3 * GROUP patches
            img = random_gray(rng, 64 * cols, 64 * rows)
            with WeightsFile(path) as weights:
                tracemalloc.start()
                try:
                    binarize_image(weights, img)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert peaks[1] - peaks[0] < 1 << 20


class TestWeightsFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(16)
        m = tiny_model(seed=77, in_channels=3)
        # perturb running stats and step so the defaults do not mask bugs
        for st in m.stages:
            if st.bn is not None:
                st.bn.running_mean += rng.normal(0, 1, st.bn.channels).astype(np.float32)
                st.bn.running_var[:] = rng.random(st.bn.channels).astype(np.float32) + 0.5
        m.step = 123456789012
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        loaded = load_weights(path)
        assert params_equal(m, loaded)
        assert loaded.step == 123456789012
        assert loaded.in_channels == 3

    def test_load_copies_each_tensor_once(self, tmp_path):
        # dec1's weight (512, 256, 4, 4) is 8 MB: a whole-tensor check of it
        # would allocate a 2 MB mask on top of the tensors.
        m = build_model(1, 3, encoder_channels=(32, 64, 256, 512), decoder_channels=(256, 64, 32, 1))
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded = load_weights(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert params_equal(m, loaded)
        for name, arr in loaded.named_tensors():
            assert arr.dtype == np.float32, name
            assert arr.flags.c_contiguous and arr.flags.aligned and arr.flags.writeable, name
        assert all(p.grad is None for p in loaded.params())
        # One copy of every tensor: no whole-file buffer next to them, and no
        # gradient buffers, which would hold a second copy of the weights.
        assert held < 1.25 * size
        assert peak < 1.1 * size
        assert peak - held < 1 << 20  # the finiteness checks run in chunks

        tracemalloc.start()
        try:
            save_weights(loaded, tmp_path / "again.bnet")
            save_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (tmp_path / "again.bnet").read_bytes() == path.read_bytes()
        assert save_peak < 0.1 * size  # each tensor is written from its own array

    def test_magic_bytes(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        assert path.read_bytes()[:4] == bytes([0x42, 0x4E, 0x45, 0x54])  # "BNET"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XNET"
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsFormatError, match="magic"):
            load_weights(path)

    def test_version_two_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        data = bytearray(path.read_bytes())
        data[4:8] = (2).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsVersionError, match="version 2"):
            load_weights(path)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(WeightsFormatError, match="truncated"):
            load_weights(path)

        # A header that claims a 1 GiB tensor over a 64-byte payload is
        # refused before the tensor is allocated.
        header = b"BNET" + struct.pack("<IIQI", 1, 1, 0, 1)
        name = b"enc1.conv.weight"
        tensor = struct.pack("<H", len(name)) + name + struct.pack("<B4I", 4, 16384, 1024, 4, 4)
        path.write_bytes(header + tensor + bytes(64))
        tracemalloc.start()
        try:
            with pytest.raises(WeightsFormatError) as err:
                load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(err.value) == "truncated weights file: wanted 1073741824 bytes at offset 59"
        assert peak < 1 << 20

    def test_stream_rejected(self):
        # the size checks need the file's length, which a device or pipe lacks
        with pytest.raises(WeightsFormatError, match="not a regular file"):
            load_weights(os.devnull)

    def test_dimension_overflow_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        header = b"BNET" + struct.pack("<IIQI", 1, 1, 0, 1)
        name = b"enc1.conv.weight"
        tensor = struct.pack("<H", len(name)) + name + struct.pack("<B", 4)
        tensor += struct.pack("<4I", 70000, 70000, 4, 4)
        path.write_bytes(header + tensor)
        with pytest.raises(WeightsFormatError, match="overflow"):
            load_weights(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(WeightsFormatError, match="trailing"):
            load_weights(path)

    def test_unpackable_header_leaves_no_file(self, tmp_path):
        m = tiny_model()
        m.step = 2**64
        path = tmp_path / "m.bnet"
        with pytest.raises(struct.error):
            save_weights(m, path)
        assert not path.exists()

    def test_load_restores_architecture_flags(self, tmp_path):
        # 8-stage ladder (narrow channels): dropout on the first 3 decoder stages
        m = build_model(
            1, 3, encoder_channels=(4,) * 8, decoder_channels=(4,) * 7 + (1,)
        )
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        loaded = load_weights(path)
        assert [(st.drop, st.bn is None) for st in loaded.stages] == [(st.drop, st.bn is None) for st in m.stages]

    def test_non_utf8_tensor_name_rejected(self, tmp_path):
        import struct

        path = tmp_path / "m.bnet"
        header = b"BNET" + struct.pack("<IIQI", 1, 1, 0, 1)
        name = b"enc1.\xff\xfe"
        tensor = struct.pack("<H", len(name)) + name + struct.pack("<B", 1) + struct.pack("<I", 1)
        path.write_bytes(header + tensor + struct.pack("<f", 0.0))
        with pytest.raises(WeightsFormatError, match="UTF-8"):
            load_weights(path)

    def test_bias_length_mismatch_rejected(self, tmp_path):
        m = tiny_model()
        stage(m, "enc2").conv.bias = Param(np.zeros(TINY_ENC[1] + 1, dtype=np.float32))
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match="enc2.conv.bias"):
            load_weights(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        # enc3's and dec1's weights hold 1100 * 8 * 16 = 140800 values, 2 CHUNKs and a part.
        cases = [
            ("enc1.conv.weight", slice(None), np.nan),
            ("enc3.conv.weight", -1, np.nan),  # in the partial last of its 3 chunks
            ("dec1.conv.weight", 2 * CHUNK, -np.inf),  # the first value of its last chunk
            ("enc2.conv.bias", 0, np.inf),
            ("enc2.bn.running_var", -1, np.nan),
        ]
        path = tmp_path / "m.bnet"
        for name, index, value in cases:
            m = build_model(1, 3, encoder_channels=(4, 8, 1100), decoder_channels=(8, 4, 1))
            dict(m.named_tensors())[name].reshape(-1)[index] = value
            save_weights(m, path)
            with pytest.raises(WeightsFormatError) as err:
                load_weights(path)
            assert str(err.value) == f"tensor {name!r} has non-finite values"

    def test_non_finite_value_reported_as_it_is_read(self, tmp_path):
        m = tiny_model()
        m.stages[-1].conv.bias.data[:] = np.nan  # the last tensor in the file
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match="'dec4.conv.bias' has non-finite"):
            load_weights(path)
        # The structure is checked before any value is read.
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(WeightsFormatError, match="^5 trailing bytes after last tensor$"):
            load_weights(path)

        # A tensor that no stage reads is checked too.
        save_weights(tiny_model(), path)
        data = bytearray(path.read_bytes())
        (count,) = struct.unpack_from("<I", data, 20)
        struct.pack_into("<I", data, 20, count + 1)
        name = b"spare"
        data += struct.pack("<H", len(name)) + name + struct.pack("<BI", 1, 2)
        data += np.array([0.0, np.nan], dtype="<f4").tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(WeightsFormatError, match="'spare' has non-finite"):
            load_weights(path)

    def test_non_finite_eval_affine_rejected(self, tmp_path, capsys):
        # every value is finite, but gamma / sqrt(running_var + eps) overflows float32
        m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        stage(m, "dec1").bn.gamma.data[:] = 1e37
        stage(m, "dec1").bn.running_var[:] = 0.0
        path, page, out = tmp_path / "m.bnet", tmp_path / "page.pgm", tmp_path / "out.pbm"
        save_weights(m, path)
        write_pnm(random_gray(np.random.default_rng(21), 20, 12), page)
        message = "stage 'dec1' has a non-finite batch-norm eval scale or shift"
        with pytest.raises(WeightsFormatError) as err:
            load_weights(path)
        assert str(err.value) == message
        with pytest.raises(WeightsFormatError, match=message):
            binarize_image(m, read_pnm(page))
        assert main(["binarize", "--model", str(path), "--input", str(page), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_non_finite_stage_output_rejected(self, tmp_path, capsys):
        # every value is finite, but dec2's 3e38 weights overflow float32 over inputs near 5
        m = build_model(1, 3, encoder_channels=TINY_ENC, decoder_channels=TINY_DEC)
        for st in m.stages[: m.depth]:
            st.conv.bias.data[:] = 5.0
        stage(m, "dec2").conv.weight.data[:] = 3e38
        path, page, out = tmp_path / "m.bnet", tmp_path / "page.pgm", tmp_path / "out.pbm"
        save_weights(m, path)
        write_pnm(random_gray(np.random.default_rng(23), 40, 40), page)
        message = "stage 'dec2' gives non-finite outputs"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the check reports the overflow, not a numpy warning
            with pytest.raises(ScrollbinError, match=message):
                binarize_image(m, read_pnm(page))
            assert main(["binarize", "--model", str(path), "--input", str(page), "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_file_changed_while_binarizing_rejected(self, tmp_path):
        path = tmp_path / "m.bnet"
        save_weights(tiny_model(), path)
        img = random_gray(np.random.default_rng(22), 20, 20)
        with WeightsFile(path) as weights:
            save_weights(tiny_model(seed=6), path)  # another model of the same size
            os.utime(path, ns=(0, 0))  # whatever the clock's resolution
            with pytest.raises(WeightsFormatError, match="changed while it was read"):
                binarize_image(weights, img)
        with WeightsFile(path) as weights:
            path.write_bytes(path.read_bytes()[:100])
            with pytest.raises(WeightsFormatError, match="changed while it was read"):
                binarize_image(weights, img)

    def test_negative_running_var_rejected(self, tmp_path):
        m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        for st in m.stages:
            if st.bn is not None:
                st.bn.running_var[:] = -5.0
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match=r"enc2\.bn\.running_var"):
            load_weights(path)

    def test_broken_channel_chain_rejected(self, tmp_path, capsys):
        cases = [
            # one input channel too many on each stage of a 3-stage ladder
            ("enc1.conv.weight", (4, 2, 4, 4), "has shape (4, 2, 4, 4), expected (4, 1, 4, 4)"),
            ("enc2.conv.weight", (4, 5, 4, 4), "has shape (4, 5, 4, 4), expected (4, 4, 4, 4)"),
            ("enc3.conv.weight", (4, 5, 4, 4), "has shape (4, 5, 4, 4), expected (4, 4, 4, 4)"),
            ("dec1.conv.weight", (5, 4, 4, 4), "has shape (5, 4, 4, 4), expected (4, 4, 4, 4)"),
            # dec2 takes dec1's 4 channels plus enc2's 4, dec3 dec2's 4 plus enc1's 4
            ("dec2.conv.weight", (9, 4, 4, 4), "has shape (9, 4, 4, 4), expected (8, 4, 4, 4)"),
            ("dec3.conv.weight", (9, 1, 4, 4), "has shape (9, 1, 4, 4), expected (8, 1, 4, 4)"),
            ("enc2.conv.weight", (4, 4, 16), "has rank 3, expected 4"),
            ("dec3.conv.weight", (8, 2, 4, 4), "emits 2 channels, expected 1"),
        ]
        path, page, out = tmp_path / "m.bnet", tmp_path / "page.pgm", tmp_path / "out.pbm"
        write_pnm(GrayImage(np.zeros((8, 8), np.uint8)), page)
        # page and its ground truth make tmp_path a training set that an intact model trains on
        write_pnm(BinaryMask(np.eye(8, dtype=bool)), tmp_path / "page.gt.pbm")
        trained = tmp_path / "trained.bnet"
        train_argv = ["train", "--data", str(tmp_path), "--mode", "gray", "--init", str(path), "--epochs", "1",
                      "--out", str(trained)]
        save_weights(build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1)), path)
        assert main(train_argv) == 0
        trained.unlink()
        capsys.readouterr()
        for name, shape, message in cases:
            m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
            decoder = name.startswith("dec")
            conv = stage(m, name[:4]).conv
            conv.weight.data = np.zeros(shape, np.float32)
            conv.bias.data = np.zeros(shape[1] if decoder else shape[0], np.float32)
            save_weights(m, path)
            with pytest.raises(WeightsFormatError) as err:
                load_weights(path)
            assert str(err.value) == f"tensor {name!r} {message}"
            assert main(["binarize", "--model", str(path), "--input", str(page), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: tensor {name!r} {message}\n"
            assert not out.exists()
            assert main(train_argv) == 2
            assert capsys.readouterr().err == f"error: tensor {name!r} {message}\n"
            assert not trained.exists()

    def test_batchnorm_on_innermost_stage_binarizes_but_cannot_train_at_batch_one(self, tmp_path, capsys):
        # a file may put batch norm on any stage; on the 1x1 one, batch 1 gives one element per channel
        m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        stage(m, "enc3").bn = BatchNormParams(np.ones(4, np.float32), np.zeros(4, np.float32))
        path, page, out = tmp_path / "m.bnet", tmp_path / "page.pgm", tmp_path / "out.pbm"
        save_weights(m, path)
        rng = np.random.default_rng(27)
        write_pnm(random_gray(rng, 8, 8), page)
        write_pnm(BinaryMask(rng.random((8, 8)) < 0.3), tmp_path / "page.gt.pbm")
        assert main(["binarize", "--model", str(path), "--input", str(page), "--out", str(out)]) == 0
        assert out.exists()
        trained = tmp_path / "trained.bnet"
        argv = ["train", "--data", str(tmp_path), "--mode", "gray", "--init", str(path), "--epochs", "1",
                "--batch", "1", "--out", str(trained)]
        capsys.readouterr()
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: batchnorm train mode needs more than one element per channel\n"
        assert not trained.exists()

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 2**16), st.integers(1, 255)),
            max_size=4,
        ),
        st.none() | st.integers(0, 2**16),
    )
    # one flipped exponent bit makes enc1's weights ~1e36: the file loads, but enc2 overflows on the page
    @example(mutations=[("flip", 7952, 64), ("insert", 340, 1), ("delete", 9365, 1)], cut=None)
    def test_mutated_file_loads_or_raises_scrollbin_error(self, tmp_path_factory, mutations, cut):
        path = tmp_path_factory.getbasetemp() / "fuzz.bnet"
        save_weights(fuzz_model(), path)
        data = bytearray(path.read_bytes())
        for op, pos, byte in mutations:
            pos %= len(data) + 1
            if op == "insert":
                data.insert(pos, byte)
            elif pos < len(data):
                if op == "flip":
                    data[pos] ^= byte
                else:
                    del data[pos]
        if cut is not None:
            del data[cut % (len(data) + 1) :]
        path.write_bytes(bytes(data))
        # binarize reads the file stage by stage, load whole: they must agree.
        # A color page suits a model of either channel count.
        page, out = path.with_suffix(".ppm"), path.with_suffix(".pbm")
        img = RgbImage(np.random.default_rng(23).integers(0, 256, (6, 7, 3), dtype=np.uint8))
        write_pnm(img, page)
        out.unlink(missing_ok=True)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["binarize", "--model", str(path), "--input", str(page), "--out", str(out)])
        try:
            loaded = load_weights(path)
        except ScrollbinError as exc:
            assert (code, stderr.getvalue()) == (2, f"error: {exc}\n")
            assert not out.exists()
            return
        try:
            expected = binarize_image(loaded, img if loaded.in_channels == 3 else to_grayscale(img))
        except ScrollbinError as exc:
            # finite weights may still overflow float32 on this page: both paths refuse it alike
            assert str(exc).endswith("gives non-finite outputs")
            assert (code, stderr.getvalue()) == (2, f"error: {exc}\n")
            assert not out.exists()
            return
        assert code == 0, stderr.getvalue()
        assert np.array_equal(read_pnm(out).ink, expected.ink)
        # a file that loads must run: one patch gives one finite output channel
        size = loaded.patch
        out = forward(loaded, np.zeros((1, loaded.in_channels, size, size), np.float32))
        assert out.shape == (1, 1, size, size) and np.isfinite(out).all()
        # and must train or be refused, with no numpy error: the ops trust the shapes load checked
        rng = np.random.default_rng(29)
        patch = RgbImage(rng.integers(0, 256, (size, size, 3), dtype=np.uint8))
        pair = (patch if loaded.in_channels == 3 else to_grayscale(patch), BinaryMask(rng.random((size, size)) < 0.3))
        with contextlib.suppress(ScrollbinError):
            train([pair], TrainConfig(epochs=1, seed=1), init=loaded)

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_TENSORS), st.integers(0, 3), st.integers(1, 8))
    def test_reshaped_tensor_refused_or_runs(self, tmp_path_factory, name, axis, size):
        # The tensor's payload is resized with its dims, so _index accepts the file and _rebuild must judge it.
        model = fuzz_model()
        owner_name, *attrs, last = name.split(".")
        owner = stage(model, owner_name)
        for attr in attrs:
            owner = getattr(owner, attr)
        if isinstance(getattr(owner, last), Param):
            owner, last = getattr(owner, last), "data"
        shape = list(getattr(owner, last).shape)
        shape[axis % len(shape)] = size
        # the old values repeated, so a running variance stays positive
        setattr(owner, last, np.resize(getattr(owner, last), shape))
        root = tmp_path_factory.getbasetemp() / "reshaped"
        data = root / "data"
        data.mkdir(parents=True, exist_ok=True)
        path, out, trained = root / "m.bnet", root / "out.pbm", root / "trained.bnet"
        save_weights(model, path)
        rng = np.random.default_rng(31)
        write_pnm(random_gray(rng, 8, 8), data / "page.pgm")
        write_pnm(BinaryMask(rng.random((8, 8)) < 0.3), data / "page.gt.pbm")
        runs = [
            ["binarize", "--model", str(path), "--input", str(data / "page.pgm"), "--out", str(out)],
            ["train", "--data", str(data), "--mode", "gray", "--init", str(path), "--epochs", "1",
             "--out", str(trained)],
        ]
        outcomes = []
        for argv, written in zip(runs, (out, trained)):
            written.unlink(missing_ok=True)
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
            outcomes.append((code, stderr.getvalue(), written.exists()))
        try:
            load_weights(path)
        except WeightsFormatError as exc:
            line = f"error: {exc}\n"
            assert outcomes == [(2, line, False), (2, line, False)]
            return
        assert [(code, written) for code, _, written in outcomes] == [(0, True), (0, True)], outcomes

    def test_netparams_metadata(self):
        m = tiny_model(seed=123)
        assert isinstance(m, NetParams)
