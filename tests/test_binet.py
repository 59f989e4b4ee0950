import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fd_gradient, max_rel_err

from scrollbin import binet
from scrollbin.autodiff import ConvParams, Param, l1_loss
from scrollbin.binet import (
    ENCODER_CHANNELS,
    NetParams,
    TrainConfig,
    activation_shapes,
    backward,
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
from scrollbin.imagecore import BinaryMask, GrayImage, RgbImage

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


def e2e_check_fixture():
    """Shrunken float64 network plus input/target for gradient checking.

    Weights are rescaled well above the usual init so pre-activations land
    away from the LeakyReLU kink (verified by the caller).
    """
    m = tiny_model(seed=32, dropout=(), dtype=np.float64)
    rng = np.random.default_rng(132)
    for st in m.encoder + m.decoder:
        st.conv.weight.data *= 25.0
        st.conv.bias.data[:] = rng.normal(0, 0.3, st.conv.bias.data.shape)
    x = rng.normal(0, 1, (1, 1, 16, 16))
    target = np.where(rng.random((1, 1, 16, 16)) < 0.5, 0.75, -0.75)
    return m, x, target


def random_gray(rng, w, h):
    return GrayImage(rng.integers(0, 256, (h, w), dtype=np.uint8))


class TestBuildModel:
    def test_first_conv_shape(self):
        m = build_model(1, 0)
        assert m.encoder[0].conv.weight.shape == (64, 1, 4, 4)

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

    def test_different_seed_differs(self):
        assert not params_equal(build_model(1, 9), build_model(1, 10))

    def test_batchnorm_placement(self):
        m = build_model(1, 0)
        assert m.encoder[0].bn is None  # first stage
        assert all(st.bn is not None for st in m.encoder[1:-1])
        assert m.encoder[-1].bn is None  # 1x1 bottleneck at batch size 1
        assert all(st.bn is not None for st in m.decoder[:-1])
        assert m.decoder[-1].bn is None  # final stage
        assert [st.drop for st in m.decoder] == [True, True, True] + [False] * 5

    def test_bad_channel_count(self):
        with pytest.raises(ScrollbinError):
            build_model(2, 0)

    def test_decoder_input_widths_include_skips(self):
        m = build_model(1, 0)
        in_chs = [st.conv.weight.shape[0] for st in m.decoder]
        assert in_chs == [512, 1024, 1024, 1024, 1024, 512, 256, 128]


class TestForward:
    def test_shape_ladder(self):
        m = build_model(1, 1)
        enc_shapes, dec_shapes = activation_shapes(m, np.zeros((1, 1, 256, 256), dtype=np.float32))
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

    def test_train_mode_with_dropout_needs_rng(self):
        m = tiny_model(dropout=(0,))
        x = np.zeros((1, 1, 16, 16), dtype=np.float32)
        with pytest.raises(ScrollbinError):
            forward(m, x, train=True)
        out = forward(m, x, train=True, rng=np.random.default_rng(0))
        assert out.shape == (1, 1, 16, 16)


class TestEndToEndGradients:
    def test_every_parameter_matches_finite_differences(self):
        m, x, target = e2e_check_fixture()
        out, cache = binet._forward_cached(m, x, train=True, rng=None)

        # the loss is piecewise linear and the activations have kinks: the
        # fixture must keep every pre-activation and every residual clear of
        # them by much more than the probe step
        eps = 1e-5
        enc, dec = cache
        min_kink = min(float(np.min(np.abs(t.z))) for t in enc + dec[:-1])
        assert min_kink > 50 * eps
        assert np.min(np.abs(out - target)) > 50 * eps

        def loss():
            return l1_loss(forward(m, x, train=True), target)[0]

        _, grad = l1_loss(out, target)
        for p in m.params():
            p.zero_grad()
        backward(m, cache, grad)

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
        m.decoder[-1].conv.bias.data[:] = 10.0  # tanh ~ +1 everywhere
        mask = binarize_image(m, random_gray(rng, 40, 40))
        assert not mask.ink.any()
        m.decoder[-1].conv.bias.data[:] = -10.0
        mask = binarize_image(m, random_gray(rng, 40, 40))
        assert mask.ink.all()

    def test_channel_mismatch(self):
        rng = np.random.default_rng(15)
        m = tiny_model()
        rgb = RgbImage(rng.integers(0, 256, (16, 16, 3), dtype=np.uint8))
        with pytest.raises(ScrollbinError):
            binarize_image(m, rgb)


class TestWeightsFormat:
    def test_roundtrip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(16)
        m = tiny_model(seed=77, in_channels=3)
        # perturb running stats and step so the defaults do not mask bugs
        for st in m.encoder + m.decoder:
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

    def test_dimension_overflow_rejected(self, tmp_path):
        import struct

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

    def test_load_restores_architecture_flags(self, tmp_path):
        # 8-stage ladder (narrow channels): dropout on the first 3 decoder stages
        m = build_model(
            1, 3, encoder_channels=(4,) * 8, decoder_channels=(4,) * 7 + (1,)
        )
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        loaded = load_weights(path)
        assert [st.drop for st in loaded.decoder] == [st.drop for st in m.decoder]
        assert [st.bn is None for st in loaded.encoder] == [st.bn is None for st in m.encoder]

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
        m.encoder[1].conv.bias = Param(np.zeros(TINY_ENC[1] + 1, dtype=np.float32))
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match="enc2.conv.bias"):
            load_weights(path)

    def test_non_finite_weight_rejected(self, tmp_path):
        m = tiny_model()
        m.encoder[0].conv.weight.data[:] = np.nan
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match="enc1.conv.weight"):
            load_weights(path)

    def test_negative_running_var_rejected(self, tmp_path):
        m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        for stage in m.encoder + m.decoder:
            if stage.bn is not None:
                stage.bn.running_var[:] = -5.0
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match=r"enc2\.bn\.running_var"):
            load_weights(path)

    def test_broken_channel_chain_rejected(self, tmp_path):
        # 3-stage ladder: dec2 takes dec1's 4 channels plus enc2's 4, not 7.
        m = build_model(1, 3, encoder_channels=(4, 4, 4), decoder_channels=(4, 4, 1))
        old = m.decoder[1].conv
        m.decoder[1].conv = ConvParams(np.zeros((7, 4, 4, 4), np.float32), old.bias.data)
        path = tmp_path / "m.bnet"
        save_weights(m, path)
        with pytest.raises(WeightsFormatError, match="dec2.conv.weight"):
            load_weights(path)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.tuples(st.sampled_from(["flip", "insert", "delete"]), st.integers(0, 2**16), st.integers(1, 255)),
            max_size=4,
        ),
        st.none() | st.integers(0, 2**16),
    )
    def test_mutated_file_loads_or_raises_scrollbin_error(self, tmp_path_factory, mutations, cut):
        path = tmp_path_factory.getbasetemp() / "fuzz.bnet"
        save_weights(build_model(1, 3, encoder_channels=(2, 2), decoder_channels=(2, 1)), path)
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
        try:
            loaded = load_weights(path)
        except ScrollbinError:
            return
        assert isinstance(loaded, NetParams)

    def test_netparams_metadata(self):
        m = tiny_model(seed=123)
        assert m.seed == 123
        assert isinstance(m, NetParams)
