import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    expr_batchnorm_bwd,
    fd_gradient,
    max_rel_err,
    naive_adam_step,
    naive_conv2d,
    two_im2col_deconv2d_bwd,
    where_leaky_relu,
    where_leaky_relu_bwd,
)

from scrollbin.autodiff import (
    CHUNK,
    AdamState,
    BatchNormParams,
    ConvParams,
    Param,
    _corr_weight_grad,
    adam_step,
    all_finite,
    batchnorm_bwd,
    batchnorm_eval_affine,
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
from scrollbin.errors import ScrollbinError

GRAD_TOL = 1e-3


def rand_conv(rng, out_ch, in_ch, dtype=np.float64):
    w = rng.normal(0, 0.5, (out_ch, in_ch, 4, 4)).astype(dtype)
    b = rng.normal(0, 0.5, out_ch).astype(dtype)
    return ConvParams(w, b)


class TestConvForward:
    def test_shape_halves(self):
        rng = np.random.default_rng(0)
        p = rand_conv(rng, 64, 1, np.float32)
        out = conv2d_fwd(np.zeros((1, 1, 256, 256), dtype=np.float32), p)
        assert out.shape == (1, 64, 128, 128)

    def test_zero_weights_give_bias(self):
        p = ConvParams(np.zeros((3, 2, 4, 4)), np.array([1.5, -2.0, 0.25]))
        out = conv2d_fwd(np.ones((2, 2, 8, 8)), p)
        for c, b in enumerate([1.5, -2.0, 0.25]):
            assert np.allclose(out[:, c], b)

    def test_matches_naive_loops(self):
        rng = np.random.default_rng(1)
        x = rng.normal(0, 1, (1, 2, 8, 8))
        p = rand_conv(rng, 3, 2)
        out = conv2d_fwd(x, p)
        ref = naive_conv2d(x, p.weight.data, p.bias.data)
        assert np.max(np.abs(out - ref)) < 1e-5

    def test_batched_matches_naive(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0, 1, (2, 3, 6, 8))
        p = rand_conv(rng, 2, 3)
        assert np.max(np.abs(conv2d_fwd(x, p) - naive_conv2d(x, p.weight.data, p.bias.data))) < 1e-5
        # every padded tap meets an edge on 2x2 inputs (1x1 out) and 4x2 ones
        for shape in ((3, 3, 2, 2), (2, 3, 4, 2), (2, 3, 2, 6), (4, 3, 4, 4)):
            x = rng.normal(0, 1, shape)
            out = conv2d_fwd(x, p)
            assert out.shape == (shape[0], 2, shape[2] // 2, shape[3] // 2)
            assert np.max(np.abs(out - naive_conv2d(x, p.weight.data, p.bias.data))) < 1e-5


class TestConvBackward:
    def test_finite_differences(self):
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        p = rand_conv(rng, 3, 2)
        target = rng.normal(0, 1, (1, 3, 2, 2))

        def loss():
            out = conv2d_fwd(x, p)
            return float(((out - target) ** 2).sum())

        out = conv2d_fwd(x, p)
        grad_out = 2.0 * (out - target)
        gx = conv2d_bwd(x, p, grad_out)

        assert max_rel_err(gx, fd_gradient(loss, x)) < GRAD_TOL
        assert max_rel_err(p.weight.grad, fd_gradient(loss, p.weight.data)) < GRAD_TOL
        assert max_rel_err(p.bias.grad, fd_gradient(loss, p.bias.data)) < GRAD_TOL

    def test_zero_grad_out(self):
        rng = np.random.default_rng(5)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        p = rand_conv(rng, 3, 2)
        gx = conv2d_bwd(x, p, np.zeros((1, 3, 2, 2)))
        assert not gx.any() and not p.weight.grad.any() and not p.bias.grad.any()

    def test_linearity_in_grad_out(self):
        rng = np.random.default_rng(6)
        x = rng.normal(0, 1, (1, 2, 4, 4))
        ga = rng.normal(0, 1, (1, 3, 2, 2))
        gb = rng.normal(0, 1, (1, 3, 2, 2))

        pa, pb, pab = (rand_conv(np.random.default_rng(7), 3, 2) for _ in range(3))
        xa = conv2d_bwd(x, pa, ga)
        xb = conv2d_bwd(x, pb, gb)
        xab = conv2d_bwd(x, pab, ga + gb)
        assert np.allclose(xab, xa + xb, atol=1e-10)
        assert np.allclose(pab.weight.grad, pa.weight.grad + pb.weight.grad, atol=1e-10)


class TestDeconv:
    def test_shape_doubles(self):
        rng = np.random.default_rng(8)
        for out_ch in (1, 7, 64):
            p = ConvParams(rng.normal(0, 1, (512, out_ch, 4, 4)), np.zeros(out_ch))
            out = deconv2d_fwd(rng.normal(0, 1, (1, 512, 2, 2)), p)
            assert out.shape == (1, out_ch, 4, 4)

    def test_adjoint_identity(self):
        # <conv(x), y> == <x, deconv(y)> for shared weights and zero bias
        rng = np.random.default_rng(9)
        p = ConvParams(rng.normal(0, 1, (5, 3, 4, 4)), np.zeros(5))
        pb = ConvParams(p.weight.data, np.zeros(3))
        # deconv inputs of 1x1 and 2x2 (and 1-wide) clip every shifted tap
        for b, h, w in ((2, 4, 4), (3, 1, 1), (2, 2, 2), (1, 1, 3), (2, 2, 1)):
            x = rng.normal(0, 1, (b, 3, 2 * h, 2 * w))
            y = rng.normal(0, 1, (b, 5, h, w))
            lhs = float((conv2d_fwd(x, p) * y).sum())
            up = deconv2d_fwd(y, pb)
            assert up.shape == x.shape
            rhs = float((x * up).sum())
            assert abs(lhs - rhs) < 1e-4 * max(1.0, abs(lhs))

    def test_finite_differences(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0, 1, (1, 3, 2, 2))
        p = ConvParams(rng.normal(0, 0.5, (3, 2, 4, 4)), rng.normal(0, 0.5, 2))
        target = rng.normal(0, 1, (1, 2, 4, 4))

        def loss():
            return float(((deconv2d_fwd(x, p) - target) ** 2).sum())

        grad_out = 2.0 * (deconv2d_fwd(x, p) - target)
        gx = deconv2d_bwd(x, p, grad_out)
        assert max_rel_err(gx, fd_gradient(loss, x)) < GRAD_TOL
        assert max_rel_err(p.weight.grad, fd_gradient(loss, p.weight.data)) < GRAD_TOL
        assert max_rel_err(p.bias.grad, fd_gradient(loss, p.bias.data)) < GRAD_TOL


class TestBatchNorm:
    def test_train_normalizes(self):
        rng = np.random.default_rng(11)
        x = rng.normal(3.0, 2.5, (4, 3, 8, 8))
        p = BatchNormParams(np.ones(3), np.zeros(3))
        out, _ = batchnorm_fwd(x, p)
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-4
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - 1.0)) < 1e-4

    def test_eval_identity_with_unit_running_stats(self):
        rng = np.random.default_rng(12)
        x = rng.normal(0, 1, (2, 3, 4, 4))
        p = BatchNormParams(np.ones(3), np.zeros(3))
        scale, shift = batchnorm_eval_affine(p)
        out = x * scale[None, :, None, None] + shift[None, :, None, None]
        # off only by the eps=1e-5 inside the denominator: |out - x| <= |x|*eps/2
        assert np.max(np.abs(out - x)) < 5e-5

    def test_running_stats_update(self):
        rng = np.random.default_rng(13)
        x = rng.normal(5.0, 2.0, (8, 2, 8, 8))
        p = BatchNormParams(np.ones(2), np.zeros(2))
        for _ in range(200):
            batchnorm_fwd(x, p)
        assert np.allclose(p.running_mean, x.mean(axis=(0, 2, 3)), atol=1e-3)
        assert np.allclose(p.running_var, x.var(axis=(0, 2, 3)), atol=1e-3)

    def test_running_stats_only_written(self):
        # Output and cache never read the running statistics, so a gradient
        # check may call batchnorm_fwd repeatedly while they drift.
        x = np.random.default_rng(46).normal(0, 1, (2, 3, 4, 4)).astype(np.float32)
        fresh = BatchNormParams(np.full(3, 1.1, np.float32), np.full(3, 0.1, np.float32))
        drifted = BatchNormParams(fresh.gamma.data.copy(), fresh.beta.data.copy())
        drifted.running_mean[:] = [3.0, -2.0, 0.5]
        drifted.running_var[:] = [9.0, 0.25, 4.0]
        out_a, (xhat_a, inv_a) = batchnorm_fwd(x, fresh)
        out_b, (xhat_b, inv_b) = batchnorm_fwd(x, drifted)
        assert out_a.tobytes() == out_b.tobytes()
        assert xhat_a.tobytes() == xhat_b.tobytes()
        assert inv_a.tobytes() == inv_b.tobytes()

    def test_single_element_rejected(self):
        p = BatchNormParams(np.ones(2), np.zeros(2))
        with pytest.raises(ScrollbinError):
            batchnorm_fwd(np.zeros((1, 2, 1, 1)), p)

    def test_finite_differences(self):
        rng = np.random.default_rng(14)
        x = rng.normal(0, 1, (2, 3, 3, 3))
        p = BatchNormParams(rng.normal(1, 0.2, 3), rng.normal(0, 0.2, 3))
        target = rng.normal(0, 1, x.shape)

        def loss():
            out, _ = batchnorm_fwd(x, p)
            return float(((out - target) ** 2).sum())

        out, cache = batchnorm_fwd(x, p)
        gx = batchnorm_bwd(p, cache, 2.0 * (out - target))
        assert max_rel_err(gx, fd_gradient(loss, x)) < GRAD_TOL
        assert max_rel_err(p.gamma.grad, fd_gradient(loss, p.gamma.data)) < GRAD_TOL
        assert max_rel_err(p.beta.grad, fd_gradient(loss, p.beta.data)) < GRAD_TOL


class TestGradientsOverwrite:
    """A second backward through the same params leaves only its own gradients."""

    @staticmethod
    def _twice(bwd, make_params, grad_shape):
        rng = np.random.default_rng(40)
        first, second = rng.normal(0, 1, grad_shape), rng.normal(0, 1, grad_shape)
        reused, fresh = make_params(), make_params()
        bwd(reused, first)
        bwd(reused, second)
        bwd(fresh, second)
        for a, b in zip(reused.params(), fresh.params()):
            assert np.array_equal(a.grad, b.grad)

    def test_conv(self):
        x = np.random.default_rng(41).normal(0, 1, (1, 2, 4, 4))
        self._twice(
            lambda p, g: conv2d_bwd(x, p, g), lambda: rand_conv(np.random.default_rng(42), 3, 2), (1, 3, 2, 2)
        )

    def test_deconv(self):
        x = np.random.default_rng(43).normal(0, 1, (1, 3, 2, 2))

        def make():
            rng = np.random.default_rng(44)
            return ConvParams(rng.normal(0, 0.5, (3, 2, 4, 4)), rng.normal(0, 0.5, 2))

        self._twice(lambda p, g: deconv2d_bwd(x, p, g), make, (1, 2, 4, 4))

    def test_batchnorm(self):
        x = np.random.default_rng(45).normal(0, 1, (2, 3, 3, 3))

        def bwd(p, g):
            _, cache = batchnorm_fwd(x, p)
            batchnorm_bwd(p, cache, g)

        self._twice(bwd, lambda: BatchNormParams(np.full(3, 1.1), np.full(3, 0.1)), x.shape)


class TestActivations:
    def test_leaky_values(self):
        x = np.array([1.0, -1.0, 0.0])
        assert np.allclose(leaky_relu(x), [1.0, -0.2, 0.0])

    def test_leaky_grad_at_zero_uses_slope(self):
        g = leaky_relu_bwd(np.array([0.0]), np.array([1.0]))
        assert g[0] == pytest.approx(0.2)

    def test_leaky_finite_differences(self):
        rng = np.random.default_rng(15)
        x = rng.normal(0, 1, (2, 2, 4, 4))
        x[np.abs(x) < 1e-3] = 0.5  # keep away from the kink
        target = rng.normal(0, 1, x.shape)

        def loss():
            return float(((leaky_relu(x) - target) ** 2).sum())

        gx = leaky_relu_bwd(x, 2.0 * (leaky_relu(x) - target))
        assert max_rel_err(gx, fd_gradient(loss, x)) < GRAD_TOL

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]).flatmap(
            lambda dtype: arrays(
                dtype, st.tuples(st.just(2), st.integers(1, 40)), elements=st.floats(width=np.finfo(dtype).bits)
            )
        )
    )
    @example(np.array([[0.0, -0.0, np.nan, -np.nan, 5e-324, -5e-324, 2.2e-308, -np.inf, np.inf],
                       [1.0, -1.0, 3.0, np.nan, 2.0, -0.0, 7.0, 1.5, np.inf]]))
    @example(np.array([[0.0, -0.0, np.nan, 1e-45, -1e-45, 1.2e-38], [1.0, 2.0, 3.0, 4.0, -5.0, np.nan]], np.float32))
    def test_backward_reads_the_activation_as_its_input(self, zg):
        # The training forward keeps only the activation, computed in place
        # over its input, so its backward must give the input's bytes.
        z, g = zg
        with np.errstate(all="ignore"):
            from_out = leaky_relu_bwd(leaky_relu(z), g)
            from_z = leaky_relu_bwd(z, g)
        assert from_out.dtype == from_z.dtype and from_out.tobytes() == from_z.tobytes()

    def test_tanh_values(self):
        assert tanh_act(np.array([0.0]))[0] == 0.0
        assert abs(tanh_act(np.array([30.0]))[0] - 1.0) < 1e-6
        assert abs(tanh_act(np.array([-30.0]))[0] + 1.0) < 1e-6

    def test_tanh_finite_differences(self):
        rng = np.random.default_rng(16)
        x = rng.normal(0, 1, (1, 2, 3, 3))
        target = rng.normal(0, 1, x.shape)

        def loss():
            return float(((tanh_act(x) - target) ** 2).sum())

        out = tanh_act(x)
        gx = tanh_bwd(out, 2.0 * (out - target))
        assert max_rel_err(gx, fd_gradient(loss, x)) < GRAD_TOL


class TestLayoutMatchesEarlierFormulas:
    """The rewritten training ops against the formulas they replaced.

    Values must match to the byte and layouts must match too: numpy picks
    each result's strides from its operands, and batch-norm reductions and
    GEMM transposes downstream follow them. Inputs come in the layouts
    training produces: C-contiguous, and the channel-major view that _corr
    returns at batch >= 2. Sizes fall on both sides of numpy's 256 KB
    threshold for writing a result into a temporary operand.
    """

    SHAPES = ((512, 1), (16, 8), (64, 32))  # (channels, side)

    @staticmethod
    def _array(rng, shape, channel_major, dtype):
        b, c, h, w = shape
        if channel_major:
            return rng.normal(0, 1, (c, b, h, w)).astype(dtype).transpose(1, 0, 2, 3)
        return rng.normal(0, 1, shape).astype(dtype)

    @staticmethod
    def _same(new, old):
        """Same dtype, shape and bytes, and the same stride on every axis
        longer than 1; a length-1 axis's stride is never read."""
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()
        assert [s for s, n in zip(new.strides, new.shape) if n > 1] == [
            s for s, n in zip(old.strides, old.shape) if n > 1
        ]

    def _cases(self, seed):
        rng = np.random.default_rng(seed)
        for dtype in (np.float32, np.float64):
            for batch in (1, 2, 3):
                for c, side in self.SHAPES:
                    for x_cm in (False, True):
                        for g_cm in (False, True):
                            shape = (batch, c, side, side)
                            yield rng, dtype, shape, self._array(rng, shape, x_cm, dtype), self._array(
                                rng, shape, g_cm, dtype
                            )

    def test_leaky_relu(self):
        for _, _, _, x, _ in self._cases(60):
            x.reshape(-1)[::7] = 0.0
            x.reshape(-1)[::11] = -0.0
            self._same(leaky_relu(x), where_leaky_relu(x, 0.2))
            z = x.copy()
            assert leaky_relu(z, out=z) is z
            assert z.tobytes() == where_leaky_relu(x, 0.2).tobytes()

    def test_leaky_relu_bwd(self):
        for _, _, _, x, g in self._cases(61):
            x.reshape(-1)[::7] = 0.0
            self._same(leaky_relu_bwd(x, g), where_leaky_relu_bwd(x, g, 0.2))

    def test_batchnorm_bwd(self):
        for rng, dtype, shape, x, g in self._cases(62):
            if shape[0] * shape[2] * shape[3] < 2:
                continue  # train-mode batch norm needs two values per channel
            p = BatchNormParams(rng.normal(1, 0.1, shape[1]).astype(dtype), np.zeros(shape[1], dtype))
            _, (xhat, inv) = batchnorm_fwd(x, p)
            dx, dgamma, dbeta = expr_batchnorm_bwd(p.gamma.data, xhat, inv, g)
            self._same(batchnorm_bwd(p, (xhat, inv), g), dx)
            self._same(p.gamma.grad, dgamma)
            self._same(p.beta.grad, dbeta)

    def test_deconv2d_bwd(self):
        for rng, dtype, shape, _, g in self._cases(63):
            if shape[2] < 2:
                continue
            b, co, h, w = shape
            for x_cm in (False, True):
                x = self._array(rng, (b, 8, h // 2, w // 2), x_cm, dtype)
                p = ConvParams(rng.normal(0, 0.5, (8, co, 4, 4)).astype(dtype), np.zeros(co, dtype))
                dx, dw, db = two_im2col_deconv2d_bwd(x, p.weight.data, g)
                self._same(deconv2d_bwd(x, p, g), dx)
                self._same(p.weight.grad, dw)
                self._same(p.bias.grad, db)


class TestDropout:
    def test_empirical_keep_rate(self):
        rng = np.random.default_rng(19)
        x = np.ones((1, 1, 1000, 1000))
        out, mask = dropout(x, rng)
        keep_rate = mask.mean()
        assert abs(keep_rate - 0.5) < 0.003
        assert np.allclose(out[mask], 2.0)  # survivors doubled
        assert not out[~mask].any()

    def test_mask_reused_in_backward(self):
        rng = np.random.default_rng(20)
        x = rng.normal(0, 1, (1, 2, 8, 8))
        out, mask = dropout(x, rng)
        g = dropout_bwd(np.ones_like(x), mask)
        assert np.array_equal(g != 0, out != 0)

    def test_reproducible_from_seed(self):
        x = np.ones((1, 1, 32, 32))
        _, m1 = dropout(x, np.random.default_rng(21))
        _, m2 = dropout(x, np.random.default_rng(21))
        assert np.array_equal(m1, m2)


class TestConcat:
    def test_shapes(self):
        a = np.zeros((1, 512, 2, 2))
        b = np.zeros((1, 512, 2, 2))
        assert concat_channels(a, b).shape == (1, 1024, 2, 2)

    def test_zero_channel_is_identity(self):
        a = np.random.default_rng(22).normal(0, 1, (1, 3, 4, 4))
        out = concat_channels(a, np.zeros((1, 0, 4, 4)))
        assert np.array_equal(out, a)

    def test_split_inverts_concat(self):
        rng = np.random.default_rng(23)
        a = rng.normal(0, 1, (2, 3, 4, 4))
        b = rng.normal(0, 1, (2, 5, 4, 4))
        ga, gb = split_channels(concat_channels(a, b), 3)
        assert np.array_equal(ga, a) and np.array_equal(gb, b)


class TestL1Loss:
    def test_zero_at_match(self):
        x = np.random.default_rng(24).normal(0, 1, (1, 1, 4, 4))
        loss, grad = l1_loss(x, x.copy())
        assert loss == 0.0 and not grad.any()  # sign(0) = 0

    def test_unit_offset(self):
        pred = np.ones((2, 1, 3, 3))
        loss, grad = l1_loss(pred, np.zeros_like(pred))
        assert loss == pytest.approx(1.0)
        assert np.allclose(grad, 1.0 / pred.size)

    def test_finite_differences_off_ties(self):
        rng = np.random.default_rng(25)
        pred = rng.normal(0, 1, (1, 2, 4, 4))
        target = pred + np.where(rng.random(pred.shape) < 0.5, 0.3, -0.3)

        def loss():
            return l1_loss(pred, target)[0]

        _, grad = l1_loss(pred, target)
        assert max_rel_err(grad, fd_gradient(loss, pred)) < GRAD_TOL


class TestAdam:
    def test_first_step_closed_form(self):
        p = Param(np.array([0.0]))
        p.grad = np.array([1.0])
        state = AdamState([p])
        adam_step([p], state, lr=2e-4)
        assert p.data[0] == pytest.approx(-2e-4, rel=1e-6)

    def test_zero_gradient_no_move(self):
        p = Param(np.array([3.25]))
        p.grad = np.zeros(1)
        state = AdamState([p])
        for _ in range(10):
            adam_step([p], state)
        assert p.data[0] == 3.25

    def test_quadratic_bowl_convergence(self):
        # Adam's normalized step moves ~lr per iteration, so covering the
        # unit distance within 5000 steps needs lr=1e-3
        p = Param(np.array([1.0]))
        state = AdamState([p])
        for _ in range(5000):
            p.grad = 2.0 * p.data
            adam_step([p], state, lr=1e-3)
        assert abs(p.data[0]) < 1e-3

    def test_step_counter(self):
        p = Param(np.zeros(3))
        p.grad = np.zeros(3)
        state = AdamState([p])
        adam_step([p], state)
        adam_step([p], state)
        assert state.t == 2

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @settings(max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        lr=st.floats(1e-5, 1e-1),
    )
    def test_matches_whole_tensor_passes(self, dtype, seed, lr):
        """Bytes of data, m and v after 3 steps equal the whole-tensor update's,
        for tensors on and around every chunk boundary."""
        rng = np.random.default_rng(seed)
        shapes = [(1,), (CHUNK - 1,), (16, 64, 8, 8), (CHUNK + 1,), (3 * CHUNK + 5,)]
        params = [Param(rng.normal(0, 1, s).astype(dtype)) for s in shapes]
        datas = [p.data.copy() for p in params]
        ms = [np.zeros_like(d) for d in datas]
        vs = [np.zeros_like(d) for d in datas]
        state = AdamState(params)
        for t in range(1, 4):
            grads = [rng.normal(0, 1, s).astype(dtype) for s in shapes]
            for p, g in zip(params, grads):
                p.grad = g
            adam_step(params, state, lr=lr)
            naive_adam_step(datas, grads, ms, vs, t, lr=lr)
        for p, d, m, v, m2, v2 in zip(params, datas, ms, vs, state.m, state.v):
            assert p.data.tobytes() == d.tobytes()
            assert m2.tobytes() == m.tobytes() and v2.tobytes() == v.tobytes()

    def test_non_contiguous_param_rejected_before_any_update(self):
        # A flat view of an F-ordered array is a copy, and an update written
        # into it would be lost, so the step must refuse rather than skip it.
        ok = Param(np.ones((3, 4)))
        fortran = Param(np.asfortranarray(np.ones((3, 4))))
        for p in (ok, fortran):
            p.grad = np.ones((3, 4))
        state = AdamState([ok, fortran])
        with pytest.raises(ScrollbinError, match="C-contiguous"):
            adam_step([ok, fortran], state)
        assert state.t == 0
        assert (ok.data == 1).all() and not state.m[0].any() and not state.v[0].any()

    @pytest.mark.parametrize("grad", [None, np.ones(4), np.ones((3, 4, 1))])
    def test_missing_or_misshapen_grad_rejected(self, grad):
        p = Param(np.ones((3, 4)))
        p.grad = grad
        state = AdamState([p])
        with pytest.raises(ScrollbinError, match="grad"):
            adam_step([p], state)
        assert state.t == 0 and (p.data == 1).all()


class TestAdamOnParts:
    """adam_step on parts of a state's params, as training runs it per stage."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parts_match_one_whole_step(self, dtype):
        rng = np.random.default_rng(70)
        shapes = [(3,), (CHUNK + 1,), (4, 2, 4, 4), (5,)]
        whole = [Param(rng.normal(0, 1, s).astype(dtype)) for s in shapes]
        parts = [Param(p.data.copy()) for p in whole]
        whole_state, parts_state = AdamState(whole), AdamState(parts)
        for _ in range(3):
            for a, b in zip(whole, parts):
                a.grad = rng.normal(0, 1, a.shape).astype(dtype)
                b.grad = a.grad.copy()
            adam_step(whole, whole_state, lr=1e-2)
            # reversed order and uneven parts, as the stages of a backward give them
            adam_step(parts[2:][::-1], parts_state, lr=1e-2)
            adam_step(parts[:2], parts_state, lr=1e-2)
        assert whole_state.t == parts_state.t == 3
        for a, b, *moments in zip(whole, parts, whole_state.m, parts_state.m, whole_state.v, parts_state.v):
            assert a.data.tobytes() == b.data.tobytes()
            assert moments[0].tobytes() == moments[1].tobytes()
            assert moments[2].tobytes() == moments[3].tobytes()

    def test_each_param_counts_its_own_steps(self):
        a, b = Param(np.zeros(2)), Param(np.zeros(2))
        a.grad = b.grad = np.ones(2)
        state = AdamState([a, b])
        adam_step([a], state)
        adam_step([a], state)
        adam_step([b], state)
        assert state.steps == [2, 1] and state.t == 2
        # b's first step is bias-corrected as a first step: it moves by lr
        assert b.data[0] == pytest.approx(-2e-4, rel=1e-6)

    def test_param_outside_the_state_rejected_before_any_update(self):
        known, stranger = Param(np.ones(3)), Param(np.ones(3))
        known.grad = stranger.grad = np.ones(3)
        state = AdamState([known])
        with pytest.raises(ScrollbinError, match="no Adam state"):
            adam_step([known, stranger], state)
        assert state.t == 0 and (known.data == 1).all()


class TestWeightGradInnerDimensionOne:
    """The outer-product path of _corr_weight_grad gives the GEMM's bytes."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("inner", [1, 2])
    def test_bytes_match_gemm(self, dtype, inner):
        rng = np.random.default_rng(71)
        co, ci = 9, 5
        g = rng.normal(0, 1, (inner, co, 1, 1)).astype(dtype)
        cols = rng.normal(0, 1, (ci * 16, inner)).astype(dtype)
        # zeros of both signs, and products that underflow to -0
        g.reshape(-1)[::3] = -0.0
        g.reshape(-1)[1::4] = 0.0
        g.reshape(-1)[2::5] = -np.finfo(dtype).tiny
        cols[::2] = 0.0
        cols[1::5] = -0.0
        cols[3::7] = np.finfo(dtype).tiny
        gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)
        expect = (gmat @ cols.T).reshape(co, ci, 4, 4)
        got = _corr_weight_grad(cols, g, ci)
        assert got.dtype == expect.dtype and got.shape == expect.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == expect.tobytes()
        if inner == 1:  # the plain outer product holds -0 where the GEMM has +0
            outer = np.multiply.outer(gmat[:, 0], cols[:, 0])
            assert (np.signbit(outer) & (outer == 0)).any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, CHUNK - 1, CHUNK, 3 * CHUNK + 4])
def test_all_finite_checks_every_chunk(bad, index):
    arr = np.zeros((3 * CHUNK + 5,), np.float32)
    assert all_finite(arr) and all_finite(arr[::3])
    arr[index] = bad
    assert not all_finite(arr)
    assert not all_finite(arr.reshape(1, -1))
    assert not all_finite(arr[index % 2 :: 2])  # a strided view is checked too
