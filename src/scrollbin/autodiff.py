"""Minimal dense-tensor layer ops with explicit forward/backward passes.

Activations flow through as plain numpy arrays of shape (batch, channels,
height, width); learnable arrays live in Param objects that pair the value
with a gradient buffer. There is no graph: every op exposes a *_fwd and a
matching *_bwd, and the caller chains them in reverse order, passing back
whatever the forward saved.

Convolutions are 4x4 kernels with stride 2 and padding 1, evaluated as
im2col + GEMM; the transposed convolution is the exact adjoint of the forward
convolution, realized as GEMM + strided scatter-add. Ops preserve the input
dtype, so gradient checks can run the whole stack in float64 while training
runs in float32.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ScrollbinError

KERNEL = 4
STRIDE = 2  # every convolution halves, every transposed convolution doubles
PAD = 1


class Param:
    """A learnable array plus its gradient accumulator."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad = np.zeros_like(data)

    def zero_grad(self):
        self.grad.fill(0)

    @property
    def shape(self):
        return self.data.shape


class ConvParams:
    """Weight (out_ch, in_ch, 4, 4) and bias for one convolution.

    The same object backs a transposed convolution, where the roles of the
    weight axes swap: deconv2d_fwd consumes weight.shape[0] channels and
    emits weight.shape[1] (the adjoint layout). The bias always has the
    length of whichever op's output channels.
    """

    def __init__(self, weight: np.ndarray, bias: np.ndarray):
        if weight.ndim != 4 or weight.shape[2:] != (KERNEL, KERNEL):
            raise ScrollbinError(f"conv weight must be (o, i, {KERNEL}, {KERNEL}), got {weight.shape}")
        if bias.ndim != 1:
            raise ScrollbinError(f"conv bias must be rank 1, got shape {bias.shape}")
        self.weight = Param(weight)
        self.bias = Param(bias)

    @property
    def out_ch(self) -> int:
        return self.weight.shape[0]

    @property
    def in_ch(self) -> int:
        return self.weight.shape[1]

    def params(self) -> list[Param]:
        return [self.weight, self.bias]


class BatchNormParams:
    """Per-channel scale/shift plus running statistics for inference."""

    def __init__(self, gamma: np.ndarray, beta: np.ndarray, momentum: float = 0.1, eps: float = 1e-5):
        if gamma.shape != beta.shape or gamma.ndim != 1:
            raise ScrollbinError("batchnorm gamma/beta must be matching rank-1 arrays")
        self.gamma = Param(gamma)
        self.beta = Param(beta)
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)
        self.momentum = momentum
        self.eps = eps

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]


# ---------------------------------------------------------------------------
# Correlation primitives (shared by conv and its adjoint)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray) -> tuple[np.ndarray, int, int]:
    b, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    win = sliding_window_view(xp, (KERNEL, KERNEL), axis=(2, 3))[:, :, ::STRIDE, ::STRIDE]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(0, 2, 3, 1, 4, 5).reshape(b * oh * ow, c * KERNEL * KERNEL)
    return cols, oh, ow


def _corr(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    cols, oh, ow = _im2col(x)
    out = cols @ w.reshape(w.shape[0], -1).T
    return out.reshape(x.shape[0], oh, ow, w.shape[0]).transpose(0, 3, 1, 2)


def _corr_weight_grad(x: np.ndarray, g: np.ndarray) -> np.ndarray:
    cols, oh, ow = _im2col(x)
    co = g.shape[1]
    gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)
    return (gmat @ cols).reshape(co, x.shape[1], KERNEL, KERNEL)


def _corr_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of _corr: scatter g (b, co, oh, ow) back to (b, ci, 2*oh, 2*ow)."""
    b, co, oh, ow = g.shape
    ci = w.shape[1]
    h, w_sp = STRIDE * oh, STRIDE * ow
    gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)
    colg = (w.reshape(co, -1).T @ gmat).reshape(ci, KERNEL, KERNEL, b, oh, ow)
    buf = np.zeros((b, ci, h + 2 * PAD, w_sp + 2 * PAD), dtype=g.dtype)
    for kh in range(KERNEL):
        for kw in range(KERNEL):
            # windows at a fixed tap never overlap, so plain adds suffice
            buf[:, :, kh : kh + STRIDE * oh : STRIDE, kw : kw + STRIDE * ow : STRIDE] += colg[
                :, kh, kw
            ].transpose(1, 0, 2, 3)
    return np.ascontiguousarray(buf[:, :, PAD : PAD + h, PAD : PAD + w_sp])


# ---------------------------------------------------------------------------
# Convolution (halves the spatial dims)
# ---------------------------------------------------------------------------


def conv2d_fwd(x: np.ndarray, p: ConvParams) -> np.ndarray:
    b, c, h, w = x.shape
    if c != p.in_ch:
        raise ScrollbinError(f"conv input has {c} channels, weights expect {p.in_ch}")
    if h % 2 or w % 2 or h < 2 or w < 2:
        raise ScrollbinError(f"conv input spatial dims must be even and >= 2, got {h}x{w}")
    out = _corr(x, p.weight.data)
    out += p.bias.data[None, :, None, None]
    return out


def conv2d_bwd(x: np.ndarray, p: ConvParams, grad_out: np.ndarray) -> np.ndarray:
    """Accumulates weight/bias grads into p and returns the input gradient."""
    expect = (x.shape[0], p.out_ch, x.shape[2] // 2, x.shape[3] // 2)
    if grad_out.shape != expect:
        raise ScrollbinError(f"conv grad_out shape {grad_out.shape}, expected {expect}")
    p.weight.grad += _corr_weight_grad(x, grad_out)
    p.bias.grad += grad_out.sum(axis=(0, 2, 3))
    return _corr_input_grad(grad_out, p.weight.data)


# ---------------------------------------------------------------------------
# Transposed convolution (adjoint of conv2d_fwd: doubles the spatial dims)
# ---------------------------------------------------------------------------


def deconv2d_fwd(x: np.ndarray, p: ConvParams) -> np.ndarray:
    c = x.shape[1]
    if c != p.weight.shape[0]:
        raise ScrollbinError(f"deconv input has {c} channels, weights expect {p.weight.shape[0]}")
    out = _corr_input_grad(x, p.weight.data)
    out += p.bias.data[None, :, None, None]
    return out


def deconv2d_bwd(x: np.ndarray, p: ConvParams, grad_out: np.ndarray) -> np.ndarray:
    expect_ch = p.weight.shape[1]
    if grad_out.shape[1] != expect_ch:
        raise ScrollbinError(f"deconv grad_out has {grad_out.shape[1]} channels, expected {expect_ch}")
    p.weight.grad += _corr_weight_grad(grad_out, x)
    p.bias.grad += grad_out.sum(axis=(0, 2, 3))
    return _corr(grad_out, p.weight.data)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


def batchnorm_fwd(
    x: np.ndarray, p: BatchNormParams, train: bool, update_running: bool = True
) -> tuple[np.ndarray, tuple | None]:
    """Normalize per channel; returns (out, cache) where cache feeds batchnorm_bwd.

    Train mode normalizes by the batch statistics (population variance) and
    updates the running estimates; eval mode uses the running statistics and
    returns no cache.
    """
    if x.shape[1] != p.channels:
        raise ScrollbinError(f"batchnorm expects {p.channels} channels, got {x.shape[1]}")
    gamma = p.gamma.data[None, :, None, None]
    beta = p.beta.data[None, :, None, None]
    if not train:
        inv = 1.0 / np.sqrt(p.running_var + p.eps)
        xhat = (x - p.running_mean[None, :, None, None]) * inv[None, :, None, None]
        return gamma * xhat + beta, None

    count = x.shape[0] * x.shape[2] * x.shape[3]
    if count < 2:
        raise ScrollbinError("batchnorm train mode needs more than one element per channel")
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + p.eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    if update_running:
        m = p.momentum
        p.running_mean += m * (mean.astype(p.running_mean.dtype) - p.running_mean)
        p.running_var += m * (var.astype(p.running_var.dtype) - p.running_var)
    return gamma * xhat + beta, (xhat, inv)


def batchnorm_bwd(p: BatchNormParams, cache: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Backward through train-mode normalization; accumulates gamma/beta grads."""
    xhat, inv = cache
    p.beta.grad += grad_out.sum(axis=(0, 2, 3))
    p.gamma.grad += (grad_out * xhat).sum(axis=(0, 2, 3))

    dxhat = grad_out * p.gamma.data[None, :, None, None]
    mean_d = dxhat.mean(axis=(0, 2, 3), keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
    return inv[None, :, None, None] * (dxhat - mean_d - xhat * mean_dx)


# ---------------------------------------------------------------------------
# Activations, dropout, concat, loss
# ---------------------------------------------------------------------------


def leaky_relu(x: np.ndarray, slope: float = 0.2) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


def leaky_relu_bwd(x: np.ndarray, grad_out: np.ndarray, slope: float = 0.2) -> np.ndarray:
    # subgradient at exactly 0 fixed to the leak slope
    return grad_out * np.where(x > 0, np.asarray(1.0, x.dtype), np.asarray(slope, x.dtype))


def tanh_act(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_bwd(out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (1.0 - out * out)


def dropout(
    x: np.ndarray, rate: float, train: bool, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout: survivors scaled by 1/(1-rate) so eval is the identity.

    Returns (out, keep_mask); the mask is None when dropout is a no-op and is
    reused verbatim in the backward pass.
    """
    if not 0.0 <= rate < 1.0:
        raise ScrollbinError(f"dropout rate must be in [0, 1), got {rate}")
    if not train or rate == 0.0:
        return x, None
    keep = rng.random(x.shape) >= rate
    scale = np.asarray(1.0 / (1.0 - rate), dtype=x.dtype)
    return x * keep * scale, keep


def dropout_bwd(grad_out: np.ndarray, keep: np.ndarray | None, rate: float) -> np.ndarray:
    if keep is None:
        return grad_out
    scale = np.asarray(1.0 / (1.0 - rate), dtype=grad_out.dtype)
    return grad_out * keep * scale


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ScrollbinError(f"concat needs matching batch/spatial dims, got {a.shape} vs {b.shape}")
    return np.concatenate([a, b], axis=1)


def split_channels(grad: np.ndarray, first_channels: int) -> tuple[np.ndarray, np.ndarray]:
    return grad[:, :first_channels], grad[:, first_channels:]


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its gradient wrt pred; sign(0) contributes 0."""
    if pred.shape != target.shape:
        raise ScrollbinError(f"l1_loss shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float(np.abs(diff).mean(dtype=np.float64))
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(pred.dtype, copy=False)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


class AdamState:
    """First/second moment buffers plus the step counter, one pair per param."""

    def __init__(self, params: list[Param]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0
        self._scratch: np.ndarray | None = None

    def scratch_for(self, p: Param) -> np.ndarray:
        if self._scratch is None or self._scratch.size < p.data.size or self._scratch.dtype != p.data.dtype:
            self._scratch = np.empty(p.data.size, dtype=p.data.dtype)
        return self._scratch[: p.data.size].reshape(p.data.shape)


def adam_step(
    params: list[Param],
    state: AdamState,
    lr: float = 2e-4,
    beta1: float = 0.5,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> None:
    """One bias-corrected Adam update, consuming the grads stored on params.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2;
    theta <- theta - lr * mhat / (sqrt(vhat) + eps)
    with mhat = m/(1-b1^t), vhat = v/(1-b2^t). Everything runs in place
    through one scratch buffer; the update is memory-bound otherwise.
    """
    state.t += 1
    c1 = 1.0 - beta1**state.t
    c2 = 1.0 - beta2**state.t
    for p, m, v in zip(params, state.m, state.v):
        g = p.grad
        s = state.scratch_for(p)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=s)
        m += s
        v *= beta2
        np.multiply(g, g, out=s)
        s *= 1.0 - beta2
        v += s
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += eps
        np.divide(m, s, out=s)
        s *= lr / c1
        p.data -= s
