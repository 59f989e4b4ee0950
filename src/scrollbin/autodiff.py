"""Minimal dense-tensor layer ops with explicit forward/backward passes.

Activations flow through as plain numpy arrays of shape (batch, channels,
height, width); learnable arrays live in Param objects that pair the value
with the gradient of the latest backward. There is no graph: every op
exposes a *_fwd and a matching *_bwd, and the caller chains them in reverse
order, passing back whatever the forward saved. A *_bwd sets the gradients
of its params rather than accumulating into them, so a param used twice in
one forward would need its caller to sum the two gradients.

Convolutions are 4x4 kernels with stride 2 and padding 1. Two helpers serve
all four conv ops, forward and backward. _corr builds (channel*tap, pixel)
columns and does one GEMM, whose result is already NCHW at batch 1.
_corr_input_grad, the exact adjoint and so the transposed convolution, does
one GEMM for all taps and then sums the four taps of each output phase. Ops
preserve the input dtype, so gradient checks can run the whole stack in
float64 while training runs in float32.

batchnorm_fwd and dropout are the training forms only: inference uses
batchnorm_eval_affine and skips dropout. The pix2pix settings are constants
written once: the LeakyReLU slope LEAK, DROPOUT_RATE, batch norm's momentum
and eps on BatchNormParams, and Adam's ADAM_BETA1, ADAM_BETA2 and ADAM_EPS.

The ops check no shapes: each shape rule has one owner upstream.
binet._assemble, which binet._rebuild runs for a weights file, owns the
weights and the skip wiring; binet._check_input owns forward's input and
binet._check_pair each training pair. An op called with shapes that do not
fit is a programming error, which numpy reports where they cannot broadcast.
Only what a weights file can reach is checked: batch norm over one element
per channel (a 1x1 stage at batch 1) and params that adam_step cannot update.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ScrollbinError

KERNEL = 4
STRIDE = 2  # every convolution halves, every transposed convolution doubles
PAD = 1
# Elements per block of the memory-bound passes (Adam, finiteness checks).
# A block of each of Adam's five operands then stays in a 2 MB L2; 16K and
# 256K measured slower.
CHUNK = 1 << 16
LEAK = 0.2  # LeakyReLU slope for negative inputs
DROPOUT_RATE = 0.5
ADAM_BETA1 = 0.5  # decay of Adam's first moment
ADAM_BETA2 = 0.999  # decay of Adam's second moment
ADAM_EPS = 1e-8


class Param:
    """A learnable array plus its gradient, None until a backward sets it."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = data
        self.grad: np.ndarray | None = None

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
        self.weight = Param(weight)
        self.bias = Param(bias)

    def params(self) -> list[Param]:
        return [self.weight, self.bias]


class BatchNormParams:
    """Per-channel scale/shift plus running statistics for inference."""

    momentum = 0.1  # weight of each batch's statistics in the running ones
    eps = 1e-5

    def __init__(self, gamma: np.ndarray, beta: np.ndarray):
        self.gamma = Param(gamma)
        self.beta = Param(beta)
        self.running_mean = np.zeros_like(gamma)
        self.running_var = np.ones_like(gamma)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def params(self) -> list[Param]:
        return [self.gamma, self.beta]


# ---------------------------------------------------------------------------
# Correlation primitives (shared by conv and its adjoint)
# ---------------------------------------------------------------------------


def _im2col(x: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Columns (c*16, b*oh*ow): a row per (channel, tap), a column per output pixel."""
    b, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    win = sliding_window_view(xp, (KERNEL, KERNEL), axis=(2, 3))[:, :, ::STRIDE, ::STRIDE]
    oh, ow = win.shape[2], win.shape[3]
    cols = win.transpose(1, 4, 5, 0, 2, 3).reshape(c * KERNEL * KERNEL, b * oh * ow)
    return cols, oh, ow


def _corr(x: np.ndarray, w: np.ndarray, im: tuple | None = None) -> np.ndarray:
    """Stride-2 correlation (b, ci, h, w) -> (b, co, h/2, w/2); C-contiguous at b = 1.

    im is x's _im2col when the caller already built it.
    """
    cols, oh, ow = _im2col(x) if im is None else im
    out = w.reshape(w.shape[0], -1) @ cols
    return out.reshape(w.shape[0], x.shape[0], oh, ow).transpose(1, 0, 2, 3)


def _corr_weight_grad(cols: np.ndarray, g: np.ndarray, ci: int) -> np.ndarray:
    """Weight gradient (co, ci, 4, 4) of _corr from its input's columns and g."""
    co = g.shape[1]
    gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)
    if gmat.shape[1] == 1:
        # A GEMM with inner dimension 1 is an outer product, which is several
        # times faster without BLAS. The GEMM adds each product to +0, which
        # turns -0 into +0; adding +0 here gives the same bytes.
        out = np.multiply.outer(gmat[:, 0], cols[:, 0])
        out += 0
    else:
        out = gmat @ cols.T
    return out.reshape(co, ci, KERNEL, KERNEL)


# Output row Y = STRIDE*y + kh - PAD receives input row y through tap kh, so
# each output phase (Y mod 2) sums two taps: even rows Y = 2Y' take kh=1 at
# y = Y' and kh=3 at y = Y'-1; odd rows Y = 2Y'+1 take kh=2 at y = Y' and kh=0
# at y = Y'+1. Columns follow the same table. _PHASES[r] is (aligned tap,
# shifted tap, shift) for output phase r.
_PHASES = ((1, 3, -1), (2, 0, 1))


def _shifted(n: int, shift: int) -> tuple[slice, slice]:
    """(dst, src) slices of a length-n axis for dst[Y'] += src[Y' + shift]."""
    return (slice(1, n), slice(0, n - 1)) if shift < 0 else (slice(0, n - 1), slice(1, n))


def _corr_input_grad(g: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Adjoint of _corr: (b, co, oh, ow) -> (b, ci, 2*oh, 2*ow).

    One GEMM gives every tap's contribution; each of the four output phases
    then sums its four taps in one contiguous buffer, the shifted taps
    clipped at the edge they would cross, and is written out once.
    """
    b, co, oh, ow = g.shape
    ci = w.shape[1]
    gmat = g.transpose(1, 0, 2, 3).reshape(co, -1)
    taps = (w.reshape(co, -1).T @ gmat).reshape(ci, KERNEL, KERNEL, b, oh, ow)
    out = np.empty((b, ci, oh, STRIDE, ow, STRIDE), dtype=g.dtype)
    acc = np.empty((ci, b, oh, ow), dtype=g.dtype)
    for r, (ah, sh, dh) in enumerate(_PHASES):
        rd, rs = _shifted(oh, dh)
        for s, (aw, sw, dw) in enumerate(_PHASES):
            cd, cs = _shifted(ow, dw)
            np.copyto(acc, taps[:, ah, aw])
            acc[:, :, rd] += taps[:, sh, aw, :, rs]
            acc[:, :, :, cd] += taps[:, ah, sw, :, :, cs]
            acc[:, :, rd, cd] += taps[:, sh, sw, :, rs, cs]
            out[:, :, :, r, :, s] = acc.transpose(1, 0, 2, 3)
    return out.reshape(b, ci, STRIDE * oh, STRIDE * ow)


# ---------------------------------------------------------------------------
# Convolution (halves the spatial dims)
# ---------------------------------------------------------------------------


def conv2d_fwd(x: np.ndarray, p: ConvParams) -> np.ndarray:
    out = _corr(x, p.weight.data)
    out += p.bias.data[None, :, None, None]
    return out


def conv2d_bwd(x: np.ndarray, p: ConvParams, grad_out: np.ndarray) -> np.ndarray:
    """Sets p's weight/bias grads and returns the input gradient."""
    p.weight.grad = _corr_weight_grad(_im2col(x)[0], grad_out, x.shape[1])
    p.bias.grad = grad_out.sum(axis=(0, 2, 3))
    return _corr_input_grad(grad_out, p.weight.data)


# ---------------------------------------------------------------------------
# Transposed convolution (adjoint of conv2d_fwd: doubles the spatial dims)
# ---------------------------------------------------------------------------


def deconv2d_fwd(x: np.ndarray, p: ConvParams) -> np.ndarray:
    out = _corr_input_grad(x, p.weight.data)
    out += p.bias.data[None, :, None, None]
    return out


def deconv2d_bwd(x: np.ndarray, p: ConvParams, grad_out: np.ndarray) -> np.ndarray:
    """Sets p's weight/bias grads and returns the input gradient."""
    im = _im2col(grad_out)  # both GEMMs read grad_out's columns
    p.weight.grad = _corr_weight_grad(im[0], x, p.weight.shape[1])
    p.bias.grad = grad_out.sum(axis=(0, 2, 3))
    return _corr(grad_out, p.weight.data, im)


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------


def batchnorm_fwd(x: np.ndarray, p: BatchNormParams) -> tuple[np.ndarray, tuple]:
    """Training batch norm; returns (out, cache) where cache feeds batchnorm_bwd.

    Normalizes by the batch statistics (population variance), then moves the
    running estimates toward them. The running statistics are only written,
    never read, so out and cache do not depend on them.
    """
    gamma = p.gamma.data[None, :, None, None]
    beta = p.beta.data[None, :, None, None]

    count = x.shape[0] * x.shape[2] * x.shape[3]
    if count < 2:
        raise ScrollbinError("batchnorm train mode needs more than one element per channel")
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + p.eps)
    xhat = (x - mean[None, :, None, None]) * inv[None, :, None, None]
    m = p.momentum
    p.running_mean += m * (mean.astype(p.running_mean.dtype) - p.running_mean)
    p.running_var += m * (var.astype(p.running_var.dtype) - p.running_var)
    return gamma * xhat + beta, (xhat, inv)


def batchnorm_eval_affine(p: BatchNormParams) -> tuple[np.ndarray, np.ndarray]:
    """Eval-mode batch norm as one per-channel affine: out = scale * x + shift.

    scale = gamma / sqrt(running_var + eps) and shift = beta - running_mean *
    scale, computed in float64 and rounded once to the parameters' dtype.
    """
    scale = p.gamma.data / np.sqrt(p.running_var.astype(np.float64) + p.eps)
    shift = p.beta.data - p.running_mean * scale
    dtype = p.gamma.data.dtype
    return scale.astype(dtype), shift.astype(dtype)


def batchnorm_bwd(p: BatchNormParams, cache: tuple, grad_out: np.ndarray) -> np.ndarray:
    """Backward through train-mode normalization; sets the gamma/beta grads."""
    xhat, inv = cache
    p.beta.grad = grad_out.sum(axis=(0, 2, 3))
    p.gamma.grad = (grad_out * xhat).sum(axis=(0, 2, 3))

    dxhat = grad_out * p.gamma.data[None, :, None, None]
    mean_d = dxhat.mean(axis=(0, 2, 3), keepdims=True)
    prod = dxhat * xhat
    mean_dx = prod.mean(axis=(0, 2, 3), keepdims=True)
    # prod is reused for xhat*mean_dx. The last line must stay one expression:
    # numpy may then write the result into the temporary dxhat - mean_d,
    # which fixes the result's layout, and the reductions and GEMMs
    # downstream follow that layout.
    np.multiply(xhat, mean_dx, out=prod)
    return inv[None, :, None, None] * (dxhat - mean_d - prod)


# ---------------------------------------------------------------------------
# Activations, dropout, concat, loss
# ---------------------------------------------------------------------------


def leaky_relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """max(x, LEAK*x), which is LeakyReLU since LEAK is below 1; out may be x."""
    leak = x * LEAK
    return np.maximum(x, leak, out=leak if out is None else out)


def leaky_relu_bwd(out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    """grad_out times 1 where out > 0, and times LEAK elsewhere (at exactly 0 too).

    out may be the activation or its input: max(x, LEAK*x) > 0 iff x > 0."""
    # The slopes come back as a temporary, so numpy may write the product into
    # them and the result then has out's layout, which the reductions and GEMMs
    # downstream follow. Naming the slopes first would change that layout.
    return grad_out * _leaky_slopes(out)


def _leaky_slopes(x: np.ndarray) -> np.ndarray:
    out = (x > 0).astype(x.dtype)
    return np.maximum(out, LEAK, out=out)  # 1 or LEAK


def tanh_act(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def tanh_bwd(out: np.ndarray, grad_out: np.ndarray) -> np.ndarray:
    return grad_out * (1.0 - out * out)


def dropout(x: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Training dropout at DROPOUT_RATE; returns (out, keep_mask).

    Inverted dropout: survivors are scaled by 1/(1-DROPOUT_RATE), so
    inference, which skips dropout, needs no rescaling. dropout_bwd reuses
    the mask verbatim.
    """
    keep = rng.random(x.shape) >= DROPOUT_RATE
    scale = np.asarray(1.0 / (1.0 - DROPOUT_RATE), dtype=x.dtype)
    return x * keep * scale, keep


def dropout_bwd(grad_out: np.ndarray, keep: np.ndarray) -> np.ndarray:
    scale = np.asarray(1.0 / (1.0 - DROPOUT_RATE), dtype=grad_out.dtype)
    return grad_out * keep * scale


def concat_channels(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.concatenate([a, b], axis=1)


def split_channels(grad: np.ndarray, first_channels: int) -> tuple[np.ndarray, np.ndarray]:
    return grad[:, :first_channels], grad[:, first_channels:]


def l1_loss(pred: np.ndarray, target: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean absolute error and its gradient wrt pred; sign(0) contributes 0."""
    diff = pred - target
    loss = float(np.abs(diff).mean(dtype=np.float64))
    grad = np.sign(diff) / diff.size
    return loss, grad.astype(pred.dtype, copy=False)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def all_finite(arr: np.ndarray) -> bool:
    """np.isfinite(arr).all(), checked CHUNK elements at a time."""
    flat = arr.reshape(-1)
    return all(np.isfinite(flat[lo : lo + CHUNK]).all() for lo in range(0, flat.size, CHUNK))


class AdamState:
    """First/second moment buffers and a step count for each param.

    m, v and steps follow the order of the params given here. adam_step may
    update any subset of them, so each param counts its own steps; t is the
    highest count, which is every param's once each has had the same steps.
    """

    def __init__(self, params: list[Param]):
        self.index = {p: i for i, p in enumerate(params)}  # a Param hashes by identity
        self.m = [np.zeros_like(p.data, order="C") for p in params]
        self.v = [np.zeros_like(p.data, order="C") for p in params]
        self.steps = [0] * len(params)
        self._scratch: dict[np.dtype, np.ndarray] = {}

    @property
    def t(self) -> int:
        return max(self.steps, default=0)

    def scratch_for(self, dtype: np.dtype) -> np.ndarray:
        """One CHUNK-element buffer per dtype."""
        if dtype not in self._scratch:
            self._scratch[dtype] = np.empty(CHUNK, dtype=dtype)
        return self._scratch[dtype]


def adam_step(params: list[Param], state: AdamState, lr: float) -> None:
    """One bias-corrected Adam update of params, consuming their grads.

    m <- b1*m + (1-b1)*g; v <- b2*v + (1-b2)*g^2, with b1 = ADAM_BETA1 and
    b2 = ADAM_BETA2;
    theta <- theta - lr * mhat / (sqrt(vhat) + ADAM_EPS)
    with mhat = m/(1-b1^t), vhat = v/(1-b2^t), where t is the param's own
    step count. params may be any subset of the state's, so a caller can
    update each part of a model as soon as its grads are ready. The update
    is memory-bound, so it runs the whole op sequence over one CHUNK of every
    tensor before moving on, through one CHUNK-sized scratch, and each chunk
    stays in cache. Every op is elementwise, so chunking changes no output
    bit.

    Params, moments and grads are updated through flat views, so every
    param's data must be C-contiguous and every grad must have its param's
    shape; otherwise ScrollbinError is raised before anything is updated.
    """
    slots = []
    for i, p in enumerate(params):
        if not p.data.flags.c_contiguous:
            raise ScrollbinError(f"adam_step needs C-contiguous params; param {i} is not")
        if p.grad is None or p.grad.shape != p.data.shape:
            got = None if p.grad is None else p.grad.shape
            raise ScrollbinError(f"param {i} has shape {p.data.shape} but its grad has {got}")
        k = state.index.get(p)
        if k is None:
            raise ScrollbinError(f"param {i} has no Adam state")
        slots.append(k)
    for p, k in zip(params, slots):
        state.steps[k] += 1
        c1 = 1.0 - ADAM_BETA1 ** state.steps[k]
        c2 = 1.0 - ADAM_BETA2 ** state.steps[k]
        flat = [a.reshape(-1) for a in (p.data, p.grad, state.m[k], state.v[k])]
        scratch = state.scratch_for(p.data.dtype)
        for lo in range(0, p.data.size, CHUNK):
            data, g, m, v = (a[lo : lo + CHUNK] for a in flat)
            s = scratch[: data.size]
            m *= ADAM_BETA1
            np.multiply(g, 1.0 - ADAM_BETA1, out=s)
            m += s
            v *= ADAM_BETA2
            np.multiply(g, g, out=s)
            s *= 1.0 - ADAM_BETA2
            v += s
            np.divide(v, c2, out=s)
            np.sqrt(s, out=s)
            s += ADAM_EPS
            np.divide(m, s, out=s)
            s *= lr / c1
            data -= s
