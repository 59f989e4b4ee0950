"""BiNet: the encoder-decoder binarization network.

Eight stride-2 convolution stages contract a 256x256 patch to 1x1 while the
channel ladder climbs 64..512; eight transposed-convolution stages expand
back to 256x256, with each expanding stage consuming the mirrored encoder
feature map through a channel concatenation. The final stage emits one
channel through tanh, so outputs live in (-1, 1) and a pixel is ink when the
value is negative.

This module owns model construction, the training loop (fresh or
warm-started), full-image inference via the tiling pipeline, and the binary
weights format.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .autodiff import (
    AdamState,
    BatchNormParams,
    ConvParams,
    Param,
    adam_step,
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
from .errors import ScrollbinError, WeightsFormatError, WeightsVersionError
from .imagecore import BinaryMask, GrayImage, RgbImage
from .tiling import split as split_patches
from .tiling import reassemble

ENCODER_CHANNELS = (64, 128, 256, 512, 512, 512, 512, 512)
DECODER_CHANNELS = (512, 512, 512, 512, 256, 128, 64, 1)
DROPOUT_STAGES = (0, 1, 2)
DROPOUT_RATE = 0.5
LEAK = 0.2
INIT_STD = 0.02

WEIGHTS_MAGIC = b"BNET"
WEIGHTS_VERSION = 1
_MAX_TENSOR_ELEMS = 1 << 28


@dataclass
class EncoderStage:
    conv: ConvParams
    bn: BatchNormParams | None


@dataclass
class DecoderStage:
    conv: ConvParams  # adjoint layout: weight (stage input ch, stage output ch, 4, 4)
    bn: BatchNormParams | None
    drop: bool


@dataclass
class StageTrace:
    """What one stage's forward keeps for its backward.

    z is the pre-activation (after batch norm and dropout) and out the
    activation of z. bn_cache is None when the stage has no batch norm or ran
    in eval mode; keep is None when no dropout was applied.
    """

    x: np.ndarray
    z: np.ndarray
    out: np.ndarray
    bn_cache: tuple | None
    keep: np.ndarray | None = None


@dataclass
class NetParams:
    """All layer parameters plus batch-norm running statistics.

    step counts lifetime training steps and survives serialization; seed is
    build metadata only and is not serialized.
    """

    in_channels: int
    encoder: list[EncoderStage]
    decoder: list[DecoderStage]
    step: int = 0
    seed: int | None = None
    version: int = WEIGHTS_VERSION

    @property
    def patch(self) -> int:
        return 1 << len(self.encoder)

    def params(self) -> list[Param]:
        out: list[Param] = []
        for st in self.encoder + self.decoder:
            out.extend(st.conv.params())
            if st.bn is not None:
                out.extend(st.bn.params())
        return out

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for prefix, stages in (("enc", self.encoder), ("dec", self.decoder)):
            for i, st in enumerate(stages, start=1):
                out.append((f"{prefix}{i}.conv.weight", st.conv.weight.data))
                out.append((f"{prefix}{i}.conv.bias", st.conv.bias.data))
                if st.bn is not None:
                    out.append((f"{prefix}{i}.bn.gamma", st.bn.gamma.data))
                    out.append((f"{prefix}{i}.bn.beta", st.bn.beta.data))
                    out.append((f"{prefix}{i}.bn.running_mean", st.bn.running_mean))
                    out.append((f"{prefix}{i}.bn.running_var", st.bn.running_var))
        return out


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 2e-4
    seed: int = 42
    batch_size: int = 1
    beta1: float = 0.5
    beta2: float = 0.999

    def __post_init__(self):
        if self.epochs < 1:
            raise ScrollbinError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.lr < math.inf:
            raise ScrollbinError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ScrollbinError(f"batch_size must be >= 1, got {self.batch_size}")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _dropout_flags(n: int, stages: tuple[int, ...] = DROPOUT_STAGES) -> list[bool]:
    """Dropout flag per decoder stage: the listed stages, never the output stage."""
    return [j in stages and j < n - 1 for j in range(n)]


def build_model(
    in_channels: int,
    seed: int,
    encoder_channels: tuple[int, ...] = ENCODER_CHANNELS,
    decoder_channels: tuple[int, ...] = DECODER_CHANNELS,
    dropout_stages: tuple[int, ...] = DROPOUT_STAGES,
    dtype=np.float32,
) -> NetParams:
    """Build a freshly initialized model.

    Conv weights are drawn Normal(0, 0.02), biases start at zero, batch-norm
    gamma is Normal(1, 0.02) with beta zero and running stats (0, 1). The
    first encoder stage and the final decoder stage carry no batch norm; the
    innermost encoder stage skips it too, because its 1x1 output cannot be
    normalized at batch size 1.
    """
    if in_channels not in (1, 3):
        raise ScrollbinError(f"in_channels must be 1 or 3, got {in_channels}")
    if len(encoder_channels) != len(decoder_channels):
        raise ScrollbinError("encoder and decoder must have the same stage count")
    n = len(encoder_channels)
    if decoder_channels[-1] != 1:
        raise ScrollbinError("final decoder stage must emit 1 channel")

    rng = np.random.default_rng(seed)

    def conv_init(shape_out: int, shape_in: int) -> ConvParams:
        w = rng.normal(0.0, INIT_STD, (shape_out, shape_in, 4, 4)).astype(dtype)
        return ConvParams(w, np.zeros(shape_out, dtype=dtype))

    def deconv_init(shape_in: int, shape_out: int) -> ConvParams:
        w = rng.normal(0.0, INIT_STD, (shape_in, shape_out, 4, 4)).astype(dtype)
        return ConvParams(w, np.zeros(shape_out, dtype=dtype))

    def bn_init(channels: int) -> BatchNormParams:
        gamma = rng.normal(1.0, INIT_STD, channels).astype(dtype)
        return BatchNormParams(gamma, np.zeros(channels, dtype=dtype))

    encoder = []
    prev = in_channels
    for i, ch in enumerate(encoder_channels):
        conv = conv_init(ch, prev)
        use_bn = 0 < i < n - 1
        encoder.append(EncoderStage(conv, bn_init(ch) if use_bn else None))
        prev = ch

    decoder = []
    prev = encoder_channels[-1]
    for j, (ch, drop) in enumerate(zip(decoder_channels, _dropout_flags(n, dropout_stages))):
        conv = deconv_init(prev, ch)
        is_last = j == n - 1
        decoder.append(DecoderStage(conv, None if is_last else bn_init(ch), drop))
        # the next stage consumes this output concatenated with the mirror encoder feature
        prev = ch + encoder_channels[n - 2 - j] if not is_last else ch

    return NetParams(in_channels, encoder, decoder, step=0, seed=seed)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------


def _check_input(params: NetParams, x: np.ndarray):
    size = params.patch
    if x.ndim != 4 or x.shape[1] != params.in_channels:
        raise ScrollbinError(
            f"input must be (batch, {params.in_channels}, {size}, {size}), got {x.shape}"
        )
    if x.shape[2] != size or x.shape[3] != size:
        raise ScrollbinError(f"input spatial dims must be {size}x{size}, got {x.shape[2]}x{x.shape[3]}")


def _forward_cached(params: NetParams, x: np.ndarray, train: bool, rng: np.random.Generator | None):
    """Forward pass returning (output, (encoder traces, decoder traces))."""
    _check_input(params, x)
    n = len(params.encoder)
    if train and rng is None and any(st.drop for st in params.decoder):
        raise ScrollbinError("training forward needs an RNG for dropout masks")

    enc: list[StageTrace] = []
    h = x
    for st in params.encoder:
        z = conv2d_fwd(h, st.conv)
        bn_cache = None
        if st.bn is not None:
            z, bn_cache = batchnorm_fwd(z, st.bn, train)
        enc.append(StageTrace(h, z, leaky_relu(z, LEAK), bn_cache))
        h = enc[-1].out

    dec: list[StageTrace] = []
    for j, st in enumerate(params.decoder):
        z = deconv2d_fwd(h, st.conv)
        bn_cache = None
        if st.bn is not None:
            z, bn_cache = batchnorm_fwd(z, st.bn, train)
        if j == n - 1:
            dec.append(StageTrace(h, z, tanh_act(z), bn_cache))
        else:
            keep = None
            if st.drop and train:
                z, keep = dropout(z, DROPOUT_RATE, True, rng)
            dec.append(StageTrace(h, z, leaky_relu(z, LEAK), bn_cache, keep))
            h = concat_channels(dec[-1].out, enc[n - 2 - j].out)
    return dec[-1].out, (enc, dec)


def forward(params: NetParams, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
    """Run the network; output shape (batch, 1, patch, patch), values in (-1, 1)."""
    out, _ = _forward_cached(params, x, train, rng)
    return out


def activation_shapes(params: NetParams, x: np.ndarray):
    """Shapes of every stage output on an eval forward.

    Returns (encoder_shapes, decoder_shapes); decoder shapes are the
    transposed-convolution outputs before skip concatenation.
    """
    _, (enc, dec) = _forward_cached(params, x, train=False, rng=None)
    return [t.out.shape for t in enc], [t.out.shape for t in dec]


def backward(params: NetParams, cache, grad_out: np.ndarray) -> None:
    """Accumulate parameter gradients for one cached training forward."""
    enc, dec = cache
    n = len(params.encoder)
    skip_grads: dict[int, np.ndarray] = {}

    g = grad_out
    for j in range(n - 1, -1, -1):
        st, t = params.decoder[j], dec[j]
        if j == n - 1:
            gz = tanh_bwd(t.out, g)
        else:
            g_act, skip_grads[n - 2 - j] = split_channels(g, st.conv.weight.shape[1])
            gz = leaky_relu_bwd(t.z, g_act, LEAK)
            gz = dropout_bwd(gz, t.keep, DROPOUT_RATE)
        if st.bn is not None:
            gz = batchnorm_bwd(st.bn, t.bn_cache, gz)
        g = deconv2d_bwd(t.x, st.conv, gz)

    for i in range(n - 1, -1, -1):
        st, t = params.encoder[i], enc[i]
        if i in skip_grads:
            g = g + skip_grads[i]
        gz = leaky_relu_bwd(t.z, g, LEAK)
        if st.bn is not None:
            gz = batchnorm_bwd(st.bn, t.bn_cache, gz)
        g = conv2d_bwd(t.x, st.conv, gz)


# ---------------------------------------------------------------------------
# Pixel <-> tensor mapping
# ---------------------------------------------------------------------------


def normalize_input(img: GrayImage | RgbImage) -> np.ndarray:
    """Map 8-bit pixels to float32 in [-1, 1]: v -> v/127.5 - 1. Output (1, C, H, W)."""
    px = img.pixels.astype(np.float32) / np.float32(127.5) - np.float32(1.0)
    if isinstance(img, GrayImage):
        return px[None, None, :, :]
    return px.transpose(2, 0, 1)[None]


def mask_to_target(mask: BinaryMask) -> np.ndarray:
    """Training target (1, 1, H, W) in float32: ink pixels -> -1, the rest -> +1."""
    return np.where(mask.ink, np.float32(-1.0), np.float32(1.0))[None, None, :, :]


def denormalize_output(out: np.ndarray) -> BinaryMask:
    """Threshold one network output (1, 1, H, W): ink iff value < 0."""
    if out.ndim != 4 or out.shape[0] != 1 or out.shape[1] != 1:
        raise ScrollbinError(f"expected a (1, 1, H, W) output, got {out.shape}")
    return BinaryMask(out[0, 0] < 0.0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _check_pair(sample, params: NetParams):
    img, mask = sample
    channels = 1 if isinstance(img, GrayImage) else 3
    if channels != params.in_channels:
        raise ScrollbinError(
            f"dataset image has {channels} channel(s) but the model expects {params.in_channels}"
        )
    size = params.patch
    if img.width != size or img.height != size or mask.width != size or mask.height != size:
        raise ScrollbinError(f"training patches must be {size}x{size}")


def train(
    dataset: list,
    cfg: TrainConfig,
    init: NetParams | None = None,
    in_channels: int | None = None,
) -> tuple[NetParams, list[float]]:
    """Adam/L1 training over (image patch, mask patch) pairs.

    Runs cfg.epochs passes, each a seeded shuffle consumed in batches of
    cfg.batch_size, one Adam step per batch. Returns the trained params and
    one mean-L1 entry per epoch. Passing init warm-starts from an existing
    model: weights and the lifetime step counter continue, while the Adam
    moment buffers start fresh.
    """
    if not dataset:
        raise ScrollbinError("training dataset is empty")
    if init is not None:
        model = init
    else:
        if in_channels is None:
            in_channels = 1 if isinstance(dataset[0][0], GrayImage) else 3
        model = build_model(in_channels, cfg.seed)

    for sample in dataset:
        _check_pair(sample, model)
    rng = np.random.default_rng(cfg.seed)
    params = model.params()
    state = AdamState(params)
    history = []

    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        epoch_losses = []
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            # patches stay 8-bit until they enter a batch
            x = np.concatenate([normalize_input(dataset[i][0]) for i in batch], axis=0)
            t = np.concatenate([mask_to_target(dataset[i][1]) for i in batch], axis=0)

            # A diverging step overflows; the finiteness checks report it
            # once, in place of a numpy warning per operation.
            with np.errstate(over="ignore", invalid="ignore"):
                out, cache = _forward_cached(model, x, train=True, rng=rng)
                loss, grad = l1_loss(out, t)
                if not math.isfinite(loss):
                    raise ScrollbinError(f"training diverged: loss is {loss} at step {model.step + 1}")
                for p in params:
                    p.zero_grad()
                backward(model, cache, grad)
                adam_step(params, state, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2)
            model.step += 1
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    if not all(np.isfinite(p.data).all() for p in params):
        raise ScrollbinError(f"training diverged: weights are not finite after step {model.step}")
    return model, history


# ---------------------------------------------------------------------------
# Full-image inference
# ---------------------------------------------------------------------------


def binarize_image(params: NetParams, img: GrayImage | RgbImage) -> BinaryMask:
    """Binarize an image of any size: tile, run each patch, stitch the masks.

    Inference is eval-mode and a pure function of (params, img). Patches run
    one after another in the calling thread, because each convolution is a
    BLAS GEMM that already spreads over every core; threads over patches
    only contend with it.
    """
    channels = 1 if isinstance(img, GrayImage) else 3
    if channels != params.in_channels:
        raise ScrollbinError(f"image has {channels} channel(s), model expects {params.in_channels}")
    grid = split_patches(img, params.patch)
    masks = [denormalize_output(forward(params, normalize_input(p))) for p in grid.patches]
    return reassemble(grid.with_patches(masks))


# ---------------------------------------------------------------------------
# Weights file format
# ---------------------------------------------------------------------------
#
#   magic "BNET" | u32 version=1 | u32 in_channels | u64 step | u32 tensor count
#   per tensor: u16 name length | UTF-8 name | u8 rank | u32 dims[rank] | f32 data
#   everything little-endian


def save_weights(params: NetParams, path) -> None:
    tensors = params.named_tensors()
    chunks = [
        WEIGHTS_MAGIC,
        struct.pack("<IIQI", WEIGHTS_VERSION, params.in_channels, params.step, len(tensors)),
    ]
    for name, arr in tensors:
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<H", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<B", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        chunks.append(arr.astype("<f4", copy=False).tobytes())
    with open(path, "wb") as fh:
        fh.write(b"".join(chunks))


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def take(self, count: int) -> bytes:
        if self.pos + count > len(self.data):
            raise WeightsFormatError(
                f"truncated weights file: wanted {count} bytes at offset {self.pos}"
            )
        out = self.data[self.pos : self.pos + count]
        self.pos += count
        return out

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))


def load_weights(path) -> NetParams:
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    if rd.take(4) != WEIGHTS_MAGIC:
        raise WeightsFormatError("bad magic: not a scrollbin weights file")
    version, in_channels, step, count = rd.unpack("<IIQI")
    if version != WEIGHTS_VERSION:
        raise WeightsVersionError(f"unsupported weights version {version}, expected {WEIGHTS_VERSION}")
    if in_channels not in (1, 3):
        raise WeightsFormatError(f"bad in_channels {in_channels}")

    tensors: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = rd.unpack("<H")
        raw_name = rd.take(name_len)
        try:
            name = raw_name.decode("utf-8")
        except UnicodeDecodeError:
            raise WeightsFormatError(
                f"tensor name ending at offset {rd.pos} is not valid UTF-8"
            ) from None
        (rank,) = rd.unpack("<B")
        if rank > 4:
            raise WeightsFormatError(f"tensor {name!r} has rank {rank} > 4")
        dims = rd.unpack(f"<{rank}I") if rank else ()
        elems = 1
        for d in dims:
            if d == 0:
                raise WeightsFormatError(f"tensor {name!r} has a zero dimension")
            elems *= d
        if elems > _MAX_TENSOR_ELEMS:
            raise WeightsFormatError(f"tensor {name!r} dimension overflow: {dims}")
        raw = rd.take(4 * elems)
        tensors[name] = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(dims)
    if rd.pos != len(rd.data):
        raise WeightsFormatError(f"{len(rd.data) - rd.pos} trailing bytes after last tensor")

    return _rebuild(in_channels, step, tensors)


def _stage_count(tensors: dict, prefix: str) -> int:
    count = 0
    while f"{prefix}{count + 1}.conv.weight" in tensors:
        count += 1
    if count == 0:
        raise WeightsFormatError(f"no {prefix} stages found in weights file")
    return count


def _rebuild(in_channels: int, step: int, tensors: dict[str, np.ndarray]) -> NetParams:
    def grab(name: str) -> np.ndarray:
        try:
            arr = tensors[name]
        except KeyError:
            raise WeightsFormatError(f"missing tensor {name!r}") from None
        if not np.isfinite(arr).all():
            raise WeightsFormatError(f"tensor {name!r} has non-finite values")
        return arr

    def vector(name: str, length: int) -> np.ndarray:
        arr = grab(name)
        if arr.shape != (length,):
            raise WeightsFormatError(f"tensor {name!r} has shape {arr.shape}, expected ({length},)")
        return arr

    def build_stage(name: str, out_axis: int):
        """out_axis: the weight axis that holds the op's output channels."""
        conv = ConvParams(grab(f"{name}.conv.weight"), grab(f"{name}.conv.bias"))
        ch = conv.weight.shape[out_axis]
        vector(f"{name}.conv.bias", ch)
        bn = None
        if f"{name}.bn.gamma" in tensors:
            bn = BatchNormParams(vector(f"{name}.bn.gamma", ch), vector(f"{name}.bn.beta", ch))
            bn.running_mean = vector(f"{name}.bn.running_mean", ch)
            var_name = f"{name}.bn.running_var"
            bn.running_var = vector(var_name, ch)
            if (bn.running_var < 0).any():
                raise WeightsFormatError(f"tensor {var_name!r} has negative values")
        return conv, bn

    n_enc = _stage_count(tensors, "enc")
    n_dec = _stage_count(tensors, "dec")
    if n_enc != n_dec:
        raise WeightsFormatError(f"stage count mismatch: {n_enc} encoder vs {n_dec} decoder")

    encoder = [EncoderStage(*build_stage(f"enc{i}", 0)) for i in range(1, n_enc + 1)]
    decoder = [
        DecoderStage(*build_stage(f"dec{j}", 1), drop)
        for j, drop in enumerate(_dropout_flags(n_dec), start=1)
    ]

    # Each stage takes what its inputs give: enc1 the image channels, encoder
    # i encoder i-1's output, dec1 the last encoder's, and decoder j > 1
    # decoder j-1's output concatenated with its mirror encoder stage's.
    def chain(name: str, takes: int, given: int):
        if takes != given:
            raise WeightsFormatError(f"tensor {name!r} takes {takes} input channels, its input has {given}")

    given = in_channels
    for i, st in enumerate(encoder, start=1):
        chain(f"enc{i}.conv.weight", st.conv.in_ch, given)
        given = st.conv.out_ch
    for j, st in enumerate(decoder, start=1):
        chain(f"dec{j}.conv.weight", st.conv.weight.shape[0], given)
        if j < n_dec:
            given = st.conv.weight.shape[1] + encoder[n_enc - 1 - j].conv.out_ch

    return NetParams(in_channels, encoder, decoder, step=step, seed=None)


def params_equal(a: NetParams, b: NetParams) -> bool:
    """Bit-exact equality of everything the weights format owns."""
    if (a.in_channels, a.step) != (b.in_channels, b.step):
        return False
    ta, tb = a.named_tensors(), b.named_tensors()
    if len(ta) != len(tb):
        return False
    for (na, va), (nb, vb) in zip(ta, tb):
        if na != nb or va.shape != vb.shape or not np.array_equal(va, vb):
            return False
    return True
