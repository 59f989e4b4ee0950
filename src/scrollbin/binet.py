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
import os
import stat
import struct
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import (
    CHUNK,
    KERNEL,
    AdamState,
    BatchNormParams,
    ConvParams,
    Param,
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
from .errors import ScrollbinError, WeightsFormatError, WeightsVersionError
from .imagecore import BinaryMask, GrayImage, RgbImage
from .tiling import split as split_patches
from .tiling import reassemble

ENCODER_CHANNELS = (64, 128, 256, 512, 512, 512, 512, 512)
DECODER_CHANNELS = (512, 512, 512, 512, 256, 128, 64, 1)
PATCH = 1 << len(ENCODER_CHANNELS)  # the default model's patch side: each encoder stage halves it
DROPOUT_STAGES = (0, 1, 2)
INIT_STD = 0.02

GROUP = 16  # patches binarize_image runs through each stage between two reads of its weights

WEIGHTS_MAGIC = b"BNET"
WEIGHTS_VERSION = 1
_MAX_TENSOR_ELEMS = 1 << 28


@dataclass
class Stage:
    name: str  # enc1..encN or dec1..decN: the prefix of its tensors' names in a .bnet file
    conv: ConvParams  # a decoder stage's weight is the adjoint (stage input ch, stage output ch, 4, 4)
    bn: BatchNormParams | None
    drop: bool = False

    def params(self) -> list[Param]:
        return self.conv.params() + (self.bn.params() if self.bn is not None else [])


@dataclass
class StageTrace:
    """What one stage's forward keeps for its backward.

    x is the stage's input and out its activation, computed in place over
    the pre-activation: both activations' backwards read out alone. bn_cache
    is None when the stage has no batch norm; keep is None when the stage
    has no dropout.
    """

    x: np.ndarray
    out: np.ndarray
    bn_cache: tuple | None
    keep: np.ndarray | None = None


@dataclass
class NetParams:
    """All layer parameters plus batch-norm running statistics.

    step counts lifetime training steps and survives serialization.
    """

    in_channels: int
    stages: list[Stage]  # in forward order: enc1..encN, then dec1..decN
    step: int = 0

    @property
    def depth(self) -> int:
        """N, the stages on each side: the first N convolve, the last N transpose."""
        return len(self.stages) // 2

    @property
    def patch(self) -> int:
        return 1 << self.depth

    def params(self) -> list[Param]:
        return [p for st in self.stages for p in st.params()]

    def param_count(self) -> int:
        return sum(p.data.size for p in self.params())

    def named_tensors(self) -> list[tuple[str, np.ndarray]]:
        out = []
        for st in self.stages:
            out.append((f"{st.name}.conv.weight", st.conv.weight.data))
            out.append((f"{st.name}.conv.bias", st.conv.bias.data))
            if st.bn is not None:
                out.append((f"{st.name}.bn.gamma", st.bn.gamma.data))
                out.append((f"{st.name}.bn.beta", st.bn.beta.data))
                out.append((f"{st.name}.bn.running_mean", st.bn.running_mean))
                out.append((f"{st.name}.bn.running_var", st.bn.running_var))
        return out


@dataclass
class TrainConfig:
    epochs: int = 200
    lr: float = 2e-4
    seed: int = 42
    batch_size: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ScrollbinError(f"epochs must be >= 1, got {self.epochs}")
        if self.seed < 0:
            raise ScrollbinError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ScrollbinError(f"lr must be positive and finite, got {self.lr}")
        if self.batch_size < 1:
            raise ScrollbinError(f"batch_size must be >= 1, got {self.batch_size}")


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def _assemble(
    in_channels: int,
    encoder_channels: tuple[int, ...],
    decoder_channels: tuple[int, ...],
    take: Callable[[str, tuple[int, ...]], np.ndarray],
    has_bn: Callable[[str], bool],
    drops: tuple[int, ...],
) -> NetParams:
    """The model the channel ladders give, each tensor from take(name, shape) in named_tensors order.

    It states the shapes of the wiring that _join runs: enc1 takes the
    image's channels, encoder stage i stage i-1's, dec1 the innermost encoder
    stage's, and decoder stage j > 1 stage j-1's plus those of its skip from
    encoder stage n - j + 1. has_bn(stage name) places batch norm; drops
    lists the decoder stages with dropout, which the output stage never has.
    """
    if in_channels not in (1, 3):
        raise ScrollbinError(f"in_channels must be 1 or 3, got {in_channels}")
    n = len(encoder_channels)
    if len(decoder_channels) != n:
        raise ScrollbinError(f"stage count mismatch: {n} encoder vs {len(decoder_channels)} decoder")
    if decoder_channels[-1] != 1:
        raise ScrollbinError(f"tensor 'dec{n}.conv.weight' emits {decoder_channels[-1]} channels, expected 1")

    def stage(name: str, weight_shape: tuple[int, ...], ch: int, drop: bool = False) -> Stage:
        return _stage(name, take, weight_shape, ch, has_bn(name), drop)

    stages, given = [], in_channels
    for i, ch in enumerate(encoder_channels, start=1):
        stages.append(stage(f"enc{i}", (ch, given, KERNEL, KERNEL), ch))
        given = ch
    for j, ch in enumerate(decoder_channels, start=1):
        stages.append(stage(f"dec{j}", (given, ch, KERNEL, KERNEL), ch, j - 1 in drops and j < n))
        given = ch + (encoder_channels[n - 1 - j] if j < n else 0)
    return NetParams(in_channels, stages)


def _stage(
    name: str,
    take: Callable[[str, tuple[int, ...]], np.ndarray],
    weight_shape: tuple[int, ...],
    ch: int,
    bn: bool,
    drop: bool,
) -> Stage:
    """Stage name, each tensor from take(tensor name, shape) in named_tensors order."""
    out = (ch,)
    conv = ConvParams(take(f"{name}.conv.weight", weight_shape), take(f"{name}.conv.bias", out))
    norm = None
    if bn:
        norm = BatchNormParams(take(f"{name}.bn.gamma", out), take(f"{name}.bn.beta", out))
        norm.running_mean = take(f"{name}.bn.running_mean", out)
        norm.running_var = take(f"{name}.bn.running_var", out)
    return Stage(name, conv, norm, drop)


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

    dropout_stages lives only in the built model: a .bnet file does not
    store dropout placement, so a saved and loaded model has dropout on
    DROPOUT_STAGES whatever dropout_stages built it.
    """
    rng = np.random.default_rng(seed)

    def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.endswith(".weight"):
            return rng.normal(0.0, INIT_STD, shape).astype(dtype)
        if name.endswith(".gamma"):
            return rng.normal(1.0, INIT_STD, shape).astype(dtype)
        return (np.ones if name.endswith(".running_var") else np.zeros)(shape, dtype=dtype)

    no_bn = ("enc1", f"enc{len(encoder_channels)}", f"dec{len(decoder_channels)}")
    return _assemble(
        in_channels, encoder_channels, decoder_channels, take, lambda name: name not in no_bn, dropout_stages
    )


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


def _join(i: int, n: int, h: np.ndarray, kept: list[np.ndarray]) -> np.ndarray:
    """The skip rule at stage i of the 2n in params.stages: its output h as the next stage takes it.

    Each encoder stage but the innermost keeps its output in kept; each
    decoder stage but the last joins its output with the most recently kept
    one, so decoder stage j meets encoder stage n - j.
    """
    if i < n - 1:
        kept.append(h)
    elif n <= i < 2 * n - 1:
        h = concat_channels(h, kept.pop())
    return h


def _join_bwd(i: int, n: int, g: np.ndarray, kept: list[np.ndarray], channels: int) -> np.ndarray:
    """_join's adjoint, walked from the last stage back: the gradient g of stage i's joined output, made its own's.

    A joining decoder stage splits its channels from its skip's gradient and
    keeps that; the encoder stage that kept the skip adds it back.
    """
    if n <= i < 2 * n - 1:
        g, skip = split_channels(g, channels)
        kept.append(skip)
    elif i < n - 1:
        g = g + kept.pop()
    return g


def _forward_cached(params: NetParams, x: np.ndarray, rng: np.random.Generator):
    """Training forward returning (output, one StageTrace per stage in forward order).

    One walk over params.stages: stage i < n convolves, the others transpose,
    the last ends in tanh, and _join passes each output on. Batch norm
    normalizes by the batch statistics and updates the running ones; stages
    with dropout draw their masks from rng. x stacks images that _check_pair
    has passed.
    """
    n = params.depth
    trace: list[StageTrace] = []
    kept: list[np.ndarray] = []
    h = x
    for i, st in enumerate(params.stages):
        z = (conv2d_fwd if i < n else deconv2d_fwd)(h, st.conv)
        bn_cache = keep = None
        if st.bn is not None:
            z, bn_cache = batchnorm_fwd(z, st.bn)
        if st.drop:
            z, keep = dropout(z, rng)
        out = tanh_act(z) if i == 2 * n - 1 else leaky_relu(z, out=z)
        trace.append(StageTrace(h, out, bn_cache, keep))
        h = _join(i, n, out, kept)
    return h, trace


Affine = tuple[np.ndarray, np.ndarray] | None  # a stage's eval batch norm as (scale, shift); None without


def _eval_stage(st: Stage) -> tuple[Stage, Affine]:
    """st with its batch norm as its eval affine, computed once for every patch that runs it.

    This is the stage reader of a model held in memory. A gamma near
    float32's limit over a running variance near 0 overflows the scale;
    that would turn every output into NaN, so it is refused.
    """
    if st.bn is None:
        return st, None
    with np.errstate(all="ignore"):  # the check below reports an overflow once
        scale, shift = batchnorm_eval_affine(st.bn)
    if not (np.isfinite(scale).all() and np.isfinite(shift).all()):
        raise WeightsFormatError(f"stage {st.name!r} has a non-finite batch-norm eval scale or shift")
    return st, (scale, shift)


def _affine_act(z: np.ndarray, affine: Affine, last: bool) -> np.ndarray:
    """Eval batch norm, then LeakyReLU or, on the last stage, tanh; all in place on z."""
    if affine is not None:
        scale, shift = affine
        z *= scale[:, None, None]
        z += shift[:, None, None]
    if last:
        return np.tanh(z, out=z)
    return leaky_relu(z, out=z)


def _forward_group(
    params: NetParams, read: Callable[[Stage], tuple[Stage, Affine]], xs: list[np.ndarray]
) -> list[np.ndarray]:
    """The eval forward of every input in xs, stage-major; xs is consumed and returned as the outputs.

    read(stage) gives each of params.stages, in forward order, with
    its eval affine, and every input runs through that stage before the next
    one is read; the stage is dropped first, so one stage's weights are held
    at a time. Each input runs alone through each GEMM, so an output does not
    depend on the other inputs. Only the skip features the decoder still
    needs are kept; batch norm and the activations run in place on each
    stage's output, and dropout is skipped. A stage output that is not
    finite (finite weights near float32's limit can overflow) is refused,
    naming the stage, because it would end as a wrong mask.
    """
    n = params.depth
    kept: list[list[np.ndarray]] = [[] for _ in xs]
    with np.errstate(over="ignore", invalid="ignore"):  # the check below reports an overflow once
        for i, skeleton in enumerate(params.stages):
            st, affine = read(skeleton)
            op = conv2d_fwd if i < n else deconv2d_fwd
            for k, h in enumerate(xs):
                h = _affine_act(op(h, st.conv), affine, i == 2 * n - 1)
                if not all_finite(h):
                    raise ScrollbinError(f"stage {st.name!r} gives non-finite outputs")
                xs[k] = _join(i, n, h, kept[k])
            del st, affine  # before the next stage is read
    return xs


def forward(params: NetParams, x: np.ndarray) -> np.ndarray:
    """Inference forward; output shape (batch, 1, patch, patch), values in (-1, 1).

    The one-input case of the stage-major eval forward that binarize_image runs.
    """
    _check_input(params, x)
    return _forward_group(params, _eval_stage, [x])[0]


def backward_stages(params: NetParams, trace: list[StageTrace], grad_out: np.ndarray):
    """Backward of one cached training forward, one stage at a time.

    Walks params.stages from the last decoder stage back to the first encoder
    stage, with _join_bwd as the skip rule's adjoint, and yields each stage's
    params once that stage's backward has set their grads and read their
    weights. No later stage's backward reads them, so the caller may update
    the weights and drop the grads before resuming.

    Each parameter is used once per forward, so each gradient is written
    once, replacing whatever the previous backward left; nothing needs
    zeroing between steps.
    """
    n = params.depth
    kept: list[np.ndarray] = []
    g = grad_out
    for i in reversed(range(2 * n)):
        st, t = params.stages[i], trace[i]
        g = _join_bwd(i, n, g, kept, st.conv.bias.shape[0])
        gz = tanh_bwd(t.out, g) if i == 2 * n - 1 else leaky_relu_bwd(t.out, g)
        if t.keep is not None:
            gz = dropout_bwd(gz, t.keep)
        if st.bn is not None:
            gz = batchnorm_bwd(st.bn, t.bn_cache, gz)
        g = (conv2d_bwd if i < n else deconv2d_bwd)(t.x, st.conv, gz)
        yield st.params()


# ---------------------------------------------------------------------------
# Pixel <-> tensor mapping
# ---------------------------------------------------------------------------


def normalize_input(img: GrayImage | RgbImage) -> np.ndarray:
    """Map 8-bit pixels to float32 in [-1, 1]: v -> v/127.5 - 1. Output (1, C, H, W)."""
    px = img.pixels.astype(np.float32) / np.float32(127.5) - np.float32(1.0)
    return px.reshape(img.height, img.width, img.channels).transpose(2, 0, 1)[None]


def mask_to_target(mask: BinaryMask) -> np.ndarray:
    """Training target (1, 1, H, W) in float32: ink pixels -> -1, the rest -> +1."""
    return np.where(mask.ink, np.float32(-1.0), np.float32(1.0))[None, None, :, :]


def denormalize_output(out: np.ndarray) -> BinaryMask:
    """Threshold one network output (1, 1, H, W): ink iff value < 0."""
    return BinaryMask(out[0, 0] < 0.0)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def _check_pair(sample, params: NetParams):
    img, mask = sample
    if img.channels != params.in_channels:
        raise ScrollbinError(
            f"dataset image has {img.channels} channel(s) but the model expects {params.in_channels}"
        )
    size = params.patch
    if img.width != size or img.height != size or mask.width != size or mask.height != size:
        raise ScrollbinError(f"training patches must be {size}x{size}")


def train(dataset: list, cfg: TrainConfig, init: NetParams | None = None) -> tuple[NetParams, list[float]]:
    """Adam/L1 training over (image patch, mask patch) pairs.

    Runs cfg.epochs passes, each a seeded shuffle consumed in batches of
    cfg.batch_size, one Adam step per batch. Returns the trained params and
    one mean-L1 entry per epoch. Passing init warm-starts from an existing
    model: weights and the lifetime step counter continue, while the Adam
    moment buffers start fresh. A fresh model takes the first image's channels.
    A run that would bring the step counter to 2**64, which the weights file's
    u64 cannot hold, is refused before its first step.
    """
    if not dataset:
        raise ScrollbinError("training dataset is empty")
    model = init if init is not None else build_model(dataset[0][0].channels, cfg.seed)

    for sample in dataset:
        _check_pair(sample, model)
    steps = cfg.epochs * -(-len(dataset) // cfg.batch_size)
    if model.step + steps >= 1 << 64:
        raise ScrollbinError(f"step count {model.step} + {steps} planned reaches 2**64, past a weights file's u64")
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
                out, cache = _forward_cached(model, x, rng)
                loss, grad = l1_loss(out, t)
                if not math.isfinite(loss):
                    raise ScrollbinError(f"training diverged: loss is {loss} at step {model.step + 1}")
                # Each stage is updated as soon as its grads are set, and its
                # grads are dropped, so only one stage's grads are ever alive.
                for stage_params in backward_stages(model, cache, grad):
                    adam_step(stage_params, state, lr=cfg.lr)
                    for p in stage_params:
                        p.grad = None
            model.step += 1
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
    if not all(all_finite(p.data) for p in params):
        raise ScrollbinError(f"training diverged: weights are not finite after step {model.step}")
    return model, history


# ---------------------------------------------------------------------------
# Full-image inference
# ---------------------------------------------------------------------------


def binarize_image(source: NetParams | WeightsFile, img: GrayImage | RgbImage) -> BinaryMask:
    """Binarize an image of any size: tile, run the patches, stitch the masks.

    source is a model in memory or an open weights file. Inference is the
    eval forward, run stage-major over groups of at most GROUP patches:
    each stage is read (from the file, with every load check) or taken
    (from memory) once per group, every patch of the group runs through it
    while its weights are still in cache, and it is dropped before the next
    stage is read. From a file, the memory held is therefore one stage's
    weights (at most 32 MiB for the default model, whose file is 208 MiB)
    plus the group's activations, under 8 MiB of skip features per 256x256
    patch, whatever the page size; a page of more than GROUP patches reads
    the stages once per group. Each patch runs alone through every GEMM, in
    the calling thread, so a mask is the same bytes whatever the group or
    the page around it; threads over patches would only contend with BLAS,
    which already spreads each GEMM over every core.
    """
    params, read = (source.model, source.read_stage) if isinstance(source, WeightsFile) else (source, _eval_stage)
    if img.channels != params.in_channels:
        raise ScrollbinError(f"image has {img.channels} channel(s), model expects {params.in_channels}")
    grid = split_patches(img, params.patch)
    masks = []
    for lo in range(0, len(grid.patches), GROUP):
        outs = _forward_group(params, read, [normalize_input(p) for p in grid.patches[lo : lo + GROUP]])
        masks.extend(denormalize_output(out) for out in outs)
    return reassemble(replace(grid, patches=masks))


# ---------------------------------------------------------------------------
# Weights file format
# ---------------------------------------------------------------------------
#
#   magic "BNET" | u32 version=1 | u32 in_channels | u64 step | u32 tensor count
#   per tensor: u16 name length | UTF-8 name | u8 rank | u32 dims[rank] | f32 data
#   everything little-endian


def save_weights(params: NetParams, path) -> None:
    """Write the header, packed before the file opens so a value it cannot hold writes nothing, then each tensor."""
    tensors = params.named_tensors()
    header = struct.pack("<4sIIQI", WEIGHTS_MAGIC, WEIGHTS_VERSION, params.in_channels, params.step, len(tensors))
    with open(path, "wb") as fh:
        fh.write(header)
        for name, arr in tensors:
            encoded = name.encode("utf-8")
            head = struct.pack(f"<H{len(encoded)}sB{arr.ndim}I", len(encoded), encoded, arr.ndim, *arr.shape)
            fh.write(head)
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))


def _index(fh, path, info: os.stat_result) -> tuple[int, int, list[tuple[str, tuple[int, ...], int]]]:
    """(in_channels, step, (name, dims, data offset) per tensor in file order) of an open weights file.

    Reads no tensor data: every size is checked against the file's length
    before anything is read or allocated, so a header cannot ask for more
    memory than the file holds, and the payload must end where the file does.
    That needs a length (info is fh's fstat), so a pipe or other stream is refused.
    """
    if not stat.S_ISREG(info.st_mode):
        raise WeightsFormatError(f"{path}: not a regular file")
    size = info.st_size

    def need(count: int) -> int:
        """count, once the file is known to hold that many more bytes."""
        pos = fh.tell()
        if pos + count > size:
            raise WeightsFormatError(f"truncated weights file: wanted {count} bytes at offset {pos}")
        return count

    def unpack(fmt: str):
        return struct.unpack(fmt, fh.read(need(struct.calcsize(fmt))))

    if fh.read(need(4)) != WEIGHTS_MAGIC:
        raise WeightsFormatError("bad magic: not a scrollbin weights file")
    version, in_channels, step, count = unpack("<IIQI")
    if version != WEIGHTS_VERSION:
        raise WeightsVersionError(f"unsupported weights version {version}, expected {WEIGHTS_VERSION}")

    entries = []
    for _ in range(count):
        (name_len,) = unpack("<H")
        raw_name = fh.read(need(name_len))
        try:
            name = str(raw_name, "utf-8")
        except UnicodeDecodeError:
            raise WeightsFormatError(f"tensor name ending at offset {fh.tell()} is not valid UTF-8") from None
        (rank,) = unpack("<B")
        if rank > 4:
            raise WeightsFormatError(f"tensor {name!r} has rank {rank} > 4")
        dims = unpack(f"<{rank}I")
        if 0 in dims:
            raise WeightsFormatError(f"tensor {name!r} has a zero dimension")
        elems = math.prod(dims)
        if elems > _MAX_TENSOR_ELEMS:
            raise WeightsFormatError(f"tensor {name!r} dimension overflow: {dims}")
        entries.append((name, dims, fh.tell()))
        fh.seek(need(4 * elems), os.SEEK_CUR)
    if fh.tell() != size:
        raise WeightsFormatError(f"{size - fh.tell()} trailing bytes after last tensor")
    return in_channels, step, entries


class WeightsFile:
    """An open weights file whose structure is checked, read one stage at a time.

    Opening reads the header and each tensor's name and dims (see _index)
    and assembles `model` from the shapes alone, each tensor a zero-stride
    placeholder, so every name, shape and ladder rule holds before any value
    is read. It then reads and checks each tensor that no stage uses, as
    load_weights always has, and drops it. read_stage reads one stage's
    values. Use it as a context manager, or call close.
    """

    def __init__(self, path):
        self.path = path
        # Opened non-blocking, so that a FIFO with no writer opens at once for _index to refuse unread.
        self._fh = open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK))
        try:
            os.set_blocking(self._fh.fileno(), True)  # reads block as usual
            self._stat = os.fstat(self._fh.fileno())
            in_channels, step, entries = _index(self._fh, path, self._stat)
            # a name given twice: the last one counts, as a dict's would
            self._at = {name: (dims, offset) for name, dims, offset in entries}
            self.model = _rebuild(in_channels, step, {name: dims for name, (dims, _) in self._at.items()})
            used = {name for name, _ in self.model.named_tensors()}
            for name, dims, offset in entries:
                if name not in used or self._at[name][1] != offset:
                    self._read(name, dims, offset)
        except BaseException:
            self._fh.close()
            raise

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> WeightsFile:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _read(self, name: str, dims: tuple[int, ...], offset: int) -> np.ndarray:
        """The tensor at offset, read straight into its own aligned array.

        Reading into a fresh array rather than viewing a file buffer keeps it
        aligned: BLAS falls back to a slow loop on a misaligned one. Each
        CHUNK-element slice is checked finite while it is still in cache.
        """
        arr = np.empty(dims, dtype="<f4")
        flat = arr.reshape(-1)
        self._fh.seek(offset)
        for lo in range(0, flat.size, CHUNK):
            part = flat[lo : lo + CHUNK]
            if self._fh.readinto(part) != part.nbytes:
                raise WeightsFormatError(f"{self.path}: file changed while it was read")
            if not all_finite(part):
                raise WeightsFormatError(f"tensor {name!r} has non-finite values")
        return arr

    def _take(self, name: str, _shape: tuple[int, ...]) -> np.ndarray:
        """Tensor name of `model`, read and checked; a running variance must not be negative."""
        arr = self._read(name, *self._at[name])
        if name.endswith(".running_var") and (arr < 0).any():
            raise WeightsFormatError(f"tensor {name!r} has negative values")
        return arr

    def read_stage(self, skeleton: Stage) -> tuple[Stage, Affine]:
        """The stage of `model` that skeleton is, its values read and checked, with its eval affine."""
        now = os.fstat(self._fh.fileno())
        if (now.st_size, now.st_mtime_ns) != (self._stat.st_size, self._stat.st_mtime_ns):
            raise WeightsFormatError(f"{self.path}: file changed while it was read")
        return _eval_stage(_stage(
            skeleton.name, self._take, skeleton.conv.weight.shape, skeleton.conv.bias.shape[0],
            skeleton.bn is not None, skeleton.drop,
        ))


def load_weights(path) -> NetParams:
    """Read a weights file whole: its structure, then every stage's values in forward order.

    Each tensor lands in its own aligned array, checked as it is read; see
    WeightsFile for the order of the checks.
    """
    with WeightsFile(path) as weights:
        model = weights.model
        model.stages = [weights.read_stage(st)[0] for st in model.stages]
    return model


def _ladder(shapes: dict[str, tuple[int, ...]], prefix: str, out_axis: int) -> tuple[int, ...]:
    """Each stage's output channels, read from axis out_axis of its conv weight."""
    ladder = []
    while (name := f"{prefix}{len(ladder) + 1}.conv.weight") in shapes:
        if len(shapes[name]) != 4:
            raise WeightsFormatError(f"tensor {name!r} has rank {len(shapes[name])}, expected 4")
        ladder.append(shapes[name][out_axis])
    if not ladder:
        raise WeightsFormatError(f"no {prefix} stages found in weights file")
    return tuple(ladder)


def _rebuild(in_channels: int, step: int, shapes: dict[str, tuple[int, ...]]) -> NetParams:
    """The model the tensor shapes describe, each tensor a zero-stride float32 placeholder.

    A stage has batch norm when the file has its gamma.
    """

    def take(name: str, shape: tuple[int, ...]) -> np.ndarray:
        dims = shapes.get(name)
        if dims is None:
            raise WeightsFormatError(f"missing tensor {name!r}")
        if dims != shape:
            raise WeightsFormatError(f"tensor {name!r} has shape {dims}, expected {shape}")
        return np.broadcast_to(np.float32(0), shape)

    try:
        model = _assemble(
            in_channels, _ladder(shapes, "enc", 0), _ladder(shapes, "dec", 1), take,
            lambda name: f"{name}.bn.gamma" in shapes, DROPOUT_STAGES,
        )
    except ScrollbinError as exc:  # a ladder rule that the file breaks is a format error too
        raise WeightsFormatError(str(exc)) from None
    model.step = step
    return model


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
