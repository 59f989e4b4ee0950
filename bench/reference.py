"""Independent float64 reference forward of a BiNet `.bnet` model.

Written from the documented weights format and network layout, sharing no
code with scrollbin, so the benchmark can check the program's masks against
it: stride-2 4x4 convolutions with padding 1 down to 1x1, the mirrored
transposed convolutions with skip concatenations back up, eval-mode batch
norm from the stored running statistics, LeakyReLU(0.2), a tanh head, and
ink wherever the output is negative.
"""

from __future__ import annotations

import struct

import numpy as np

PATCH = 256
LEAK = 0.2
BN_EPS = 1e-5  # scrollbin's BatchNormParams default; the file does not store it


def read_bnet(path) -> tuple[int, int, dict[str, np.ndarray]]:
    """(in_channels, step, tensors as float64) from a v1 weights file."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:4] != b"BNET":
        raise ValueError(f"{path}: bad magic")
    version, in_channels, step, count = struct.unpack_from("<IIQI", data, 4)
    if version != 1:
        raise ValueError(f"{path}: unsupported version {version}")
    pos = 24
    tensors = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<H", data, pos)
        name = data[pos + 2 : pos + 2 + name_len].decode("utf-8")
        pos += 2 + name_len
        rank = data[pos]
        dims = struct.unpack_from(f"<{rank}I", data, pos + 1)
        pos += 1 + 4 * rank
        elems = int(np.prod(dims)) if rank else 1
        tensors[name] = np.frombuffer(data, "<f4", elems, pos).astype(np.float64).reshape(dims)
        pos += 4 * elems
    return in_channels, step, tensors


def _conv_down(x, w, b):
    """Stride-2, pad-1, 4x4 correlation: (C, H, W) -> (O, H/2, W/2)."""
    c, h, wd = x.shape
    ho, wo = h // 2, wd // 2
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1)))
    cols = np.empty((c, 4, 4, ho, wo))
    for i in range(4):
        for j in range(4):
            cols[:, i, j] = xp[:, i : i + 2 * ho : 2, j : j + 2 * wo : 2]
    out = w.reshape(w.shape[0], -1) @ cols.reshape(c * 16, ho * wo)
    return out.reshape(-1, ho, wo) + b[:, None, None]


def _conv_up(x, w, b):
    """Adjoint of _conv_down with weight (C_in, C_out, 4, 4): (C, H, W) -> (O, 2H, 2W)."""
    c, h, wd = x.shape
    o = w.shape[1]
    taps = (w.reshape(c, o * 16).T @ x.reshape(c, h * wd)).reshape(o, 4, 4, h, wd)
    buf = np.zeros((o, 2 * h + 2, 2 * wd + 2))
    for i in range(4):
        for j in range(4):
            buf[:, i : i + 2 * h : 2, j : j + 2 * wd : 2] += taps[:, i, j]
    return buf[:, 1 : 2 * h + 1, 1 : 2 * wd + 1] + b[:, None, None]


def _norm_act(z, t: dict, prefix: str, last: bool):
    if f"{prefix}.bn.gamma" in t:
        inv = 1.0 / np.sqrt(t[f"{prefix}.bn.running_var"] + BN_EPS)
        z = (z - t[f"{prefix}.bn.running_mean"][:, None, None]) * inv[:, None, None]
        z = t[f"{prefix}.bn.gamma"][:, None, None] * z + t[f"{prefix}.bn.beta"][:, None, None]
    return np.tanh(z) if last else np.where(z > 0, z, LEAK * z)


def forward_patch(tensors: dict, x: np.ndarray) -> np.ndarray:
    """Eval forward of one (C, 256, 256) patch in [-1, 1]; returns (256, 256)."""
    n = 0
    while f"enc{n + 1}.conv.weight" in tensors:
        n += 1
    feats = []
    h = x
    for i in range(1, n + 1):
        p = f"enc{i}"
        h = _norm_act(_conv_down(h, tensors[f"{p}.conv.weight"], tensors[f"{p}.conv.bias"]), tensors, p, False)
        feats.append(h)
    for j in range(1, n + 1):
        p = f"dec{j}"
        z = _conv_up(h, tensors[f"{p}.conv.weight"], tensors[f"{p}.conv.bias"])
        h = _norm_act(z, tensors, p, j == n)
        if j < n:
            h = np.concatenate([h, feats[n - 1 - j]], axis=0)
    return h[0]


def reference_output(tensors: dict, pixels: np.ndarray) -> np.ndarray:
    """Network output over a whole page: edge-replicated 256 tiles, stitched and cropped."""
    height, width = pixels.shape[:2]
    rows, cols = -(-height // PATCH), -(-width // PATCH)
    spatial = ((0, rows * PATCH - height), (0, cols * PATCH - width))
    padded = np.pad(pixels, spatial + ((0, 0),) * (pixels.ndim - 2), mode="edge")
    x = padded.astype(np.float64) / 127.5 - 1.0
    x = x[None] if x.ndim == 2 else x.transpose(2, 0, 1)
    out = np.empty((rows * PATCH, cols * PATCH))
    for r in range(rows):
        for c in range(cols):
            ys, xs = slice(r * PATCH, (r + 1) * PATCH), slice(c * PATCH, (c + 1) * PATCH)
            out[ys, xs] = forward_patch(tensors, x[:, ys, xs])
    return out[:height, :width]
