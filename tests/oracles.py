"""Independent brute-force reference implementations used only by tests.

Everything here is deliberately written the slow, obvious way (plain loops,
exact rational arithmetic) and shares no code with the package, so a bug in
an optimized kernel cannot hide in its own oracle.
"""

from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------


def naive_conv2d(x, w, b, stride=2, pad=1):
    """Six nested loops over a zero-padded input."""
    bs, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    xp = np.zeros((bs, ci, h + 2 * pad, wd + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + wd] = x
    out = np.zeros((bs, co, oh, ow), dtype=x.dtype)
    for n in range(bs):
        for o in range(co):
            for y in range(oh):
                for z in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for i in range(kh):
                            for j in range(kw):
                                acc += xp[n, c, y * stride + i, z * stride + j] * w[o, c, i, j]
                    out[n, o, y, z] = acc + b[o]
    return out


def naive_deconv2d(x, w, b, stride=2, pad=1):
    """Transposed convolution as a scatter: each input pixel adds its value
    times the (in, out) kernel slice into a 4x4 output window, then the pad
    border is cropped. Weight layout (in_ch, out_ch, kh, kw)."""
    bs, ci, h, wd = x.shape
    _, co, kh, kw = w.shape
    oh = (h - 1) * stride - 2 * pad + kh
    ow = (wd - 1) * stride - 2 * pad + kw
    full = np.zeros((bs, co, oh + 2 * pad, ow + 2 * pad), dtype=x.dtype)
    for n in range(bs):
        for c in range(ci):
            for y in range(h):
                for z in range(wd):
                    for o in range(co):
                        for i in range(kh):
                            for j in range(kw):
                                full[n, o, y * stride + i, z * stride + j] += x[n, c, y, z] * w[c, o, i, j]
    return full[:, :, pad : pad + oh, pad : pad + ow] + np.asarray(b)[None, :, None, None]


def naive_binet_eval(params, x):
    """Float64 eval forward of a BiNet model with the naive kernels above:
    batch norm as (z - mean) / sqrt(var + eps) * gamma + beta from the
    running statistics, LeakyReLU(0.2), skip concatenation, a tanh head."""

    def f64(a):
        return np.asarray(a, dtype=np.float64)

    def col(v):
        return f64(v)[None, :, None, None]

    def norm_act(z, bn, last):
        if bn is not None:
            z = (z - col(bn.running_mean)) / np.sqrt(col(bn.running_var) + bn.eps)
            z = z * col(bn.gamma.data) + col(bn.beta.data)
        return np.tanh(z) if last else np.where(z > 0, z, 0.2 * z)

    n = len(params.stages) // 2
    feats = []
    h = f64(x)
    for st in params.stages[:n]:
        h = norm_act(naive_conv2d(h, f64(st.conv.weight.data), f64(st.conv.bias.data)), st.bn, False)
        feats.append(h)
    for j, st in enumerate(params.stages[n:]):
        z = naive_deconv2d(h, f64(st.conv.weight.data), f64(st.conv.bias.data))
        h = norm_act(z, st.bn, j == n - 1)
        if j < n - 1:
            h = np.concatenate([h, feats[n - 2 - j]], axis=1)
    return h


# ---------------------------------------------------------------------------
# Whole-tensor training-op formulas
# ---------------------------------------------------------------------------
#
# The package computes these with fewer passes and allocations and must give
# the same bytes in the same layout. Numpy picks a result's strides from its
# operands (and may write a product into a temporary operand), and the
# reductions and GEMMs downstream follow those strides, so equal values alone
# would not keep training byte-identical.


def naive_adam_step(datas, grads, ms, vs, t, lr=2e-4, beta1=0.5, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam step t (1-based) as whole-tensor passes, in place
    on datas, ms and vs, through one scratch the size of each tensor."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for data, g, m, v in zip(datas, grads, ms, vs):
        s = np.empty_like(data)
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
        data -= s


def where_leaky_relu(x, slope=0.2):
    return np.where(x > 0, x, slope * x)


def where_leaky_relu_bwd(x, grad_out, slope=0.2):
    return grad_out * np.where(x > 0, np.asarray(1.0, x.dtype), np.asarray(slope, x.dtype))


def expr_batchnorm_bwd(gamma, xhat, inv, grad_out):
    """(input grad, gamma grad, beta grad) of train-mode batch norm."""
    dbeta = grad_out.sum(axis=(0, 2, 3))
    dgamma = (grad_out * xhat).sum(axis=(0, 2, 3))
    dxhat = grad_out * gamma[None, :, None, None]
    mean_d = dxhat.mean(axis=(0, 2, 3), keepdims=True)
    mean_dx = (dxhat * xhat).mean(axis=(0, 2, 3), keepdims=True)
    return inv[None, :, None, None] * (dxhat - mean_d - xhat * mean_dx), dgamma, dbeta


def _im2col_4x4_s2(x):
    b, c, _, _ = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (4, 4), axis=(2, 3))[:, :, ::2, ::2]
    oh, ow = win.shape[2], win.shape[3]
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * 16, b * oh * ow), oh, ow


def two_im2col_deconv2d_bwd(x, w, grad_out):
    """(input grad, weight grad, bias grad) of the transposed convolution,
    building grad_out's columns once for each of its two GEMMs."""
    cols, _, _ = _im2col_4x4_s2(grad_out)
    ci = x.shape[1]
    xmat = x.transpose(1, 0, 2, 3).reshape(ci, -1)
    dw = (xmat @ cols.T).reshape(ci, grad_out.shape[1], 4, 4)
    db = grad_out.sum(axis=(0, 2, 3))
    cols, oh, ow = _im2col_4x4_s2(grad_out)
    dx = (w.reshape(w.shape[0], -1) @ cols).reshape(w.shape[0], grad_out.shape[0], oh, ow)
    return dx.transpose(1, 0, 2, 3), dw, db


# ---------------------------------------------------------------------------
# Finite differences
# ---------------------------------------------------------------------------


def fd_gradient(f, arr, eps=1e-3):
    """Central-difference gradient of scalar f() wrt arr, mutated in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        hi = f()
        flat[i] = original - eps
        lo = f()
        flat[i] = original
        gflat[i] = (hi - lo) / (2.0 * eps)
    return grad


def max_rel_err(a, b, floor=1e-6):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float(np.max(np.abs(a - b) / denom))


# ---------------------------------------------------------------------------
# Otsu
# ---------------------------------------------------------------------------


def otsu_exact(pixels: np.ndarray):
    """Exhaustive argmax of w0*w1*(mu0-mu1)^2 in exact rational arithmetic.

    Returns the smallest maximizing threshold, or None when every split is
    degenerate (constant input).
    """
    values = [int(v) for v in np.asarray(pixels).reshape(-1)]
    n = len(values)
    best_t = None
    best_score = Fraction(0)
    for t in range(256):
        low = [v for v in values if v <= t]
        high = [v for v in values if v > t]
        if not low or not high:
            continue
        w0 = Fraction(len(low), n)
        w1 = Fraction(len(high), n)
        mu0 = Fraction(sum(low), len(low))
        mu1 = Fraction(sum(high), len(high))
        score = w0 * w1 * (mu0 - mu1) ** 2
        if best_t is None or score > best_score:
            best_t, best_score = t, score
    return best_t


def naive_otsu_local_mask(pixels: np.ndarray, window: int) -> np.ndarray:
    """Per-pixel exact Otsu over the clamped window; constant window -> background."""
    h, w = pixels.shape
    half = window // 2
    out = np.zeros((h, w), dtype=bool)
    for y in range(h):
        for x in range(w):
            win = pixels[max(0, y - half) : y + half + 1, max(0, x - half) : x + half + 1]
            t = otsu_exact(win)
            out[y, x] = t is not None and pixels[y, x] <= t
    return out


def rowwise_otsu_local(pixels: np.ndarray, window: int) -> np.ndarray:
    """Local Otsu from column histograms that span the whole image width.

    The earlier fast path, kept as the tiled sweep's reference: one int32
    histogram per image column slides down the rows, an int64 prefix sum over
    all columns gives each row's window histograms, and every split is scored
    by (S0*n1 - S1*n0)^2 / (n0*n1) from exact int64 sums, with invalid splits
    at -1 and the first maximum winning. Memory is O(width x 256).
    """
    half = window // 2
    h, w = pixels.shape

    def bounds(size):
        idx = np.arange(size)
        return np.clip(idx - half, 0, size), np.clip(idx + half + 1, 0, size)

    y0, y1 = bounds(h)
    x0, x1 = bounds(w)
    cols = np.zeros((w + 1, 256), dtype=np.int32)
    col = np.arange(1, w + 1)
    prefix = np.empty((w + 1, 256), dtype=np.int64)
    hists, tmp, n0, n1, s0 = np.empty((5, w, 256), dtype=np.int64)
    score = np.empty((w, 256))
    ink = np.empty((h, w), dtype=np.bool_)
    top = bottom = 0
    for r in range(h):
        for y in range(bottom, y1[r]):
            cols[col, pixels[y]] += 1
        for y in range(top, y0[r]):
            cols[col, pixels[y]] -= 1
        top, bottom = y0[r], y1[r]
        np.cumsum(cols, axis=0, out=prefix)
        np.take(prefix, x1, axis=0, out=hists)
        hists -= np.take(prefix, x0, axis=0, out=tmp)
        np.cumsum(hists, axis=1, out=n0)
        hists *= np.arange(256)
        np.cumsum(hists, axis=1, out=s0)
        n, s = n0[:, -1:].copy(), s0[:, -1:].copy()
        np.subtract(n, n0, out=n1)
        np.multiply(s0, n1, out=tmp)
        np.subtract(s, s0, out=s0)
        s0 *= n0
        tmp -= s0
        np.copyto(score, tmp)
        score *= score
        n1 *= n0
        valid = n1 > 0
        np.divide(score, n1, out=score, where=valid)
        score[~valid] = -1.0
        ink[r] = (pixels[r] <= score.argmax(axis=1)) & valid.any(axis=1)
    return ink


def naive_window_stats(pixels: np.ndarray, window: int):
    """Per-pixel mean and population std over the clamped window, by loops."""
    h, w = pixels.shape
    half = window // 2
    mean = np.zeros((h, w))
    std = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            win = pixels[max(0, y - half) : y + half + 1, max(0, x - half) : x + half + 1]
            win = win.astype(np.float64)
            mean[y, x] = win.mean()
            std[y, x] = np.sqrt(max(0.0, (win * win).mean() - win.mean() ** 2))
    return mean, std


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def naive_counts(pred: np.ndarray, gt: np.ndarray):
    tp = fp = fn = tn = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            if pred[y, x] and gt[y, x]:
                tp += 1
            elif pred[y, x]:
                fp += 1
            elif gt[y, x]:
                fn += 1
            else:
                tn += 1
    return tp, fp, fn, tn


def naive_f_measure(pred: np.ndarray, gt: np.ndarray) -> float:
    tp, fp, fn, _ = naive_counts(pred, gt)
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    r = tp / (tp + fn)
    p = tp / (tp + fp)
    return 2 * r * p / (r + p)


def naive_psnr(pred: np.ndarray, gt: np.ndarray) -> float:
    import math

    diff = 0
    for y in range(pred.shape[0]):
        for x in range(pred.shape[1]):
            diff += int(pred[y, x] != gt[y, x])
    if diff == 0:
        return math.inf
    return 10.0 * math.log10(pred.size / diff)


def naive_drd(pred: np.ndarray, gt: np.ndarray) -> float:
    import math

    h, w = gt.shape
    weights = np.zeros((5, 5))
    for i in range(5):
        for j in range(5):
            if (i, j) != (2, 2):
                weights[i, j] = 1.0 / np.sqrt((i - 2) ** 2 + (j - 2) ** 2)
    weights /= weights.sum()

    nubn = 0
    for by in range(0, h, 8):
        for bx in range(0, w, 8):
            block = gt[by : by + 8, bx : bx + 8]
            if block.any() and not block.all():
                nubn += 1

    flips = [(y, x) for y in range(h) for x in range(w) if pred[y, x] != gt[y, x]]
    if nubn == 0:
        return 0.0 if not flips else math.inf
    total = 0.0
    for y, x in flips:
        pk = int(pred[y, x])
        for i in range(5):
            for j in range(5):
                ny, nx = y + i - 2, x + j - 2
                gv = int(gt[ny, nx]) if 0 <= ny < h and 0 <= nx < w else pk
                total += abs(gv - pk) * weights[i, j]
    return total / nubn


# ---------------------------------------------------------------------------
# Pseudo-F weights (brute-force distances and BFS component labels)
# ---------------------------------------------------------------------------


def _naive_components(gt: np.ndarray) -> np.ndarray:
    """8-connected component labels, by flood fill. 0 = background."""
    h, w = gt.shape
    labels = np.zeros((h, w), dtype=int)
    current = 0
    for sy in range(h):
        for sx in range(w):
            if gt[sy, sx] and labels[sy, sx] == 0:
                current += 1
                stack = [(sy, sx)]
                labels[sy, sx] = current
                while stack:
                    y, x = stack.pop()
                    for dy in (-1, 0, 1):
                        for dx in (-1, 0, 1):
                            ny, nx = y + dy, x + dx
                            if 0 <= ny < h and 0 <= nx < w and gt[ny, nx] and labels[ny, nx] == 0:
                                labels[ny, nx] = current
                                stack.append((ny, nx))
    return labels


def _naive_dist_to(targets: list, y: int, x: int) -> float:
    return min(np.sqrt((y - ty) ** 2 + (x - tx) ** 2) for ty, tx in targets)


def naive_recall_weights(gt: np.ndarray) -> np.ndarray:
    h, w = gt.shape
    out = np.zeros((h, w))
    if not gt.any():
        return out
    if gt.all():
        return np.ones((h, w))  # no background: every ink pixel is as deep as its stroke
    labels = _naive_components(gt)
    background = [(y, x) for y in range(h) for x in range(w) if not gt[y, x]]
    dist = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if gt[y, x]:
                dist[y, x] = _naive_dist_to(background, y, x)
    for comp in range(1, labels.max() + 1):
        ys, xs = np.nonzero(labels == comp)
        peak = dist[ys, xs].max()
        for y, x in zip(ys, xs):
            out[y, x] = min(1.0, dist[y, x] / peak)
    return out


def naive_precision_weights(gt: np.ndarray) -> np.ndarray:
    h, w = gt.shape
    if not gt.any():
        return np.ones((h, w))
    labels = _naive_components(gt)
    background = [(y, x) for y in range(h) for x in range(w) if not gt[y, x]]
    dist_in = np.zeros((h, w))
    for y in range(h):
        for x in range(w):
            if gt[y, x]:
                dist_in[y, x] = _naive_dist_to(background, y, x) if background else np.inf
    peaks = {c: dist_in[labels == c].max() for c in range(1, labels.max() + 1)}
    # Column-major with a strict "<": among equidistant ink pixels the one in
    # the smallest column, then the smallest row, decides the stroke width.
    ink = [(y, x) for x in range(w) for y in range(h) if gt[y, x]]
    out = np.ones((h, w))
    for y in range(h):
        for x in range(w):
            best_d, best_c = None, None
            for ty, tx in ink:
                d = np.sqrt((y - ty) ** 2 + (x - tx) ** 2)
                if best_d is None or d < best_d:
                    best_d, best_c = d, labels[ty, tx]
            sw = 2.0 * peaks[best_c]
            if best_d <= sw:
                out[y, x] = min(2.0, max(1.0, 2.0 - best_d / sw))
    return out


def naive_pseudo_f(pred: np.ndarray, gt: np.ndarray) -> float:
    tp, fp, fn, _ = naive_counts(pred, gt)
    if tp == 0:
        return 1.0 if fp == 0 and fn == 0 else 0.0
    w_r = naive_recall_weights(gt)
    w_p = naive_precision_weights(gt)
    correct = pred & gt
    p_rec = w_r[correct].sum() / w_r[gt].sum()
    p_pre = w_p[correct].sum() / w_p[pred].sum()
    return 2 * p_rec * p_pre / (p_rec + p_pre)
