"""In-memory spans around the program's public functions, and the per-layer
metrics derived from them.

The benchmark adds no tracing inside scrollbin. For a traced round it
replaces each public function the CLI reaches with a wrapper that records a
span (name, start, end, parent, run id) and then restores the originals.
Spans are kept in memory and written out when the benchmark ends. FLOPs and
bytes attached to convolution spans are computed from tensor shapes, not
measured.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter

STAGES = [f"enc{i}" for i in range(1, 9)] + [f"dec{i}" for i in range(1, 9)]
LAYERS = ("cli", "imagecore", "tiling", "binet", "autodiff", "classical", "metrics")


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    run: str
    op: str
    meta: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans. A span opened on a worker thread that has no open span
    of its own takes the innermost open span of the calling thread as its
    parent, which is where the program's thread pools are entered from."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = ""
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._caller_stack = self._stack()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, meta: dict | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else (self._caller_stack[-1] if self._caller_stack else None)
        sid = next(self._ids)
        stack.append(sid)
        record = Span(sid, name, 0.0, 0.0, parent, self.run, self.op, meta or {})
        record.start = perf_counter()
        try:
            yield record
        finally:
            record.end = perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn, name: str, annotate=None):
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if annotate is not None:
                record.meta.update(annotate(args, result))
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "start": s.start, "end": s.end,
                    "parent": s.parent, "run": s.run, "op": s.op, "meta": s.meta,
                }) + "\n")


# ---------------------------------------------------------------------------
# What each wrapper records beyond its timing
# ---------------------------------------------------------------------------


def _read_meta(args, image):
    with open(args[0], "rb") as fh:
        magic = fh.read(2).decode("ascii", "replace").lower()
    return {"format": magic, "mpx": image.width * image.height / 1e6}


def _write_meta(args, _):
    image = args[0]
    kind = {"GrayImage": "p5", "RgbImage": "p6", "BinaryMask": "p4"}[type(image).__name__]
    return {"format": kind, "mpx": image.width * image.height / 1e6}


def _image_meta(args, _):
    return {"mpx": args[0].width * args[0].height / 1e6}


def _split_meta(args, grid):
    return {
        "network_input": type(args[0]).__name__ != "BinaryMask",
        "real_px": grid.orig_width * grid.orig_height,
        "patch_px": len(grid.patches) * grid.patch_size**2,
    }


def _forward_meta(args, _):
    return {"patches": int(args[1].shape[0])}


def _stage_meta(kind: str, backward: bool):
    """Stage name, FLOPs and bytes from shapes. The stage follows from the
    input's spatial size, since every stage halves or doubles it."""

    def annotate(args, result):
        x, p = args[0], args[1]
        b, c, h, w = x.shape
        itemsize = x.dtype.itemsize
        weight = p.weight.data
        if kind == "conv":
            stage = f"enc{1 + int(round(math.log2(256 / h)))}"
            macs = b * weight.shape[0] * (h // 2) * (w // 2) * c * 16
        else:
            stage = f"dec{1 + int(round(math.log2(h)))}"
            macs = b * c * h * w * weight.shape[1] * 16
        flops = 2 * macs * (2 if backward else 1)  # backward: weight and input gradients
        moved = x.size + weight.size + result.size
        if backward:
            moved += args[2].size + weight.size  # grad_out in, weight grad out
        return {"stage": stage, "flops": flops, "bytes": moved * itemsize}

    return annotate


def _targets(modules):
    """(namespace, attribute, span name, annotate) for every traced call site.

    Functions imported by name into another module are patched in the
    importing module's namespace, because that is the name the caller looks up.
    """
    cli, imagecore, tiling, binet, classical, metrics = modules
    rows = [
        (cli, "read_pnm", "imagecore.read_pnm", _read_meta),
        (cli, "write_pnm", "imagecore.write_pnm", _write_meta),
        (tiling, "split", "tiling.split", _split_meta),
        (binet, "split_patches", "tiling.split", _split_meta),
        (binet, "reassemble", "tiling.reassemble", None),
        (binet, "forward", "binet.forward", _forward_meta),
        (binet, "conv2d_fwd", "autodiff.conv2d_fwd", _stage_meta("conv", False)),
        (binet, "deconv2d_fwd", "autodiff.deconv2d_fwd", _stage_meta("deconv", False)),
        (binet, "conv2d_bwd", "autodiff.conv2d_bwd", _stage_meta("conv", True)),
        (binet, "deconv2d_bwd", "autodiff.deconv2d_bwd", _stage_meta("deconv", True)),
    ]
    for name in ("load_weights", "save_weights", "train", "binarize_image", "backward",
                 "normalize_input", "denormalize_output", "mask_to_target"):
        rows.append((binet, name, f"binet.{name}", None))
    for name in ("batchnorm_fwd", "batchnorm_bwd", "leaky_relu", "leaky_relu_bwd", "tanh_act",
                 "tanh_bwd", "dropout", "dropout_bwd", "concat_channels", "split_channels",
                 "l1_loss", "adam_step"):
        rows.append((binet, name, f"autodiff.{name}", None))
    for name in ("otsu_global", "otsu_local", "niblack", "sauvola", "window_mean_std"):
        rows.append((classical, name, f"classical.{name}", _image_meta))
    for name in ("evaluate", "aggregate", "confusion", "f_measure", "pseudo_f_measure",
                 "recall_weights", "precision_weights", "psnr", "drd", "nubn"):
        rows.append((metrics, name, f"metrics.{name}", None))
    return rows


@contextmanager
def patched(tracer: Tracer, modules):
    """Route the program's public calls through tracer wrappers, then restore them."""
    saved = []
    try:
        for ns, attr, name, annotate in _targets(modules):
            original = getattr(ns, attr, None)
            if original is None:  # renamed or removed: its metrics read 0
                continue
            saved.append((ns, attr, original))
            setattr(ns, attr, tracer.wrap(original, name, annotate))
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of its interval that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = s.seconds - covered
    return out


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _rate(spans, key="mpx") -> float:
    """Seconds per megapixel over a set of spans."""
    mpx = sum(s.meta[key] for s in spans)
    return sum(s.seconds for s in spans) / mpx if mpx else 0.0


def layer_metrics(spans: list[Span], ops: dict[str, str]) -> dict[str, float]:
    """Per-layer values from the spans of the traced rounds.

    `ops` names the op labels to read: "binarize" (the --threads 1 call, so
    per-stage times are free of thread contention) and "train".
    """
    m: dict[str, float] = {}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name, op=None):
        return [s for s in by_name.get(name, ()) if op is None or s.op == op]

    reads = named("imagecore.read_pnm")
    for fmt in ("p5", "p6", "p4", "p2"):
        m[f"imagecore.read_pnm.{fmt}_s_per_mpx"] = _rate([s for s in reads if s.meta["format"] == fmt])
    writes = [s for s in named("imagecore.write_pnm") if s.meta["format"] == "p4"]
    m["imagecore.write_pnm.p4_s_per_mpx"] = _rate(writes)

    splits = named("tiling.split")
    m["tiling.split_s"] = sum(s.seconds for s in splits)
    m["tiling.reassemble_s"] = sum(s.seconds for s in named("tiling.reassemble"))
    fed = [s for s in splits if s.meta["network_input"]]
    patch_px = sum(s.meta["patch_px"] for s in fed)
    m["tiling.useful_px_frac"] = sum(s.meta["real_px"] for s in fed) / patch_px if patch_px else 0.0

    selfs = self_times(spans)
    binarize_op = ops["binarize"]
    forwards = named("binet.forward", binarize_op)
    m["binet.load_weights_s"] = _mean(s.seconds for s in named("binet.load_weights"))
    m["binet.save_weights_s"] = _mean(s.seconds for s in named("binet.save_weights"))
    m["binet.forward_patch_s"] = sum(s.seconds for s in forwards) / max(1, sum(s.meta["patches"] for s in forwards))
    m["binet.forward_patches"] = float(sum(s.meta["patches"] for s in forwards))
    whole = named("binet.binarize_image", binarize_op)
    m["binet.binarize_image_s"] = _mean(s.seconds for s in whole)
    m["binet.binarize_unattributed_s"] = _mean(selfs[s.id] for s in whole)
    m["binet.train_s"] = _mean(s.seconds for s in named("binet.train"))

    for stage in STAGES:
        for direction in ("fwd", "bwd"):
            m[f"autodiff.{stage}.{direction}_s"] = m[f"autodiff.{stage}.{direction}_gflops"] = 0.0
    for row in stage_table(spans, ops):
        m[f"autodiff.{row['stage']}.{row['direction']}_s"] = row["mean_s"]
        m[f"autodiff.{row['stage']}.{row['direction']}_gflops"] = row["gflops"]
    m["autodiff.batchnorm_s"] = sum(s.seconds for n in ("autodiff.batchnorm_fwd", "autodiff.batchnorm_bwd") for s in named(n))
    m["autodiff.activations_s"] = sum(
        s.seconds
        for n in ("autodiff.leaky_relu", "autodiff.leaky_relu_bwd", "autodiff.tanh_act", "autodiff.tanh_bwd")
        for s in named(n)
    )
    m["autodiff.adam_step_s"] = _mean(s.seconds for s in named("autodiff.adam_step"))

    for name in ("otsu_global", "otsu_local", "niblack", "sauvola", "window_mean_std"):
        m[f"classical.{name}_s_per_mpx"] = _rate(named(f"classical.{name}"))
    for name in ("confusion", "recall_weights", "precision_weights", "pseudo_f_measure", "psnr", "drd", "aggregate"):
        m[f"metrics.{name}_s"] = _mean(s.seconds for s in named(f"metrics.{name}"))

    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(selfs[s.id] for s in spans if s.name.split(".")[0] == layer)
    return m


def stage_table(spans: list[Span], ops: dict[str, str], sgemm_gflops: float | None = None) -> list[dict]:
    """One row per stage and direction: mean seconds per call, FLOPs and bytes
    computed from shapes (not measured), and the achieved GFLOP/s, also as a
    share of the sgemm peak when one is given."""
    rows = []
    for direction, op, names in (
        ("fwd", ops["binarize"], ("autodiff.conv2d_fwd", "autodiff.deconv2d_fwd")),
        ("bwd", ops["train"], ("autodiff.conv2d_bwd", "autodiff.deconv2d_bwd")),
    ):
        calls = [s for s in spans if s.name in names and s.op == op]
        for stage in STAGES:
            mine = [s for s in calls if s.meta["stage"] == stage]
            if not mine:
                continue
            seconds = _mean(s.seconds for s in mine)
            flops = mine[0].meta["flops"]
            row = {
                "stage": stage, "direction": direction, "calls": len(mine), "mean_s": seconds,
                "flops_from_shapes": flops, "bytes_from_shapes": mine[0].meta["bytes"],
                "gflops": flops / seconds / 1e9,
            }
            if sgemm_gflops:
                row["share_of_sgemm_peak"] = row["gflops"] / sgemm_gflops
            rows.append(row)
    return rows
