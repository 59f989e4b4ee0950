"""The three workloads: the CLI calls of one round, their warm-up, and the
checks on every output.

Each workload drives `scrollbin.cli.main(argv)` in-process as a closed loop
with one caller: every call starts when the one before it has returned.
A round is the workload's fixed sequence of calls. An op fails when it
exits non-zero, raises, or writes output that fails its check; the checks
run between rounds, outside the timed calls.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import statistics
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import pnm
from inputs import PAGE_BINARIZE, TRAIN_PAGES, TRAIN_WARM

# |reference output| below which the float32 mask may disagree with the
# float64 reference. Observed float32-vs-float64 output error on a fresh
# model is ~1e-8, against a median |output| of ~5e-3.
BAND_TOL = 1e-6
# Relative tolerance for a metric value against its naive oracle.
METRIC_RTOL = 1e-9


def digest(path) -> str | None:
    sha = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                sha.update(chunk)
    except OSError:
        return None
    return sha.hexdigest()


@dataclass
class Op:
    """One CLI call and what became of it."""

    label: str
    argv: list
    seconds: float
    code: int | None
    stdout: str
    stderr: str
    outputs: dict = field(default_factory=dict)  # path -> sha256 at return
    ok: bool = True
    reason: str = ""

    def fail(self, reason: str) -> None:
        if self.ok:
            self.ok, self.reason = False, reason


class Runner:
    """Calls the CLI in-process, capturing its stdout and stderr."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer

    def call(self, label: str, argv: list, outputs=()) -> Op:
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        if self.tracer is not None:
            self.tracer.op = label
        span = self.tracer.span(f"cli.{argv[0]}") if self.tracer is not None else nullcontext()
        start = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err), span:
                code = self.cli.main(argv)
        except Exception:  # the op failed; record it and go on with the run
            code = None
            err.write(traceback.format_exc())
        seconds = perf_counter() - start
        op = Op(label, argv, seconds, code, out.getvalue(), err.getvalue())
        op.outputs = {str(p): digest(p) for p in outputs}
        if code != 0:
            op.fail(f"exit {code}: {op.stderr.strip()[-300:]}")
        return op


def _by_label(ops: list[Op], label: str) -> list[Op]:
    return [op for op in ops if op.label == label]


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Workload:
    def __init__(self, d: Path):
        self.d = d
        self.ref = json.loads((d / "ref.json").read_text())
        self._verdicts: dict[str, str] = {}  # output digest -> failure reason ("" = good)
        self._first: dict[str, str] = {}  # op label -> digest of its first output

    def warmup(self, runner: Runner) -> list[Op]:
        raise NotImplementedError

    def round(self, runner: Runner) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Mark failed ops of one round; run right after the round returns."""
        raise NotImplementedError

    def details(self, ops: list[Op]) -> dict:
        raise NotImplementedError

    def extra_ops(self, runner: Runner) -> list[Op]:
        """Checked but untimed calls made once after the timed loop."""
        return []

    def _verdict(self, key: str, judge) -> str:
        if key not in self._verdicts:
            try:
                self._verdicts[key] = judge()
            except Exception as exc:  # a malformed output is a failed check
                self._verdicts[key] = f"check raised {type(exc).__name__}: {exc}"
        return self._verdicts[key]

    def _same_as_first(self, op: Op, path, label: str | None = None) -> None:
        """Outputs are deterministic: every round must reproduce the first."""
        first = self._first.setdefault(label or op.label, op.outputs[str(path)])
        if op.outputs[str(path)] != first:
            op.fail(f"{path} differs from the first {label or op.label} output")


# ---------------------------------------------------------------------------
# page-binarize
# ---------------------------------------------------------------------------


class PageBinarize(Workload):
    def __init__(self, d: Path, threads2: int):
        super().__init__(d)
        self.threads2 = threads2
        self.ref_out = np.load(d / "ref_out.npy")
        self.mpx = self.ref["width"] * self.ref["height"] / 1e6

    def _argv(self, image, out, threads):
        return ["binarize", "--model", self.d / "model.bnet", "--input", image, "--out", out,
                "--threads", threads]

    def warmup(self, runner):
        return [runner.call("warmup", self._argv(self.d / "warm.pgm", self.d / "warm.pbm", 1))]

    def round(self, runner):
        t1, t2 = self.d / "t1.pbm", self.d / "t2.pbm"
        return [
            runner.call("binarize-t1", self._argv(self.d / "page.pgm", t1, 1), [t1]),
            runner.call(f"binarize-t{self.threads2}", self._argv(self.d / "page.pgm", t2, self.threads2), [t2]),
        ]

    def judge_mask(self, ink: np.ndarray) -> str:
        """Empty if the mask agrees with the float64 reference outside the band."""
        if ink.shape != self.ref_out.shape:
            return f"mask is {ink.shape[1]}x{ink.shape[0]}, page is {self.ref_out.shape[1]}x{self.ref_out.shape[0]}"
        bad = (ink != (self.ref_out < 0)) & (np.abs(self.ref_out) >= BAND_TOL)
        if bad.any():
            return f"{int(bad.sum())} mask pixels disagree with the float64 reference outside |out| < {BAND_TOL}"
        return ""

    def check(self, ops):
        for op in ops:
            if not op.ok:
                continue
            path = next(iter(op.outputs))
            reason = self._verdict(op.outputs[path], lambda: self.judge_mask(pnm.read_p4(path)))
            if reason:
                op.fail(reason)
            # every thread count and every round must give the first --threads 1 mask
            self._same_as_first(op, path, "binarize-t1")

    def details(self, ops):
        t1 = [op.seconds for op in _by_label(ops, "binarize-t1")]
        t2 = [op.seconds for op in _by_label(ops, f"binarize-t{self.threads2}")]
        return {
            "binarize_mpx_s": _metric(self.mpx / statistics.median(t1), "Mpx/s"),
            "binarize_mpx_s_t2": _metric(self.mpx / statistics.median(t2), "Mpx/s"),
            "page": f"{self.ref['width']}x{self.ref['height']} P5",
            "threads2": self.threads2,
            "band_tol": BAND_TOL,
            "band_px_frac": float(np.mean(np.abs(self.ref_out) < BAND_TOL)),
        }


# ---------------------------------------------------------------------------
# train-warm
# ---------------------------------------------------------------------------


class TrainWarm(Workload):
    def __init__(self, d: Path, seed: int):
        super().__init__(d)
        self.seed = seed

    def _argv(self, data, out, history):
        return ["train", "--data", data, "--mode", "fused", "--init", self.d / "init.bnet",
                "--epochs", 1, "--batch", 1, "--seed", self.seed, "--out", out, "--history", history]

    def warmup(self, runner):
        d = self.d
        return [runner.call("warmup", self._argv(d / "warm_data", d / "warm.bnet", d / "warm_history.json"))]

    def round(self, runner):
        out, history = self.d / "trained.bnet", self.d / "history.json"
        return [runner.call("train", self._argv(self.d / "data", out, history), [out, history])]

    @staticmethod
    def judge_history(losses) -> str:
        if not isinstance(losses, list) or len(losses) != 1:
            return f"expected one epoch loss, got {losses!r}"
        if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in losses):
            return f"non-finite loss in {losses}"
        return ""

    def judge_model(self, model) -> str:
        expected = self.ref["init_step"] + self.ref["steps"]
        if model.step != expected:
            return f"step counter {model.step}, expected {expected}"
        for name, arr in model.named_tensors():
            if not np.isfinite(arr).all():
                return f"{name} holds non-finite values"
            same = hashlib.sha256(arr.tobytes()).hexdigest() == self.ref["init_digests"].get(name)
            if name.endswith(".conv.weight") and same:
                return f"{name} is unchanged from the init weights"
        return ""

    def check(self, ops):
        binet = sys.modules["scrollbin.binet"]
        for op in ops:
            if not op.ok:
                continue
            out, history = list(op.outputs)
            reason = self.judge_history(json.loads(Path(history).read_text()))
            reason = reason or self._verdict(op.outputs[out], lambda: self.judge_model(binet.load_weights(out)))
            if reason:
                op.fail(reason)

    def details(self, ops):
        steps = self.ref["steps"]
        return {
            "train_step_s": _metric(statistics.median(op.seconds for op in ops) / steps, "s"),
            "steps_per_call": steps,
            "pages": " + ".join(f"{w}x{h}" for h, w in TRAIN_PAGES) + " P6 with P4 ground truth",
        }


# ---------------------------------------------------------------------------
# classical-eval
# ---------------------------------------------------------------------------

METHODS = ("otsu", "otsu-local", "niblack", "sauvola")


def _number(value) -> float:
    return math.inf if value == "inf" else float(value)


def _close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=METRIC_RTOL, abs_tol=1e-12)


class ClassicalEval(Workload):
    def __init__(self, d: Path):
        super().__init__(d)
        self.page = np.load(d / "page.npy")
        self.gt = pnm.read_p4(d / "gt.pbm")
        self.mpx = self.page.size / 1e6
        self.masks = {m: d / f"{m}.pbm" for m in METHODS}
        self.manifest = d / "pairs.tsv"
        self.manifest.write_text("".join(f"{self.masks[m]}\t{d / 'gt.pbm'}\n" for m in METHODS))
        self._oracles = _load_oracles()

    def warmup(self, runner):
        d = self.d
        ops = [
            runner.call("warmup", ["baseline", "--method", m, "--input", d / "warm.pgm", "--out", d / "warm.pbm"])
            for m in METHODS
        ]
        ops.append(runner.call("warmup", ["evaluate", "--pred", d / "warm.pbm", "--gt", d / "warm_gt.pbm"]))
        return ops

    def round(self, runner):
        ops = [
            runner.call(f"baseline-{m}", ["baseline", "--method", m, "--input", self.d / "page.pgm",
                                          "--out", self.masks[m]], [self.masks[m]])
            for m in METHODS
        ]
        ops.append(runner.call("evaluate-set", ["evaluate-set", "--pairs", self.manifest, "--json"],
                               list(self.masks.values())))
        return ops

    def judge_baseline(self, method: str, ink: np.ndarray) -> str:
        if ink.shape != self.page.shape:
            return f"mask shape {ink.shape} differs from page shape {self.page.shape}"
        if method == "otsu":
            t = self.ref["otsu_threshold"]
            expected = self.page <= t if t is not None else np.zeros_like(ink)
            if not np.array_equal(ink, expected):
                return f"otsu mask differs from the exact oracle (threshold {t}) at {int((ink != expected).sum())} px"
        if method == "otsu-local":
            for y, x, want in self.ref["otsu_local_samples"]:
                if ink[y, x] != want:
                    return f"otsu-local pixel ({x}, {y}) is {bool(ink[y, x])}, exact oracle says {want}"
        return ""

    def oracle_scores(self, pred: np.ndarray, gt: np.ndarray, with_pf: bool) -> dict:
        o = self._oracles
        scores = {"f": o.naive_f_measure(pred, gt), "psnr": o.naive_psnr(pred, gt), "drd": o.naive_drd(pred, gt)}
        if with_pf:
            scores["pf"] = o.naive_pseudo_f(pred, gt)
        return scores

    def judge_report(self, stdout: str, pairs: list, with_pf: bool) -> str:
        """Compare an evaluate-set --json report with the naive oracles.

        pairs lists (pred path, pred ink, gt ink) in manifest order. Pseudo-F
        is compared only where with_pf is set, because its naive oracle is
        quadratic in the pixel count.
        """
        report = json.loads(stdout)
        images = report["images"]
        if len(images) != len(pairs):
            return f"report has {len(images)} images, manifest {len(pairs)}"
        for entry, (path, pred, gt) in zip(images, pairs):
            if entry["pred"] != str(path):
                return f"report entry {entry['pred']} out of manifest order"
            for key, want in self.oracle_scores(pred, gt, with_pf).items():
                if not _close(_number(entry[key]), want):
                    return f"{key} of {Path(path).name} is {entry[key]}, naive oracle says {want}"
            if not 0.0 <= _number(entry["pf"]) <= 1.0:
                return f"pf of {Path(path).name} is {entry['pf']}, outside [0, 1]"
        for key in ("f", "pf", "psnr", "drd"):
            values = [_number(e[key]) for e in images]
            if key == "psnr":
                values = [v for v in values if math.isfinite(v)]
            if not values:
                continue
            if not all(math.isfinite(v) for v in values):  # e.g. drd with no mixed 8x8 block
                if math.isfinite(_number(report["mean"][key])):
                    return f"aggregate {key} is finite over non-finite values {values}"
                continue
            mean = statistics.fmean(values)
            std = statistics.stdev(values) if len(values) > 1 else 0.0
            if not (_close(_number(report["mean"][key]), mean) and _close(_number(report["std"][key]), std)):
                return f"aggregate {key} is {report['mean'][key]} +- {report['std'][key]}, expected {mean} +- {std}"
        return ""

    def _page_pairs(self) -> list:
        return [(self.masks[m], pnm.read_p4(self.masks[m]), self.gt) for m in METHODS]

    def check(self, ops):
        for op in ops:
            if not op.ok:
                continue
            if op.label == "evaluate-set":
                key = hashlib.sha256((op.stdout + repr(sorted(op.outputs.items()))).encode()).hexdigest()
                reason = self._verdict(key, lambda: self.judge_report(op.stdout, self._page_pairs(), False))
            else:
                method = op.label.removeprefix("baseline-")
                path = next(iter(op.outputs))
                reason = self._verdict(op.outputs[path], lambda: self.judge_baseline(method, pnm.read_p4(path)))
                self._same_as_first(op, path)
            if reason:
                op.fail(reason)

    def extra_ops(self, runner):
        """evaluate-set on a small crop, where pseudo-F has a naive oracle too."""
        size = self.ref["crop"]
        y, x = self.ref["crop_origin"]
        gt = self.gt[y : y + size, x : x + size]
        gt_path = self.d / "crop_gt.pbm"
        pnm.write_p4(gt_path, gt)
        pairs, lines = [], []
        for m in METHODS:
            pred = pnm.read_p4(self.masks[m])[y : y + size, x : x + size]
            path = self.d / f"crop_{m}.pbm"
            pnm.write_p4(path, pred)
            pairs.append((path, pred, gt))
            lines.append(f"{path}\t{gt_path}\n")
        manifest = self.d / "crops.tsv"
        manifest.write_text("".join(lines))
        op = runner.call("evaluate-set-crops", ["evaluate-set", "--pairs", manifest, "--json"])
        if op.ok:
            reason = self._verdict("crops", lambda: self.judge_report(op.stdout, pairs, True))
            if reason:
                op.fail(reason)
        return [op]

    def details(self, ops):
        out = {}
        for m in METHODS:
            seconds = [op.seconds for op in _by_label(ops, f"baseline-{m}")]
            out[f"baseline_{m.replace('-', '_')}_mpx_s"] = _metric(self.mpx / statistics.median(seconds), "Mpx/s")
        seconds = [op.seconds for op in _by_label(ops, "evaluate-set")]
        out["evaluate_set_mpx_s"] = _metric(len(METHODS) * self.mpx / statistics.median(seconds), "Mpx/s")
        out["page"] = f"{self.page.shape[1]}x{self.page.shape[0]} plain P2"
        return out


def _load_oracles():
    tests = str(Path(__file__).resolve().parent.parent / "tests")
    if tests not in sys.path:
        sys.path.insert(0, tests)
    import oracles

    return oracles


def make(name: str, d: Path, seed: int, threads2: int) -> Workload:
    if name == PAGE_BINARIZE:
        return PageBinarize(d, threads2)
    if name == TRAIN_WARM:
        return TrainWarm(d, seed)
    return ClassicalEval(d)
