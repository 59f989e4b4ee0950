"""Command-line entry point: every pipeline stage as one subcommand.

Exit codes: 0 success, 1 usage error (bad flags/subcommand), 2 data error
(unreadable or malformed inputs, shape mismatches, violated preconditions).
Progress and log lines go to stderr; stdout carries only machine-readable
results. All randomness flows through --seed, so identical invocations give
byte-identical outputs regardless of --threads.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import binet, classical, fusion, groundtruth, metrics, tiling
from .errors import ScrollbinError
from .imagecore import BinaryMask, GrayImage, RgbImage, read_pnm, to_grayscale, write_pnm

THREADS_ENV = "SCROLLBIN_THREADS"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(message: str):
    print(message, file=sys.stderr)


def _read_gray(path) -> GrayImage:
    img = read_pnm(path)
    if isinstance(img, RgbImage):
        return to_grayscale(img)
    if isinstance(img, GrayImage):
        return img
    raise ScrollbinError(f"{path}: expected a grayscale or color image, got a bitmask")


def _read_mask(path) -> BinaryMask:
    img = read_pnm(path)
    if not isinstance(img, BinaryMask):
        raise ScrollbinError(f"{path}: expected a PBM bitmask")
    return img


def _threads(flag: int | None) -> int:
    """--threads if given, else SCROLLBIN_THREADS, else 1; never below 1."""
    env = os.environ.get(THREADS_ENV)
    if flag is None and env:
        try:
            flag = int(env)
        except ValueError:
            raise _UsageError(f"{THREADS_ENV} must be an integer, got {env!r}") from None
    return max(1, flag or 1)


def _format_metric(value: float) -> str:
    return "inf" if math.isinf(value) else f"{value:.6f}"


def _json_value(value):
    if value is None:
        return None
    return "inf" if math.isinf(value) else value


def _scores_dict(scores: metrics.ImageScores) -> dict:
    return {
        "f": _json_value(scores.f),
        "pf": _json_value(scores.pf),
        "psnr": _json_value(scores.psnr),
        "drd": _json_value(scores.drd),
    }


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    bands = {}
    for name in ("r", "g", "b"):
        img = read_pnm(getattr(args, name))
        if not isinstance(img, GrayImage):
            raise ScrollbinError(f"band --{name} must be a grayscale image")
        bands[name] = img
    fused = fusion.fuse_bands(bands["r"], bands["g"], bands["b"])
    write_pnm(fused, args.out)
    return 0


def _cmd_tile(args) -> int:
    img = read_pnm(args.input)
    grid = tiling.split(img, args.patch, args.pad)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for r in range(grid.rows):
        for c in range(grid.cols):
            write_pnm(grid.patch_at(r, c), outdir / f"r{r}_c{c}.pnm")
    _log(f"wrote {grid.rows * grid.cols} patches ({grid.rows}x{grid.cols}) to {outdir}")
    return 0


def _cmd_untile(args) -> int:
    indir = Path(args.indir)
    first = indir / "r0_c0.pnm"
    if not first.exists():
        raise ScrollbinError(f"{first}: missing first patch")
    sample = read_pnm(first)
    patch = sample.width
    if sample.height != patch:
        raise ScrollbinError(f"patches must be square, got {sample.width}x{sample.height}")
    rows = -(-args.height // patch)
    cols = -(-args.width // patch)
    patches = []
    for r in range(rows):
        for c in range(cols):
            patches.append(read_pnm(indir / f"r{r}_c{c}.pnm"))
    grid = tiling.PatchGrid(patch, rows, cols, args.width, args.height, patches)
    write_pnm(tiling.reassemble(grid), args.out)
    return 0


def _cmd_baseline(args) -> int:
    img = _read_gray(args.input)
    if args.method == "otsu":
        threshold, mask = classical.otsu_global(img)
        _log(f"otsu threshold: {threshold}")
    elif args.method == "otsu-local":
        mask = classical.otsu_local(img, args.window)
    elif args.method == "niblack":
        k = args.k if args.k is not None else classical.NIBLACK_K
        mask = classical.niblack(img, args.window, k)
    else:  # sauvola
        k = args.k if args.k is not None else classical.SAUVOLA_K
        mask = classical.sauvola(img, args.window, k, args.bigr)
    write_pnm(mask, args.out)
    return 0


def _cmd_make_gt(args) -> int:
    img = read_pnm(args.marked)
    if not isinstance(img, RgbImage):
        raise ScrollbinError(f"{args.marked}: marked overlay must be a color image")
    mask = groundtruth.extract_gt(img, args.rmin, args.gmax, args.bmax)
    write_pnm(mask, args.out)
    return 0


def _load_pairs(data_dir: str, mode: str, patch: int):
    """Collect (image patch, mask patch) pairs from <stem>.(pgm|ppm) + <stem>.gt.pbm."""
    root = Path(data_dir)
    if not root.is_dir():
        raise ScrollbinError(f"{data_dir}: not a directory")
    stems = sorted(p for p in root.iterdir() if p.suffix in (".pgm", ".ppm"))
    if not stems:
        raise ScrollbinError(f"{data_dir}: no .pgm/.ppm training images found")

    pairs = []
    for img_path in stems:
        gt_path = img_path.with_suffix(".gt.pbm")
        if not gt_path.exists():
            raise ScrollbinError(f"{img_path.name}: missing ground truth {gt_path.name}")
        img = read_pnm(img_path)
        if isinstance(img, BinaryMask):
            raise ScrollbinError(f"{img_path.name}: training image cannot be a bitmask")
        if mode == "gray":
            if isinstance(img, RgbImage):
                img = to_grayscale(img)
        elif isinstance(img, GrayImage):
            raise ScrollbinError(f"{img_path.name}: mode {mode} needs 3-channel images")
        gt = _read_mask(gt_path)
        if (gt.width, gt.height) != (img.width, img.height):
            raise ScrollbinError(f"{img_path.name}: ground truth dimensions differ from image")
        img_grid = tiling.split(img, patch)
        gt_grid = tiling.split(gt, patch)
        pairs.extend(zip(img_grid.patches, gt_grid.patches))
    return pairs


def _cmd_train(args) -> int:
    init = binet.load_weights(args.init) if args.init else None
    patch = init.patch if init else 256
    pairs = _load_pairs(args.data, args.mode, patch)

    if not 0.0 <= args.holdout < 1.0:
        raise ScrollbinError(f"--holdout must be in [0, 1), got {args.holdout}")
    holdout_pairs = []
    if args.holdout > 0:
        rng = np.random.default_rng(args.seed)
        order = rng.permutation(len(pairs))
        n_hold = int(round(args.holdout * len(pairs)))
        if n_hold >= len(pairs):
            raise ScrollbinError("--holdout leaves no training patches")
        holdout_pairs = [pairs[i] for i in order[:n_hold]]
        pairs = [pairs[i] for i in order[n_hold:]]

    cfg = binet.TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed, batch_size=args.batch)
    in_channels = 1 if args.mode == "gray" else 3
    model, history = binet.train(pairs, cfg, init=init, in_channels=in_channels)
    for epoch, loss in enumerate(history, start=1):
        _log(f"epoch {epoch}: loss {loss:.6f}")

    if holdout_pairs:
        losses = []
        for img, mask in holdout_pairs:
            out = binet.forward(model, binet.normalize_input(img))
            loss, _ = binet.l1_loss(out, binet.mask_to_target(mask))
            losses.append(loss)
        _log(f"holdout loss over {len(losses)} patches: {float(np.mean(losses)):.6f}")

    binet.save_weights(model, args.out)
    if args.history:
        with open(args.history, "w") as fh:
            json.dump(history, fh)
    _log(f"saved model to {args.out} after {model.step} total steps")
    return 0


def _cmd_binarize(args) -> int:
    model = binet.load_weights(args.model)
    img = read_pnm(args.input)
    if isinstance(img, BinaryMask):
        raise ScrollbinError(f"{args.input}: input is already a bitmask")
    if isinstance(img, RgbImage) and model.in_channels == 1:
        img = to_grayscale(img)
    mask = binet.binarize_image(model, img)
    write_pnm(mask, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    scores = metrics.evaluate(_read_mask(args.pred), _read_mask(args.gt))
    if args.json:
        print(json.dumps(_scores_dict(scores)))
    else:
        for key in ("f", "pf", "psnr", "drd"):
            print(f"{key} {_format_metric(getattr(scores, key))}")
    return 0


def _cmd_evaluate_set(args) -> int:
    entries = []
    with open(args.pairs) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2:
                raise ScrollbinError(f"{args.pairs}:{lineno}: expected 'pred<TAB>gt'")
            entries.append(parts)
    if not entries:
        raise ScrollbinError(f"{args.pairs}: empty manifest")

    def score(entry):
        pred_path, gt_path = entry
        return metrics.evaluate(_read_mask(pred_path), _read_mask(gt_path))

    if args.threads > 1:
        with ThreadPoolExecutor(max_workers=args.threads) as pool:
            records = list(pool.map(score, entries))
    else:
        records = [score(e) for e in entries]

    report = metrics.aggregate(records)
    payload = {
        "images": [
            {"pred": pred, "gt": gt, **_scores_dict(rec)}
            for (pred, gt), rec in zip(entries, records)
        ],
        "mean": {k: _json_value(report.mean[k]) for k in ("f", "pf", "psnr", "drd")},
        "std": {k: _json_value(report.std[k]) for k in ("f", "pf", "psnr", "drd")},
        "psnr_inf_count": report.psnr_inf_count,
    }
    if args.json:
        print(json.dumps(payload))
    else:
        for key in ("f", "pf", "psnr", "drd"):
            mean = payload["mean"][key]
            std = payload["std"][key]
            mean_s = "n/a" if mean is None else (mean if isinstance(mean, str) else f"{mean:.6f}")
            std_s = "n/a" if std is None else (std if isinstance(std, str) else f"{std:.6f}")
            print(f"{key} {mean_s} +- {std_s}")
        print(f"psnr_inf_count {report.psnr_inf_count}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="scrollbin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("fuse", help="stack three grayscale band images into an RGB image")
    p.add_argument("--r", required=True, help="band for the R channel (595 nm by convention)")
    p.add_argument("--g", required=True, help="band for the G channel (924 nm by convention)")
    p.add_argument("--b", required=True, help="band for the B channel (638 nm by convention)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("tile", help="split an image into fixed-size patches")
    p.add_argument("--input", required=True)
    p.add_argument("--patch", type=int, default=256)
    p.add_argument("--pad", choices=tiling.PAD_MODES, default="replicate")
    p.add_argument("--outdir", required=True)
    p.set_defaults(func=_cmd_tile)

    p = sub.add_parser("untile", help="reassemble patches written by tile")
    p.add_argument("--indir", required=True)
    p.add_argument("--width", type=int, required=True)
    p.add_argument("--height", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_untile)

    p = sub.add_parser("baseline", help="classical thresholding binarization")
    p.add_argument("--method", required=True, choices=("otsu", "otsu-local", "niblack", "sauvola"))
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--window", type=int, default=classical.DEFAULT_WINDOW)
    p.add_argument("--k", type=float, default=None, help="niblack/sauvola k (method default if omitted)")
    p.add_argument("--bigr", type=float, default=classical.SAUVOLA_R, help="sauvola dynamic range R")
    p.set_defaults(func=_cmd_baseline)

    p = sub.add_parser("make-gt", help="convert a red-overlay labeling into a PBM ground truth")
    p.add_argument("--marked", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rmin", type=int, default=groundtruth.RED_MIN)
    p.add_argument("--gmax", type=int, default=groundtruth.GREEN_MAX)
    p.add_argument("--bmax", type=int, default=groundtruth.BLUE_MAX)
    p.set_defaults(func=_cmd_make_gt)

    p = sub.add_parser("train", help="train a model on <stem>.(pgm|ppm) + <stem>.gt.pbm pairs")
    p.add_argument("--data", required=True)
    p.add_argument("--mode", required=True, choices=("gray", "color", "fused"))
    p.add_argument("--epochs", type=int, default=200)
    p.add_argument("--lr", type=float, default=2e-4)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--batch", type=int, default=1)
    p.add_argument("--holdout", type=float, default=0.0, help="fraction of patches held out")
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None, help="warm-start from an existing weights file")
    p.add_argument("--history", default=None, help="write per-epoch losses as JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("binarize", help="binarize an image with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted and ignored: patches run serially, BLAS already uses every core")
    p.set_defaults(func=_cmd_binarize)

    p = sub.add_parser("evaluate", help="score a prediction against a ground truth")
    p.add_argument("--pred", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("evaluate-set", help="score a manifest of pred<TAB>gt pairs")
    p.add_argument("--pairs", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.set_defaults(func=_cmd_evaluate_set)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if "threads" in vars(args):
            args.threads = _threads(args.threads)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    if getattr(args, "func", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ScrollbinError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
