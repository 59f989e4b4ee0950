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

# The name of each kind of page, as the readers' messages give it.
_KINDS = {BinaryMask: "a bitmask", GrayImage: "a grayscale image", RgbImage: "a color image"}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _log(message: str):
    print(message, file=sys.stderr)


def _read(path, kind: type):
    """The file at path, which must decode to kind: another kind is a data error."""
    img = read_pnm(path)
    if not isinstance(img, kind):
        raise ScrollbinError(f"{path}: expected {_KINDS[kind]}, got {_KINDS[type(img)]}")
    return img


def _read_image(path, channels: int) -> GrayImage | RgbImage:
    """The page at path as a `channels`-channel image: color becomes gray
    when 1 channel is asked for. A bitmask, or a gray page where 3 channels
    are asked for, is a data error."""
    img = read_pnm(path)
    if isinstance(img, RgbImage) and channels == 1:
        img = to_grayscale(img)
    if isinstance(img, BinaryMask) or img.channels != channels:
        need = "a grayscale or color image" if channels == 1 else _KINDS[RgbImage]
        raise ScrollbinError(f"{path}: expected {need}, got {_KINDS[type(img)]}")
    return img


def _patch_path(directory, r: int, c: int) -> Path:
    """Where tile writes, and untile reads, the patch at row r and column c."""
    return Path(directory) / f"r{r}_c{c}.pnm"


def _thread_count(text: str) -> int:
    """The --threads type: an integer of at least 1."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if count < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {count}")
    return count


def _score_text(value: float | None) -> str:
    """A score as printed: n/a when it has no value, inf, or six decimals."""
    if value is None:
        return "n/a"
    return "inf" if math.isinf(value) else f"{value:.6f}"


def _json_value(value):
    if value is None:
        return None
    return "inf" if math.isinf(value) else value


def _scores_dict(values: dict) -> dict:
    """The scores that values maps by name, as JSON values in SCORES order."""
    return {key: _json_value(values[key]) for key in metrics.SCORES}


# ---------------------------------------------------------------------------
# Subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_fuse(args) -> int:
    fused = fusion.fuse_bands(*(_read(path, GrayImage) for path in (args.r, args.g, args.b)))
    write_pnm(fused, args.out)
    return 0


def _cmd_tile(args) -> int:
    img = read_pnm(args.input)
    grid = tiling.split(img, args.patch, args.pad)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for r in range(grid.rows):
        for c in range(grid.cols):
            write_pnm(grid.patch_at(r, c), _patch_path(outdir, r, c))
    _log(f"wrote {grid.rows * grid.cols} patches ({grid.rows}x{grid.cols}) to {outdir}")
    return 0


def _cmd_untile(args) -> int:
    first = _patch_path(args.indir, 0, 0)
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
            patches.append(read_pnm(_patch_path(args.indir, r, c)))
    grid = tiling.PatchGrid(patch, rows, cols, args.width, args.height, patches)
    write_pnm(tiling.reassemble(grid), args.out)
    return 0


def _cmd_baseline(args) -> int:
    img = _read_image(args.input, 1)
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
    mask = groundtruth.extract_gt(_read(args.marked, RgbImage), args.rmin, args.gmax, args.bmax)
    write_pnm(mask, args.out)
    return 0


def _load_pairs(data_dir: str, channels: int, patch: int):
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
            raise ScrollbinError(f"{img_path}: missing ground truth {gt_path}")
        img = _read_image(img_path, channels)
        gt = _read(gt_path, BinaryMask)
        if (gt.width, gt.height) != (img.width, img.height):
            raise ScrollbinError(
                f"{gt_path}: ground truth is {gt.width}x{gt.height}, image {img_path} is {img.width}x{img.height}"
            )
        img_grid = tiling.split(img, patch)
        gt_grid = tiling.split(gt, patch)
        pairs.extend(zip(img_grid.patches, gt_grid.patches))
    return pairs


def _cmd_train(args) -> int:
    # Flag values are checked before the model and the pages are read.
    if not 0.0 <= args.holdout < 1.0:
        raise ScrollbinError(f"--holdout must be in [0, 1), got {args.holdout}")
    cfg = binet.TrainConfig(epochs=args.epochs, lr=args.lr, seed=args.seed, batch_size=args.batch)

    channels = 1 if args.mode == "gray" else 3
    init = binet.load_weights(args.init) if args.init else None
    if init and init.in_channels != channels:
        raise ScrollbinError(
            f"{args.init}: model takes {init.in_channels} channel(s), --mode {args.mode} gives {channels}"
        )
    patch = init.patch if init else binet.PATCH
    pairs = _load_pairs(args.data, channels, patch)

    holdout_pairs = []
    if args.holdout > 0:
        rng = np.random.default_rng(args.seed)
        order = rng.permutation(len(pairs))
        n_hold = int(round(args.holdout * len(pairs)))
        if n_hold >= len(pairs):
            raise ScrollbinError("--holdout leaves no training patches")
        holdout_pairs = [pairs[i] for i in order[:n_hold]]
        pairs = [pairs[i] for i in order[n_hold:]]

    model, history = binet.train(pairs, cfg, init=init)
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
    # The file's structure is checked here; its values are read stage by stage as the patches run.
    with binet.WeightsFile(args.model) as weights:
        mask = binet.binarize_image(weights, _read_image(args.input, weights.model.in_channels))
    write_pnm(mask, args.out)
    return 0


def _cmd_evaluate(args) -> int:
    scores = metrics.evaluate(_read(args.pred, BinaryMask), _read(args.gt, BinaryMask))
    if args.json:
        print(json.dumps(_scores_dict(vars(scores))))
    else:
        for key in metrics.SCORES:
            print(f"{key} {_score_text(getattr(scores, key))}")
    return 0


def _cmd_evaluate_set(args) -> int:
    entries = []
    with open(args.pairs, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ScrollbinError(f"{args.pairs}:{lineno}: not valid UTF-8") from None
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise ScrollbinError(f"{args.pairs}:{lineno}: expected 'pred<TAB>gt'")
        entries.append(parts)
    if not entries:
        raise ScrollbinError(f"{args.pairs}: empty manifest")

    # Lines sharing a ground-truth path (as written) form one group, which
    # reads and prepares that ground truth once.
    groups: dict[str, list[int]] = {}
    for index, (_, gt_path) in enumerate(entries):
        groups.setdefault(gt_path, []).append(index)

    def score_group(gt_path, indices):
        """Each line's scores, or the error it would raise on its own: a
        pred that fails to read wins over a bad ground truth."""
        try:
            truth = metrics.GroundTruth(_read(gt_path, BinaryMask))
        except (ScrollbinError, OSError) as exc:
            truth = exc
        results = []
        for index in indices:
            try:
                pred = _read(entries[index][0], BinaryMask)
                results.append(truth if isinstance(truth, Exception) else metrics.evaluate(pred, truth))
            except (ScrollbinError, OSError) as exc:
                results.append(exc)
        return results

    workers = min(args.threads, os.cpu_count() or 1, len(groups))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(score_group, groups.keys(), groups.values()))
    else:
        outcomes = [score_group(gt_path, indices) for gt_path, indices in groups.items()]
    records = [None] * len(entries)
    for indices, results in zip(groups.values(), outcomes):
        for index, result in zip(indices, results):
            records[index] = result
    for result in records:  # the first bad line in manifest order is reported
        if isinstance(result, Exception):
            raise result

    report = metrics.aggregate(records)
    if args.json:
        print(json.dumps({
            "images": [{"pred": pred, "gt": gt, **_scores_dict(vars(rec))} for (pred, gt), rec in zip(entries, records)],
            "mean": _scores_dict(report.mean),
            "std": _scores_dict(report.std),
            "psnr_inf_count": report.psnr_inf_count,
        }))
    else:
        for key in metrics.SCORES:
            print(f"{key} {_score_text(report.mean[key])} +- {_score_text(report.std[key])}")
        print(f"psnr_inf_count {report.psnr_inf_count}")
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="scrollbin", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="command", required=True)

    p = sub.add_parser("fuse", help="stack three grayscale band images into an RGB image")
    p.add_argument("--r", required=True, help="band for the R channel (595 nm by convention)")
    p.add_argument("--g", required=True, help="band for the G channel (924 nm by convention)")
    p.add_argument("--b", required=True, help="band for the B channel (638 nm by convention)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("tile", help="split an image into fixed-size patches")
    p.add_argument("--input", required=True)
    p.add_argument("--patch", type=int, default=binet.PATCH)
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
    defaults = binet.TrainConfig()
    p.add_argument("--epochs", type=int, default=defaults.epochs)
    p.add_argument("--lr", type=float, default=defaults.lr)
    p.add_argument("--seed", type=int, default=defaults.seed)
    p.add_argument("--batch", type=int, default=defaults.batch_size)
    p.add_argument("--holdout", type=float, default=0.0, help="fraction of patches held out")
    p.add_argument("--out", required=True)
    p.add_argument("--init", default=None, help="warm-start from an existing weights file")
    p.add_argument("--history", default=None, help="write per-epoch losses as JSON")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("binarize", help="binarize an image with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--threads", type=_thread_count, default=1,
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
    p.add_argument("--threads", type=_thread_count, default=1)
    p.set_defaults(func=_cmd_evaluate_set)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ScrollbinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
