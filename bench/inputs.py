"""Seeded input generation for the benchmark workloads.

Run as a child process of run.py (`python3 bench/inputs.py --workload W
--seed N --dir D`), so building models and computing the oracle references
never count toward the measuring process's time or peak memory. Everything
written depends only on the workload and the seed. Besides the program's
inputs it writes what the checks compare against: `ref.json` with the
oracle answers, the float64 reference output `ref_out.npy` (page-binarize)
and the page pixels `page.npy` (classical-eval).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

import pnm
import reference

PAGE_BINARIZE = "page-binarize"
TRAIN_WARM = "train-warm"
CLASSICAL_EVAL = "classical-eval"
WORKLOADS = (PAGE_BINARIZE, TRAIN_WARM, CLASSICAL_EVAL)

# Page sizes: none is a multiple of 256, so edge tiles carry padding.
BINARIZE_PAGE = (440, 600)  # (height, width): 2 x 3 patches
BINARIZE_WARM_PAGE = (150, 200)
TRAIN_PAGES = ((200, 300), (290, 220))  # 1 x 2 and 2 x 1 patches: 4 steps per epoch
TRAIN_WARM_PAGE = (180, 200)
TRAIN_INIT_STEP = 1000  # lifetime step counter of the warm-start checkpoint
CLASSICAL_PAGE = (250, 330)
CLASSICAL_WARM_PAGE = (48, 64)
STROKES_PER_MPX = 45 / 0.065536  # the stroke density of tests/conftest.py::make_text_patch
OTSU_LOCAL_SAMPLES = 12  # pixels checked against the exact per-window Otsu oracle
CROP = 28  # side of the crop whose pseudo-F is checked against the naive oracle


def _strokes(rng: np.random.Generator, height: int, width: int):
    """Ink layout and per-pixel ink shade of a synthetic handwritten page."""
    ink = np.zeros((height, width), dtype=bool)
    shade = np.zeros((height, width))
    for _ in range(int(round(STROKES_PER_MPX * height * width / 1e6))):
        thickness = int(rng.integers(3, 10))
        length = int(rng.integers(20, 70))
        y = int(rng.integers(0, height - thickness))
        x = int(rng.integers(0, width - thickness))
        value = float(rng.integers(25, 70))
        if rng.random() < 0.5:
            box = (slice(y, y + thickness), slice(x, min(width, x + length)))
        else:
            box = (slice(y, min(height, y + length)), slice(x, x + thickness))
        ink[box] = True
        shade[box] = value
    return ink, shade


def _band(rng, ink, shade, background: float, fade: float) -> np.ndarray:
    """One 8-bit capture: textured background, ink `fade` levels lighter than its shade."""
    img = rng.normal(background, 8.0, ink.shape)
    img[ink] = shade[ink] + fade
    return np.clip(img + rng.normal(0.0, 4.0, ink.shape), 0, 255).astype(np.uint8)


def text_page(rng, height: int, width: int):
    """Grayscale page and its ground-truth ink, like make_text_patch at page size."""
    ink, shade = _strokes(rng, height, width)
    return _band(rng, ink, shade, 205.0, 0.0), ink


def fused_page(rng, height: int, width: int):
    """3-band pseudo-colour page stacked by scrollbin.fusion.fuse_bands.

    The bands stand for 595, 924 and 638 nm: the infrared band shows the ink
    faintest, as iron-gall ink does.
    """
    from scrollbin import fusion
    from scrollbin.imagecore import GrayImage

    ink, shade = _strokes(rng, height, width)
    bands = [
        GrayImage(_band(rng, ink, shade, background, fade))
        for background, fade in ((205.0, 0.0), (190.0, 60.0), (200.0, 25.0))
    ]
    return fusion.fuse_bands(*bands).pixels, ink


def _model(path: Path, in_channels: int, seed: int, step: int = 0):
    from scrollbin import binet

    model = binet.build_model(in_channels, seed)
    model.step = step
    binet.save_weights(model, path)
    return model


def _tensor_digests(model) -> dict:
    return {name: hashlib.sha256(arr.tobytes()).hexdigest() for name, arr in model.named_tensors()}


def make_page_binarize(d: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 1])
    page, _ = text_page(rng, *BINARIZE_PAGE)
    pnm.write_raw(d / "page.pgm", page)
    warm, _ = text_page(rng, *BINARIZE_WARM_PAGE)
    pnm.write_raw(d / "warm.pgm", warm)
    _model(d / "model.bnet", 1, seed)
    _, _, tensors = reference.read_bnet(d / "model.bnet")
    np.save(d / "ref_out.npy", reference.reference_output(tensors, page))
    (d / "ref.json").write_text(json.dumps({"height": page.shape[0], "width": page.shape[1]}))


def make_train_warm(d: Path, seed: int) -> None:
    rng = np.random.default_rng([seed, 2])
    for sub, sizes in (("data", TRAIN_PAGES), ("warm_data", (TRAIN_WARM_PAGE,))):
        (d / sub).mkdir()
        for k, (h, w) in enumerate(sizes):
            pixels, ink = fused_page(rng, h, w)
            pnm.write_raw(d / sub / f"page{k}.ppm", pixels)
            pnm.write_p4(d / sub / f"page{k}.gt.pbm", ink)
    model = _model(d / "init.bnet", 3, seed, TRAIN_INIT_STEP)
    patches = sum(-(-h // 256) * -(-w // 256) for h, w in TRAIN_PAGES)
    ref = {
        "init_step": TRAIN_INIT_STEP,
        "steps": patches,
        "init_digests": _tensor_digests(model),
    }
    (d / "ref.json").write_text(json.dumps(ref))


def _crop_origin(rng, ink: np.ndarray) -> list:
    """A seeded crop holding 10-35% ink: both classes, and small enough work
    for the naive pseudo-F oracle, which is quadratic in the pixel count."""
    h, w = ink.shape
    while True:
        y, x = int(rng.integers(0, h - CROP)), int(rng.integers(0, w - CROP))
        if 0.1 <= ink[y : y + CROP, x : x + CROP].mean() <= 0.35:
            return [y, x]


def make_classical_eval(d: Path, seed: int) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))
    import oracles

    rng = np.random.default_rng([seed, 3])
    page, ink = text_page(rng, *CLASSICAL_PAGE)
    pnm.write_p2(d / "page.pgm", page)
    np.save(d / "page.npy", page)
    pnm.write_p4(d / "gt.pbm", ink)
    warm, warm_ink = text_page(rng, *CLASSICAL_WARM_PAGE)
    pnm.write_p2(d / "warm.pgm", warm)
    pnm.write_p4(d / "warm_gt.pbm", warm_ink)

    from scrollbin.classical import DEFAULT_WINDOW

    half = DEFAULT_WINDOW // 2
    h, w = page.shape
    samples = []
    for y, x in zip(rng.integers(0, h, OTSU_LOCAL_SAMPLES), rng.integers(0, w, OTSU_LOCAL_SAMPLES)):
        window = page[max(0, y - half) : y + half + 1, max(0, x - half) : x + half + 1]
        t = oracles.otsu_exact(window)
        samples.append([int(y), int(x), bool(t is not None and page[y, x] <= t)])
    ref = {
        "height": h,
        "width": w,
        "otsu_threshold": oracles.otsu_exact(page),
        "otsu_local_samples": samples,
        "crop": CROP,
        "crop_origin": _crop_origin(rng, ink),
    }
    (d / "ref.json").write_text(json.dumps(ref))


MAKERS = {
    PAGE_BINARIZE: make_page_binarize,
    TRAIN_WARM: make_train_warm,
    CLASSICAL_EVAL: make_classical_eval,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args(argv)
    d = Path(args.dir)
    d.mkdir(parents=True, exist_ok=True)
    MAKERS[args.workload](d, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
