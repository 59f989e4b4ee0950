import numpy as np
import pytest

from scrollbin.imagecore import BinaryMask, GrayImage


def make_text_patch(rng: np.random.Generator, size: int = 256, strokes: int = 45):
    """Synthetic handwriting-like patch: dark bars on a lightly textured field."""
    background = np.clip(rng.normal(205.0, 8.0, (size, size)), 0, 255)
    ink = np.zeros((size, size), dtype=bool)
    image = background.copy()
    for _ in range(strokes):
        thickness = int(rng.integers(3, 10))
        length = int(rng.integers(20, 70))
        y = int(rng.integers(0, size - thickness))
        x = int(rng.integers(0, size - thickness))
        shade = float(rng.integers(25, 70))
        if rng.random() < 0.5:
            x_end = min(size, x + length)
            ink[y : y + thickness, x:x_end] = True
            image[y : y + thickness, x:x_end] = shade
        else:
            y_end = min(size, y + length)
            ink[y:y_end, x : x + thickness] = True
            image[y:y_end, x : x + thickness] = shade
    image = np.clip(image + rng.normal(0.0, 4.0, (size, size)), 0, 255)
    return GrayImage(image.astype(np.uint8)), BinaryMask(ink)


def stroke_ink(rng: np.random.Generator, height: int, width: int, strokes: int) -> np.ndarray:
    """Ground-truth ink of bars 3-9 px thick, like a page of handwriting."""
    ink = np.zeros((height, width), dtype=bool)
    for _ in range(strokes):
        t, length = int(rng.integers(3, 10)), int(rng.integers(20, 70))
        y, x = int(rng.integers(0, height - t)), int(rng.integers(0, width - t))
        if rng.random() < 0.5:
            ink[y : y + t, x : x + length] = True
        else:
            ink[y : y + length, x : x + t] = True
    return ink


@pytest.fixture(scope="session")
def text_dataset():
    """Four deterministic synthetic text patches with ground truth."""
    rng = np.random.default_rng(20240527)
    return [make_text_patch(rng) for _ in range(4)]
