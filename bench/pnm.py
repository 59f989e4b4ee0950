"""PNM encoders and a PBM (P4) decoder owned by the benchmark.

The benchmark writes its inputs and reads the program's masks with these,
not with scrollbin.imagecore, so the bytes it feeds the program never change
when the program's codecs do, and a codec bug cannot hide in its own check.
"""

from __future__ import annotations

import numpy as np

_SPACE = b" \t\r\n\v\f"


def write_raw(path, pixels: np.ndarray) -> None:
    """Raw graymap (P5) for a 2-D array, raw pixmap (P6) for (h, w, 3)."""
    h, w = pixels.shape[:2]
    with open(path, "wb") as fh:
        fh.write(b"%s\n%d %d\n255\n" % (b"P5" if pixels.ndim == 2 else b"P6", w, h))
        fh.write(np.ascontiguousarray(pixels, dtype=np.uint8).tobytes())


def write_p2(path, pixels: np.ndarray) -> None:
    """Plain (ASCII) graymap, one image row per line."""
    h, w = pixels.shape
    rows = "\n".join(" ".join(map(str, row)) for row in pixels.tolist())
    with open(path, "wb") as fh:
        fh.write(b"P2\n%d %d\n255\n" % (w, h))
        fh.write(rows.encode("ascii") + b"\n")


def write_p4(path, ink: np.ndarray) -> None:
    h, w = ink.shape
    with open(path, "wb") as fh:
        fh.write(b"P4\n%d %d\n" % (w, h))
        fh.write(np.packbits(ink.astype(bool), axis=1).tobytes())


def read_p4(path) -> np.ndarray:
    """Decode a raw PBM into a bool array (True = ink = bit 1).

    Raises ValueError on anything that is not a well-formed P4 file.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] != b"P4":
        raise ValueError(f"{path}: not a P4 file")
    pos, fields = 2, []
    while len(fields) < 2:
        while pos < len(data) and (data[pos : pos + 1] in _SPACE or data[pos : pos + 1] == b"#"):
            if data[pos : pos + 1] == b"#":
                nl = data.find(b"\n", pos)
                pos = len(data) if nl < 0 else nl
            pos += 1
        start = pos
        while pos < len(data) and data[pos : pos + 1].isdigit():
            pos += 1
        if start == pos:
            raise ValueError(f"{path}: bad P4 header")
        fields.append(int(data[start:pos]))
    width, height = fields
    pos += 1  # the single whitespace byte before the payload
    row_bytes = (width + 7) // 8
    payload = np.frombuffer(data, dtype=np.uint8, offset=pos)
    if payload.size != row_bytes * height:
        raise ValueError(f"{path}: payload is {payload.size} bytes, expected {row_bytes * height}")
    return np.unpackbits(payload.reshape(height, row_bytes), axis=1, count=width).astype(bool)
