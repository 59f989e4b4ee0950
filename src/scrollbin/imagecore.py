"""Image value types plus bit-exact PNM (P1-P6) codecs and grayscale
conversion.

Pixel storage is numpy, row-major:
  GrayImage.pixels   uint8, shape (height, width)
  RgbImage.pixels    uint8, shape (height, width, 3), interleaved R,G,B
  BinaryMask.ink     bool,  shape (height, width), True = ink = foreground

Polarity is fixed across the codebase: True/1 means ink. In PBM terms ink is
written as bit value 1 (black). Images are treated as immutable after
construction; all functions here return new objects.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PnmDecodeError, ScrollbinError

LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


@dataclass(frozen=True)
class GrayImage:
    """8-bit single-channel raster image."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 2 or p.dtype != np.uint8:
            raise ScrollbinError(f"GrayImage needs a 2-D uint8 array, got {p.dtype} {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ScrollbinError("GrayImage must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True)
class RgbImage:
    """8-bit three-channel raster image."""

    pixels: np.ndarray

    def __post_init__(self):
        p = self.pixels
        if p.ndim != 3 or p.shape[2] != 3 or p.dtype != np.uint8:
            raise ScrollbinError(f"RgbImage needs a (h, w, 3) uint8 array, got {p.dtype} {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ScrollbinError("RgbImage must be at least 1x1")

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    def channel(self, index: int) -> GrayImage:
        """Extract channel 0 (R), 1 (G) or 2 (B) as a grayscale image."""
        return GrayImage(np.ascontiguousarray(self.pixels[:, :, index]))


@dataclass(frozen=True)
class BinaryMask:
    """Per-pixel ink/background labels. True = ink."""

    ink: np.ndarray

    def __post_init__(self):
        p = self.ink
        if p.ndim != 2 or p.dtype != np.bool_:
            raise ScrollbinError(f"BinaryMask needs a 2-D bool array, got {p.dtype} {p.shape}")
        if p.shape[0] < 1 or p.shape[1] < 1:
            raise ScrollbinError("BinaryMask must be at least 1x1")

    @property
    def height(self) -> int:
        return self.ink.shape[0]

    @property
    def width(self) -> int:
        return self.ink.shape[1]


Image = GrayImage | RgbImage | BinaryMask


# ---------------------------------------------------------------------------
# PNM decoding
# ---------------------------------------------------------------------------

_WHITESPACE = b" \t\r\n\v\f"


class _Scanner:
    """Tokenizer over the PNM header; tracks the byte offset for error reports."""

    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def _skip_space_and_comments(self):
        d, n = self.data, len(self.data)
        while self.pos < n:
            c = self.data[self.pos : self.pos + 1]
            if c in (b"#",):
                # comment runs to end of line
                nl = d.find(b"\n", self.pos)
                self.pos = n if nl < 0 else nl + 1
            elif c in _WHITESPACE:
                self.pos += 1
            else:
                return

    def next_token(self) -> bytes:
        self._skip_space_and_comments()
        if self.pos >= len(self.data):
            raise PnmDecodeError("unexpected end of header", self.pos)
        start = self.pos
        d, n = self.data, len(self.data)
        while self.pos < n and d[self.pos : self.pos + 1] not in _WHITESPACE:
            if d[self.pos : self.pos + 1] == b"#":
                break
            self.pos += 1
        return d[start : self.pos]

    def next_int(self, what: str) -> int:
        at = self.pos
        tok = self.next_token()
        try:
            value = int(tok)
        except ValueError:
            raise PnmDecodeError(f"expected integer for {what}, got {tok!r}", at) from None
        if value < 0:
            raise PnmDecodeError(f"{what} must be non-negative, got {value}", at)
        return value

    def skip_single_space(self):
        """Consume the single whitespace byte that separates header from raw payload."""
        if self.pos >= len(self.data):
            raise PnmDecodeError("missing payload after header", self.pos)
        if self.data[self.pos : self.pos + 1] not in _WHITESPACE:
            raise PnmDecodeError("header not terminated by whitespace", self.pos)
        self.pos += 1


def _read_dims(sc: _Scanner) -> tuple[int, int]:
    width = sc.next_int("width")
    height = sc.next_int("height")
    if width < 1 or height < 1:
        raise PnmDecodeError(f"bad dimensions {width}x{height}", sc.pos)
    return width, height


def _read_maxval(sc: _Scanner):
    at = sc.pos
    maxval = sc.next_int("maxval")
    if maxval != 255:
        raise PnmDecodeError(f"only maxval 255 is supported, got {maxval}", at)


def _plain_samples(sc: _Scanner, count: int, maxval: int) -> np.ndarray:
    out = np.empty(count, dtype=np.uint8)
    for i in range(count):
        at = sc.pos
        v = sc.next_int("sample")
        if v > maxval:
            raise PnmDecodeError(f"sample {v} exceeds maxval {maxval}", at)
        out[i] = v
    return out


def _plain_bits(sc: _Scanner, count: int) -> np.ndarray:
    # Plain PBM allows digits to be packed without separators.
    out = np.empty(count, dtype=np.bool_)
    got = 0
    d, n = sc.data, len(sc.data)
    while got < count:
        sc._skip_space_and_comments()
        if sc.pos >= n:
            raise PnmDecodeError(f"truncated P1 payload: {got} of {count} bits", sc.pos)
        c = d[sc.pos]
        if c == 0x30:  # '0'
            out[got] = False
        elif c == 0x31:  # '1'
            out[got] = True
        else:
            raise PnmDecodeError(f"bad P1 bit {chr(c)!r}", sc.pos)
        sc.pos += 1
        got += 1
    return out


def _raw_bytes(sc: _Scanner, count: int) -> np.ndarray:
    available = len(sc.data) - sc.pos
    if available < count:
        raise PnmDecodeError(f"truncated payload: need {count} bytes, have {available}", sc.pos)
    buf = np.frombuffer(sc.data, dtype=np.uint8, count=count, offset=sc.pos)
    sc.pos += count
    return buf


def read_pnm(path) -> Image:
    """Decode a PNM file (P1-P6, maxval 255).

    P1/P4 become a BinaryMask (PBM value 1 = black = ink), P2/P5 a GrayImage,
    P3/P6 an RgbImage. Raises PnmDecodeError naming the byte offset on any
    malformed header, unsupported maxval, or truncated payload.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 2:
        raise PnmDecodeError("file too short for a PNM magic number", 0)
    magic = data[:2]
    sc = _Scanner(data)
    sc.pos = 2

    if magic == b"P1":
        width, height = _read_dims(sc)
        bits = _plain_bits(sc, width * height)
        return BinaryMask(bits.reshape(height, width))
    if magic == b"P2":
        width, height = _read_dims(sc)
        _read_maxval(sc)
        samples = _plain_samples(sc, width * height, 255)
        return GrayImage(samples.reshape(height, width))
    if magic == b"P3":
        width, height = _read_dims(sc)
        _read_maxval(sc)
        samples = _plain_samples(sc, 3 * width * height, 255)
        return RgbImage(samples.reshape(height, width, 3))
    if magic == b"P4":
        width, height = _read_dims(sc)
        sc.skip_single_space()
        row_bytes = (width + 7) // 8
        packed = _raw_bytes(sc, row_bytes * height).reshape(height, row_bytes)
        bits = np.unpackbits(packed, axis=1, count=width)
        return BinaryMask(bits.astype(np.bool_))
    if magic == b"P5":
        width, height = _read_dims(sc)
        _read_maxval(sc)
        sc.skip_single_space()
        samples = _raw_bytes(sc, width * height)
        return GrayImage(samples.reshape(height, width).copy())
    if magic == b"P6":
        width, height = _read_dims(sc)
        _read_maxval(sc)
        sc.skip_single_space()
        samples = _raw_bytes(sc, 3 * width * height)
        return RgbImage(samples.reshape(height, width, 3).copy())

    raise PnmDecodeError(f"unknown magic {magic!r}", 0)


# ---------------------------------------------------------------------------
# PNM encoding
# ---------------------------------------------------------------------------


def write_pnm(image: Image, path, binary_encoding: bool = True) -> None:
    """Encode an image as PNM; the raw formats P4/P5/P6 by default.

    GrayImage -> P5 (or P2), RgbImage -> P6 (or P3), BinaryMask -> P4 (or P1)
    with ink written as 1 (black). read_pnm(write_pnm(x)) reproduces x
    bit-exactly for every image type.
    """
    if isinstance(image, GrayImage):
        header = f"{'P5' if binary_encoding else 'P2'}\n{image.width} {image.height}\n255\n"
        if binary_encoding:
            payload = image.pixels.tobytes()
        else:
            payload = _plain_payload(image.pixels.reshape(-1, image.width))
    elif isinstance(image, RgbImage):
        header = f"{'P6' if binary_encoding else 'P3'}\n{image.width} {image.height}\n255\n"
        if binary_encoding:
            payload = image.pixels.tobytes()
        else:
            payload = _plain_payload(image.pixels.reshape(image.height, -1))
    elif isinstance(image, BinaryMask):
        header = f"{'P4' if binary_encoding else 'P1'}\n{image.width} {image.height}\n"
        if binary_encoding:
            payload = np.packbits(image.ink, axis=1).tobytes()
        else:
            payload = _plain_payload(image.ink.astype(np.uint8))
    else:
        raise ScrollbinError(f"cannot encode object of type {type(image).__name__}")

    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _plain_payload(rows: np.ndarray) -> bytes:
    lines = [" ".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def to_grayscale(img: RgbImage) -> GrayImage:
    """BT.601 luma: round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255]."""
    rgb = img.pixels.astype(np.float64)
    luma = LUMA_R * rgb[:, :, 0] + LUMA_G * rgb[:, :, 1] + LUMA_B * rgb[:, :, 2]
    out = np.clip(np.floor(luma + 0.5), 0, 255).astype(np.uint8)
    return GrayImage(out)
