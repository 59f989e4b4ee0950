"""Image value types plus bit-exact PNM codecs (decodes P1-P6, encodes
P4-P6) and grayscale conversion.

Pixel storage is numpy, row-major:
  GrayImage.pixels   uint8, shape (height, width)
  RgbImage.pixels    uint8, shape (height, width, 3), interleaved R,G,B
  BinaryMask.ink     bool,  shape (height, width), True = ink = foreground

Polarity is fixed across the codebase: True/1 means ink. In PBM terms ink is
written as bit value 1 (black). Images are treated as immutable after
construction; all functions here return new objects.

PNM headers and plain payloads (P1-P3) share one grammar: a token is one or
more ASCII decimal digits, tokens are separated by whitespace, and '#'
starts a comment that runs to the end of its line. P1 digits may also be
packed without separators. Bytes after the payload are ignored.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .errors import PnmDecodeError, ScrollbinError

LUMA_R, LUMA_G, LUMA_B = 0.299, 0.587, 0.114


class _Raster:
    """The checks and size that the image types share. Each type names its one
    array `array` and sets channels (samples per pixel), _dtype and _needs."""

    def __post_init__(self):
        a = self.array
        trailing = (self.channels,) if self.channels > 1 else ()
        if a.dtype != self._dtype or a.ndim != 2 + len(trailing) or a.shape[2:] != trailing:
            raise ScrollbinError(f"{type(self).__name__} needs {self._needs} array, got {a.dtype} {a.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise ScrollbinError(f"{type(self).__name__} must be at least 1x1")

    @property
    def height(self) -> int:
        return self.array.shape[0]

    @property
    def width(self) -> int:
        return self.array.shape[1]


@dataclass(frozen=True)
class GrayImage(_Raster):
    """8-bit single-channel raster image."""

    pixels: np.ndarray
    array = property(attrgetter("pixels"))
    channels = 1
    _dtype, _needs = np.uint8, "a 2-D uint8"


@dataclass(frozen=True)
class RgbImage(_Raster):
    """8-bit three-channel raster image."""

    pixels: np.ndarray
    array = property(attrgetter("pixels"))
    channels = 3
    _dtype, _needs = np.uint8, "a (h, w, 3) uint8"


@dataclass(frozen=True)
class BinaryMask(_Raster):
    """Per-pixel ink/background labels. True = ink."""

    ink: np.ndarray
    array = property(attrgetter("ink"))
    channels = 1
    _dtype, _needs = np.bool_, "a 2-D bool"


Image = GrayImage | RgbImage | BinaryMask


# ---------------------------------------------------------------------------
# PNM codec
# ---------------------------------------------------------------------------

# magic -> (image type, plain encoding)
_FORMATS = {
    b"P1": (BinaryMask, True),
    b"P2": (GrayImage, True),
    b"P3": (RgbImage, True),
    b"P4": (BinaryMask, False),
    b"P5": (GrayImage, False),
    b"P6": (RgbImage, False),
}

# Whitespace and comments, then one token. A comment must run to its newline
# (or the end of the data): otherwise, when no token follows, the engine
# backtracks into the comment and returns its tail as a token.
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)")
_COMMENT = re.compile(rb"#[^\n]*")
_WHITESPACE = b" \t\r\n\v\f"
_DIGITS = b"0123456789"


def _header_int(data: bytes, pos: int, what: str) -> tuple[int, int]:
    """The decimal token after pos and the offset just past it."""
    m = _TOKEN.match(data, pos)
    if m is None:
        raise PnmDecodeError("unexpected end of header", len(data))
    try:
        if m[1].isdigit():
            return int(m[1]), m.end()
    except ValueError:  # more digits than int() converts
        pass
    raise PnmDecodeError(f"expected integer for {what}, got {m[1]!r}", m.start())


def _sample_ok(token: bytes) -> bool:
    return token.isdigit() and len(token.lstrip(b"0")) <= 3 and int(token[-3:]) <= 255


def _plain_samples(data: bytes, pos: int, count: int) -> np.ndarray:
    body = _COMMENT.sub(b"", data[pos:])
    octets = np.frombuffer(body, dtype=np.uint8)
    space = (octets == 32) | ((octets >= 9) & (octets <= 13))  # the bytes of _WHITESPACE
    starts = np.append(True, space[:-1]) & ~space  # each token's first byte
    found = int(np.count_nonzero(starts))
    if found > count:
        body = body[: np.flatnonzero(starts)[count]]  # drop what follows the payload
        found = count
    if not body.translate(None, _DIGITS + _WHITESPACE):
        # Saturates rather than wraps; whitespace alone would parse as [0].
        values = np.fromstring(body, dtype=np.int64, sep=" ")[:found]
        if values.max(initial=0) <= 255:
            if len(values) < count:
                raise PnmDecodeError(f"truncated payload: {len(values)} of {count} samples", len(data))
            return values.astype(np.uint8)
    tokens = body.split()
    bad = next(i for i, token in enumerate(tokens) if not _sample_ok(token))
    at = next(itertools.islice(_TOKEN.finditer(data, pos), bad, None)).start()
    raise PnmDecodeError(f"bad sample {tokens[bad][:16]!r}: need 0-255", at)


def _plain_bits(data: bytes, pos: int, count: int) -> np.ndarray:
    # Plain PBM allows digits to be packed without separators.
    digits = _COMMENT.sub(b"", data[pos:]).translate(None, _WHITESPACE)[:count]
    bits = np.frombuffer(digits, dtype=np.uint8) - ord("0")
    bad = np.flatnonzero(bits > 1)
    if bad.size:
        index = int(bad[0])
        message = f"bad P1 bit {chr(digits[index])!r}"
        for m in _TOKEN.finditer(data, pos):
            if index < len(m[1]):
                raise PnmDecodeError(message, m.start(1) + index)
            index -= len(m[1])
    if len(digits) < count:
        raise PnmDecodeError(f"truncated P1 payload: {len(digits)} of {count} bits", len(data))
    return bits


def _raw_bytes(data: bytes, pos: int, count: int) -> np.ndarray:
    """count payload bytes after the single whitespace byte that ends the header."""
    if pos >= len(data):
        raise PnmDecodeError("missing payload after header", pos)
    if data[pos] not in _WHITESPACE:
        raise PnmDecodeError("header not terminated by whitespace", pos)
    available = len(data) - pos - 1
    if available < count:
        raise PnmDecodeError(f"truncated payload: need {count} bytes, have {available}", pos + 1)
    return np.frombuffer(data, dtype=np.uint8, count=count, offset=pos + 1)


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
    if data[:2] not in _FORMATS:
        raise PnmDecodeError(f"unknown magic {data[:2]!r}", 0)
    kind, plain = _FORMATS[data[:2]]

    width, pos = _header_int(data, 2, "width")
    height, pos = _header_int(data, pos, "height")
    if width < 1 or height < 1:
        raise PnmDecodeError(f"bad dimensions {width}x{height}", pos)
    if kind is not BinaryMask:
        maxval, end = _header_int(data, pos, "maxval")
        if maxval != 255:
            raise PnmDecodeError(f"only maxval 255 is supported, got {maxval}", pos)
        pos = end

    count = width * height * kind.channels
    if plain:
        flat = (_plain_bits if kind is BinaryMask else _plain_samples)(data, pos, count)
    elif kind is BinaryMask:
        packed = _raw_bytes(data, pos, height * ((width + 7) // 8)).reshape(height, -1)
        flat = np.unpackbits(packed, axis=1, count=width)
    else:
        flat = _raw_bytes(data, pos, count).copy()
    pixels = flat.reshape((height, width, kind.channels) if kind.channels > 1 else (height, width))
    return BinaryMask(pixels.view(np.bool_)) if kind is BinaryMask else kind(pixels)


def write_pnm(image: Image, path) -> None:
    """Encode an image as raw PNM.

    GrayImage -> P5, RgbImage -> P6, BinaryMask -> P4 with ink written as 1
    (black). read_pnm(write_pnm(x)) reproduces x bit-exactly for every image
    type.
    """
    magic = next((m for m, (kind, plain) in _FORMATS.items() if isinstance(image, kind) and not plain), None)
    if magic is None:
        raise ScrollbinError(f"cannot encode object of type {type(image).__name__}")
    is_mask = isinstance(image, BinaryMask)
    header = f"{magic.decode()}\n{image.width} {image.height}\n" + ("" if is_mask else "255\n")
    rows = image.array.view(np.uint8).reshape(image.height, -1)
    payload = np.packbits(rows, axis=1).tobytes() if is_mask else rows.tobytes()

    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


# ---------------------------------------------------------------------------
# Conversions
# ---------------------------------------------------------------------------


def to_grayscale(img: RgbImage) -> GrayImage:
    """BT.601 luma: round(0.299 R + 0.587 G + 0.114 B), clamped to [0, 255]."""
    rgb = img.pixels.astype(np.float64)
    luma = LUMA_R * rgb[:, :, 0] + LUMA_G * rgb[:, :, 1] + LUMA_B * rgb[:, :, 2]
    out = np.clip(np.floor(luma + 0.5), 0, 255).astype(np.uint8)
    return GrayImage(out)
