"""8-bit images on a 3^n x 3^n grid, with PGM/PPM readers and writers.

Supported variants: P2/P5 grayscale, P3/P6 RGB, maxval 255 only.  Each image
kind is defined once, by the class attributes of its `_Image` subclass.
"""

from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError, UnsupportedDepthError, quoted


def validate_side(side: int) -> int:
    """Return n such that side == 3^n, or raise."""
    if side < 3:
        raise ShapeError(f"side must be at least 3, got {side}")
    n = 0
    value = 1
    while value < side:
        value *= 3
        n += 1
    if value != side:
        raise ShapeError(f"side {quoted(int(side))} is not a power of 3")
    return n


@dataclass(eq=False, init=False)
class _Image:
    """Uint8 `pixels` of shape (side, side) + `_CHANNELS`, side 3^n, checked and
    stored once by `__init__`; a kind's names and netpbm magics are class attributes."""

    pixels: np.ndarray

    def __init__(self, pixels: np.ndarray):
        arr = np.asarray(pixels)
        if arr.dtype == np.uint8:  # in range by its type; the decoders' output
            arr = arr.copy()
        elif not np.issubdtype(arr.dtype, np.integer):
            raise ValueError(f"{self._NAME} pixels must be integers")
        elif arr.size and (arr.min() < 0 or arr.max() > 255):
            raise ValueError(f"{self._NAME} pixels must lie in [0, 255]")
        else:
            arr = arr.astype(np.uint8)
        if len(shape := arr.shape) < 2 or shape[0] != shape[1] or shape[2:] != self._CHANNELS:
            raise ShapeError(f"{self._SHAPE_RULE}, got {shape}")
        validate_side(arr.shape[0])
        self.pixels = arr

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    @property
    def n(self) -> int:
        return validate_side(self.side)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and np.array_equal(self.pixels, other.pixels)


class GrayImage(_Image):
    """Row-major (y, x) grid of 8-bit gray values."""

    _NAME, _CHANNELS, _SHAPE_RULE = "grayscale", (), "grayscale image must be square"
    _FORMAT, _MAGICS = "PGM", (b"P2", b"P5")


class RgbImage(_Image):
    """Row-major (y, x, channel) grid of 8-bit RGB triples."""

    _NAME, _CHANNELS, _SHAPE_RULE = "RGB", (3,), "RGB image must be square with 3 channels"
    _FORMAT, _MAGICS = "PPM", (b"P3", b"P6")


# --- netpbm parsing --------------------------------------------------------

_WHITESPACE = b" \t\r\n\v\f"  # what bytes.split() splits on
_COMMENT = re.compile(rb"#[^\r\n]*")
# Whitespace and comments, then the token: every part is optional, so the
# match succeeds at once, and `\s` in a bytes pattern is `_WHITESPACE`.
_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def _next_token(data: bytes, pos: int) -> tuple[bytes, int]:
    match = _TOKEN.match(data, pos)
    if not match[1]:
        raise ParseError("unexpected end of file in header")
    return match[1], match.end()


def _read(data: bytes, kind: type[_Image]) -> _Image:
    """An image of `kind` from its netpbm bytes, the header checked to be
    square and 3^n on a side before any sample is read."""
    what = kind._FORMAT
    if len(data) < 2:
        raise ParseError(f"not a {what} file: too short")
    magic = bytes(data[:2])
    if magic not in kind._MAGICS:
        raise ParseError(f"not a {what} file: magic {magic!r}")
    pos = 2
    header = []
    for _ in range(3):
        token, pos = _next_token(data, pos)
        try:
            header.append(int(token))
        except ValueError as exc:
            raise ParseError(f"bad header token {quoted(token)}") from exc
    width, height, maxval = header
    if maxval != 255:
        raise UnsupportedDepthError(f"only maxval 255 is supported, got {quoted(maxval)}")
    if width < 1 or height < 1:
        raise ParseError(f"bad dimensions {quoted(width)}x{quoted(height)}")
    if width != height:
        raise ShapeError(f"{what} image must be square, got {quoted(width)}x{quoted(height)}")
    validate_side(width)
    if width > sys.maxsize:  # no file holds its samples, whose count may not even format
        raise ParseError(f"raster truncated: side {quoted(width)} in {len(data) - pos} bytes")
    shape = (width, width) + kind._CHANNELS
    binary = magic == kind._MAGICS[1]
    return kind(_read_samples(data, pos, math.prod(shape), binary).reshape(shape))


def _read_samples(data: bytes, pos: int, count: int, binary: bool) -> np.ndarray:
    if count > len(data) - pos:  # each sample takes at least one byte
        raise ParseError(f"raster truncated: {count} samples in {len(data) - pos} bytes")
    if binary:
        # Exactly one whitespace byte separates maxval from the raster.
        if pos >= len(data) or data[pos : pos + 1] not in _WHITESPACE:
            raise ParseError("missing whitespace before binary raster")
        pos += 1
        raster = data[pos : pos + count]
        if len(raster) != count:
            raise ParseError(f"raster truncated: expected {count} bytes, got {len(raster)}")
        _check_end(data[pos + count :], count)
        return np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    # A comment runs from `#` to the end of its line, also inside a token.
    tokens = _COMMENT.sub(b" ", data[pos:]).split(None, count)
    rest = tokens.pop() if len(tokens) > count else b""  # from the first token past the raster
    try:
        values = list(map(int, tokens))
    except ValueError:
        for token in tokens:  # name the first bad one
            try:
                int(token)
            except ValueError as exc:
                raise ParseError(f"bad sample {quoted(token)}") from exc
    if len(values) < count:
        raise ParseError(f"raster truncated: expected {count} samples, got {len(values)}")
    _check_end(rest, count)
    # Range-checked as Python ints: a sample past int64 is out of range too.
    if values and (min(values) < 0 or max(values) > 255):
        raise ParseError("sample out of range [0, 255]")
    return np.array(values, dtype=np.int64)


def _check_end(rest: bytes, count: int):
    """Refuse anything but whitespace and comments after the `count` samples."""
    token = _TOKEN.match(rest)[1]
    if token:
        raise ParseError(f"data past the raster of {count} samples: {quoted(token)}")


def _write(img: _Image, kind: type[_Image], binary: bool) -> bytes:
    if not isinstance(img, kind):
        raise TypeError(f"a {kind._FORMAT} holds a {kind.__name__}, got {type(img).__name__}")
    header = f"{kind._MAGICS[bool(binary)].decode()}\n{img.side} {img.side}\n255\n"
    if binary:
        return header.encode() + img.pixels.tobytes()
    rows = "\n".join(" ".join(map(str, row)) for row in img.pixels.reshape(img.side, -1).tolist())
    return f"{header}{rows}\n".encode()


def read_pgm(data: bytes) -> GrayImage:
    return _read(data, GrayImage)


def read_ppm(data: bytes) -> RgbImage:
    return _read(data, RgbImage)


def write_pgm(img: GrayImage, binary: bool = False) -> bytes:
    return _write(img, GrayImage, binary)


def write_ppm(img: RgbImage, binary: bool = False) -> bytes:
    return _write(img, RgbImage, binary)
