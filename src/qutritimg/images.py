"""8-bit images on a 3^n x 3^n grid, with PGM/PPM readers and writers.

Supported variants: P2/P5 grayscale, P3/P6 RGB, maxval 255 only.
"""

from __future__ import annotations

import re
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
        raise ShapeError(f"side {side} is not a power of 3")
    return n


def _as_u8(pixels, shape_desc: str) -> np.ndarray:
    arr = np.asarray(pixels)
    if arr.dtype == np.uint8:  # in range by its type; the decoders' output
        return arr.copy()
    if not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{shape_desc} pixels must be integers")
    if arr.size and (arr.min() < 0 or arr.max() > 255):
        raise ValueError(f"{shape_desc} pixels must lie in [0, 255]")
    return arr.astype(np.uint8)


@dataclass(eq=False)
class GrayImage:
    """Row-major (y, x) grid of 8-bit gray values."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _as_u8(self.pixels, "grayscale")
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ShapeError(f"grayscale image must be square, got {arr.shape}")
        validate_side(arr.shape[0])
        self.pixels = arr

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    @property
    def n(self) -> int:
        return validate_side(self.side)

    def __eq__(self, other) -> bool:
        return isinstance(other, GrayImage) and np.array_equal(self.pixels, other.pixels)


@dataclass(eq=False)
class RgbImage:
    """Row-major (y, x, channel) grid of 8-bit RGB triples."""

    pixels: np.ndarray

    def __post_init__(self):
        arr = _as_u8(self.pixels, "RGB")
        if arr.ndim != 3 or arr.shape[0] != arr.shape[1] or arr.shape[2] != 3:
            raise ShapeError(f"RGB image must be square with 3 channels, got {arr.shape}")
        validate_side(arr.shape[0])
        self.pixels = arr

    @property
    def side(self) -> int:
        return self.pixels.shape[0]

    @property
    def n(self) -> int:
        return validate_side(self.side)

    def __eq__(self, other) -> bool:
        return isinstance(other, RgbImage) and np.array_equal(self.pixels, other.pixels)


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


def _parse_netpbm(data: bytes, magics: dict[bytes, bool], what: str):
    """(side, binary, raster offset) of a header, checked to be square and
    3^n on a side before any sample is read."""
    if len(data) < 2:
        raise ParseError(f"not a {what} file: too short")
    magic = bytes(data[:2])
    if magic not in magics:
        raise ParseError(f"not a {what} file: magic {magic!r}")
    binary = magics[magic]
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
    return width, binary, pos


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
        return np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    # A comment runs from `#` to the end of its line, also inside a token.
    tokens = _COMMENT.sub(b" ", data[pos:]).split(None, count)[:count]
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
    # Range-checked as Python ints: a sample past int64 is out of range too.
    if values and (min(values) < 0 or max(values) > 255):
        raise ParseError("sample out of range [0, 255]")
    return np.array(values, dtype=np.int64)


def read_pgm(data: bytes) -> GrayImage:
    side, binary, pos = _parse_netpbm(data, {b"P2": False, b"P5": True}, "PGM")
    return GrayImage(_read_samples(data, pos, side * side, binary).reshape(side, side))


def read_ppm(data: bytes) -> RgbImage:
    side, binary, pos = _parse_netpbm(data, {b"P3": False, b"P6": True}, "PPM")
    return RgbImage(_read_samples(data, pos, side * side * 3, binary).reshape(side, side, 3))


def write_pgm(img: GrayImage, binary: bool = False) -> bytes:
    side = img.side
    if binary:
        return f"P5\n{side} {side}\n255\n".encode() + img.pixels.tobytes()
    rows = "\n".join(" ".join(map(str, row)) for row in img.pixels.tolist())
    return f"P2\n{side} {side}\n255\n{rows}\n".encode()


def write_ppm(img: RgbImage, binary: bool = False) -> bytes:
    side = img.side
    if binary:
        return f"P6\n{side} {side}\n255\n".encode() + img.pixels.tobytes()
    rows = "\n".join(" ".join(map(str, row)) for row in img.pixels.reshape(side, -1).tolist())
    return f"P3\n{side} {side}\n255\n{rows}\n".encode()
