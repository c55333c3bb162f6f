import dataclasses
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qutritimg import (
    GrayImage,
    ParseError,
    RgbImage,
    ShapeError,
    UnsupportedDepthError,
    read_pgm,
    read_ppm,
    validate_side,
    write_pgm,
    write_ppm,
)
from qutritimg.images import _WHITESPACE, _next_token, _read_samples


def test_validate_side():
    assert validate_side(3) == 1
    assert validate_side(9) == 2
    assert validate_side(27) == 3
    with pytest.raises(ShapeError):
        validate_side(6)
    with pytest.raises(ShapeError):
        validate_side(1)


def test_image_shape_validation():
    with pytest.raises(ShapeError):
        GrayImage(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ShapeError, match=r"^grayscale image must be square, got \(3, 9\)$"):
        GrayImage(np.zeros((3, 9), dtype=np.uint8))
    with pytest.raises(ShapeError,
                       match=r"^RGB image must be square with 3 channels, got \(3, 3\)$"):
        RgbImage(np.zeros((3, 3), dtype=np.uint8))
    with pytest.raises(ShapeError, match=r"^grayscale image must be square, got \(3, 3, 3\)$"):
        GrayImage(np.zeros((3, 3, 3), dtype=np.uint8))
    with pytest.raises(ShapeError,
                       match=r"^RGB image must be square with 3 channels, got \(3, 3, 4\)$"):
        RgbImage(np.zeros((3, 3, 4), dtype=np.uint8))
    with pytest.raises(ValueError):
        GrayImage(np.full((3, 3), 300))
    with pytest.raises(ValueError, match="^grayscale pixels must be integers$"):
        GrayImage(np.full((3, 3), 1.0))


def test_fixture_pixels(sample_gray, sample_rgb):
    assert sample_gray.side == 3 and sample_gray.n == 1
    assert sample_gray.pixels[0, 0] == 37
    assert sample_gray.pixels[0, 1] == 235
    assert sample_gray.pixels[2, 2] == 79
    assert tuple(sample_rgb.pixels[0, 0]) == (37, 192, 178)
    assert tuple(sample_rgb.pixels[1, 1]) == (255, 71, 146)
    assert tuple(sample_rgb.pixels[2, 0]) == (203, 252, 139)
    assert tuple(sample_rgb.pixels[2, 1]) == (133, 134, 252)
    assert tuple(sample_rgb.pixels[2, 2]) == (79, 25, 234)
    np.testing.assert_array_equal(sample_rgb.pixels[:, :, 0], sample_gray.pixels)


def test_image_kinds_are_unhashable_dataclasses_equal_only_to_their_kind(sample_gray,
                                                                          sample_rgb):
    gray = GrayImage(sample_rgb.pixels[:, :, 0])
    assert gray == sample_gray and RgbImage(sample_rgb.pixels) == sample_rgb
    zeros = np.zeros((3, 3, 3), dtype=np.uint8)
    for a, b in ((GrayImage(zeros[:, :, 0]), RgbImage(zeros)), (gray, sample_rgb)):
        assert a != b and b != a
    assert gray != types.SimpleNamespace(pixels=gray.pixels)
    assert dataclasses.replace(gray, pixels=sample_rgb.pixels[:, :, 0]) == gray
    assert repr(gray).startswith("GrayImage(pixels=array([[")
    assert repr(sample_rgb).startswith("RgbImage(pixels=array([[[")
    for img in (gray, sample_rgb):
        with pytest.raises(TypeError, match="unhashable"):
            hash(img)
        assert tuple(f.name for f in dataclasses.fields(img)) == ("pixels",)


@pytest.mark.parametrize("binary", [False, True])
def test_pgm_round_trip(sample_gray, binary):
    assert read_pgm(write_pgm(sample_gray, binary=binary)) == sample_gray


@pytest.mark.parametrize("binary", [False, True])
def test_ppm_round_trip(sample_rgb, binary):
    assert read_ppm(write_ppm(sample_rgb, binary=binary)) == sample_rgb


@given(st.integers(min_value=0, max_value=2**32 - 1), st.booleans(), st.booleans())
def test_random_image_round_trip(seed, binary, rgb):
    rng = np.random.default_rng(seed)
    if rgb:
        img = RgbImage(rng.integers(0, 256, size=(9, 9, 3)))
        assert read_ppm(write_ppm(img, binary=binary)) == img
    else:
        img = GrayImage(rng.integers(0, 256, size=(9, 9)))
        assert read_pgm(write_pgm(img, binary=binary)) == img


@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([3, 9, 27]))
def test_plain_writers_match_per_sample_rendering(seed, side):
    rng = np.random.default_rng(seed)
    for img, write, magic in ((GrayImage(rng.integers(0, 256, (side, side))), write_pgm, "P2"),
                              (RgbImage(rng.integers(0, 256, (side, side, 3))), write_ppm, "P3")):
        rows = "\n".join(" ".join(str(v) for v in row.reshape(-1)) for row in img.pixels)
        assert write(img) == f"{magic}\n{side} {side}\n255\n{rows}\n".encode()


def test_pgm_header_comments():
    data = b"P2\n# a comment\n3 3 # trailing\n255\n" + b"0 " * 9
    img = read_pgm(data)
    assert img.side == 3


def test_non_power_of_three_side():
    data = b"P2\n4 4\n255\n" + b"0 " * 16
    with pytest.raises(ShapeError):
        read_pgm(data)


def test_unsupported_maxval():
    data = b"P2\n3 3\n65535\n" + b"0 " * 9
    with pytest.raises(UnsupportedDepthError):
        read_pgm(data)


def test_malformed_inputs():
    with pytest.raises(ParseError):
        read_pgm(b"")
    with pytest.raises(ParseError):
        read_pgm(b"P7\n3 3\n255\n" + b"0 " * 9)
    with pytest.raises(ParseError):
        read_pgm(b"P2\n3 notanumber\n255\n" + b"0 " * 9)
    with pytest.raises(ParseError):
        read_pgm(b"P2\n3 3\n255\n0 0 0")  # truncated raster
    with pytest.raises(ParseError):
        read_pgm(b"P5\n3 3\n255\n" + b"\x00" * 5)  # truncated binary raster
    with pytest.raises(ParseError, match="^missing whitespace before binary raster$"):
        read_pgm(b"P5\n3 3\n255#x\n" + b"\x00" * 9)  # a comment right after maxval
    with pytest.raises(ParseError):
        read_pgm(b"P2\n3 3\n255\n" + b"0 " * 8 + b"999 ")


def test_wrong_kind_is_a_parse_error(sample_gray, sample_rgb):
    with pytest.raises(ParseError):
        read_ppm(write_pgm(sample_gray))
    with pytest.raises(ParseError):
        read_pgm(write_ppm(sample_rgb))


@pytest.mark.parametrize("binary", [False, True])
def test_writers_refuse_the_other_image_kind(sample_gray, sample_rgb, binary):
    rgb = RgbImage(np.arange(27).reshape(3, 3, 3))
    for write, image, message in ((write_pgm, rgb, "a PGM holds a GrayImage, got RgbImage"),
                                  (write_pgm, sample_rgb, "a PGM holds a GrayImage, got RgbImage"),
                                  (write_ppm, sample_gray, "a PPM holds a RgbImage, got GrayImage")):
        with pytest.raises(TypeError, match=f"^{message}$"):
            write(image, binary)


@pytest.mark.parametrize("binary", [False, True])
@pytest.mark.parametrize("kind", ["gray", "rgb"])
def test_readers_refuse_data_past_the_raster(sample_gray, sample_rgb, kind, binary):
    """Whitespace and comments may follow the raster; a sample or any other
    byte may not, in plain and binary files of both kinds."""
    image, write, read = ((sample_gray, write_pgm, read_pgm) if kind == "gray"
                          else (sample_rgb, write_ppm, read_ppm))
    data = write(image, binary)
    count = image.pixels.size
    for tail in (b"", b"\n", b" \t\r\n\v\f", b"# note\n", b"\n#7 7 7\n  #x"):
        assert read(data + tail) == image
    for tail, token in ((b"7 7 7 junk", b"7"), (b"\n# note\n0", b"0"), (b"x\n", b"x"),
                        (b" \n 255#c", b"255")):
        with pytest.raises(ParseError,
                           match=f"^data past the raster of {count} samples: {token!r}$"):
            read(data + tail)


def test_sample_past_int64_is_out_of_range():
    with pytest.raises(ParseError, match=r"^sample out of range \[0, 255\]$"):
        read_pgm(b"P2\n3 3\n255\n1 2 3 4 5 6 7 8 99999999999999999999\n")


# --- the plain raster reader against the per-token reader it replaced ----------

def _ascii_samples_reference(data, pos, count):
    """The plain branch of `_read_samples` before one tokenizing pass replaced
    it, one `_next_token` call per sample, kept as the reference.  It holds
    the samples as Python ints; it used to write them into an int64 array,
    which raised OverflowError past 2^63 - 1.  A token past the raster is
    refused, as the reader refuses it."""
    if count > len(data) - pos:
        raise ParseError(f"raster truncated: {count} samples in {len(data) - pos} bytes")
    values = []
    for _ in range(count):
        try:
            token, pos = _next_token(data, pos)
        except ParseError:  # end of file
            raise ParseError(
                f"raster truncated: expected {count} samples, got {len(values)}") from None
        try:
            values.append(int(token))
        except ValueError as exc:
            raise ParseError(f"bad sample {token!r}") from exc
    try:
        token, _ = _next_token(data, pos)
    except ParseError:  # nothing but whitespace and comments left
        pass
    else:
        raise ParseError(f"data past the raster of {count} samples: {token!r}")
    if values and (min(values) < 0 or max(values) > 255):
        raise ParseError("sample out of range [0, 255]")
    return np.array(values, dtype=np.int64)


def _samples_outcome(read, data, pos, count):
    try:
        values = read(data, pos, count)
    except ParseError as exc:
        return type(exc), str(exc)
    assert values.dtype == np.int64 and values.shape == (count,)
    return values.tobytes()


SEPARATORS = st.sampled_from([b" ", b"\n", b"\r\n", b"\t", b"\v", b"\f", b"  \n\n",
                              b"#c\n", b" # note 1 2 3\r", b"\n#\n", b"##\v#\n"])
TOKENS = st.one_of(
    st.integers(0, 255).map(lambda v: b"%d" % v),
    st.sampled_from([b"-1", b"256", b"+7", b"007", b"1_0", b"99999999999999999999",
                     b"-99999999999999999999", b"x", b"1a", b"0x1f", b"\xa07", b"\x1c"]),
    st.binary(min_size=1, max_size=3),
)


@st.composite
def plain_rasters(draw):
    """(raster, count): tokens and separators that include comments mid-raster,
    `#` right after a token, \\v and \\f, short rasters and extra tokens."""
    count = draw(st.sampled_from([1, 9, 27]))
    tokens = draw(st.lists(TOKENS, max_size=count + 3))
    raster = draw(st.sampled_from([b"", b"\n", b"#c\n"]))
    for token in tokens:
        raster += token + draw(st.one_of(SEPARATORS, st.sampled_from([b"#", b"#x"])))
    return raster + draw(st.sampled_from([b"", b"\n", b"#end"])), count


@settings(max_examples=300)
@given(plain_rasters())
@example((b"\n0 0 0" + b" " * 12, 9))  # short, but one byte per sample
def test_plain_raster_reader_matches_per_token_reference(case):
    raster, count = case
    data = b"P2\n3 3\n255" + raster
    pos = len(data) - len(raster)
    expect = _samples_outcome(_ascii_samples_reference, data, pos, count)
    got = _samples_outcome(lambda *a: _read_samples(*a, False), data, pos, count)
    assert got == expect


def test_short_plain_raster_names_the_sample_count():
    with pytest.raises(ParseError, match=r"^raster truncated: expected 9 samples, got 3$"):
        read_pgm(b"P2\n3 3\n255\n0 0 0" + b" " * 12)


@pytest.mark.parametrize("raster, values", [
    (b"\n1 2#c 3\n4\v5\f6 7\r8 9 10", [1, 2, 4, 5, 6, 7, 8, 9, 10]),  # 3 is a comment
    (b" 1#\n2#x\r3 4 5 6 7 8 9# 10", [1, 2, 3, 4, 5, 6, 7, 8, 9]),
])
def test_plain_raster_comments_and_separators(raster, values):
    assert read_pgm(b"P2\n3 3\n255" + raster).pixels.reshape(-1).tolist() == values


# --- the header tokenizer against the byte-at-a-time loop it replaced --------

def _next_token_reference(data, pos):
    """`_next_token` before one regex match replaced it, kept as the
    reference: skip whitespace and `#` comments one byte at a time, then
    read up to the next whitespace byte or `#`."""
    n = len(data)
    while pos < n:
        ch = data[pos : pos + 1]
        if ch == b"#":
            while pos < n and data[pos : pos + 1] not in b"\r\n":
                pos += 1
        elif ch in _WHITESPACE:
            pos += 1
        else:
            break
    if pos >= n:
        raise ParseError("unexpected end of file in header")
    start = pos
    while pos < n and data[pos : pos + 1] not in _WHITESPACE + b"#":
        pos += 1
    return data[start:pos], pos


def _token_outcome(next_token, data, pos):
    try:
        return next_token(data, pos)
    except ParseError as exc:
        return str(exc)


HEADER_BYTES = st.lists(
    st.one_of(st.sampled_from(list(b" \t\v\f\r\n#0123456789")), st.integers(0, 255)),
    max_size=24,
).map(bytes)


@settings(max_examples=300)
@given(HEADER_BYTES)
@example(b"")
@example(b"# c\r12#x\n 7")
@example(b"\x1c5\xa0 ")  # whitespace to str.split, not to bytes.split
def test_header_tokenizer_matches_byte_loop_reference(data):
    for pos in range(len(data) + 2):
        expect = _token_outcome(_next_token_reference, data, pos)
        assert _token_outcome(_next_token, data, pos) == expect
