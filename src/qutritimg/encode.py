"""State-preparation circuits for the five qutrit image representations.

All encoders share the same skeleton: Hadamards put the location (and any
selector) qutrits into uniform superposition, then one fully
location-controlled rotation or shift per pixel writes the pixel data.
`_register` lays out the register (the value, channel or digit/plane head
qutrits, then the 2n location qutrits) and checks the image kind and the
qutrit cap before any op is built; `_prepared` emits two blocks (see
`simulator.Block`), built with numpy: the Hadamards, then one uniformly
controlled gate whose entries are the pixels (or pixel channels, or
planes), with one gate object per distinct angle.  Each block is handed
its op columns (per op: entry, target, gate id) in emission order;
`Block.steps` derives the kernel schedule from them.  Conventions fixed here:

* pixel index i = y * 3^n + x (row-major), location trits MSB first;
* angle scaling theta = v / 255 * pi/2, so v = 255 reaches pi/2 exactly;
* canonical emission order is ascending pixel index, with the per-pixel
  gates in a fixed order.  Gates on different pixels commute, so this is a
  presentation choice with no effect on the prepared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .gates import GateSpec
from .images import GrayImage, RgbImage
from .simulator import Block, Circuit
from .ternary import MAX_QUTRITS, trits_from_index

HALF_PI = math.pi / 2


@dataclass(frozen=True)
class EncodeResult:
    """A prepared circuit plus the register layout it assumes."""

    circuit: Circuit
    n: int
    method: str
    qutrit_layout: tuple[str, ...]


def pixel_angle(v: int) -> float:
    """Map an 8-bit value onto [0, pi/2]."""
    if not 0 <= v <= 255:
        raise ValueError(f"8-bit value out of range: {v}")
    return v / 255 * HALF_PI


def pixel_index(x: int, y: int, n: int) -> tuple[int, str]:
    """Row-major pixel index and its location trit string."""
    side = 3**n
    if not (0 <= x < side and 0 <= y < side):
        raise ValueError(f"pixel ({x}, {y}) out of range for side {side}")
    i = y * side + x
    return i, trits_from_index(i, 2 * n)


def _packed_angle(k: int) -> float:
    """Angle of a 12-bit packed value of the two-rotation codec."""
    return k / 4095 * HALF_PI


def fqrri_angles(r: int, g: int, b: int) -> tuple[float, float]:
    """Pack (G,B) and (G,R) into the two angles of the two-rotation codec.

    theta_gb carries (G mod 16)*256 + B, theta_gr carries (G // 16)*256 + R;
    both packed values are at most 4095, so both angles stay within pi/2.
    """
    for v in (r, g, b):
        if not 0 <= v <= 255:
            raise ValueError(f"8-bit value out of range: {v}")
    return _packed_angle((g % 16) * 256 + b), _packed_angle((g // 16) * 256 + r)


def _register(img, kind: type, head: tuple[str, ...]) -> tuple[int, tuple[str, ...]]:
    """(n, layout) of the register for `img`: the `head` qutrits, then the 2n
    location qutrits.  The image kind and the qutrit cap are checked here,
    before any op is built."""
    if not isinstance(img, kind):
        raise TypeError(f"expected {kind.__name__}, got {type(img).__name__}")
    n = img.n
    q = 2 * n + len(head)
    if q > MAX_QUTRITS:
        raise CapacityError(
            f"{3**n}x{3**n} images need {q} qutrits, over the cap of {MAX_QUTRITS}"
        )
    return n, head + tuple(f"loc{t}" for t in range(2 * n))


def _locations(n: int) -> np.ndarray:
    """(9^n, 2n) location trits of every pixel index, most significant first."""
    powers = 3 ** np.arange(2 * n - 1, -1, -1)
    return np.arange(9**n)[:, None] // powers % 3


def _prepared(method: str, n: int, layout: tuple[str, ...], values: np.ndarray,
              gates, entries, targets, gate_ids) -> EncodeResult:
    """The `method` circuit on the len(layout) qutrits of `layout`:
    Hadamards on the last c qutrits, then one block controlled by them with
    rows `values` (m, c) and the given op columns; no ops leaves the block
    out."""
    q = len(layout)
    controls = tuple(range(q - values.shape[1], q))
    zeros = np.zeros(len(controls), dtype=np.int64)
    blocks = [Block((), np.zeros((1, 0), dtype=np.int64), (GateSpec("H"),),
                    zeros, np.array(controls), zeros)]
    if len(entries):
        blocks.append(Block(controls, values, tuple(gates), entries, targets, gate_ids))
    return EncodeResult(Circuit.from_blocks(q, blocks), n, method, layout)


def _every_entry(m: int, *ops):
    """Gates and op columns that give each of m entries, in turn, one gate
    on the value qutrit per (kind, pair, params, keys) op: `keys` holds one
    int per entry, and `params(key)` gives the params of the gate built
    once per distinct key; the gates of an op are checked once, as one
    shape."""
    gates: list[GateSpec] = []
    ids = []
    for kind, pair, params, keys in ops:
        distinct, inverse = np.unique(keys, return_inverse=True)
        ids.append(inverse + len(gates))
        gates += GateSpec._of_shape(kind, pair, [params(k) for k in distinct.tolist()])
    entries = np.repeat(np.arange(m), len(ops))
    return gates, entries, np.zeros_like(entries), np.column_stack(ids).reshape(-1)


def _ry(pair: tuple[int, int], angle, keys):
    """Op of `_every_entry`: RY on `pair` by twice `angle(key)`."""
    return "RY", pair, lambda key: (2 * angle(key),), keys


def encode_fqri(img: GrayImage) -> EncodeResult:
    """Grayscale values as one RY(0,1) angle per pixel on a value qutrit."""
    n, layout = _register(img, GrayImage, ("value",))
    ops = _every_entry(9**n, _ry((0, 1), pixel_angle, img.pixels.reshape(-1)))
    return _prepared("FQRI", n, layout, _locations(n), *ops)


def encode_fqrri(img: RgbImage) -> EncodeResult:
    """RGB packed into two angles: RY(0,1) then RY(0,2) per pixel."""
    n, layout = _register(img, RgbImage, ("value",))
    r, g, b = img.pixels.reshape(-1, 3).astype(np.int64).T
    ops = _every_entry(9**n, _ry((0, 1), _packed_angle, g % 16 * 256 + b),
                       _ry((0, 2), _packed_angle, g // 16 * 256 + r))
    return _prepared("FQRRI", n, layout, _locations(n), *ops)


def _u12_params(key: int) -> tuple[float, float, float]:
    """Params of the U(1,2) of the three-angle codec for key = G * 256 + B."""
    return 2 * pixel_angle(key // 256), pixel_angle(key % 256), 0.0


def encode_fqrqci(img: RgbImage) -> EncodeResult:
    """RGB as three angles: R in RY(0,1), G and B in a U(1,2) rotation.

    Per pixel the value qutrit ends in
    cos(tr)|0> + sin(tr)cos(tg)|1> + e^{i*tb} sin(tr)sin(tg)|2>.
    """
    n, layout = _register(img, RgbImage, ("value",))
    r, g, b = img.pixels.reshape(-1, 3).astype(np.int64).T
    ops = _every_entry(9**n, _ry((0, 1), pixel_angle, r), ("U", (1, 2), _u12_params, g * 256 + b))
    return _prepared("FQRQCI", n, layout, _locations(n), *ops)


def encode_mcqri(img: RgbImage) -> EncodeResult:
    """One RY(0,1) per pixel and channel, selected by a channel qutrit.

    Register: value qutrit, channel qutrit (0=R, 1=G, 2=B), then the
    location qutrits.
    """
    n, layout = _register(img, RgbImage, ("value", "channel"))
    # Entries run pixel-major, channel-minor: (channel, location trits).
    channels = np.tile(np.arange(3), 9**n)[:, None]
    values = np.hstack((channels, np.repeat(_locations(n), 3, axis=0)))
    ops = _every_entry(3 * 9**n, _ry((0, 1), pixel_angle, img.pixels.reshape(-1)))
    return _prepared("MCQRI", n, layout, values, *ops)


def encode_qrciq(img: RgbImage) -> EncodeResult:
    """Ternary-plane codec: basis shifts write each channel digit.

    Register: R, G, B digit qutrits, two plane qutrits, then the location
    qutrits.  Plane b = 0 is the least significant ternary digit; digits
    1 and 2 become controlled [+1] / [+2] shifts, digit 0 needs no gate.
    Plane values 6..8 exist in the superposition but carry digit 000.
    """
    n, layout = _register(img, RgbImage, ("r_digit", "g_digit", "b_digit", "plane0", "plane1"))
    area = 9**n
    # digits[b * area + i, channel]: digit b of pixel i's channel value.
    powers = 3 ** np.arange(6)[:, None, None]
    digits = (img.pixels.reshape(1, area, 3).astype(np.int64) // powers % 3).reshape(-1, 3)
    planes = np.repeat(np.arange(6), area)
    values = np.column_stack((planes // 3, planes % 3, np.tile(_locations(n), (6, 1))))
    # One entry per (plane, pixel) with a non-zero digit, plane-major; its
    # shifts run R, G, B.
    keep = digits.any(axis=1)
    digits, values = digits[keep], values[keep]
    entries, channels = np.nonzero(digits)
    gate_ids = digits[entries, channels] - 1
    return _prepared("QRCIQ", n, layout, values, (GateSpec("P1"), GateSpec("P2")),
                     entries, channels, gate_ids)
