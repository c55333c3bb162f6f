"""State-preparation circuits for the five qutrit image representations.

All encoders share the same skeleton: Hadamards put the location (and any
selector) qutrits into uniform superposition, then one fully
location-controlled rotation or shift per pixel writes the pixel data.
Conventions fixed here:

* pixel index i = y * 3^n + x (row-major), location trits MSB first;
* angle scaling theta = v / 255 * pi/2, so v = 255 reaches pi/2 exactly;
* canonical emission order is ascending pixel index, with the per-pixel
  gates in a fixed order.  All per-pixel blocks commute, so this is a
  presentation choice with no effect on the prepared state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapacityError
from .gates import GateSpec
from .images import GrayImage, RgbImage
from .simulator import Circuit, CircuitOp, ControlSpec
from .ternary import MAX_QUTRITS, ternary_digits_u8, trits_from_index

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


def fqrri_angles(r: int, g: int, b: int) -> tuple[float, float]:
    """Pack (G,B) and (G,R) into the two angles of the two-rotation codec.

    theta_gb carries (G mod 16)*256 + B, theta_gr carries (G // 16)*256 + R;
    both packed values are at most 4095, so both angles stay within pi/2.
    """
    for v in (r, g, b):
        if not 0 <= v <= 255:
            raise ValueError(f"8-bit value out of range: {v}")
    theta_gb = ((g % 16) * 256 + b) / 4095 * HALF_PI
    theta_gr = ((g // 16) * 256 + r) / 4095 * HALF_PI
    return theta_gb, theta_gr


def _location_controls(i: int, n: int, first: int) -> tuple[ControlSpec, ...]:
    trits = trits_from_index(i, 2 * n)
    return tuple(ControlSpec(first + t, int(d)) for t, d in enumerate(trits))


def _register(n: int, extra: int) -> int:
    """Register width 2n + extra, checked against the cap before any op is built."""
    q = 2 * n + extra
    if q > MAX_QUTRITS:
        raise CapacityError(
            f"{3**n}x{3**n} images need {q} qutrits, over the cap of {MAX_QUTRITS}"
        )
    return q


def _hadamards(positions) -> list[CircuitOp]:
    return [CircuitOp(GateSpec("H"), target=p) for p in positions]


def encode_fqri(img: GrayImage) -> EncodeResult:
    """Grayscale values as one RY(0,1) angle per pixel on a value qutrit."""
    if not isinstance(img, GrayImage):
        raise TypeError("encode_fqri takes a grayscale image")
    n = img.n
    q = _register(n, 1)
    ops = _hadamards(range(1, q))
    for i, v in enumerate(img.pixels.reshape(-1).tolist()):
        theta = pixel_angle(v)
        ops.append(
            CircuitOp(
                GateSpec("RY", (0, 1), (2 * theta,)),
                target=0,
                controls=_location_controls(i, n, 1),
            )
        )
    layout = ("value",) + tuple(f"loc{t}" for t in range(2 * n))
    return EncodeResult(Circuit(q, tuple(ops)), n, "FQRI", layout)


def encode_fqrri(img: RgbImage) -> EncodeResult:
    """RGB packed into two angles: RY(0,1) then RY(0,2) per pixel."""
    if not isinstance(img, RgbImage):
        raise TypeError("encode_fqrri takes an RGB image")
    n = img.n
    q = _register(n, 1)
    ops = _hadamards(range(1, q))
    for i, (r, g, b) in enumerate(img.pixels.reshape(-1, 3).tolist()):
        theta_gb, theta_gr = fqrri_angles(r, g, b)
        controls = _location_controls(i, n, 1)
        ops.append(CircuitOp(GateSpec("RY", (0, 1), (2 * theta_gb,)), 0, controls))
        ops.append(CircuitOp(GateSpec("RY", (0, 2), (2 * theta_gr,)), 0, controls))
    layout = ("value",) + tuple(f"loc{t}" for t in range(2 * n))
    return EncodeResult(Circuit(q, tuple(ops)), n, "FQRRI", layout)


def encode_fqrqci(img: RgbImage) -> EncodeResult:
    """RGB as three angles: R in RY(0,1), G and B in a U(1,2) rotation.

    Per pixel the value qutrit ends in
    cos(tr)|0> + sin(tr)cos(tg)|1> + e^{i*tb} sin(tr)sin(tg)|2>.
    """
    if not isinstance(img, RgbImage):
        raise TypeError("encode_fqrqci takes an RGB image")
    n = img.n
    q = _register(n, 1)
    ops = _hadamards(range(1, q))
    for i, (r, g, b) in enumerate(img.pixels.reshape(-1, 3).tolist()):
        tr, tg, tb = pixel_angle(r), pixel_angle(g), pixel_angle(b)
        controls = _location_controls(i, n, 1)
        ops.append(CircuitOp(GateSpec("RY", (0, 1), (2 * tr,)), 0, controls))
        ops.append(CircuitOp(GateSpec("U", (1, 2), (2 * tg, tb, 0.0)), 0, controls))
    layout = ("value",) + tuple(f"loc{t}" for t in range(2 * n))
    return EncodeResult(Circuit(q, tuple(ops)), n, "FQRQCI", layout)


def encode_mcqri(img: RgbImage) -> EncodeResult:
    """One RY(0,1) per pixel and channel, selected by a channel qutrit.

    Register: value qutrit, channel qutrit (0=R, 1=G, 2=B), then the
    location qutrits.
    """
    if not isinstance(img, RgbImage):
        raise TypeError("encode_mcqri takes an RGB image")
    n = img.n
    q = _register(n, 2)
    ops = _hadamards(range(1, q))
    for i, rgb in enumerate(img.pixels.reshape(-1, 3).tolist()):
        location = _location_controls(i, n, 2)
        for channel, v in enumerate(rgb):
            theta = pixel_angle(v)
            controls = (ControlSpec(1, channel),) + location
            ops.append(CircuitOp(GateSpec("RY", (0, 1), (2 * theta,)), 0, controls))
    layout = ("value", "channel") + tuple(f"loc{t}" for t in range(2 * n))
    return EncodeResult(Circuit(q, tuple(ops)), n, "MCQRI", layout)


def encode_qrciq(img: RgbImage) -> EncodeResult:
    """Ternary-plane codec: basis shifts write each channel digit.

    Register: R, G, B digit qutrits, two plane qutrits, then the location
    qutrits.  Plane b = 0 is the least significant ternary digit; digits
    1 and 2 become controlled [+1] / [+2] shifts, digit 0 needs no gate.
    Plane values 6..8 exist in the superposition but carry digit 000.
    """
    if not isinstance(img, RgbImage):
        raise TypeError("encode_qrciq takes an RGB image")
    n = img.n
    q = _register(n, 5)
    shifts = (None, GateSpec("P1"), GateSpec("P2"))
    pixels = [
        (_location_controls(i, n, 5), [ternary_digits_u8(int(v)) for v in rgb])
        for i, rgb in enumerate(img.pixels.reshape(-1, 3))
    ]
    ops = _hadamards(range(3, q))
    for b in range(6):
        plane = (ControlSpec(3, b // 3), ControlSpec(4, b % 3))
        for location, digits in pixels:
            for channel, d in enumerate(digits):
                if d[b]:
                    ops.append(CircuitOp(shifts[d[b]], channel, plane + location))
    layout = ("r_digit", "g_digit", "b_digit", "plane0", "plane1") + tuple(
        f"loc{t}" for t in range(2 * n)
    )
    return EncodeResult(Circuit(q, tuple(ops)), n, "QRCIQ", layout)
