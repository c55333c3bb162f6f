"""Image reconstruction from shot histograms or exact probability vectors.

Each decoder inverts its encoder's trigonometry in one pass over arrays of
pixels.  Sampled probabilities can fall slightly outside the domain of the
inverse trig functions, so every argument is clipped into range first;
`clip_events` in the report counts, with one mask per clip site, how often
that changed a value that is used.  Excursions below CLIP_COUNT_TOL are
floating-point dust from exact-probability inputs, not sampling noise, and
are clamped silently.  The trig runs through the scalar `math` functions,
whose rounding numpy's do not match; the rest (sqrt, +, -, *, /, floor) is
correctly rounded in numpy too, and keeps the per-pixel formulas' order.

Probabilities are used exactly as the inversion formulas expect them:
raw count/shots values, scaled by the ideal location marginal (the 3^n
factors below).  No per-pixel renormalization by the observed location
frequency is applied.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .encode import EncodeResult
from .encode import encode_fqri, encode_fqrqci, encode_fqrri, encode_mcqri, encode_qrciq
from .errors import HistogramInconsistencyError, ProbabilityError, ShapeError
from .gates import GateSpec
from .images import GrayImage, RgbImage
from .simulator import Circuit, CircuitOp, ShotHistogram
from .ternary import check_capacity

# Below this, sin/cos prefactors are treated as zero: the encoded state
# carries no usable information about the dependent channel.
DEGENERACY_EPSILON = 1e-6

# Domain excursions smaller than this are roundoff, not noise.
CLIP_COUNT_TOL = 1e-12

HALF_PI = math.pi / 2


@dataclass
class DecodeReport:
    image: GrayImage | RgbImage
    clip_events: int
    missing_states: tuple = ()
    shots_used: int = 0


def _scalar(f, *xs: np.ndarray) -> np.ndarray:
    """f of each element, by the scalar `math` function: numpy's trig does
    not round like it, so it could move a value across a rounding tie."""
    return np.fromiter(map(f, *(x.tolist() for x in xs)), float, xs[0].size)


def _clip(x: np.ndarray, lo: float | None, hi: float, where=None) -> tuple[np.ndarray, int]:
    """min(max(x, lo), hi) per element, and the number of elements (under
    the mask `where`) that lay beyond [lo, hi] by more than CLIP_COUNT_TOL.
    lo=None is for x >= 0 clipped into [0, hi]: only the top is crossed."""
    beyond = x > hi + CLIP_COUNT_TOL
    if lo is None:
        x = np.minimum(x, hi)
    else:
        beyond |= x < lo - CLIP_COUNT_TOL
        x = np.minimum(np.maximum(x, lo), hi)
    if where is not None:
        beyond &= where
    return x, int(np.count_nonzero(beyond))


def _value_u8(theta: np.ndarray) -> np.ndarray:
    """Angles in [0, pi/2] back to 8-bit values, rounding half up: the cast
    truncates, which is the floor of these non-negative values."""
    return (theta / HALF_PI * 255 + 0.5).astype(np.uint8)


def _check_width(hist: ShotHistogram, num_qutrits: int):
    if hist.num_qutrits != num_qutrits:
        raise ShapeError(f"histogram is over {hist.num_qutrits} qutrits, expected {num_qutrits}")


def _as_probabilities(hist, num_qutrits: int) -> tuple[np.ndarray, int]:
    """Accept a ShotHistogram or a raw probability vector of finite entries >= 0.

    A raw vector's register is checked against the cap before 3^q is
    computed.  It need not sum to 1, but not all of it may be 0.  Its -0.0
    entries are +0.0 in the returned copy, so the decoders need not mind
    the sign of a zero (atan2(0, -0.0) is pi).
    """
    if isinstance(hist, ShotHistogram):
        _check_width(hist, num_qutrits)
        return hist.to_probabilities(), hist.shots
    check_capacity(num_qutrits)
    probs = np.asarray(hist, dtype=float)
    if probs.shape != (3**num_qutrits,):
        raise ShapeError(
            f"expected {3**num_qutrits} probabilities, got shape {probs.shape}"
        )
    bad = np.flatnonzero(~(probs >= 0) | np.isinf(probs))  # NaN fails >= 0
    if bad.size:
        i = int(bad[0])
        raise ProbabilityError(
            f"probability {i} is {float(probs[i])!r}; entries must be finite and >= 0"
        )
    if not probs.any():
        raise ProbabilityError("every probability is 0; a raw vector needs a positive sum")
    return probs + 0.0, 0  # -0.0 + 0.0 is +0.0


def decode_fqri(hist, n: int) -> DecodeReport:
    """Grayscale: theta_i = atan2(sqrt(p1), sqrt(p0)) per pixel.

    The ratio form cancels the location marginal, so shot noise in where
    the pixel was sampled does not bias the value.
    """
    probs, shots = _as_probabilities(hist, 2 * n + 1)
    zeros, ones = np.sqrt(probs.reshape(3, -1)[:2])
    theta = _scalar(math.atan2, ones, zeros)  # in [0, pi/2]: no entry is -0.0
    return DecodeReport(GrayImage(_value_u8(theta).reshape(3**n, 3**n)), 0, (), shots)


def fqrri_values_from_angles(theta_gb, theta_gr):
    """Unpack the two angles, scalars or arrays alike, back to (R, G, B).

    v_gb recovers (G mod 16)*256 + B and v_gr recovers (G // 16)*256 + R,
    so G = (v_gb // 256) + (v_gr // 256) * 16.  The values are numpy
    integers, or integer arrays of the angles' shape.
    """
    v = np.floor(np.multiply((theta_gb, theta_gr), 4095) * 2 / math.pi + 0.5).astype(np.int64)
    high, low = np.divmod(v, 256)
    return low[1], high[0] + high[1] * 16, low[0]


def decode_fqrri(hist, n: int) -> DecodeReport:
    """Two-angle RGB: theta_gb from asin, theta_gr from a probability ratio.

    Where p0 = 0, theta_gr is pi/2 if p2 > 0 (the atan of p2 / 0 = inf)
    and 0 if not.
    """
    probs, shots = _as_probabilities(hist, 2 * n + 1)
    zeros, ones, twos = probs.reshape(3, -1)
    x, events = _clip(3**n * np.sqrt(ones), None, 1.0)
    # p0 = 0 gives p2 / 0 = inf, whose atan is pi/2, or 0 / 0 = NaN, which
    # fmax takes to 0; a subnormal p0 may overflow to inf, as in Python
    with np.errstate(all="ignore"):
        ratio = np.fmax(twos / zeros, 0.0)
    rgb = fqrri_values_from_angles(_scalar(math.asin, x), _scalar(math.atan, np.sqrt(ratio)))
    pixels = np.array(rgb, dtype=np.uint8).T.reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), events, (), shots)


def fqrqci_measurement_circuits(enc: EncodeResult) -> tuple[Circuit, Circuit, Circuit]:
    """The three circuits whose statistics the three-angle decoder needs.

    Circuit 1 is the preparation itself; circuits 2 and 3 append an
    uncontrolled U(0,2) basis change on the value qutrit that interferes
    the |0> and |2> amplitudes, exposing the blue phase in the |0>/|2>
    probability difference.
    """
    if enc.method != "FQRQCI":
        raise ValueError(f"expected an FQRQCI encode result, got {enc.method}")
    base = enc.circuit
    gate2 = CircuitOp(GateSpec("U", (0, 2), (HALF_PI, -math.pi, -math.pi)), 0)
    gate3 = CircuitOp(GateSpec("U", (0, 2), (HALF_PI, -HALF_PI, HALF_PI)), 0)
    q = base.num_qutrits
    c2 = Circuit.from_blocks(q, base.blocks + Circuit(q, (gate2,)).blocks)
    c3 = Circuit.from_blocks(q, base.blocks + Circuit(q, (gate3,)).blocks)
    return base, c2, c3


def decode_fqrqci(hist1, hist2, hist3, n: int) -> DecodeReport:
    """Three-angle RGB from the three measurement distributions.

    Per pixel: theta_r = acos(3^n sqrt(p0)) and theta_g from p1 of the
    plain run; theta_b = atan2 of the |0>-|2> probability differences of
    the two basis-changed runs.  When a sin/cos prefactor vanishes the
    dependent channels are reported as 0 -- the state carries nothing to
    recover.  That covers R=0 (G and B lost), G=0 (B lost) and R=255
    (B lost: the |0> amplitude that the basis changes interfere with is
    zero, so both probability differences vanish identically).  Clip
    events count only where a channel is recovered.
    """
    probs1, shots1 = _as_probabilities(hist1, 2 * n + 1)
    probs2, shots2 = _as_probabilities(hist2, 2 * n + 1)
    probs3, shots3 = _as_probabilities(hist3, 2 * n + 1)
    root0, root1 = 3**n * np.sqrt(probs1.reshape(3, -1)[:2])
    cos0, _, cos2 = probs2.reshape(3, -1)
    sin0, _, sin2 = probs3.reshape(3, -1)
    x_r, events_r = _clip(root0, None, 1.0)
    theta_r = _scalar(math.acos, x_r)
    sin_r = _scalar(math.sin, theta_r)
    has_g = sin_r >= DEGENERACY_EPSILON
    # the divisor differs from sin_r only where theta_g is discarded
    x_g, events_g = _clip(root1 / np.maximum(sin_r, DEGENERACY_EPSILON), None, 1.0, has_g)
    theta_g = _scalar(math.acos, x_g)
    has_b = (has_g & (sin_r * _scalar(math.sin, theta_g) >= DEGENERACY_EPSILON)
             & (_scalar(math.cos, theta_r) >= DEGENERACY_EPSILON))
    theta_b, events_b = _clip(_scalar(math.atan2, sin0 - sin2, cos0 - cos2), 0.0, HALF_PI, has_b)
    thetas = np.array((theta_r, theta_g * has_g, theta_b * has_b))
    pixels = _value_u8(thetas).T.reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), events_r + events_g + events_b, (),
                        shots1 + shots2 + shots3)


def decode_mcqri(hist, n: int) -> DecodeReport:
    """Channel-multiplexed RGB: theta = acos(3^{2n+1}(p_cos - p_sin)) / 2.

    The probability vector splits into three equal blocks by value-qutrit
    digit; the first holds the cos^2 terms, the second the sin^2 terms,
    and the third is empty.  Within a block, channel R/G/B is the next
    digit, then the pixel index.
    """
    probs, shots = _as_probabilities(hist, 2 * n + 2)
    cos_block, sin_block, _ = probs.reshape(3, -1)
    x, events = _clip(3 ** (2 * n + 1) * (cos_block - sin_block), -1.0, 1.0)
    values = _value_u8(_scalar(math.acos, x) / 2)
    pixels = values.reshape(3, -1).T.reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), events, (), shots)


# Row k: the (R, G, B) digits of the packed code k = R*9 + G*3 + B.
_DIGITS = np.arange(27)[:, None] // (9, 3, 1) % 3


def _support(hist, num_qutrits: int) -> tuple[np.ndarray, int]:
    """The ascending basis indices of probability above 1e-15, and the
    shots (0 for a raw vector).  A histogram is read from its arrays, by
    the same division as its `to_probabilities`."""
    if isinstance(hist, ShotHistogram):
        _check_width(hist, num_qutrits)
        return hist.indices[hist.frequencies() > 1e-15], hist.shots
    probs, shots = _as_probabilities(hist, num_qutrits)
    return np.flatnonzero(probs > 1e-15), shots


def decode_qrciq(hist, n: int) -> DecodeReport:
    """Ternary-plane RGB: presence of a basis state is the whole message.

    Each observed state carries (R digit, G digit, B digit, plane, pixel).
    Plane values 6..8 are padding from the plane-qutrit superposition and
    are discarded.  A (plane <= 5, pixel) slot that was never observed
    contributes digit 0 and is listed in `missing_states` as
    (plane, pixel, channel) triples.  Counts beyond presence are ignored,
    so the result depends only on the histogram support, which a
    `ShotHistogram` gives without a dense vector: its listed indices whose
    count / shots exceeds 1e-15, the rule a raw vector's entries follow.
    """
    hits, shots = _support(hist, 2 * n + 5)
    area = 9**n
    # basis index = (R*9 + G*3 + B) * 9^(n+1) + slot, slot = plane * area + pixel
    packed, slot = np.divmod(hits, 9 * area)
    kept = slot < 6 * area
    packed, slot = packed[kept], slot[kept]
    table = np.full(6 * area, -1)
    table[slot] = packed
    # Hits are distinct, so two in one slot carry two codes, one of them lost here.
    if (table[slot] != packed).any():
        raise _clash(packed, slot, area)
    absent = np.flatnonzero(table < 0)
    table[absent] = 0
    missing = [(*divmod(s, area), ch) for s in absent.tolist() for ch in "RGB"]
    values = np.tensordot(3 ** np.arange(6), _DIGITS[table].reshape(6, area, 3), axes=1)
    if values.max() > 255:
        raise HistogramInconsistencyError(
            "decoded channel value exceeds 255; histogram is not a valid encoding"
        )
    pixels = values.reshape(3**n, 3**n, 3).astype(np.uint8)
    return DecodeReport(RgbImage(pixels), 0, tuple(missing), shots)


def _clash(packed: np.ndarray, slot: np.ndarray, area: int) -> HistogramInconsistencyError:
    """The error of the first hit, in index order, whose slot an earlier
    hit holds with other digits."""
    _, first = np.unique(slot, return_index=True)
    seen = np.ones(len(slot), dtype=bool)
    seen[first] = False
    k = int(np.flatnonzero(seen)[0])
    earlier = packed[first[np.searchsorted(slot[first], slot[k])]]
    plane, pixel = divmod(int(slot[k]), area)
    return HistogramInconsistencyError(
        f"plane {plane}, pixel {pixel} observed with digits "
        f"{tuple(_DIGITS[earlier].tolist())} and {tuple(_DIGITS[packed[k]].tolist())}"
    )


@dataclass(frozen=True)
class Codec:
    """One image representation: preparation, measurements and inversion.

    `encode(image)` prepares a 2n + extra_qutrits register, `measure(enc)`
    lists the circuits to sample and `decode(*hists, n)` inverts one
    histogram per circuit.  The functions are plain instance attributes,
    so a tracer can rebind them per instance.
    """

    name: str
    gray: bool
    extra_qutrits: int
    encode: Callable[..., EncodeResult]
    decode: Callable[..., DecodeReport]
    histograms: int = 1
    measure: Callable[[EncodeResult], tuple[Circuit, ...]] = lambda enc: (enc.circuit,)

    def n_from_qutrits(self, q: int) -> int:
        """The image exponent n of a 2n + extra_qutrits register."""
        n, odd = divmod(q - self.extra_qutrits, 2)
        if odd or n < 1:
            raise ShapeError(f"a {q}-qutrit register fits no {self.name} image "
                             f"(2n+{self.extra_qutrits} qutrits, n >= 1)")
        return n


# Keyed by CLI name; tables that list every codec follow this order.
CODECS = {
    codec.name: codec
    for codec in (
        Codec("fqri", True, 1, encode_fqri, decode_fqri),
        Codec("fqrri", False, 1, encode_fqrri, decode_fqrri),
        Codec("fqrqci", False, 1, encode_fqrqci, decode_fqrqci,
              histograms=3, measure=fqrqci_measurement_circuits),
        Codec("mcqri", False, 2, encode_mcqri, decode_mcqri),
        Codec("qrciq", False, 5, encode_qrciq, decode_qrciq),
    )
}
