"""Base-3 digit manipulation, register indexing, and the raw statevector.

Register convention: qutrit 0 is the most significant digit, so the basis
index of |q0 q1 ... q_{m-1}> is the base-3 value of the digit string read
left to right.  Histogram keys and diagram rows follow the same order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, RegisterWidthError, quoted

# 3**12 complex128 amplitudes is ~8.5 MB; the largest register any codec
# here needs is qrciq's 2n+5 = 11 qutrits (27x27 images).
MAX_QUTRITS = 12

_TRIT_CHARS = "012"


def trits_from_index(index: int, length: int) -> str:
    """Base-3 digits of `index`, most significant first, padded to `length`."""
    if length < 1:
        raise ValueError(f"trit string length must be >= 1, got {length}")
    if not 0 <= index < 3**length:
        raise ValueError(f"index {index} does not fit in {length} trits")
    digits = []
    for _ in range(length):
        index, rem = divmod(index, 3)
        digits.append(_TRIT_CHARS[rem])
    return "".join(reversed(digits))


def index_from_trits(trits: str) -> int:
    """Integer value of a most-significant-first trit string."""
    if len(trits) < 1:
        raise ValueError("empty trit string")
    if trits.strip(_TRIT_CHARS):  # left with a character that is not a trit
        raise ValueError(f"invalid trit string {trits!r}")
    return int(trits, 3)


def _powers(length: int) -> np.ndarray:
    """3^(length-1), ..., 3, 1: the weights of a most-significant-first string."""
    return 3 ** np.arange(length - 1, -1, -1)


def trit_column(indices: np.ndarray, length: int) -> np.ndarray:
    """`trits_from_index` of every one of `indices`, all in [0, 3^length),
    as one S{length} array."""
    digits = (indices[:, None] // _powers(length) % 3).astype(np.uint8) + ord("0")
    return digits.view(f"S{length}").ravel()


def indices_of_trit_column(column: np.ndarray) -> np.ndarray:
    """`index_from_trits` of every state of an S{length} array, or -1 for
    a state that holds a character other than 0, 1 or 2."""
    digits = column.view(np.uint8).reshape(len(column), -1) - ord("0")  # others wrap past 2
    indices = digits @ _powers(digits.shape[1])
    bad = digits > 2
    if bad.any():
        indices[bad.any(axis=1)] = -1
    return indices


def ternary_digits_u8(value: int) -> tuple[int, ...]:
    """Six base-3 digits of an 8-bit value, least significant plane first."""
    if not 0 <= value <= 255:
        raise ValueError(f"8-bit value out of range: {value}")
    digits = []
    for _ in range(6):
        value, rem = divmod(value, 3)
        digits.append(rem)
    return tuple(digits)


def value_from_digits(digits) -> int:
    """Recombine six least-significant-first base-3 digits.

    The result can reach 728; callers that require an 8-bit value must
    check the range themselves.
    """
    digits = tuple(digits)
    if len(digits) != 6:
        raise ValueError(f"expected 6 digits, got {len(digits)}")
    if any(d not in (0, 1, 2) for d in digits):
        raise ValueError(f"digits must be 0, 1 or 2: {digits}")
    return sum(d * 3**b for b, d in enumerate(digits))


@dataclass
class Statevector:
    """Amplitudes of a register of 1 to `MAX_QUTRITS` qutrits, index-ordered."""

    num_qutrits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        check_capacity(self.num_qutrits)
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (3**self.num_qutrits,):
            raise ValueError(
                f"expected {3**self.num_qutrits} amplitudes, got shape {amps.shape}"
            )
        self.amplitudes = amps

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


def check_capacity(num_qutrits: int):
    """Reject a register width that is not an int from 1 to `MAX_QUTRITS`,
    before anything of size 3^num_qutrits is computed or allocated: a
    width that is not an int (a bool included) or is below 1 is a
    `RegisterWidthError`, one past the cap a `CapacityError`."""
    if type(num_qutrits) is not int or num_qutrits < 1:
        raise RegisterWidthError(
            f"register width must be an int of at least 1, got {quoted(num_qutrits)}"
        )
    if num_qutrits > MAX_QUTRITS:
        raise CapacityError(
            f"{quoted(num_qutrits)} qutrits exceeds the cap of {MAX_QUTRITS}"
        )


def statevector_zero(num_qutrits: int) -> Statevector:
    """The all-|0> state of a `num_qutrits` register."""
    check_capacity(num_qutrits)
    amps = np.zeros(3**num_qutrits, dtype=np.complex128)
    amps[0] = 1.0
    return Statevector(num_qutrits, amps)
