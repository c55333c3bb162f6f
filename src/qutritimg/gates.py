"""Single-qutrit gate matrices.

Every gate is a 3x3 unitary.  Subspace gates act as a 2x2 qubit gate on an
ordered basis pair (j, k) with j < k and leave the third level alone.  The
shift gates [+1] and [+2] cycle the whole basis, and the ternary Hadamard
is the 3-point Fourier matrix built from omega = exp(2*pi*i/3).  Each gate
kind of the circuit layer is defined once, in `_KINDS`.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import quoted

SUBSPACE_PAIRS = ((0, 1), (0, 2), (1, 2))

OMEGA = cmath.exp(2j * math.pi / 3)


def _check_pair(j: int, k: int):
    if (j, k) not in SUBSPACE_PAIRS:
        raise ValueError(f"subspace pair must be one of {SUBSPACE_PAIRS}, got {quoted((j, k))}")


def x_gate(j: int, k: int) -> np.ndarray:
    """Permutation swapping basis states j and k, identity on the third."""
    _check_pair(j, k)
    m = np.eye(3, dtype=np.complex128)
    m[[j, k]] = m[[k, j]]
    return m


def shift_gate(amount: int) -> np.ndarray:
    """Cyclic shift |x> -> |(x + amount) mod 3> for amount 1 or 2."""
    if amount not in (1, 2):
        raise ValueError(f"shift amount must be 1 or 2, got {amount}")
    m = np.zeros((3, 3), dtype=np.complex128)
    for x in range(3):
        m[(x + amount) % 3, x] = 1.0
    return m


def hadamard3() -> np.ndarray:
    """Ternary Hadamard: maps |0> to the unbiased real superposition."""
    w = OMEGA
    return np.array(
        [[1, 1, 1], [1, w, w**2], [1, w**2, w**4]], dtype=np.complex128
    ) / math.sqrt(3)


def _embedded(j: int, k: int, count: int) -> np.ndarray:
    """`count` 3x3 matrices, zero but for 1 on the level outside (j, k)."""
    m = np.zeros((count, 3, 3), dtype=np.complex128)
    m[:, 3 - j - k, 3 - j - k] = 1
    return m


def _rotations(axis: str, j: int, k: int, params) -> np.ndarray:
    """(len(params), 3, 3) stack of `rotation(axis, j, k, theta)` per (theta,).

    Entries come from scalar `math`/`cmath` calls, one angle at a time:
    numpy's vectorised trig can differ from them in the last bit.
    """
    _check_pair(j, k)
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be 'x', 'y' or 'z', got {axis!r}")
    m = _embedded(j, k, len(params))
    if axis == "z":
        m[:, j, j] = [cmath.exp(-1j * theta / 2) for theta, in params]
        m[:, k, k] = [cmath.exp(1j * theta / 2) for theta, in params]
        return m
    c = [math.cos(theta / 2) for theta, in params]
    s = [math.sin(theta / 2) for theta, in params]
    m[:, j, j] = m[:, k, k] = c
    if axis == "x":
        m[:, j, k] = m[:, k, j] = [-1j * v for v in s]
    else:
        m[:, j, k] = [-v for v in s]
        m[:, k, j] = s
    return m


def rotation(axis: str, j: int, k: int, theta: float) -> np.ndarray:
    """exp(-i*theta/2 * sigma_axis) embedded on the (j, k) subspace.

    The sigma operators are the Pauli matrices restricted to the pair:
    sigma_z = |j><j| - |k><k|, sigma_x = |j><k| + |k><j|,
    sigma_y = -i|j><k| + i|k><j|.  Closed forms are used for exactness.
    """
    return _rotations(axis, j, k, ((theta,),))[0]


def _u_subspaces(j: int, k: int, params) -> np.ndarray:
    """(len(params), 3, 3) stack of `u_subspace(j, k, theta, phi, delta)` per
    (theta, phi, delta), from scalar trig as in `_rotations`."""
    _check_pair(j, k)
    m = _embedded(j, k, len(params))
    c = [math.cos(theta / 2) for theta, _, _ in params]
    s = [math.sin(theta / 2) for theta, _, _ in params]
    m[:, j, j] = c
    m[:, j, k] = [-cmath.exp(1j * delta) * v for (_, _, delta), v in zip(params, s)]
    m[:, k, j] = [cmath.exp(1j * phi) * v for (_, phi, _), v in zip(params, s)]
    m[:, k, k] = [cmath.exp(1j * (delta + phi)) * v for (_, phi, delta), v in zip(params, c)]
    return m


def u_subspace(j: int, k: int, theta: float, phi: float, delta: float) -> np.ndarray:
    """General one-parameter-family rotation on the (j, k) subspace.

    Block entries: (j,j)=cos(th/2), (j,k)=-e^{i*delta} sin(th/2),
    (k,j)=e^{i*phi} sin(th/2), (k,k)=e^{i*(delta+phi)} cos(th/2).
    Phases are kept verbatim; no global-phase normalization.
    """
    return _u_subspaces(j, k, ((theta, phi, delta),))[0]


def identity3() -> np.ndarray:
    return np.eye(3, dtype=np.complex128)


def is_unitary(m: np.ndarray, tol: float) -> bool:
    """True iff max entry of |M M^dag - I| is at most tol."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    m = np.asarray(m, dtype=np.complex128)
    return bool(np.max(np.abs(m @ m.conj().T - np.eye(3))) <= tol)


# Per gate kind: its param count, whether it takes a subspace pair, and the
# matrices of a group of its gates on one pair (None if it takes none) from
# their params: one (3, 3) matrix for all, or a stack.
_KINDS = {
    "X": (0, True, lambda pair, params: x_gate(*pair)),
    "P1": (0, False, lambda pair, params: shift_gate(1)),
    "P2": (0, False, lambda pair, params: shift_gate(2)),
    "H": (0, False, lambda pair, params: hadamard3()),
    "I": (0, False, lambda pair, params: identity3()),
    "RX": (1, True, lambda pair, params: _rotations("x", *pair, params)),
    "RY": (1, True, lambda pair, params: _rotations("y", *pair, params)),
    "RZ": (1, True, lambda pair, params: _rotations("z", *pair, params)),
    "U": (3, True, lambda pair, params: _u_subspaces(*pair, params)),
}
PARAM_COUNTS = {kind: count for kind, (count, _, _) in _KINDS.items()}
SUBSPACE_KINDS = frozenset(kind for kind, (_, paired, _) in _KINDS.items() if paired)


@dataclass(frozen=True)
class GateSpec:
    """A named single-qutrit gate with its subspace and finite angle parameters."""

    kind: str
    subspace: tuple[int, int] | None = None
    params: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in PARAM_COUNTS:
            raise ValueError(f"unknown gate kind {quoted(self.kind)}")
        if self.subspace is not None:
            object.__setattr__(self, "subspace", tuple(int(x) for x in self.subspace))
        object.__setattr__(self, "params", tuple(float(p) for p in self.params))
        if self.kind in SUBSPACE_KINDS:
            if self.subspace is None:
                raise ValueError(f"gate {self.kind} requires a subspace pair")
            _check_pair(*self.subspace)
        elif self.subspace is not None:
            raise ValueError(f"gate {self.kind} takes no subspace")
        want = PARAM_COUNTS[self.kind]
        if len(self.params) != want:
            raise ValueError(
                f"gate {self.kind} takes {want} parameter(s), got {len(self.params)}"
            )
        if not all(map(math.isfinite, self.params)):
            raise ValueError(f"gate {self.label()} has a non-finite parameter")

    @classmethod
    def _of_shape(cls, kind, subspace, param_rows) -> list[GateSpec]:
        """One gate per row of `param_rows`, rows of one length: the first
        gate is checked in full, the rest share its kind and subspace and
        are built checking only that their params are finite, at under a
        third of the cost.  Params are float(p) each, as the checks make
        them, converted a column at a time."""
        first = cls(kind, subspace, param_rows[0])
        columns = [list(map(float, column)) for column in zip(*param_rows[1:])]
        rows = list(zip(*columns)) or [()] * (len(param_rows) - 1)
        # A column's sum is finite unless one of its params is not, or the
        # sum overflows; then each row is checked in full.
        if not all(math.isfinite(sum(column)) for column in columns):
            for params in rows:
                cls(kind, subspace, params)
        gates = [first]
        for params in rows:
            gate = cls.__new__(cls)
            gate.__dict__.update(kind=first.kind, subspace=first.subspace, params=params)
            gates.append(gate)
        return gates

    def matrix(self) -> np.ndarray:
        return gate_matrices((self,))[0]

    def label(self) -> str:
        """Short text used in circuit diagrams, params to 2 decimals."""
        if self.kind == "P1":
            return "+1"
        if self.kind == "P2":
            return "+2"
        name = self.kind
        if self.subspace is not None:
            name += f"{self.subspace[0]}{self.subspace[1]}"
        if self.params:
            name += "(" + ",".join(f"{p:.2f}" for p in self.params) + ")"
        return name


def gate_matrices(gates) -> np.ndarray:
    """(len(gates), 3, 3) stack of the gates' matrices, built a (kind, subspace)
    group at a time by the kind's matrix function in `_KINDS`: one stack per
    rotation or U group, one matrix per group of any other kind."""
    groups: dict = {}
    for i, gate in enumerate(gates):
        groups.setdefault((gate.kind, gate.subspace), []).append(i)
    out = np.empty((len(gates), 3, 3), dtype=np.complex128)
    for (kind, pair), idx in groups.items():
        count, _, build = _KINDS[kind]
        out[idx] = build(pair, [gates[i].params for i in idx] if count else ())
    return out
