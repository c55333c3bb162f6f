"""Circuits of value-controlled single-qutrit gates on a statevector.

Controlled gates are applied by amplitude-index filtering: the 3x3 block
acts only on the slice of the state tensor where every control qutrit
equals its required value.  The full 3^q x 3^q operator is never built.
`run` allocates one buffer and writes each op's slice into it in place;
`apply_op` applies one op to a copy and leaves its input unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ShapeError
from .gates import GateSpec
from .ternary import Statevector, index_from_trits, statevector_zero, trits_from_index


@dataclass(frozen=True)
class ControlSpec:
    """Require register position `qutrit` to equal `value` (0, 1 or 2)."""

    qutrit: int
    value: int

    def __post_init__(self):
        if self.qutrit < 0:
            raise ValueError(f"control qutrit must be >= 0, got {self.qutrit}")
        if self.value not in (0, 1, 2):
            raise ValueError(f"control value must be 0, 1 or 2, got {self.value}")


@dataclass(frozen=True)
class CircuitOp:
    gate: GateSpec
    target: int
    controls: tuple[ControlSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(self.controls))
        if self.target < 0:
            raise ValueError(f"target must be >= 0, got {self.target}")
        positions = [c.qutrit for c in self.controls]
        if self.target in positions:
            raise ValueError(f"target {self.target} also appears as a control")
        if len(set(positions)) != len(positions):
            raise ValueError(f"duplicate control qutrits in {positions}")


@dataclass(frozen=True)
class Circuit:
    num_qutrits: int
    ops: tuple[CircuitOp, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ops", tuple(self.ops))
        if self.num_qutrits < 1:
            raise ValueError("circuit needs at least one qutrit")
        for op in self.ops:
            _check_op_bounds(op, self.num_qutrits)


@dataclass
class ShotHistogram:
    """Counts of measured basis states, keyed by trit string (MSB first)."""

    num_qutrits: int
    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if self.shots < 1:
            raise ValueError(f"a histogram needs at least 1 shot, got {self.shots}")
        for state, count in self.counts.items():
            if len(state) != self.num_qutrits:
                raise ShapeError(
                    f"state {state!r} has length {len(state)}, "
                    f"expected {self.num_qutrits}"
                )
            index_from_trits(state)
            if count < 0:
                raise ValueError(f"negative count for state {state!r}")
        if sum(self.counts.values()) != self.shots:
            raise ValueError("histogram counts do not sum to shots")

    def to_probabilities(self) -> np.ndarray:
        """Empirical probability per basis index (count / shots)."""
        probs = np.zeros(3**self.num_qutrits)
        for state, count in self.counts.items():
            probs[index_from_trits(state)] = count / self.shots
        return probs


def _check_op_bounds(op: CircuitOp, num_qutrits: int):
    if op.target >= num_qutrits:
        raise ValueError(f"target {op.target} out of range for {num_qutrits} qutrits")
    for c in op.controls:
        if c.qutrit >= num_qutrits:
            raise ValueError(
                f"control qutrit {c.qutrit} out of range for {num_qutrits} qutrits"
            )


def _apply_in_place(tensor: np.ndarray, op: CircuitOp):
    """Apply `op` to a (3,)*q amplitude tensor, writing only the controlled slice."""
    index = [slice(None)] * tensor.ndim
    for c in op.controls:
        index[c.qutrit] = c.value
    # After fixing the control axes, the target axis shifts left by the
    # number of controls that precede it.
    axis = op.target - sum(1 for c in op.controls if c.qutrit < op.target)
    block = np.moveaxis(tensor[tuple(index)], axis, 0)
    block[...] = np.dot(op.gate.matrix(), block.reshape(3, -1)).reshape(block.shape)


def apply_op(state: Statevector, op: CircuitOp) -> Statevector:
    """Apply one (possibly controlled) gate, returning a new statevector."""
    q = state.num_qutrits
    _check_op_bounds(op, q)
    out = state.amplitudes.copy()
    _apply_in_place(out.reshape((3,) * q), op)
    return Statevector(q, out)


def run(circuit: Circuit) -> Statevector:
    """Execute all ops on the all-|0> state, in place in one buffer."""
    state = statevector_zero(circuit.num_qutrits)
    tensor = state.amplitudes.reshape((3,) * circuit.num_qutrits)
    for op in circuit.ops:
        _apply_in_place(tensor, op)
    return state


def probabilities(state: Statevector) -> np.ndarray:
    """|amplitude|^2 per basis index, ascending index order."""
    return np.abs(state.amplitudes) ** 2


def sample(state: Statevector, shots: int, seed: int) -> ShotHistogram:
    """Multinomial draw from the state's outcome distribution.

    Identical (state, shots, seed) triples give identical histograms.
    """
    if not 1 <= shots <= np.iinfo(np.int64).max:
        raise ValueError(f"shots must be in [1, 2^63 - 1], got {shots}")
    probs = probabilities(state)
    probs = probs / probs.sum()
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(shots, probs)
    q = state.num_qutrits
    counts = {
        trits_from_index(i, q): int(c) for i, c in enumerate(drawn) if c > 0
    }
    return ShotHistogram(q, counts, shots)


# --- circuit JSON ---------------------------------------------------------

def _json_float(x: float) -> str:
    """`x` as json.dumps spells it: repr, or NaN / Infinity / -Infinity."""
    if math.isfinite(x):
        return float.__repr__(x)
    return "NaN" if x != x else "Infinity" if x > 0 else "-Infinity"


def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered `items`, closing at `indent`, as indent=1 lays it out."""
    if not items:
        return "[]"
    inner = indent + " "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def circuit_to_json(circuit: Circuit) -> str:
    """The text of json.dumps(doc, indent=1), written from one template per op.

    json.dumps with an indent runs the pure-Python encoder, so the fixed
    layout is rendered here.  Gate heads and control entries are rendered
    once per distinct (kind, subspace) and (q, v).
    """
    heads: dict = {}
    entries: dict = {}
    ops = []
    for op in circuit.ops:
        gate = op.gate
        head = heads.get((gate.kind, gate.subspace))
        if head is None:
            pair = gate.subspace
            subspace = _json_array([str(j) for j in pair], "   ") if pair else "null"
            head = heads[gate.kind, pair] = (
                f'{{\n   "gate": {json.dumps(gate.kind)},\n   "subspace": {subspace},\n'
            )
        controls = []
        for c in op.controls:
            entry = entries.get((c.qutrit, c.value))
            if entry is None:
                entry = entries[c.qutrit, c.value] = (
                    f'{{\n     "q": {c.qutrit},\n     "v": {c.value}\n    }}'
                )
            controls.append(entry)
        ops.append(
            f'{head}   "params": {_json_array([_json_float(p) for p in gate.params], "   ")},\n'
            f'   "target": {op.target},\n   "controls": {_json_array(controls, "   ")}\n  }}'
        )
    return f'{{\n "num_qutrits": {circuit.num_qutrits},\n "ops": {_json_array(ops, " ")}\n}}'


def _json(value, kind: type, field: str):
    """`value` if its JSON type is exactly `kind`: true is not an int, 1.0 is not."""
    if type(value) is not kind:
        raise ParseError(f"circuit JSON {field!r} must be {kind.__name__}, got {value!r}")
    return value


def circuit_from_json(text: str) -> Circuit:
    """Parse circuit JSON, checking the type of every field of every op.

    Each distinct well-typed (q, v) control and each distinct gate without
    params is built once and shared by the ops that repeat it.
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid circuit JSON: {exc}") from exc
    gates: dict = {}
    specs: dict = {}
    try:
        ops = []
        for entry in _json(doc["ops"], list, "ops"):
            pair = entry["subspace"]
            if pair is not None:
                pair = tuple(_json(j, int, "subspace") for j in _json(pair, list, "subspace"))
            params = _json(entry["params"], list, "params")
            if not all(type(p) in (int, float) and math.isfinite(p) for p in params):
                raise ParseError(f"circuit JSON params must be finite numbers: {params}")
            if params:  # -0.0 == 0.0, so gates with params are not shared
                gate = GateSpec(entry["gate"], pair, params)
            else:
                gate = gates.get((entry["gate"], pair))
                if gate is None:
                    gate = gates[entry["gate"], pair] = GateSpec(entry["gate"], pair)
            controls = []
            typed = True
            for c in _json(entry["controls"], list, "controls"):
                q, v = c["q"], c["v"]
                if type(q) is int and type(v) is int:  # (True, 1) == (1, 1) as a key
                    spec = specs.get((q, v))
                    if spec is None:
                        spec = specs[q, v] = ControlSpec(q, v)
                else:
                    spec, typed = ControlSpec(q, v), False
                controls.append(spec)
            if not typed:
                raise ParseError(f"circuit JSON controls need int q and v: {entry['controls']}")
            ops.append(CircuitOp(gate, _json(entry["target"], int, "target"), controls))
        return Circuit(_json(doc["num_qutrits"], int, "num_qutrits"), tuple(ops))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"invalid circuit JSON structure: {exc}") from exc


# --- histogram / probability CSV ------------------------------------------

def histogram_to_csv(hist: ShotHistogram) -> str:
    lines = ["state,count"]
    lines += [f"{state},{hist.counts[state]}" for state in sorted(hist.counts)]
    return "\n".join(lines) + "\n"


def histogram_from_csv(text: str) -> ShotHistogram:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "state,count":
        raise ParseError("expected 'state,count' header")
    counts: dict[str, int] = {}
    for ln in lines[1:]:
        try:
            state, raw = ln.split(",")
            count = int(raw)
        except ValueError as exc:
            raise ParseError(f"bad histogram row {ln!r}") from exc
        if state in counts:
            raise ParseError(f"duplicate state {state!r}")
        counts[state] = count
    if not counts:
        raise ParseError("histogram has no rows")
    return ShotHistogram(len(next(iter(counts))), counts, sum(counts.values()))


def probabilities_to_csv(num_qutrits: int, probs: np.ndarray) -> str:
    if len(probs) != 3**num_qutrits:
        raise ShapeError(f"expected {3**num_qutrits} probabilities, got {len(probs)}")
    lines = ["state,probability"]
    lines += [
        f"{trits_from_index(i, num_qutrits)},{p:.17g}" for i, p in enumerate(probs)
    ]
    return "\n".join(lines) + "\n"


def probabilities_from_csv(text: str) -> tuple[int, np.ndarray]:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "state,probability":
        raise ParseError("expected 'state,probability' header")
    rows = lines[1:]
    if not rows:
        raise ParseError("probability table has no rows")
    length = len(rows[0].split(",")[0])
    if len(rows) != 3**length:
        raise ParseError(
            f"probability table must list all 3^{length} states, got {len(rows)} rows"
        )
    probs = np.zeros(3**length)
    seen = set()
    for ln in rows:
        try:
            state, raw = ln.split(",")
            index, p = index_from_trits(state), float(raw)
        except ValueError as exc:
            raise ParseError(f"bad probability row {ln!r}") from exc
        if len(state) != length:
            raise ParseError(f"state {state!r} is not {length} trits long")
        if index in seen:
            raise ParseError(f"duplicate state {state!r}")
        if not 0.0 <= p <= 1.0:  # also false for NaN
            raise ParseError(f"probability {raw.strip()!r} is not a number in [0, 1]")
        seen.add(index)
        probs[index] = p
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:  # an exact table is off by roundoff only
        raise ParseError(f"probabilities sum to {total!r}, not 1")
    return length, probs


# --- text diagrams ---------------------------------------------------------

def diagram_columns(circuit: Circuit) -> list[list[str]]:
    """Cell grid of the diagram: one header column plus one column per op."""
    q = circuit.num_qutrits
    cols = [[f"q{j}:" for j in range(q)]]
    for op in circuit.ops:
        cells = [""] * q
        cells[op.target] = f"[{op.gate.label()}]"
        for c in op.controls:
            cells[c.qutrit] = f"({c.value})"
        cols.append(cells)
    return cols


def diagram(circuit: Circuit) -> str:
    """Render wires left to right, one text row per qutrit.

    Gate boxes sit on the target wire, control values print as circled
    digits `(v)` on the control wires.
    """
    cols = diagram_columns(circuit)
    widths = [max(len(cell) for cell in col) for col in cols]
    rows = []
    for j in range(circuit.num_qutrits):
        parts = [cols[0][j].ljust(widths[0])]
        for col, width in zip(cols[1:], widths[1:]):
            parts.append("--" + col[j].center(width, "-"))
        rows.append("".join(parts) + "--")
    return "\n".join(rows) + "\n"
