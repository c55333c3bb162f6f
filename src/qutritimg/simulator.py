"""Circuits of value-controlled single-qutrit gates on a statevector.

A circuit is a sequence of blocks.  A block is a uniformly controlled gate
(a multiplexor): one tuple of control qutrits, an (m, c) int array of
distinct control values, and its ops as columns in emission order: per
op, its entry (a row of the values), its target and its gate.  Ops on
different control values act on disjoint slices of the state and
commute, so `run` applies a whole block in a few numpy passes: an entry's
rows lie at the flat offset of its control row plus those of the free
axes' values, so one int64 index per box reaches the rows of all m
entries at once, entry axis last.  A step is one gate per listed entry
on one target; an entry's ops share a level while their targets rise,
and a step is one (level, target), so each entry keeps its own op order
and statevectors are bit-identical to applying the ops one at a time.
The full 3^q x 3^q operator is never built.

`run` starts from |0...0> and keeps one extent per qutrit: 1 while no
step has targeted it, 3 after.  The state is zero outside the support box
of the first extent[j] values of every axis j.  A first touch is a step
whose target is still at extent 1 and whose gates each have a column 0
of purely real or purely imaginary entries (I, H, P1, P2, X, RX, RY, and
RZ or U on the pair (1, 2)).  A block's leading first touches fold into
one chain of broadcast products on the box: gathered once, multiplied
by each step's column 0 in step order (output i on the target is M[i, 0]
times the target-0 amplitude, and an entry the step does not list takes
(1, 0, 0)), written back to the state once.  That is exact: each output is one
rounded product of a real or imaginary gate entry with an amplitude per
step, plus exact zeros, and BLAS and numpy's complex multiply give the
same bits for that, with or without FMA.  Every later step, a re-touch,
a complex column 0 or a first touch after either, runs as one batched
BLAS product on its full rows, gathered from the state, of the (3, 3) @ (3, 3^(q-c-1)) shape of a
single controlled op: BLAS rounds a (3, 3) @ (3, N) product differently
depending on N.  The location Hadamards of every codec, the first step
of its location-controlled block and all of the `qrciq` colour shifts
are first touches.  `run` returns every zero amplitude as +0.0: OpenBLAS
writes -0.0 into some columns of an all-zero input, such zeros may lie
outside the box, and the (1, 0, 0) of an unlisted entry may sign a zero.
The box needs finite gate params, as a NaN times the zeros outside it
is NaN in the full product: that holds by construction, since `GateSpec`
rejects a NaN or infinite param.

`run` allocates one scratch buffer of 2 x 3^q amplitudes per call; the
fold writes its products there, and a BLAS step its input and product,
so no step allocates a state-sized array.  Every call then allocates the
same arrays, whose pages the heap reuses in a process that runs many
circuits: with per-step arrays, a 27x27 `qrciq` run in such a process
took about 2,000 more page faults and twice the time.

`Circuit(q, ops)` and `circuit_from_json` group a flat op list, given as
columns, into blocks with numpy; the encoders build their columns with
numpy too.  They and `Circuit.from_blocks` reject a register wider than
`MAX_QUTRITS`, so every circuit can be run, written and drawn.
`Circuit.ops` is the flat op view in emission order, built from the
columns when first read with no Python-level call per op: per block each
entry's control tuple once (the three `ControlSpec`s of each control
qutrit gathered by the value rows and zipped), then the op tuples by
C-level maps over the gate, target and entry columns.  Equality, hash,
repr and `diagram` follow it.

Circuit JSON is the text of json.dumps(doc, indent=1), ops in emission
order.  The writer renders each block's ops once and keeps the text on
the block (`Block.json_ops`), so circuits that share blocks share that
work: each gate's text from one %-template per (kind, subspace), one
`%r` per param, each entry's from one uint8 template row.  The reader scans text in that
layout as bytes, at fixed offsets, and accepts the circuit it finds only
if the writer renders it back to the same text, which it does not keep;
any other text is parsed by `json.loads` and read op by op, which
reports the first bad field.
The reader and the `ops` view pause the cyclic garbage collector
(`_collector_paused`): `json.loads` builds tens of thousands of dicts and
lists, and the view as many tuples, enough to start collections that
traverse them all and free nothing, as neither has cycles.  The pause is
process-wide and best-effort: the collector comes back on when the call
ends only if it was on when the call began.

`sample` returns a `ShotHistogram` of two int64 arrays, the hit basis
indices in ascending order and their counts, taken straight from a
multinomial draw over the non-zero probabilities and the last index,
which gives the counts of the draw over all 3^q; counts and totals are
bounded by 2^63 - 1.  Its trit strings exist only in the `counts` view,
built when first read, and `to_probabilities` is one scatter.  The CSV
tables convert a whole state column at a time (`ternary.trit_column` and
`ternary.indices_of_trit_column`).
"""

from __future__ import annotations

import gc
import json
import math
from collections import namedtuple
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, filterfalse, repeat
from operator import attrgetter, getitem

import numpy as np

from .errors import ParseError, ShapeError, quoted
from .gates import GateSpec, gate_matrices
from .ternary import (
    MAX_QUTRITS, Statevector, check_capacity, index_from_trits, indices_of_trit_column,
    statevector_zero, trit_column, trits_from_index,
)


def _check_int(value, field: str):
    """Reject non-int fields: `True` is an int to Python but not to circuit JSON."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an int, got {value!r}")


@dataclass(frozen=True)
class ControlSpec:
    """Require register position `qutrit` to equal `value` (0, 1 or 2)."""

    qutrit: int
    value: int

    def __post_init__(self):
        _check_int(self.qutrit, "control qutrit")
        _check_int(self.value, "control value")
        if self.qutrit < 0:
            raise ValueError(f"control qutrit must be >= 0, got {quoted(self.qutrit)}")
        if self.value not in (0, 1, 2):
            raise ValueError(f"control value must be 0, 1 or 2, got {quoted(self.value)}")


class CircuitOp(namedtuple("CircuitOp", "gate target controls")):
    """An immutable (gate, target, controls) record: an op equals only an op."""

    __slots__ = ()

    def __new__(cls, gate: GateSpec, target: int, controls=()):
        controls = tuple(controls)
        if not isinstance(gate, GateSpec):
            raise TypeError(f"op gate must be a GateSpec, got {type(gate).__name__}")
        _check_int(target, "target")
        for c in controls:
            if not isinstance(c, ControlSpec):
                raise TypeError(f"op control must be a ControlSpec, got {type(c).__name__}")
        _check_op(target, [c.qutrit for c in controls])
        return tuple.__new__(cls, (gate, target, controls))

    def __eq__(self, other):
        if not isinstance(other, CircuitOp):  # a plain tuple would compare item by item
            return False if isinstance(other, tuple) else NotImplemented
        return tuple.__eq__(self, other)

    __ne__ = object.__ne__  # the negation of __eq__, not tuple's
    __hash__ = tuple.__hash__

    @classmethod
    def _make(cls, fields):  # and so `_replace`: checked, as the constructor is
        return cls(*fields)


def _check_op(target: int, positions: list[int]):
    """The checks of one op that need no register width."""
    if target < 0:
        raise ValueError(f"target must be >= 0, got {quoted(target)}")
    if target in positions:
        raise ValueError(f"target {quoted(target)} also appears as a control")
    if len(set(positions)) != len(positions):
        raise ValueError(f"duplicate control qutrits in {quoted(positions)}")


def _check_range(target: int, positions, num_qutrits: int):
    """Reject an op that does not fit a register of `num_qutrits` qutrits."""
    if target >= num_qutrits:
        raise ValueError(f"target {quoted(target)} out of range for {num_qutrits} qutrits")
    for q in positions:
        if q >= num_qutrits:
            raise ValueError(f"control qutrit {quoted(q)} out of range for {num_qutrits} qutrits")


@dataclass(frozen=True, eq=False)
class Block:
    """A uniformly controlled gate: op k acts on `targets[k]` with
    `gates[gate_ids[k]]` where the `controls` qutrits hold `values[entries[k]]`.

    `values` is an (m, c) int array of distinct rows of 0, 1 and 2, and
    `entries`, `targets` and `gate_ids` are int columns with one item per
    op, in emission order.  Ops of different entries act on disjoint
    slices of the state and commute; each entry's ops run in column order.
    A block has fewer than `MAX_QUTRITS` controls, as it needs a target
    too, so a row's base-3 number fits in int64.  Its gate matrices, kernel
    schedule and JSON op text are built when first read and kept.
    """

    controls: tuple[int, ...]
    values: np.ndarray
    gates: tuple[GateSpec, ...]
    entries: np.ndarray
    targets: np.ndarray
    gate_ids: np.ndarray

    def __post_init__(self):
        m, c = self.values.shape
        if (c >= MAX_QUTRITS or any(type(q) is not int or q < 0 for q in self.controls)
                or len(set(self.controls)) != c or len(self.controls) != c
                or any(a.dtype.kind not in "iu"
                       for a in (self.values, self.entries, self.targets, self.gate_ids))
                or not 0 < len(self.entries) == len(self.targets) == len(self.gate_ids)
                or not ((self.values >= 0) & (self.values <= 2)).all()
                or not np.diff(np.sort(_row_keys(self.values))).all()):
            raise ValueError(f"a block needs fewer than {MAX_QUTRITS} distinct int control "
                             "qutrits >= 0, distinct rows of control values 0, 1, 2 and int "
                             "columns of at least one op")
        if not (0 <= self.entries.min() <= self.entries.max() < m
                and 0 <= self.gate_ids.min() <= self.gate_ids.max() < len(self.gates)
                and self.targets.min() >= 0
                and not any((self.targets == q).any() for q in self.controls)):
            raise ValueError("block entries and gate ids must be in range, and targets "
                             ">= 0 and not controls")

    @cached_property
    def matrices(self) -> np.ndarray:
        """(len(gates), 3, 3) stack of the gate matrices."""
        return gate_matrices(self.gates)

    @cached_property
    def narrows(self) -> tuple[bool, ...]:
        """Per step of `steps`, whether it may fold into the products on the
        support box when its target is still |0>: every entry of column 0
        of each of the step's gates is purely real or purely imaginary.
        Then each output is one rounded product of such an entry with an
        amplitude, plus exact zeros, and BLAS and numpy's complex multiply
        give the same bits for that, with or without FMA."""
        column = self.matrices[:, :, 0]
        single = ((column.real == 0) | (column.imag == 0)).all(axis=1)
        return tuple(bool(single[ids].all()) for _, _, ids in self.steps)

    @cached_property
    def columns(self) -> np.ndarray:
        """(3, len(gates) + 1): column 0 of each gate, then (1, 0, 0), which
        leaves an entry as it is at a first touch that does not list it.
        Built per fold step instead, it made `run` take 1.03-1.26 of the
        time."""
        return np.concatenate((self.matrices[:, :, 0], [[1, 0, 0]])).T.copy()

    @cached_property
    def json_ops(self) -> str:
        """The block's ops as `circuit_to_json` writes them (`_ops_text`),
        kept once built, so a block shared by several circuits is rendered
        once for all: the three 27x27 `fqrqci` circuits write in about
        3.8 ms, against 8.0 ms rendering each circuit's blocks anew."""
        return _ops_text(self)

    @cached_property
    def steps(self) -> tuple[tuple[int, np.ndarray, np.ndarray], ...]:
        """The kernel's schedule: (target, entries, gate ids) per step.

        An entry's ops stay at one level while their targets rise and go up
        a level when they do not; a step is one (level, target), run in that
        order, with its entries ascending.  So each entry's ops run in
        column order and no step lists an entry twice.
        """
        by_entry = np.argsort(self.entries, kind="stable")
        entry, target = self.entries[by_entry], self.targets[by_entry]
        first = np.concatenate(([True], entry[1:] != entry[:-1]))  # of its entry
        rises = np.concatenate(([True], target[1:] > target[:-1]))
        up = np.cumsum(~(first | rises))  # level-ups so far, counting across entries
        level = up - np.maximum.accumulate(up * first)
        key = level * (int(target.max()) + 1) + target
        order = np.lexsort((entry, key))
        cuts = np.flatnonzero(np.diff(key[order])) + 1
        ids = self.gate_ids[by_entry]
        return tuple((int(target[ops[0]]), entry[ops], ids[ops])
                     for ops in np.split(order, cuts))


def _group(num_qutrits: int, qutrits, values, counts, targets, gates):
    """Blocks of a flat op list given as columns, checking each op's range.

    Op k has target `targets[k]`, gate `gates[k]` and `counts[k]` controls,
    whose qutrits and values follow those of op k - 1 in the flat lists
    `qutrits` and `values`.  Consecutive ops on one tuple of control
    qutrits share a block, each distinct row of control values among them
    is one of its entries, and gates are shared by identity.
    """
    if not len(targets):
        return ()
    # No dtype for qutrits or targets: before the range check they may not fit int64.
    qutrits, targets, counts = np.array(qutrits), np.array(targets), np.array(counts)
    ends = np.cumsum(counts)
    starts = ends - counts
    if targets.max() >= num_qutrits or (len(qutrits) and qutrits.max() >= num_qutrits):
        for target, start, stop in zip(targets.tolist(), starts.tolist(), ends.tolist()):
            _check_range(target, qutrits[start:stop].tolist(), num_qutrits)
    values = np.array(values, dtype=np.int64)
    if len(values) and not 0 <= values.min() <= values.max() <= 2:  # else rows share keys
        raise ValueError("control values must be 0, 1 or 2")
    # An op stays in its predecessor's block when its control qutrits are
    # the same: as many, and each equal to the one `counts[k]` places back.
    op = np.repeat(np.arange(len(counts)), counts)
    same = np.concatenate(([False], counts[1:] == counts[:-1]))
    pos = np.flatnonzero(same[op])
    same[op[pos[qutrits[pos] != qutrits[pos - counts[op[pos]]]]]] = False
    cuts = (np.flatnonzero(~same[1:]) + 1).tolist()
    identities = np.fromiter(map(id, gates), np.intp, len(gates))
    blocks = []
    for start, stop in zip([0] + cuts, cuts + [len(counts)]):
        c = int(counts[start])
        table = values[starts[start]:ends[stop - 1]].reshape(stop - start, c)
        rows, entries = _first_seen(_row_keys(table))
        firsts, gate_ids = _first_seen(identities[start:stop])
        blocks.append(Block(tuple(qutrits[starts[start]:ends[start]].tolist()), table[rows],
                            tuple(gates[start + i] for i in firsts.tolist()), entries,
                            targets[start:stop], gate_ids))
    return tuple(blocks)


def _row_keys(table: np.ndarray) -> np.ndarray:
    """One int per row of control values 0, 1 and 2, equal for equal rows:
    the row as a base-3 number (int64, as uint64 @ int64 gives float64)."""
    return table.astype(np.int64, copy=False) @ 3 ** np.arange(table.shape[1])


def _first_seen(keys: np.ndarray):
    """Per distinct value of `keys`, in order of first appearance, the
    position of its first item; and per item the place of its value among
    them."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    place = np.empty_like(order)
    place[order] = np.arange(len(order))
    return first[order], place[inverse]


def _collector_paused(build, *args):
    """`build(*args)` with the cyclic garbage collector off, back on after
    it only if it was on before.  It comes back once `build` has returned
    and freed its temporaries, so the collection the pause put off does
    not traverse them."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return build(*args)
    finally:
        if enabled:
            gc.enable()


def _flat_ops(blocks) -> tuple[CircuitOp, ...]:
    """The ops of `blocks` in emission order, built as the module docstring
    says from blocks that have checked every field."""
    ops = []
    for blk in blocks:
        columns = [map([ControlSpec(q, v) for v in range(3)].__getitem__, values)
                   for q, values in zip(blk.controls, blk.values.T.tolist())]
        controls = list(zip(*columns)) if columns else [()] * len(blk.values)
        ops += map(tuple.__new__, repeat(CircuitOp), zip(
            map(blk.gates.__getitem__, blk.gate_ids.tolist()), blk.targets.tolist(),
            map(controls.__getitem__, blk.entries.tolist())))
    return tuple(ops)


_qutrit = attrgetter("qutrit")
_value = attrgetter("value")


class Circuit:
    """`num_qutrits` qutrits, 1 to `MAX_QUTRITS`, and the blocks applied to
    them, in order.

    `ops` is the same circuit as a flat op list in emission order; two
    circuits are equal when their widths and op lists are.
    """

    def __init__(self, num_qutrits: int, ops=()):
        check_capacity(num_qutrits)
        ops = tuple(ops)
        for i, op in enumerate(ops):
            if not isinstance(op, CircuitOp):
                raise TypeError(f"circuit op {i} must be a CircuitOp, got {type(op).__name__}")
        self.num_qutrits = num_qutrits
        gates, targets, per_op = zip(*ops) if ops else ((), (), ())
        controls = list(chain.from_iterable(per_op))
        self.blocks = _group(num_qutrits, list(map(_qutrit, controls)),
                             list(map(_value, controls)), list(map(len, per_op)), targets, gates)
        self.ops = ops

    @classmethod
    def from_blocks(cls, num_qutrits: int, blocks) -> Circuit:
        """A circuit of ready-made blocks; `ops` is derived when first read."""
        check_capacity(num_qutrits)
        blocks = tuple(blocks)
        for blk in blocks:
            _check_range(int(blk.targets.max()), blk.controls, num_qutrits)
        circuit = cls.__new__(cls)
        circuit.num_qutrits, circuit.blocks = num_qutrits, blocks
        return circuit

    @cached_property
    def ops(self) -> tuple[CircuitOp, ...]:
        return _collector_paused(_flat_ops, self.blocks)  # thousands of tuples, no cycles

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return self.num_qutrits == other.num_qutrits and self.ops == other.ops

    def __hash__(self):
        return hash((self.num_qutrits, self.ops))

    def __repr__(self):
        return f"Circuit(num_qutrits={self.num_qutrits!r}, ops={self.ops!r})"


_INT64_MAX = np.iinfo(np.int64).max


class ShotHistogram:
    """Counts of measured basis states over a `num_qutrits` register.

    Stored as two int64 arrays: `indices`, the ascending basis indices that
    were hit (or listed, with any zero counts, when built from a dict), and
    `tallies`, their counts.  A count or total past 2^63 - 1 is rejected,
    and so is a register wider than `MAX_QUTRITS`.
    `counts` is the trit-string view (MSB first) in index order, built when
    first read, for dict-based callers.
    """

    def __init__(self, num_qutrits: int, counts: dict[str, int], shots: int):
        if shots < 1:
            raise ValueError(f"a histogram needs at least 1 shot, got {shots}")
        check_capacity(num_qutrits)
        indices = []
        for state, count in counts.items():
            if len(state) != num_qutrits:
                raise ShapeError(
                    f"state {state!r} has length {len(state)}, "
                    f"expected {num_qutrits}"
                )
            index = index_from_trits(state)
            if not isinstance(count, (int, np.integer)):
                raise ValueError(f"count for state {state!r} is not an integer: {count!r}")
            if count < 0:
                raise ValueError(f"negative count for state {state!r}")
            indices.append(index)
        if sum(counts.values()) != shots:
            raise ValueError("histogram counts do not sum to shots")
        # Counts are >= 0 and sum to shots, so this bounds each one too.
        if shots > _INT64_MAX:
            raise ValueError(f"histogram total {shots} exceeds 2^63 - 1")
        indices = np.array(indices, dtype=np.int64)
        order = np.argsort(indices)
        tallies = np.array(list(counts.values()), dtype=np.int64)[order]
        self._set(num_qutrits, indices[order], tallies, shots)

    @classmethod
    def _of_arrays(cls, num_qutrits, indices, tallies, shots) -> ShotHistogram:
        """A histogram of checked arrays: ascending distinct indices in
        range, counts >= 0 that sum to 1 <= shots <= 2^63 - 1."""
        hist = cls.__new__(cls)
        hist._set(num_qutrits, indices, tallies, shots)
        return hist

    def _set(self, num_qutrits, indices, tallies, shots):
        # Read-only: the cached `counts` view must not go stale.
        indices.flags.writeable = tallies.flags.writeable = False
        self.num_qutrits, self.indices, self.tallies, self.shots = (
            num_qutrits, indices, tallies, shots)

    @cached_property
    def counts(self) -> dict[str, int]:
        """Trit string -> count, in index order."""
        q = self.num_qutrits
        return {trits_from_index(i, q): c
                for i, c in zip(self.indices.tolist(), self.tallies.tolist())}

    def frequencies(self) -> np.ndarray:
        """count / shots per listed index, correctly rounded.  Up to 2^53
        shots both are exact in float64, whose division is correctly
        rounded too; past it each count is divided as a Python int, since a
        float64 division would round the total first."""
        if self.shots <= 2**53:
            return self.tallies / self.shots
        return np.array([c / self.shots for c in self.tallies.tolist()], dtype=np.float64)

    def to_probabilities(self) -> np.ndarray:
        """Empirical probability per basis index: `frequencies` at the
        listed indices, 0 elsewhere."""
        probs = np.zeros(3**self.num_qutrits)
        probs[self.indices] = self.frequencies()
        return probs

    def __eq__(self, other):
        if not isinstance(other, ShotHistogram):
            return NotImplemented
        return (self.num_qutrits == other.num_qutrits and self.shots == other.shots
                and np.array_equal(self.indices, other.indices)
                and np.array_equal(self.tallies, other.tallies))

    def __repr__(self):
        return (f"ShotHistogram(num_qutrits={self.num_qutrits!r}, "
                f"counts={self.counts!r}, shots={self.shots!r})")


def _scratch(num_qutrits: int) -> np.ndarray:
    """The kernel's work buffer: room for a step's input and its product,
    each at most the 3^q amplitudes of the state."""
    return np.empty(2 * 3**num_qutrits, dtype=np.complex128)


def _apply_block(tensor: np.ndarray, blk: Block, scratch: np.ndarray, extents: list):
    """Apply every op of `blk` to a (3,)*q amplitude tensor, in place.

    `extents` holds per qutrit 1 while it is still |0> and 3 once a step
    has targeted it, and is updated here.  A controlled block reaches any
    box of its entries' rows on the free (non-control) axes through one
    int64 index, entry axis last: an entry's flat offset, the base-3 value
    of its control row, plus those of the box's values.  An uncontrolled
    block's one entry is a view of the state: through the index, `run`
    took 1.09-1.47 of the time.

    The leading first touches (steps that `blk.narrows`, targets still at
    1) fold into one chain of broadcast products on the support box, as
    the module docstring says, gathered once and written back once; the
    entry axis is last, so numpy's inner loops run over the entries.  An
    unlisted entry's column (1, 0, 0) is exact for every non-zero
    amplitude and may sign a zero, which `run` clears; with finite params
    a zero's sign never reaches a non-zero amplitude.  The products
    alternate between the halves of `scratch`, and the last is written
    back to the state.  Every later step is one batched BLAS matmul on its
    full rows, gathered from the state, input and product in the lower and
    upper halves of `scratch`.
    """
    q, m = tensor.ndim, len(blk.values)
    free = [j for j in range(q) if j not in blk.controls]
    if blk.controls:
        amps = tensor.reshape(-1)
        offsets = blk.values @ np.array([3 ** (q - 1 - j) for j in blk.controls])
        weights = [3 ** (q - 1 - j) for j in free]

    def rows(shape, entries=slice(None)):
        """(array, key): `array[key]` is the box of `shape` on the free axes
        of each of `entries`, entry axis last, and `array[key] = ...` writes
        it."""
        if not blk.controls:
            return tensor, (*map(slice, shape), np.newaxis)
        index = offsets[entries]
        for n, weight in zip(reversed(shape), reversed(weights)):
            index = np.add.outer(np.arange(0, n * weight, weight), index)
        return amps, index

    start = [extents[j] for j in free]
    fold = 0
    for (target, _, _), narrows in zip(blk.steps, blk.narrows):
        if extents[target] != 1 or not narrows:
            break
        extents[target] = 3
        fold += 1
    half = len(scratch) // 2
    if fold:
        array, key = rows(start)
        box = array[key]
        for i, (target, entries, gate_ids) in enumerate(blk.steps[:fold]):
            axis = free.index(target)
            ids = gate_ids
            if len(entries) < m:
                ids = np.full(m, len(blk.gates))  # the (1, 0, 0) of `Block.columns`
                ids[entries] = gate_ids
            column = np.take(blk.columns, ids, axis=1)
            shape = box.shape[:axis] + (3,) + box.shape[axis + 1:]
            out = scratch[i % 2 * half:][:math.prod(shape)].reshape(shape)
            box = np.multiply(column.reshape(
                (1,) * axis + (3,) + (1,) * (len(free) - axis - 1) + (m,)), box, out=out)
        array, key = rows([extents[j] for j in free])
        array[key] = box
    for target, entries, gate_ids in blk.steps[fold:]:
        extents[target] = 3
        axis = free.index(target)
        array, key = rows([3] * len(free), entries)
        # Per entry its rows, target axis first: the (3, 3^(q-c-1)) input of its product.
        part = np.moveaxis(array[key], (len(free), axis), (0, 1))
        src = scratch[:part.size].reshape(part.shape)
        out = scratch[half:half + part.size].reshape(len(entries), 3, -1)
        np.copyto(src, part)
        np.matmul(blk.matrices[gate_ids], src.reshape(out.shape), out=out)
        array[key] = np.moveaxis(out.reshape(part.shape), (0, 1), (len(free), axis))


def run(circuit: Circuit) -> Statevector:
    """Execute all blocks on the all-|0> state, in place in one buffer.

    Every step of every block works in one scratch buffer allocated here,
    where the products of each block's folded first touches (gates whose
    column 0 entries are each purely real or purely imaginary, on qutrits
    no step has touched, before any other step of the block) go, on the
    support box of the qutrits touched so far, in blocks with and without
    controls; the last is written back to the state, and every later step
    is a BLAS product on its full rows, gathered from the state.  The
    result is bit-identical to applying the ops one at a time (see the
    module docstring).  Every zero amplitude is returned as +0.0: BLAS
    writes -0.0 into some columns of an all-zero input, depending on the
    product's width, and the fold may sign a zero.  Nothing is checked
    here: gate params are finite and the register is within `MAX_QUTRITS`
    by construction.
    """
    q = circuit.num_qutrits
    state = statevector_zero(q)
    tensor = state.amplitudes.reshape((3,) * q)
    scratch = _scratch(q)
    extents = [1] * q
    for blk in circuit.blocks:
        _apply_block(tensor, blk, scratch, extents)
    np.add(state.amplitudes, 0.0, out=state.amplitudes)  # -0.0 -> +0.0
    return state


def probabilities(state: Statevector) -> np.ndarray:
    """|amplitude|^2 per basis index, ascending index order."""
    return np.abs(state.amplitudes) ** 2


def sample(state: Statevector, shots: int, seed: int) -> ShotHistogram:
    """Multinomial draw from the state's outcome distribution.

    Identical (state, shots, seed) triples give identical histograms.  The
    draw lists only the non-zero probabilities and the last index, and is
    the full-vector draw: numpy's multinomial is a sequential binomial
    loop, in which a category with p = 0 returns before it draws a random
    number and leaves the remaining probability and shots unchanged, and
    the last category takes the remainder.  The listed probabilities are
    divided by the sum over the full vector, since a pairwise sum over
    fewer elements rounds differently; one that this division takes to 0
    draws nothing, as it would in the full-vector draw.
    """
    if not 1 <= shots <= _INT64_MAX:
        raise ValueError(f"shots must be in [1, 2^63 - 1], got {shots}")
    probs = probabilities(state)
    support = np.append(np.flatnonzero(probs[:-1] != 0), len(probs) - 1)
    drawn = np.random.default_rng(seed).multinomial(shots, probs[support] / probs.sum())
    hit = drawn > 0
    return ShotHistogram._of_arrays(state.num_qutrits, support[hit], drawn[hit], shots)


# --- circuit JSON ---------------------------------------------------------

def _json_array(items: list[str], indent: str) -> str:
    """A JSON array of rendered `items`, closing at `indent`, as indent=1 lays it out."""
    if not items:
        return "[]"
    inner = indent + " "
    return "[\n" + inner + (",\n" + inner).join(items) + "\n" + indent + "]"


def _gate_texts(gates) -> np.ndarray:
    """Per gate, the text of an op of it up to the target's value, as an
    object array: from one %-template per (kind, subspace), with one `%r`
    per param, filled per gate.  `%r` of a float is `float.__repr__`, so
    -0.0 stays -0.0."""
    templates: dict = {}
    for gate in gates:
        kind, pair = gate.kind, gate.subspace
        if (kind, pair) not in templates:
            subspace = _json_array([str(j) for j in pair], "   ") if pair else "null"
            templates[kind, pair] = (
                f'{{\n   "gate": {json.dumps(kind)},\n   "subspace": {subspace},\n'
                f'   "params": {_json_array(["%r"] * len(gate.params), "   ")},\n'
                '   "target": ')
    return np.array([templates[g.kind, g.subspace] % g.params for g in gates], dtype=object)


def _entry_texts(controls: tuple[int, ...], values: np.ndarray) -> np.ndarray:
    """Per row of `values`, the text of an op on it after its target, as an
    object array: the control list, the op's closing brace and the
    separator to the next op.
    One uint8 template row per row, its value digits written in at fixed
    offsets (the method of the CSV `_table`): a %-format per entry is
    1.6-4.1x slower for the location blocks of 27x27 circuits."""
    items = [f'{{\n     "q": {q},\n     "v": 0\n    }}' for q in controls]
    row = np.frombuffer(f'{_json_array(items, "   ")}\n  }},\n  '.encode(), dtype=np.uint8)
    rows = np.empty((len(values), len(row)), dtype=np.uint8)
    rows[:] = row
    rows[:, np.flatnonzero(row == ord("v")) + 4] = values + ord("0")  # '"v": 0'
    text, size = rows.tobytes().decode("ascii"), len(row)
    return np.array(list(map(text.__getitem__, map(slice, range(0, len(text), size),
                                                   range(size, len(text) + size, size)))),
                    dtype=object)


def _ops_text(blk: Block) -> str:
    """The ops of `blk`, one after another in an "ops" array.  Per op, the
    text of its gate, of its target and of its entry, each rendered once
    per block (see `_gate_texts` and `_entry_texts`), joined."""
    targets, at = np.unique(blk.targets, return_inverse=True)
    parts = np.empty((len(blk.targets), 3), dtype=object)
    parts[:, 0] = _gate_texts(blk.gates)[blk.gate_ids]
    parts[:, 1] = np.array([f'{t},\n   "controls": ' for t in targets.tolist()],
                           dtype=object)[at]
    parts[:, 2] = _entry_texts(blk.controls, blk.values)[blk.entries]
    return "".join(parts.ravel().tolist())[:-4]  # the separator after the last op


def circuit_to_json(circuit: Circuit) -> str:
    """The text of json.dumps(doc, indent=1): the blocks' `json_ops` in order.

    json.dumps with an indent runs the pure-Python encoder, so the fixed
    layout is rendered by `Block.json_ops`, once per block: circuits that
    share blocks, as the three `fqrqci` circuits share their preparation,
    render them once between them.
    """
    return _document(circuit.num_qutrits, [blk.json_ops for blk in circuit.blocks])


def _document(num_qutrits: int, ops: list[str]) -> str:
    """The circuit JSON of a `num_qutrits` register and the texts of its
    blocks' ops."""
    ops = ",\n  ".join(ops)
    ops = f"[\n  {ops}\n ]" if ops else "[]"
    return f'{{\n "num_qutrits": {num_qutrits},\n "ops": {ops}\n}}'


def _json(value, kind: type, field: str):
    """`value` if its JSON type is exactly `kind`: true is not an int, 1.0 is not."""
    if type(value) is not kind:
        raise ParseError(f"circuit JSON {field!r} must be {kind.__name__}, got {quoted(value)}")
    return value


def circuit_from_json(text: str) -> Circuit:
    """Parse circuit JSON, checking the type of every field of every op.

    Text in the writer's own layout is read by a byte scan (`_scan`), and
    the circuit it gives is accepted only if the writer renders it back to
    `text`.  `circuit_from_json(circuit_to_json(c)) == c` holds for
    every circuit and `repr` round-trips every float, -0.0 too, so an
    accepted circuit is the one the op-by-op read of the doc returns.  Any
    other text, in another layout or bad, goes through `json.loads` and
    `_circuit_op_by_op`, which checks each field in the order of building
    each CircuitOp and then the Circuit, so the first bad field is the one
    reported.  So does `bytes` or `bytearray` input, which `json.loads`
    takes too.

    The cyclic garbage collector is off for the call, whether it returns or
    raises, and back on after it only if it was on before: the parsed doc
    (20-65k dicts and lists for a 27x27 image) has no cycles, so a
    collection during the read would traverse it to free nothing.  The
    switch is process-wide, so another thread may see it off meanwhile.
    """
    return _collector_paused(_read_circuit, text)


def _read_circuit(text) -> Circuit:
    """The scan if it proves, else `json.loads` and the op-by-op pass."""
    try:
        circuit = _scan(text) if isinstance(text, str) else None
    except (ValueError, IndexError):  # not the writer's layout, or a bad circuit
        circuit = None
    # The proof renders without keeping the text on the blocks: a read
    # circuit is run, not written again.
    if circuit is not None and _document(
            circuit.num_qutrits, list(map(_ops_text, circuit.blocks))) == text:
        return circuit
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid circuit JSON: {exc}") from exc
    return _circuit_op_by_op(doc)


def _small_ints(codes: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """The int of the one or two decimal digits from `first` to `last` of
    `codes`, per item: 0 to 99, as every qutrit and control value of a
    circuit is."""
    ones = codes[last].astype(np.int64) - ord("0")
    return np.where(last > first, 10 * (codes[first].astype(np.int64) - ord("0")), 0) + ones


def _scan(text: str) -> Circuit:
    """The circuit of `text` if it is in the writer's layout.

    Past line 1, a line's kind is one byte at a fixed column: the first
    letter of a "gate", "params" or "target" key at column 4, of a "q" or
    "v" key at column 6.  The digits of each target, "q" and "v" are read
    at fixed offsets, and an op's control count is the number of "q" lines
    after its "target" line.  Each op's gate text, from its "gate" line to
    its "target" line, is a dict key; each distinct gate is built once, a
    (kind, subspace, param count) shape at a time by `GateSpec._of_shape`,
    from its param lines, all read by one `float` map.  Text in another
    layout gives some other circuit, or raises ValueError or IndexError.
    """
    codes = np.frombuffer(text.encode("ascii"), dtype=np.uint8)
    ends = np.append(np.flatnonzero(codes == ord("\n")), len(codes))
    starts = np.concatenate(([0], ends[:-1] + 1))
    num_qutrits = int(text[starts[1] + 16:ends[1] - 1])  # ' "num_qutrits": 3,'
    check_capacity(num_qutrits)
    at = np.minimum(starts[2:], len(codes) - 7)
    fourth, sixth = codes[at + 4], codes[at + 6]
    gate_at, params_at, target_at = (np.flatnonzero(fourth == ord(c)) + 2 for c in "gpt")
    q_at, v_at = (np.flatnonzero(sixth == ord(c)) + 2 for c in "qv")
    if not len(gate_at) == len(params_at) == len(target_at) or len(q_at) != len(v_at):
        raise ValueError("not the writer's layout")
    # '   "target": 1,' and '     "q": 1,' end in a comma, '     "v": 1' does not.
    targets = _small_ints(codes, starts[target_at] + 13, ends[target_at] - 2)
    qutrits = _small_ints(codes, starts[q_at] + 10, ends[q_at] - 2)
    values = codes[starts[v_at] + 10].astype(np.int64) - ord("0")
    bounds = np.searchsorted(q_at, target_at)
    counts = np.diff(np.concatenate(([0], bounds[1:], [len(q_at)])))
    first: dict = {}
    firsts = list(map(first.setdefault, _slices(text, starts[gate_at], starts[target_at]),
                      count()))
    op = np.fromiter(first.values(), np.intp, len(first))  # the first op of each gate
    head, params, target = gate_at[op], params_at[op], target_at[op]
    # '   "params": [],' or '   "params": [', one line per param, '   ],'
    k = np.maximum(target - params - 2, 0)
    offsets = np.cumsum(k) - k
    lines = np.repeat(params + 1 - offsets, k) + np.arange(k.sum())
    comma = codes[ends[lines] - 1] == ord(",")
    floats = np.array(list(map(float, _slices(text, starts[lines], ends[lines] - comma))))
    shapes: dict = {}
    shape = np.array(list(map(shapes.setdefault, zip(
        _slices(text, starts[head], starts[params]), k.tolist()), count())), dtype=np.intp)
    built: dict = {}
    for (head_text, n), i in shapes.items():
        # '   "gate": "RY",', then '   "subspace": null,' or its four lines
        kind, subspace, *pair = head_text.split("\n")[:4]
        pair = None if subspace.endswith("null,") else (int(pair[0][:-1]), int(pair[1]))
        ids = np.flatnonzero(shape == i)
        rows = floats[offsets[ids, None] + np.arange(n)].tolist()
        built.update(zip(op[ids].tolist(), GateSpec._of_shape(kind[12:-2], pair, rows)))
    gates = list(map(built.__getitem__, firsts))
    blocks = _group(num_qutrits, qutrits, values, counts, targets, gates)
    return Circuit.from_blocks(num_qutrits, blocks)


def _slices(text: str, starts: np.ndarray, stops: np.ndarray):
    """The substrings of `text` from each of `starts` to its stop."""
    return map(text.__getitem__, map(slice, starts.tolist(), stops.tolist()))


def _circuit_op_by_op(doc) -> Circuit:
    """The circuit of `doc`, read one op at a time: each field is checked
    in the order of building its CircuitOp, then the Circuit, so the error
    raised is that of the first bad field."""
    try:
        ops = []
        for entry in _json(doc["ops"], list, "ops"):
            pair = entry["subspace"]
            if pair is not None:
                pair = [_json(j, int, "subspace") for j in _json(pair, list, "subspace")]
            params = _json(entry["params"], list, "params")
            if not all(type(p) in (int, float) and math.isfinite(p) for p in params):
                raise ParseError(f"circuit JSON params must be finite numbers: {quoted(params)}")
            gate = GateSpec(entry["gate"], pair, params)
            # ControlSpec rejects a non-int field itself, so such a control is
            # not built; it is reported after the range checks of the others.
            raw = _json(entry["controls"], list, "controls")
            controls = [ControlSpec(c["q"], c["v"]) for c in raw
                        if type(c["q"]) is int and type(c["v"]) is int]
            if len(controls) != len(raw):
                raise ParseError(f"circuit JSON controls need int q and v: {quoted(raw)}")
            ops.append(CircuitOp(gate, _json(entry["target"], int, "target"), controls))
        num_qutrits = _json(doc["num_qutrits"], int, "num_qutrits")
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"invalid circuit JSON structure: {exc}") from exc
    return Circuit(num_qutrits, ops)


# --- histogram / probability CSV ------------------------------------------
#
# The tables are written and read a column at a time (`_table`, `_columns`):
# a row at a time reads 2.3-2.7x and writes 9-11x slower.  When a column
# check fails, the rows are checked again one at a time, so the first bad
# row is reported.

def _table(header: str, num_qutrits: int, indices: np.ndarray, spec: str, values: list) -> str:
    """`header`, then a `state,value` line per index: the state as
    `trits_from_index` spells it and the value by the %-format `spec`,
    which renders each value as an f-string of that spec would."""
    line = np.frombuffer(f",%{spec}\n".encode(), dtype=np.uint8)
    lines = np.empty((len(indices), num_qutrits + len(line)), dtype=np.uint8)
    lines[:, :num_qutrits] = trit_column(indices, num_qutrits).view(np.uint8).reshape(
        len(indices), num_qutrits)
    lines[:, num_qutrits:] = line
    return f"{header}\n" + lines.tobytes().decode("ascii") % tuple(values)


def _rows(text: str, header: str) -> list[str]:
    """The lines after the `header` line, blank lines left out."""
    lines = list(filterfalse(str.isspace, filter(None, text.splitlines())))
    if not lines or lines[0].strip() != header:
        raise ParseError(f"expected {header!r} header")
    return lines[1:]


def _columns(rows: list[str], length: int):
    """(states, values) if every row is one `length`-character state, a
    comma and a value, with 1 <= `length` <= MAX_QUTRITS, else None: the
    states as an S{length} array, the values as strings."""
    if not 1 <= length <= MAX_QUTRITS:
        return None
    text = "\n".join(rows)  # no row holds a line break
    codes = np.frombuffer(text.encode("ascii", "replace"), dtype=np.uint8)  # 1 byte a character
    starts = np.concatenate(([0], np.flatnonzero(codes == ord("\n")) + 1))
    commas = np.flatnonzero(codes == ord(","))
    if len(commas) != len(rows) or (commas != starts + length).any():
        return None
    states = codes[starts[:, None] + np.arange(length)].view(f"S{length}").ravel()
    return states, list(map(getitem, rows, repeat(slice(length + 1, None))))


def _is_trits(state: str) -> bool:
    return bool(state) and not state.strip("012")


def histogram_to_csv(hist: ShotHistogram) -> str:
    return _table("state,count", hist.num_qutrits, hist.indices, "d", hist.tallies.tolist())


def histogram_from_csv(text: str) -> ShotHistogram:
    """Read a `state,count` table; a bad row is a ParseError that names it."""
    rows = _rows(text, "state,count")
    q = len(rows[0].split(",")[0]) if rows else 0
    columns = _columns(rows, q)
    try:
        counts = columns and list(map(int, columns[1]))
    except ValueError:
        counts = None
    if counts is not None:
        indices = indices_of_trit_column(columns[0])
        order = np.argsort(indices)
        indices = indices[order]
        shots = sum(counts)
    if (counts is None or indices[0] < 0 or (indices[1:] == indices[:-1]).any()
            or min(counts) < 0 or shots < 1):
        _check_histogram_rows(rows)
    # Counts are >= 0 and sum to shots, so this bounds each one too.
    if shots > _INT64_MAX:
        raise ValueError(f"histogram total {shots} exceeds 2^63 - 1")
    tallies = np.array(counts, dtype=np.int64)[order]
    return ShotHistogram._of_arrays(q, indices, tallies, shots)


def _check_histogram_rows(rows: list[str]):
    """Raise the first error of a histogram table, checking row by row in
    two passes: each row is a state and an int count and repeats no state;
    then, if the counts add up to a shot, each state has as many trits as
    the first, at most MAX_QUTRITS, and its count is not negative."""
    counts: dict[str, int] = {}
    for ln in rows:
        try:
            state, raw = ln.split(",")
            count = int(raw)
        except ValueError as exc:
            raise ParseError(f"bad histogram row {quoted(ln)}") from exc
        if state in counts:
            raise ParseError(f"duplicate state {quoted(state)}")
        counts[state] = count
    if not rows:
        raise ParseError("histogram has no rows")
    shots = sum(counts.values())
    if shots < 1:
        raise ValueError(f"a histogram needs at least 1 shot, got {shots}")
    q = len(next(iter(counts)))
    if q:  # an empty state is a bad row, named below
        check_capacity(q)
    for ln, (state, count) in zip(rows, counts.items()):
        if len(state) != q:
            raise ParseError(f"state {quoted(state)} is not {q} trits long")
        if not _is_trits(state):
            raise ParseError(f"bad histogram row {quoted(ln)}")
        if count < 0:
            raise ParseError(f"negative count in histogram row {quoted(ln)}")


def probabilities_to_csv(num_qutrits: int, probs: np.ndarray) -> str:
    check_capacity(num_qutrits)
    if len(probs) != 3**num_qutrits:
        raise ShapeError(f"expected {3**num_qutrits} probabilities, got {len(probs)}")
    return _table("state,probability", num_qutrits, np.arange(len(probs)), ".17g",
                  np.asarray(probs, dtype=np.float64).tolist())


def probabilities_from_csv(text: str) -> tuple[int, np.ndarray]:
    """Read an exact `state,probability` table of all 3^q states."""
    rows = _rows(text, "state,probability")
    if not rows:
        raise ParseError("probability table has no rows")
    length = len(rows[0].split(",")[0])
    if length:  # an empty state is a bad row, named below
        check_capacity(length)
    if len(rows) != 3**length:
        raise ParseError(
            f"probability table must list all 3^{length} states, got {len(rows)} rows"
        )
    columns = _columns(rows, length)
    try:
        probs = columns and np.fromiter(map(float, columns[1]), np.float64, len(rows))
    except ValueError:
        probs = None
    if probs is not None:
        indices = indices_of_trit_column(columns[0])
    if (probs is None or indices.min() < 0 or np.bincount(indices).max() > 1
            or not ((probs >= 0.0) & (probs <= 1.0)).all()):  # also false for NaN
        seen = set()
        for ln in rows:
            try:
                state, raw = ln.split(",")
                p = float(raw)
            except ValueError as exc:
                raise ParseError(f"bad probability row {quoted(ln)}") from exc
            if not _is_trits(state):
                raise ParseError(f"bad probability row {quoted(ln)}")
            if len(state) != length:
                raise ParseError(f"state {quoted(state)} is not {length} trits long")
            if state in seen:
                raise ParseError(f"duplicate state {quoted(state)}")
            if not 0.0 <= p <= 1.0:
                raise ParseError(f"probability {quoted(raw.strip())} is not a number in [0, 1]")
            seen.add(state)
    table = np.zeros(len(rows))
    table[indices] = probs
    total = float(table.sum())
    if abs(total - 1.0) > 1e-9:  # an exact table is off by roundoff only
        raise ParseError(f"probabilities sum to {total!r}, not 1")
    return length, table


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
