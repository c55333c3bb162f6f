import copy
import dataclasses
import gc
import itertools
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats

from oracles import dense_op_matrix
from qutritimg import (
    CODECS,
    CapacityError,
    Circuit,
    CircuitOp,
    ControlSpec,
    GateSpec,
    GrayImage,
    ParseError,
    RegisterWidthError,
    ShapeError,
    RgbImage,
    ShotHistogram,
    Statevector,
    circuit_from_json,
    circuit_to_json,
    diagram,
    diagram_columns,
    encode_fqri,
    histogram_from_csv,
    histogram_to_csv,
    index_from_trits,
    probabilities,
    probabilities_from_csv,
    probabilities_to_csv,
    run,
    sample,
    statevector_zero,
    trits_from_index,
)
from qutritimg import simulator
from qutritimg.errors import quoted
from qutritimg.gates import PARAM_COUNTS, SUBSPACE_KINDS
from qutritimg.simulator import Block
from qutritimg.ternary import MAX_QUTRITS

PAIRS = ((0, 1), (0, 2), (1, 2))


def _random_state(rng, q):
    amps = rng.normal(size=3**q) + 1j * rng.normal(size=3**q)
    amps /= np.linalg.norm(amps)
    return Statevector(q, amps)


def _random_op(rng, q):
    kinds = ["X", "P1", "P2", "H", "I", "RX", "RY", "RZ", "U"]
    kind = kinds[rng.integers(len(kinds))]
    subspace = PAIRS[rng.integers(3)] if kind in ("X", "RX", "RY", "RZ", "U") else None
    nparams = {"RX": 1, "RY": 1, "RZ": 1, "U": 3}.get(kind, 0)
    params = tuple(rng.uniform(-math.pi, math.pi, nparams))
    target = int(rng.integers(q))
    others = [p for p in range(q) if p != target]
    rng.shuffle(others)
    controls = tuple(
        ControlSpec(p, int(rng.integers(3)))
        for p in others[: rng.integers(len(others) + 1)]
    )
    return CircuitOp(GateSpec(kind, subspace, params), target, controls)


def _apply(state, op):
    """`op` applied by the block kernel to a copy of `state`, any state: its
    one-op block as `Circuit` builds it (range checked), every qutrit's
    extent 3, and every zero returned as +0.0, as `run` returns them."""
    q = state.num_qutrits
    blk, = Circuit(q, (op,)).blocks
    out = state.amplitudes.copy()
    simulator._apply_block(out.reshape((3,) * q), blk, simulator._scratch(q), [3] * q)
    return Statevector(q, out + 0.0)


def test_uncontrolled_h_on_msb():
    state = _apply(statevector_zero(2), CircuitOp(GateSpec("H"), 0))
    expect = np.zeros(9, dtype=complex)
    expect[[0, 3, 6]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(state.amplitudes, expect, atol=1e-15)


def test_control_satisfied_and_not():
    op = CircuitOp(GateSpec("X", (0, 1)), 0, (ControlSpec(1, 1),))
    amps = np.zeros(9)
    amps[1] = 1.0  # |01>
    out = _apply(Statevector(2, amps), op)
    expect = np.zeros(9)
    expect[4] = 1.0  # |11>
    np.testing.assert_array_equal(out.amplitudes.real, expect)

    out = _apply(statevector_zero(2), op)  # |00>: control unsatisfied
    np.testing.assert_array_equal(out.amplitudes, statevector_zero(2).amplitudes)


def test_one_op_block_matches_dense_oracle():
    rng = np.random.default_rng(7)
    for _ in range(200):
        q = int(rng.integers(1, 4))
        state = _random_state(rng, q)
        op = _random_op(rng, q)
        before = state.amplitudes.copy()
        fast = _apply(state, op).amplitudes
        np.testing.assert_array_equal(state.amplitudes, before)  # input untouched
        slow = dense_op_matrix(op, q) @ state.amplitudes
        np.testing.assert_allclose(fast, slow, atol=1e-12)
        assert abs(np.linalg.norm(fast) - 1) < 1e-12


def test_one_op_block_bounds():
    with pytest.raises(ValueError):
        _apply(statevector_zero(2), CircuitOp(GateSpec("H"), 2))
    with pytest.raises(ValueError):
        _apply(
            statevector_zero(2),
            CircuitOp(GateSpec("H"), 0, (ControlSpec(5, 0),)),
        )


def test_op_validation():
    with pytest.raises(ValueError):
        CircuitOp(GateSpec("H"), 0, (ControlSpec(0, 1),))
    with pytest.raises(ValueError):
        CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 1), ControlSpec(0, 2)))


@pytest.mark.parametrize("build, message", [
    (lambda: CircuitOp("H", 0), "op gate must be a GateSpec, got str"),
    (lambda: CircuitOp(GateSpec("H"), 0, [(1, 2)]), "op control must be a ControlSpec, got tuple"),
    (lambda: Circuit(2, [CircuitOp(GateSpec("H"), 0), (GateSpec("H"), 1, ())]),
     "circuit op 1 must be a CircuitOp, got tuple"),
], ids=["op-gate", "op-control", "circuit-op"])
def test_op_constructors_reject_wrong_types(build, message):
    with pytest.raises(TypeError) as exc:
        build()
    assert str(exc.value) == message


def test_circuit_op_is_an_immutable_record():
    op = CircuitOp(GateSpec("H"), 1, [ControlSpec(0, 2)])
    same = CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 2),))
    assert op == same and not op != same and hash(op) == hash(same)
    assert op != CircuitOp(GateSpec("H"), 1) and op != CircuitOp(GateSpec("P1"), 1, same.controls)
    fields = (GateSpec("H"), 1, (ControlSpec(0, 2),))
    assert op != fields and fields != op and not op == fields and not fields == op
    assert op == mock.ANY and mock.ANY == op  # others still decide equality with an op
    assert (op.gate, op.target, op.controls) == fields
    for name in ("gate", "target", "controls", "other"):
        with pytest.raises(AttributeError):
            setattr(op, name, None)
    assert repr(op) == ("CircuitOp(gate=GateSpec(kind='H', subspace=None, params=()), "
                        "target=1, controls=(ControlSpec(qutrit=0, value=2),))")
    for again in (copy.copy(op), copy.deepcopy(op), pickle.loads(pickle.dumps(op))):
        assert type(again) is CircuitOp and again == op and repr(again) == repr(op)
    with pytest.raises(ValueError, match="also appears as a control"):
        op._replace(target=0)
    with pytest.raises(TypeError, match="op gate must be a GateSpec"):
        CircuitOp._make(("H", 1, ()))


def test_run_empty_circuit():
    state = run(Circuit(2))
    np.testing.assert_array_equal(state.amplitudes, statevector_zero(2).amplitudes)


def test_run_uniform_location_superposition():
    circuit = Circuit(3, (CircuitOp(GateSpec("H"), 1), CircuitOp(GateSpec("H"), 2)))
    state = run(circuit)
    expect = np.zeros(27, dtype=complex)
    expect[:9] = 1 / 3
    np.testing.assert_allclose(state.amplitudes, expect, atol=1e-14)


def test_run_preserves_norm_on_random_circuits():
    rng = np.random.default_rng(11)
    for _ in range(20):
        q = int(rng.integers(1, 5))
        ops = tuple(_random_op(rng, q) for _ in range(int(rng.integers(1, 12))))
        state = run(Circuit(q, ops))
        assert abs(state.norm() - 1) < 1e-10
        folded = statevector_zero(q)
        for op in ops:
            folded = _apply(folded, op)
        np.testing.assert_array_equal(state.amplitudes, folded.amplitudes)


def test_ops_with_different_control_values_commute():
    rng = np.random.default_rng(13)
    for _ in range(50):
        q = int(rng.integers(2, 4))
        state = _random_state(rng, q)
        target = int(rng.integers(q))
        shared = int(rng.integers(q))
        while shared == target:
            shared = int(rng.integers(q))
        v1 = int(rng.integers(3))
        v2 = (v1 + 1 + int(rng.integers(2))) % 3
        op1 = CircuitOp(GateSpec("RY", (0, 1), (rng.uniform(0, 3),)), target,
                        (ControlSpec(shared, v1),))
        op2 = CircuitOp(GateSpec("U", (1, 2), tuple(rng.uniform(0, 3, 3))), target,
                        (ControlSpec(shared, v2),))
        ab = _apply(_apply(state, op1), op2).amplitudes
        ba = _apply(_apply(state, op2), op1).amplitudes
        np.testing.assert_allclose(ab, ba, atol=1e-12)


def test_probabilities_examples():
    assert probabilities(statevector_zero(2))[0] == 1.0
    h = _apply(statevector_zero(1), CircuitOp(GateSpec("H"), 0))
    np.testing.assert_allclose(probabilities(h), [1 / 3] * 3, atol=1e-15)


def test_sample_deterministic_state():
    amps = np.zeros(9)
    amps[5] = 1.0  # |12>
    hist = sample(Statevector(2, amps), shots=1000, seed=4)
    assert hist.counts == {"12": 1000}
    assert hist.shots == 1000


def test_sample_seed_reproducibility():
    state = _apply(statevector_zero(2), CircuitOp(GateSpec("H"), 0))
    a = sample(state, shots=5000, seed=42)
    b = sample(state, shots=5000, seed=42)
    assert a.counts == b.counts
    c = sample(state, shots=5000, seed=43)
    assert a.counts != c.counts


def test_sample_frequencies_within_three_sigma():
    state = _apply(statevector_zero(1), CircuitOp(GateSpec("H"), 0))
    shots = 3_000_000
    hist = sample(state, shots=shots, seed=5)
    sigma = math.sqrt((1 / 3) * (2 / 3) / shots)
    for key in ("0", "1", "2"):
        freq = hist.counts[key] / shots
        assert abs(freq - 1 / 3) <= 3 * sigma


def test_sample_chi_square_does_not_reject():
    circuit = Circuit(2, (CircuitOp(GateSpec("H"), 0), CircuitOp(GateSpec("H"), 1)))
    state = run(circuit)
    shots = 90_000
    hist = sample(state, shots=shots, seed=17)
    observed = hist.to_probabilities() * shots
    _, pvalue = stats.chisquare(observed, f_exp=np.full(9, shots / 9))
    assert pvalue > 1e-6


def test_sample_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample(statevector_zero(1), shots=0, seed=1)


def test_histogram_validation():
    with pytest.raises(ShapeError):
        ShotHistogram(2, {"012": 5}, 5)
    with pytest.raises(ValueError):
        ShotHistogram(2, {"01": 5}, 6)
    with pytest.raises(ValueError, match="^a histogram needs at least 1 shot, got 0$"):
        ShotHistogram(1, {"0": 0}, 0)
    with pytest.raises(ValueError, match="^negative count for state '1'$"):
        ShotHistogram(1, {"0": 6, "1": -1}, 5)


def test_histogram_equality_and_repr():
    hist = ShotHistogram(1, {"2": 1, "0": 3}, 4)
    assert hist == ShotHistogram(1, {"0": 3, "2": 1}, 4)
    assert hist != ShotHistogram(1, {"0": 3, "2": 1, "1": 0}, 4)
    assert hist != {"0": 3, "2": 1} and not hist == hist.counts and hist == mock.ANY
    assert repr(hist) == "ShotHistogram(num_qutrits=1, counts={'0': 3, '2': 1}, shots=4)"


def test_circuit_json_round_trip(sample_gray):
    circuit = encode_fqri(sample_gray).circuit
    again = circuit_from_json(circuit_to_json(circuit))
    assert again == circuit


def test_circuit_json_canonical_format():
    text = """
    { "num_qutrits": 3,
      "ops": [ {"gate":"H","subspace":null,"params":[],"target":1,"controls":[]},
               {"gate":"RY","subspace":[0,1],"params":[0.4558],"target":0,
                "controls":[{"q":1,"v":0},{"q":2,"v":0}]} ] }
    """
    circuit = circuit_from_json(text)
    assert circuit.num_qutrits == 3
    assert circuit.ops[0] == CircuitOp(GateSpec("H"), 1)
    assert circuit.ops[1].gate == GateSpec("RY", (0, 1), (0.4558,))
    assert circuit.ops[1].controls == (ControlSpec(1, 0), ControlSpec(2, 0))
    doc = circuit_to_json(circuit)
    for field in ('"num_qutrits"', '"ops"', '"gate"', '"subspace"', '"params"',
                  '"target"', '"controls"', '"q"', '"v"'):
        assert field in doc


def test_circuit_json_errors():
    with pytest.raises(ParseError):
        circuit_from_json("not json")
    with pytest.raises(ParseError):
        circuit_from_json('{"num_qutrits": 2}')


@pytest.mark.parametrize("kind", [bytes, bytearray])
def test_circuit_json_reads_bytes_as_json_loads_does(kind):
    """`json.loads` takes bytes, so the reader does: past the scan, which
    reads str only."""
    circuit = Circuit(2, (CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 2),)),))
    assert circuit_from_json(kind(circuit_to_json(circuit).encode())) == circuit
    with pytest.raises(ParseError, match="^invalid circuit JSON: "):
        circuit_from_json(kind(b"{broken"))


def test_read_circuit_keeps_no_json_text(sample_gray):
    """The reader's proof renders the read circuit's blocks without keeping
    their text, which a written circuit keeps."""
    circuit = encode_fqri(sample_gray).circuit
    again = circuit_from_json(circuit_to_json(circuit))
    assert all("json_ops" in vars(blk) for blk in circuit.blocks)
    assert not any("json_ops" in vars(blk) for blk in again.blocks)
    assert circuit_to_json(again) == circuit_to_json(circuit)


_SCAN_THEN_OP_BY_OP = [  # each fails the scan's proof, then is read op by op
    '{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [], '
    '"target": 1, "controls": [{"q": 0, "v": 2}]}]}',
    '{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [], '
    '"target": "0", "controls": []}]}',
    '{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [], '
    '"target": 5, "controls": []}]}',
]
_WRITTEN = circuit_to_json(Circuit(2, (CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 2),)),)))


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("text", [
    _SCAN_THEN_OP_BY_OP[0], "not json", *_SCAN_THEN_OP_BY_OP[1:], _WRITTEN,
], ids=["valid", "invalid-json", "bad-target-type", "target-out-of-range", "written"])
def test_circuit_from_json_restores_the_collector(text, enabled):
    """The read pauses the cyclic collector for the scan and the op-by-op
    pass, and leaves it as it found it, whether the read returns or
    raises; the writer's text is read by the scan alone."""
    seen = []

    def spy(name):
        real = getattr(simulator, name)
        return lambda arg: seen.append((name, gc.isenabled())) or real(arg)

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        with mock.patch.object(simulator, "_scan", spy("_scan")), \
                mock.patch.object(simulator, "_circuit_op_by_op", spy("_circuit_op_by_op")):
            try:
                circuit_from_json(text)
            except (ParseError, ValueError):
                pass
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
    passes = ["_scan", "_circuit_op_by_op"] if text in _SCAN_THEN_OP_BY_OP else ["_scan"]
    assert seen == [(name, False) for name in passes]


@pytest.mark.parametrize("name", sorted(CODECS))
def test_circuit_json_read_leaves_no_cyclic_garbage(name):
    """The parsed doc is a tree, so reference counting frees all of it
    while the collector is paused; a run of the circuit adds no cycles."""
    codec = CODECS[name]
    rng = np.random.default_rng(27)
    image = GrayImage(rng.integers(0, 256, (27, 27))) if codec.gray else \
        RgbImage(rng.integers(0, 256, (27, 27, 3)))
    texts = [circuit_to_json(c) for c in codec.measure(codec.encode(image))]
    gc.collect()
    for text in texts:
        circuit = circuit_from_json(text)
        if circuit.num_qutrits <= 9:
            run(circuit)
    del circuit
    assert gc.collect() == 0


# --- circuit JSON against the json.dumps writer and the per-op reader --------

def _reference_to_json(circuit):
    """The writer the template writer replaced: json.dumps(doc, indent=1)."""
    doc = {
        "num_qutrits": circuit.num_qutrits,
        "ops": [
            {
                "gate": op.gate.kind,
                "subspace": list(op.gate.subspace) if op.gate.subspace else None,
                "params": list(op.gate.params),
                "target": op.target,
                "controls": [{"q": c.qutrit, "v": c.value} for c in op.controls],
            }
            for op in circuit.ops
        ],
    }
    return json.dumps(doc, indent=1)


def _exact(value, kind, field):
    if type(value) is not kind:
        raise ParseError(f"circuit JSON {field!r} must be {kind.__name__}, got {quoted(value)}")
    return value


def _reference_from_json(text):
    """The reader the interning reader replaced: every object built per op."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid circuit JSON: {exc}") from exc
    try:
        ops = []
        for entry in _exact(doc["ops"], list, "ops"):
            pair = entry["subspace"]
            if pair is not None:
                pair = [_exact(j, int, "subspace") for j in _exact(pair, list, "subspace")]
            params = _exact(entry["params"], list, "params")
            if not all(type(p) in (int, float) and math.isfinite(p) for p in params):
                raise ParseError(f"circuit JSON params must be finite numbers: {quoted(params)}")
            gate = GateSpec(entry["gate"], pair, params)
            # ControlSpec rejects a non-int field itself, so such a control is
            # not built; it is reported after the range checks of the others.
            raw = _exact(entry["controls"], list, "controls")
            controls = tuple(
                ControlSpec(c["q"], c["v"])
                for c in raw if type(c["q"]) is int and type(c["v"]) is int
            )
            if len(controls) != len(raw):
                raise ParseError(f"circuit JSON controls need int q and v: "
                                 f"{quoted(entry['controls'])}")
            ops.append(CircuitOp(gate, _exact(entry["target"], int, "target"), controls))
        return Circuit(_exact(doc["num_qutrits"], int, "num_qutrits"), tuple(ops))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ParseError(f"invalid circuit JSON structure: {exc}") from exc


SPECIAL_PARAMS = (0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, math.pi)


@st.composite
def circuits(draw):
    """Random circuits over every gate kind, up to 12 qutrits."""
    q = draw(st.integers(1, 12))
    params = st.one_of(
        st.sampled_from(SPECIAL_PARAMS), st.floats(allow_nan=False, allow_infinity=False))
    ops = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(sorted(PARAM_COUNTS)))
        pair = draw(st.sampled_from(PAIRS)) if kind in SUBSPACE_KINDS else None
        values = [draw(params) for _ in range(PARAM_COUNTS[kind])]
        target = draw(st.integers(0, q - 1))
        others = draw(st.permutations([p for p in range(q) if p != target]))
        others = others[: draw(st.integers(0, len(others)))]
        controls = tuple(ControlSpec(p, draw(st.integers(0, 2))) for p in others)
        ops.append(CircuitOp(GateSpec(kind, pair, values), target, controls))
    return Circuit(q, tuple(ops))


def _outcome(read, text):
    """What a reader makes of `text`: the circuit, or the exception type and message."""
    try:
        return read(text)
    except ValueError as exc:
        return type(exc), str(exc)


def _read_by_scan(text):
    """`circuit_from_json(text)`, failing if the text is parsed as JSON:
    the writer's own text is read by the byte scan alone."""
    with mock.patch.object(simulator.json, "loads", side_effect=AssertionError("json.loads")):
        return circuit_from_json(text)


@settings(deadline=None)
@given(circuits())
@example(Circuit(1))
@example(Circuit(3, (CircuitOp(GateSpec("H"), 1), CircuitOp(GateSpec("P2"), 0))))
@example(Circuit(2, (CircuitOp(GateSpec("RZ", (0, 2), (-0.0,)), 0),)))
@example(Circuit(2, (CircuitOp(GateSpec("RZ", (0, 2), (0.0,)), 0),
                     CircuitOp(GateSpec("RZ", (0, 2), (-0.0,)), 0))))
@example(Circuit(1, (CircuitOp(GateSpec("X", (0, 1)), 0), CircuitOp(GateSpec("X", (1, 2)), 0))))
def test_circuit_json_matches_reference(circuit):
    text = circuit_to_json(circuit)
    assert text == _reference_to_json(circuit)
    again = _read_by_scan(text)
    assert again == circuit
    assert circuit_to_json(again) == text  # keeps the sign of -0.0
    assert _reference_from_json(text) == again


@pytest.mark.parametrize("params", ["NaN, 0.5, 0.5", "0.5, Infinity, 0.5", "0.5, 0.5, -Infinity",
                                    "NaN, Infinity, -Infinity"])
@pytest.mark.parametrize("repeats", [1, 2])
def test_circuit_json_non_finite_params_are_refused(params, repeats):
    """json.loads reads NaN, Infinity and -Infinity, which no gate holds:
    such a doc is refused with the reference reader's message, also where
    the bad gate follows a good one of its shape."""
    good = ('{"gate": "U", "subspace": [1, 2], "params": [0.5, 0.5, 0.5], "target": 0, '
            '"controls": []}')
    bad = good.replace("0.5, 0.5, 0.5", params)
    text = '{"num_qutrits": 1, "ops": [%s]}' % ", ".join([good] * (repeats - 1) + [bad])
    with pytest.raises(ParseError) as exc:
        circuit_from_json(text)
    assert _outcome(_reference_from_json, text) == (ParseError, str(exc.value))
    assert str(exc.value).startswith("circuit JSON params must be finite numbers")


@pytest.mark.parametrize("make", [
    lambda width: Circuit(width),
    lambda width: Circuit.from_blocks(width, ()),
    lambda width: circuit_from_json(json.dumps({"num_qutrits": width, "ops": []})),
], ids=["ops", "from_blocks", "json"])
@pytest.mark.parametrize("width", [13, 10**30])
def test_circuit_wider_than_the_cap_is_rejected(make, width):
    with pytest.raises(CapacityError, match=rf"^{width} qutrits exceeds the cap of 12$"):
        make(width)
    make(12)


BAD_VALUES = (True, False, None, 1.0, 2.5, -1, 3, 12, 10**30, "H", "x", [], [0, 1], [[0]],
              {}, {"q": 1, "v": 1})


@st.composite
def mutated_docs(draw):
    """Circuit JSON with a field replaced, removed or made a wrong type, in
    one place or in each of two ops."""
    doc = json.loads(circuit_to_json(draw(circuits())))
    groups = [[doc]] + [[op] + op["controls"] for op in doc["ops"]]
    for group in draw(st.lists(st.sampled_from(groups), min_size=1, max_size=2, unique_by=id)):
        place = draw(st.sampled_from(group))
        key = draw(st.sampled_from(sorted(place)))
        if draw(st.booleans()):
            del place[key]
        elif key in ("subspace", "params", "controls") and place[key] and draw(st.booleans()):
            at = draw(st.integers(0, len(place[key]) - 1))
            place[key][at] = draw(st.sampled_from(BAD_VALUES))
        else:
            place[key] = draw(st.sampled_from(BAD_VALUES))
    return json.dumps(doc)


def _ops(*ops):
    """Circuit JSON text of two qutrits and `ops`, each (gate, subspace, params, controls)."""
    return json.dumps({"num_qutrits": 2, "ops": [
        {"gate": g, "subspace": pair, "params": params, "target": 0,
         "controls": [{"q": q, "v": v} for q, v in controls]}
        for g, pair, params, controls in ops]})


@settings(deadline=None)
@given(mutated_docs())
@example('{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [],'
         ' "target": 0, "controls": [{"q": 1.0, "v": 1}, {"q": 1, "v": 5}]}]}')
@example('{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [],'
         ' "target": 0, "controls": [{"q": 1, "v": 1}, {"q": true, "v": 1}]}]}')
@example('{"num_qutrits": 2, "ops": [{"gate": "H", "subspace": null, "params": [],'
         ' "target": -1, "controls": []}]}')
@example('{"num_qutrits": 3, "ops": [{"gate": "H", "subspace": null, "params": [],'
         ' "target": 1, "controls": [{"q": 1, "v": 0}]}]}')
@example('{"num_qutrits": 3, "ops": [{"gate": "H", "subspace": null, "params": [],'
         ' "target": 0, "controls": [{"q": 1, "v": 0}, {"q": 1, "v": 2}]}]}')
@example('{"num_qutrits": 2, "ops": [{"gate": "P1", "subspace": null, "params": [],'
         ' "target": 0, "controls": [{"q": 1, "v": 0}]}, {"gate": "P1", "subspace": null,'
         ' "params": [], "target": 0, "controls": [{"q": 2, "v": 0}]}]}')
# A control list, subspace or param list equal to an earlier one but for
# true or 1.0 in place of 1: the later op is the bad one.
@example(_ops(("H", None, [], [(1, 1)]), ("H", None, [], [(True, 1)])))
@example(_ops(("H", None, [], [(1, 1)]), ("H", None, [], [(1, True)])))
@example(_ops(("H", None, [], [(1, 1)]), ("H", None, [], [(1.0, 1)])))
@example(_ops(("H", None, [], [(1, 1)]), ("H", None, [], [(1, 1.0)])))
@example(_ops(("X", [0, 1], [], []), ("X", [False, True], [], [])))
@example(_ops(("RY", [0, 1], [1], []), ("RY", [0, 1], [True], [])))
# The same gate with param 1.0 and then 1, and with 0.0 and then -0.0;
# an int param in a gate of a shape seen before.
@example(_ops(("RY", [0, 1], [1.0], []), ("RY", [0, 1], [1], [])))
@example(_ops(("RZ", [0, 2], [0.0], []), ("RZ", [0, 2], [-0.0], [(1, 2)])))
@example(_ops(("RY", [0, 1], [0.5], []), ("RY", [0, 1], [2], [])))
# Params that iterate like an empty list; a control value that is out of
# range, in a row whose base-3 number another row of the block has.
@example(_ops(("H", None, {}, [])))
@example(_ops(("H", None, "", [])))
@example(json.dumps({"num_qutrits": 3, "ops": [
    {"gate": "H", "subspace": None, "params": [], "target": 0,
     "controls": [{"q": 1, "v": v}, {"q": 2, "v": w}]} for v, w in ((0, 1), (3, 0))]}))
# Errors in two ops: the first is reported.
@example(_ops(("Q", None, [], []), ("H", None, [], [(1, 1), (1, 1)])))
@example(_ops(("H", None, [], [(1, 5)]), ("H", [0, 1], [], [])))
def test_circuit_json_reader_fails_where_reference_fails(text):
    outcome = _outcome(circuit_from_json, text)
    expect = _outcome(_reference_from_json, text)
    assert outcome == expect
    if isinstance(outcome, Circuit):  # and keeps the sign of every zero param
        assert circuit_to_json(outcome) == circuit_to_json(expect)


def _op_by_op(text):
    """`_circuit_op_by_op(json.loads(text))`, a JSON syntax error reported
    as the reader reports it."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid circuit JSON: {exc}") from exc
    return simulator._circuit_op_by_op(doc)


@pytest.mark.parametrize("name,k", [("fqri", 0), ("fqrqci", 1)])
def test_circuit_json_single_byte_mutations_read_as_op_by_op(name, k):
    """At every position of the writer's text of a 3x3 codec circuit, the
    byte replaced by a digit or a space, or deleted, in turn: the reader
    gives what the op-by-op pass gives, the circuit (with the sign of every
    zero param) or the exception type and message."""
    codec = CODECS[name]
    text = circuit_to_json(codec.measure(codec.encode(_random_image(codec, 3, 3)))[k])
    accepted = 0
    for i, byte in enumerate(text):
        new = ("2" if byte == "1" else "1", " ", "")[i % 3]
        mutated = text[:i] + new + text[i + 1:]
        outcome = _outcome(circuit_from_json, mutated)
        expect = _outcome(_op_by_op, mutated)
        assert outcome == expect, (i, new)
        if isinstance(outcome, Circuit):
            assert circuit_to_json(outcome) == circuit_to_json(expect), (i, new)
            accepted += circuit_to_json(outcome) == mutated
    assert accepted > 0  # some mutants are the writer's text of another circuit


INT64_MAX = 2**63 - 1


def _reference_probabilities(num_qutrits, counts, shots):
    """The per-state `to_probabilities` of the dict-keyed histogram."""
    probs = np.zeros(3**num_qutrits)
    for state, count in counts.items():
        probs[int(state, 3)] = count / shots
    return probs


def _reference_csv(counts):
    """The dict-keyed CSV writer, which sorted the trit strings."""
    lines = ["state,count"] + [f"{state},{counts[state]}" for state in sorted(counts)]
    return "\n".join(lines) + "\n"


@st.composite
def dict_histograms(draw):
    """(q, counts, shots): keys in any order, zero counts, counts near
    2^53 and 2^63 - 1, totals up to 2^63 - 1."""
    q = draw(st.integers(1, 4))
    keys = draw(st.lists(st.integers(0, 3**q - 1), min_size=1, max_size=12, unique=True))
    counts, room = {}, INT64_MAX
    for index in keys:
        count = draw(st.one_of(st.integers(0, 3), st.integers(2**53 - 3, 2**53 + 3),
                               st.integers(INT64_MAX - 3, INT64_MAX),
                               st.integers(0, INT64_MAX)))
        counts[trits_from_index(index, q)] = min(count, room)
        room -= counts[trits_from_index(index, q)]
    assume(room < INT64_MAX)
    return q, counts, INT64_MAX - room


@settings(max_examples=300)
@given(dict_histograms())
@example((1, {"0": 3, "1": 2**53 - 2}, 2**53 + 1))
@example((2, {"21": 0, "00": 4, "10": 0}, 4))
def test_histogram_arrays_match_dict_references(case):
    q, counts, shots = case
    hist = ShotHistogram(q, counts, shots)
    assert hist.to_probabilities().tobytes() == (
        _reference_probabilities(q, counts, shots).tobytes())
    assert hist.counts == counts
    assert list(hist.counts) == sorted(counts)
    assert histogram_to_csv(hist) == _reference_csv(counts)
    assert histogram_from_csv(histogram_to_csv(hist)) == hist


@pytest.mark.parametrize("shots", [2**53 - 1, 2**53, 2**53 + 1, INT64_MAX])
def test_probabilities_at_the_float64_division_boundary(shots):
    """Counts whose quotients a float64 division rounds differently past
    2^53 shots, where the total no longer fits a float64 exactly."""
    counts = {"00": 1, "01": 495186, "02": 729634, "10": 2**52 + 3}
    if shots > 2**54:
        counts["11"] = 11370766492273369
    counts["22"] = shots - sum(counts.values())
    hist = ShotHistogram(2, counts, shots)
    assert hist.to_probabilities().tobytes() == (
        _reference_probabilities(2, counts, shots).tobytes())


def test_probabilities_are_int_divisions_past_2_53_shots():
    hist = ShotHistogram(1, {"0": 3, "1": 2**53 - 2}, 2**53 + 1)
    assert hist.to_probabilities()[0] == 3 / (2**53 + 1) == 3.330669073875469e-16
    # float64 division rounds the total first
    assert np.float64(3) / np.float64(2**53 + 1) == 3.3306690738754696e-16


@st.composite
def sparse_weights(draw):
    """(q, weights) on up to 7 qutrits: at most 12 non-zero weights, and the
    last index drawn at zero, at non-zero or left to chance."""
    q = draw(st.integers(1, 7))
    weights = np.zeros(3**q)
    hits = draw(st.dictionaries(st.integers(0, 3**q - 1), st.one_of(
        st.sampled_from([1e-9, 0.5, 1.0, 3.0]), st.floats(1e-3, 4.0)), max_size=12))
    weights[list(hits)] = list(hits.values())
    last = draw(st.sampled_from([None, 0.0, 2.0]))
    if last is not None:
        weights[-1] = last
    assume(weights.any())
    return q, weights


@settings(max_examples=200)
@given(sparse_weights(), st.one_of(st.sampled_from([1, 10**6, INT64_MAX]),
                                   st.integers(1, 10**6), st.integers(2**53 - 3, INT64_MAX)),
       st.integers(0, 2**32 - 1))
@example((7, np.eye(3**7)[0]), 1, 0)
@example((7, np.eye(3**7)[-1]), 10**6, 1)
@example((3, np.eye(27)[0]), INT64_MAX, 2)
@example((3, np.eye(27)[-1]), INT64_MAX - 5, 3)
@example((2, np.array([0, 1, 0, 0, 3, 0, 0, 0, 2.0])), 10**6, 4)
@example((2, np.array([0, 1, 0, 0, 3, 0, 0, 0, 0.0])), INT64_MAX, 5)
# normalised over the support alone, these probabilities round differently
@example((4, np.bincount([6, 67, 68, 71, 79], [1.6, 3.75, 2.22, 0.96, 2.97], 81)), 2**62, 674)
def test_sample_matches_dict_reference(case, shots, seed):
    """The draw over the support only matches numpy's draw over the full vector."""
    q, weights = case
    state = Statevector(q, np.sqrt(weights))
    hist = sample(state, shots, seed)
    probs = probabilities(state)
    drawn = np.random.default_rng(seed).multinomial(shots, probs / probs.sum())
    hit = np.flatnonzero(drawn)
    counts = {trits_from_index(i, q): c for i, c in zip(hit.tolist(), drawn[hit].tolist())}
    assert hist == ShotHistogram(q, counts, shots)
    assert hist.counts == counts
    assert hist.to_probabilities().tobytes() == (
        _reference_probabilities(q, counts, shots).tobytes())


@pytest.mark.parametrize("counts, shots", [
    ({"0": 2**63}, 2**63),
    ({"0": 2**62, "1": 2**62}, 2**63),
    ({"2": 99999999999999999999}, 99999999999999999999),
])
def test_histogram_past_int64_is_rejected(counts, shots):
    with pytest.raises(ValueError, match=r"exceeds 2\^63 - 1"):
        ShotHistogram(1, counts, shots)
    assert ShotHistogram(1, {"0": INT64_MAX}, INT64_MAX).tallies.tolist() == [INT64_MAX]


@pytest.mark.parametrize("count", [2.5, 2.0, np.float64(2.0), "2"])
def test_histogram_counts_must_be_integers(count):
    with pytest.raises(ValueError, match="is not an integer"):
        ShotHistogram(1, {"0": count, "1": 3}, 5)
    hist = ShotHistogram(1, {"0": np.int64(2), "1": True, "2": 2}, 5)
    assert hist.tallies.tolist() == [2, 1, 2]


def test_histogram_csv_round_trip():
    hist = ShotHistogram(3, {"001": 37, "120": 5}, 42)
    text = histogram_to_csv(hist)
    assert text.splitlines()[0] == "state,count"
    assert "001,37" in text
    again = histogram_from_csv(text)
    assert again == hist


def test_histogram_csv_errors():
    with pytest.raises(ParseError):
        histogram_from_csv("nope\n001,1\n")
    with pytest.raises(ParseError):
        histogram_from_csv("state,count\n001,x\n")


@pytest.mark.parametrize("width", [13, 41])
def test_tables_wider_than_the_cap_are_rejected(width):
    state = "1" * width
    message = rf"^{width} qutrits exceeds the cap of 12$"
    for read in (lambda: ShotHistogram(width, {state: 2}, 2),
                 lambda: histogram_from_csv(f"state,count\n{state},2\n"),
                 lambda: probabilities_from_csv(f"state,probability\n{state},1\n")):
        with pytest.raises(CapacityError, match=message):
            read()


@pytest.mark.parametrize("width", [13, 10**6])
def test_probability_csv_over_the_cap_is_rejected_before_its_length(width):
    with pytest.raises(CapacityError, match=rf"^{width} qutrits exceeds the cap of 12$"):
        probabilities_to_csv(width, np.ones(3))


@pytest.mark.parametrize("width", [0, -1])
def test_probability_csv_width_below_one_is_rejected(width):
    with pytest.raises(RegisterWidthError,
                       match=rf"^register width must be an int of at least 1, got {width}$"):
        probabilities_to_csv(width, np.ones(1))


def test_probability_csv_of_the_wrong_length_is_rejected():
    with pytest.raises(ShapeError, match="^expected 9 probabilities, got 3$"):
        probabilities_to_csv(2, np.ones(3) / 3)


def test_probability_csv_round_trip():
    probs = np.zeros(9)
    probs[0] = 0.25
    probs[8] = 0.75
    text = probabilities_to_csv(2, probs)
    assert text.splitlines()[0] == "state,probability"
    assert len(text.splitlines()) == 10
    q, again = probabilities_from_csv(text)
    assert q == 2
    np.testing.assert_allclose(again, probs)


# --- CSV tables against the per-row readers and writers --------------------

def _reference_histogram_to_csv(hist):
    """The per-row writer the array writer replaced: one line per `counts` item."""
    lines = ["state,count"] + [f"{state},{count}" for state, count in hist.counts.items()]
    return "\n".join(lines) + "\n"


def _reference_cap(q):
    """The per-row readers' cap check, spelled out: an empty state, of
    width 0, is left to the row checks, which name its row."""
    if q > MAX_QUTRITS:
        raise CapacityError(f"{q} qutrits exceeds the cap of {MAX_QUTRITS}")


def _reference_histogram_from_csv(text):
    """The per-row reader the array reader replaced, whose checks of
    `ShotHistogram(q, counts, shots)` are spelled out in their order, with
    a bad state, a state of the wrong length and a negative count raised
    as ParseErrors that name the row."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "state,count":
        raise ParseError("expected 'state,count' header")
    counts, rows = {}, {}
    for ln in lines[1:]:
        try:
            state, raw = ln.split(",")
            count = int(raw)
        except ValueError as exc:
            raise ParseError(f"bad histogram row {ln!r}") from exc
        if state in counts:
            raise ParseError(f"duplicate state {state!r}")
        counts[state], rows[state] = count, ln
    if not counts:
        raise ParseError("histogram has no rows")
    q, shots = len(next(iter(counts))), sum(counts.values())
    if shots < 1:
        raise ValueError(f"a histogram needs at least 1 shot, got {shots}")
    _reference_cap(q)
    for state, count in counts.items():
        if len(state) != q:
            raise ParseError(f"state {state!r} is not {q} trits long")
        try:
            index_from_trits(state)
        except ValueError as exc:
            raise ParseError(f"bad histogram row {rows[state]!r}") from exc
        if count < 0:
            raise ParseError(f"negative count in histogram row {rows[state]!r}")
    return ShotHistogram(q, counts, shots)


def _reference_probabilities_to_csv(num_qutrits, probs):
    if len(probs) != 3**num_qutrits:
        raise ShapeError(f"expected {3**num_qutrits} probabilities, got {len(probs)}")
    lines = ["state,probability"]
    lines += [f"{trits_from_index(i, num_qutrits)},{p:.17g}" for i, p in enumerate(probs)]
    return "\n".join(lines) + "\n"


def _reference_probabilities_from_csv(text):
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "state,probability":
        raise ParseError("expected 'state,probability' header")
    rows = lines[1:]
    if not rows:
        raise ParseError("probability table has no rows")
    length = len(rows[0].split(",")[0])
    _reference_cap(length)
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
        if not 0.0 <= p <= 1.0:
            raise ParseError(f"probability {raw.strip()!r} is not a number in [0, 1]")
        seen.add(index)
        probs[index] = p
    total = float(probs.sum())
    if abs(total - 1.0) > 1e-9:
        raise ParseError(f"probabilities sum to {total!r}, not 1")
    return length, probs


# Every line separator of str.splitlines, and characters that are no trits.
SEPARATORS = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
              " ", " ")
NOT_TRITS = ("3", "x", "-", " ", "\t", "\x00", "é", "١", " ", "?", ",")
BAD_COUNTS = ("1.5", "+3", "1_000", "-4", "-0", " 7 ", "\t2", "x", "", "٣", "1e3", "0x10",
              "99999999999999999999", "9223372036854775807", "nan")
BAD_PROBABILITIES = ("nan", "-nan", "inf", "-0.0", "1.0000001", "-1e-300", "1e400", " 0.5 ",
                     "+.5", "1_0", "0x1", "", "x", "1", "0", "5e-324")


@st.composite
def mutated_tables(draw, header):
    """A table written by the reference writer, with up to four edits:
    characters of a state replaced or inserted, states made longer or
    shorter, rows repeated, values replaced, commas added or removed,
    blank lines added, and the lines joined by any `splitlines` separator."""
    q = draw(st.integers(1, 3))
    if header == "state,count":
        keys = draw(st.lists(st.integers(0, 3**q - 1), min_size=1, max_size=9, unique=True))
        counts = {trits_from_index(i, q): draw(st.integers(0, 50)) for i in keys}
        assume(sum(counts.values()) > 0)
        text = _reference_histogram_to_csv(ShotHistogram(q, counts, sum(counts.values())))
        bad = BAD_COUNTS
    else:
        weights = np.array(draw(st.lists(st.integers(0, 4), min_size=3**q, max_size=3**q)), float)
        assume(weights.any())
        text = _reference_probabilities_to_csv(q, weights / weights.sum())
        bad = BAD_PROBABILITIES
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 4))):
        k = draw(st.integers(1, len(lines) - 1))  # the header stays
        state, _, value = lines[k].partition(",")
        at = draw(st.integers(0, len(state)))
        how = draw(st.sampled_from(("char", "insert", "longer", "shorter", "duplicate", "value",
                                    "comma", "no-comma", "blank")))
        if how == "char" and at < len(state):
            lines[k] = f"{state[:at]}{draw(st.sampled_from(NOT_TRITS))}{state[at + 1:]},{value}"
        elif how == "insert":
            lines[k] = f"{state[:at]}{draw(st.sampled_from(NOT_TRITS))}{state[at:]},{value}"
        elif how == "longer":
            lines[k] = f"{state}{draw(st.sampled_from('012'))},{value}"
        elif how == "shorter":
            lines[k] = f"{state[:-1]},{value}"
        elif how == "duplicate":
            lines.insert(draw(st.integers(1, len(lines))), lines[k])
        elif how == "value":
            lines[k] = f"{state},{draw(st.sampled_from(bad))}"
        elif how == "comma":
            lines[k] = draw(st.sampled_from((f"{state},{value},", f",{state},{value}",
                                             f"{state},,{value}")))
        elif how == "no-comma":
            lines[k] = f"{state}{value}"
        else:
            lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(("", " ", "\t"))))
    separator = draw(st.sampled_from(SEPARATORS))
    return separator.join(lines) + draw(st.sampled_from(("", separator)))


def _table_outcome(read, text):
    """What a table reader makes of `text`: the histogram or (q, probability
    bytes), or the exception type and message."""
    try:
        result = read(text)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(result, ShotHistogram):
        return result.num_qutrits, result.shots, result.indices.tolist(), result.tallies.tolist()
    return result[0], result[1].tobytes()


@settings(max_examples=400, deadline=None)
@given(mutated_tables("state,count"))
@example("state,count\n01x,3\n")
@example("state,count\n012,3\n00,1\n")
@example("state,count\n01,-3\n00,4\n")
@example("state,count\n01,-3\n00,2\n")
@example("state,count\n0 1,3\n01,1\n")
@example("state,count\r\n01,3\r\n\x0b \n22,1_000 ")
@example("state,count\n1111111111111,2\n")
@example("state,count\n,2\n")
@example("state,count\n01,2,\n2,1\n")
@example("state,count\n01,2\n02,9223372036854775807\n")
def test_histogram_csv_reader_matches_reference(text):
    outcome = _table_outcome(histogram_from_csv, text)
    assert outcome == _table_outcome(_reference_histogram_from_csv, text)
    if isinstance(outcome[0], int):
        hist = histogram_from_csv(text)
        assert histogram_to_csv(hist) == _reference_histogram_to_csv(hist)


@settings(max_examples=400, deadline=None)
@given(mutated_tables("state,probability"))
@example("state,probability\n0,0.5\n1,0.5\n2,nan\n")
@example("state,probability\n0,0.5\n1,0.5\né,0\n")
@example("state,probability\n0,0.5\n0,0.5\n2,0\n")
@example("state,probability\n0,0.5\n1,0.5\n22,0\n")
@example("state,probability\n,1\n")
@example("state,probability\r\n0,1\x1c1, 0  2,0")
def test_probability_csv_reader_matches_reference(text):
    assert (_table_outcome(probabilities_from_csv, text)
            == _table_outcome(_reference_probabilities_from_csv, text))


SPECIAL_PROBABILITIES = (0.0, -0.0, 5e-324, 1e-300, 0.1, 1 / 3, 0.5, 1.0, 1e16, math.nan,
                         math.inf, -math.inf, -1.0)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda q: st.tuples(st.just(q), st.lists(
    st.one_of(st.sampled_from(SPECIAL_PROBABILITIES), st.floats()),
    min_size=3**q, max_size=3**q))))
def test_probability_csv_writer_matches_reference(case):
    q, probs = case
    for table in (np.array(probs), probs):
        assert probabilities_to_csv(q, table) == _reference_probabilities_to_csv(q, table)


def test_histogram_csv_errors_name_the_row():
    for text, message in (
            ("state,count\n01x,3\n", "bad histogram row '01x,3'"),
            ("state,count\n01,3\n012,2\n", "state '012' is not 2 trits long"),
            ("state,count\n01,-3\n00,4\n", "negative count in histogram row '01,-3'")):
        with pytest.raises(ParseError) as exc:
            histogram_from_csv(text)
        assert str(exc.value) == message


@pytest.mark.parametrize("read, text, message", [
    (histogram_from_csv, "state,count\n,3\n", "bad histogram row ',3'"),
    (probabilities_from_csv, "state,probability\n,3\n", "bad probability row ',3'"),
], ids=["histogram", "probabilities"])
def test_csv_readers_name_a_row_with_an_empty_state(read, text, message):
    """An empty state is a bad row, not a register of width 0."""
    with pytest.raises(ParseError) as exc:
        read(text)
    assert str(exc.value) == message


def test_diagram_single_h():
    text = diagram(Circuit(1, (CircuitOp(GateSpec("H"), 0),)))
    lines = text.strip("\n").split("\n")
    assert len(lines) == 1
    assert "[H]" in lines[0]


def test_diagram_fqri(sample_gray):
    circuit = encode_fqri(sample_gray).circuit
    text = diagram(circuit)
    lines = text.strip("\n").split("\n")
    assert len(lines) == 3
    assert lines[0].count("[RY01(") == 9
    # control digits scan (0,0), (0,1) ... (2,2) across the location wires
    assert lines[1].count("(0)") == 3 and lines[1].count("(2)") == 3
    assert lines[2].count("(0)") == 3 and lines[2].count("(2)") == 3
    cols = diagram_columns(circuit)
    assert len(cols) == len(circuit.ops) + 1


@pytest.mark.parametrize("width", [13, 10**30])
def test_diagram_wider_than_the_cap_is_rejected(width):
    """No circuit wider than the cap exists to draw: a list of 10^30 wire
    labels would not fit in memory."""
    for draw in (diagram, diagram_columns):
        with pytest.raises(CapacityError, match=rf"^{width} qutrits exceeds the cap of 12$"):
            draw(Circuit(width))


def test_diagram_empty_circuit():
    text = diagram(Circuit(2))
    lines = text.strip("\n").split("\n")
    assert len(lines) == 2
    assert all("[" not in ln for ln in lines)


# --- blocks against the per-op kernel --------------------------------------

def _apply_in_place(tensor, op):
    """The per-op kernel that block application replaced, kept as the reference."""
    index = [slice(None)] * tensor.ndim
    for c in op.controls:
        index[c.qutrit] = c.value
    axis = op.target - sum(1 for c in op.controls if c.qutrit < op.target)
    block = np.moveaxis(tensor[tuple(index)], axis, 0)
    block[...] = np.dot(op.gate.matrix(), block.reshape(3, -1)).reshape(block.shape)


def _per_op_amplitudes(circuit):
    state = statevector_zero(circuit.num_qutrits)
    tensor = state.amplitudes.reshape((3,) * circuit.num_qutrits)
    for op in circuit.ops:
        _apply_in_place(tensor, op)
    return np.add(state.amplitudes, 0.0)  # zeros as +0.0, as `run` returns them


ANGLES = st.one_of(st.sampled_from((0.0, -0.0, math.pi, -math.pi / 2)),
                   st.floats(-4.0, 4.0))


@st.composite
def multiplexed_circuits(draw):
    """Runs of ops on shared control-qutrit tuples: every gate kind, control
    values that come back within a run, several ops on one target."""
    q = draw(st.integers(2, 7))
    ops = [CircuitOp(GateSpec("H"), t) for t in range(q) if draw(st.booleans())]
    for _ in range(draw(st.integers(1, 4))):
        positions = draw(st.permutations(range(q)))
        c = draw(st.integers(0, q - 1))
        qutrits, free = positions[:c], positions[c:]
        choices = draw(st.lists(st.tuples(*[st.integers(0, 2)] * c), min_size=1, max_size=4))
        for _ in range(draw(st.integers(1, 10))):
            values = draw(st.sampled_from(choices))
            kind = draw(st.sampled_from(sorted(PARAM_COUNTS)))
            pair = draw(st.sampled_from(PAIRS)) if kind in SUBSPACE_KINDS else None
            params = [draw(ANGLES) for _ in range(PARAM_COUNTS[kind])]
            controls = tuple(ControlSpec(p, v) for p, v in zip(qutrits, values))
            ops.append(CircuitOp(GateSpec(kind, pair, params), draw(st.sampled_from(free)),
                                 controls))
    return Circuit(q, tuple(ops))


@settings(deadline=None)
@given(multiplexed_circuits())
def test_run_is_bit_identical_to_per_op_kernel(circuit):
    expect = _per_op_amplitudes(circuit).tobytes()
    assert run(circuit).amplitudes.tobytes() == expect
    again = circuit_from_json(circuit_to_json(circuit))  # blocks rebuilt by the reader
    assert again == circuit
    assert run(again).amplitudes.tobytes() == expect
    folded = statevector_zero(circuit.num_qutrits)
    for op in circuit.ops:
        folded = _apply(folded, op)
    assert folded.amplitudes.tobytes() == expect


def test_scratch_buffer_carries_nothing_between_steps():
    """Blocks whose steps shrink, grow and change axis share one scratch
    buffer per `run`: a full-state block, 27 entries with partial steps,
    2 entries on other targets, then the full state again."""
    rng = np.random.default_rng(10)

    def gate():
        return GateSpec("U", PAIRS[rng.integers(3)], tuple(rng.uniform(-math.pi, math.pi, 3)))

    def controlled(qutrits, values, target):
        return CircuitOp(gate(), target, tuple(map(ControlSpec, qutrits, values)))

    ops = [CircuitOp(GateSpec("H"), t) for t in range(10)] + [CircuitOp(gate(), 6)]
    for values in itertools.product(range(3), repeat=3):
        for target in (0, 8, 9) if sum(values) % 2 else (9,):  # partial steps, then a full one
            ops.append(controlled((2, 5, 7), values, target))
    ops += [controlled((0, 9), (1, 2), 4), controlled((0, 9), (0, 0), 4),
            controlled((0, 9), (1, 2), 1), controlled((0, 9), (1, 2), 3)]  # then partial ones
    ops += [CircuitOp(gate(), 8), CircuitOp(gate(), 3)]
    circuit = Circuit(10, ops)
    assert [len(b.values) for b in circuit.blocks] == [1, 27, 2, 1]
    assert [[(t, len(e)) for t, e, _ in b.steps] for b in circuit.blocks[1:3]] == [
        [(0, 13), (8, 13), (9, 27)], [(4, 2), (1, 1), (3, 1)]]
    expect = _per_op_amplitudes(circuit).tobytes()
    assert run(circuit).amplitudes.tobytes() == expect
    assert run(circuit).amplitudes.tobytes() == expect


def _op(kind, target, pair=None, params=(), controls=()):
    return CircuitOp(GateSpec(kind, pair, params), target, tuple(controls))


def _ctl(kind, target, values, pair=None, params=(), qutrits=(0, 1)):
    return _op(kind, target, pair, params, map(ControlSpec, qutrits, values))


# Complex amplitudes on qutrits 0 and 1, which the controlled cases use as
# controls: an RZ on (0, 1) and a U re-touch after the Hadamards.
COMPLEX_PREP = [_op("H", 0), _op("H", 1), _op("RZ", 0, (0, 1), (1.1,)),
                _op("U", 1, (0, 2), (0.7, 1.9, -2.6))]

BOX_CASES = {
    "re-touch": Circuit(7, [_op("H", 0), _op("H", 0)]),
    "complex-first-touch": Circuit(7, [_op("RZ", 2, (0, 1), (1.1,)),
                                       _op("RZ", 0, (0, 2), (2.3,))]),
    "after-controlled-block": Circuit(7, [
        _op("H", 0), _op("U", 3, (0, 1), (0.7, 1.9, -2.6), [ControlSpec(0, 0)]),
        _op("H", 3), _op("RX", 3, (1, 2), (0.4,))]),
    "controls-on-untouched": Circuit(7, [
        _op("H", 1), _op("H", 5),
        _op("RY", 1, (0, 2), (1.3,), [ControlSpec(0, 0), ControlSpec(6, 0)]),
        _op("RZ", 6, (0, 1), (0.9,), [ControlSpec(2, 0)]), _op("H", 6), _op("H", 0)]),
    # 3 of 9 entries, so each step is partial: P1 and P2 on qutrit 2, RY on 4
    "controlled-partial-first-touch": Circuit(6, COMPLEX_PREP + [
        _ctl("P1", 2, (0, 0)), _ctl("RY", 4, (0, 0), (0, 2), (1.3,)),
        _ctl("P2", 2, (1, 2)), _ctl("RY", 4, (2, 1), (1, 2), (-0.8,))]),
    # every entry listed, with a different gate on qutrit 3
    "controlled-full-first-touch": Circuit(6, COMPLEX_PREP + [
        _ctl(kind, 3, values, pair, params) for values, (kind, pair, params) in zip(
            itertools.product(range(3), repeat=2),
            [("H", None, ()), ("P1", None, ()), ("P2", None, ()), ("X", (0, 1), ()),
             ("X", (1, 2), ()), ("RY", (0, 1), (2.1,)), ("RY", (0, 2), (-3.0,)),
             ("RX", (0, 2), (0.6,)), ("I", None, ())])]),
    # column 0 of RZ on (0, 1) and of U is complex: full-rows BLAS
    "controlled-complex-first-touch": Circuit(6, COMPLEX_PREP + [
        _ctl("RZ", 2, (0, 1), (0, 1), (0.9,)), _ctl("U", 3, (2, 2), (0, 2), (0.3, -1.2, 2.5))]),
    # one step on qutrit 4 of RY and U entries: full-rows BLAS
    "controlled-mixed-step": Circuit(6, COMPLEX_PREP + [
        _ctl("RY", 4, (0, 0), (0, 1), (0.5,)), _ctl("U", 4, (1, 0), (0, 1), (1.0, 2.0, 3.0)),
        _ctl("H", 4, (2, 1))]),
    # entry (1, 1) hits qutrit 5 at level 0 and again at level 1
    "controlled-re-touch": Circuit(6, COMPLEX_PREP + [
        _ctl("H", 5, (1, 1)), _ctl("RY", 3, (1, 1), (0, 2), (0.4,)),
        _ctl("RY", 5, (1, 1), (1, 2), (1.7,)), _ctl("X", 5, (0, 2), (0, 2))]),
    # controls on qutrits 3 and 4, still |0>: only the (0, 0) entry has support
    "controlled-first-touch-on-untouched-controls": Circuit(6, COMPLEX_PREP + [
        _ctl("RY", 2, (0, 0), (0, 1), (1.1,), (3, 4)), _ctl("H", 2, (0, 1), qutrits=(3, 4)),
        _ctl("P2", 5, (0, 0), qutrits=(3, 4))]),
    # three folded steps on qutrits 2, 3 and 5; each of the four entries skips
    # at least one of them, and entry (2, 2) is in the last one only
    "controlled-entries-skip-first-touches": Circuit(6, COMPLEX_PREP + [
        _ctl("RY", 2, (0, 0), (0, 1), (0.3,)), _ctl("P1", 3, (0, 0)),
        _ctl("X", 2, (1, 1), (0, 2)), _ctl("H", 5, (1, 1)),
        _ctl("RX", 3, (2, 0), (1, 2), (2.2,)), _ctl("P2", 5, (2, 0)),
        _ctl("RY", 5, (2, 2), (0, 2), (-1.4,))]),
    # a re-touch of qutrit 3, then first touches of qutrits 4 and 5, which
    # follow it and so run as BLAS on full rows too
    "controlled-first-touch-after-blas": Circuit(6, COMPLEX_PREP + [
        _op("H", 3), _ctl("RY", 3, (0, 1), (0, 1), (0.8,)), _ctl("H", 4, (0, 1)),
        _ctl("RY", 4, (2, 2), (0, 2), (1.9,)), _ctl("P1", 5, (2, 2))]),
    # folded first touches that reach every free value, then a re-touch of
    # every entry, which takes the folded rows: with and without controls
    "uncontrolled-fold-into-blas": Circuit(3, [
        _op("H", 0), _op("RY", 1, (0, 2), (0.7,)), _op("X", 2, (0, 1)),
        _op("U", 1, (0, 2), (0.3, -1.2, 2.5)), _op("RZ", 2, (1, 2), (0.4,))]),
    "controlled-fold-into-blas": Circuit(3, [_op("H", 0), _op("RZ", 0, (0, 1), (1.1,))] + [
        _op(kind, target, pair, params, [ControlSpec(0, v)]) for v in range(3)
        for kind, target, pair, params in (("RY", 1, (0, 1), (0.5 + v,)), ("H", 2, None, ()),
                                           ("U", 1, (0, 2), (v, 1.9, -2.6)))]),
    # a complex column 0 on qutrit 2, then a first touch of qutrit 4
    "controlled-first-touch-after-complex": Circuit(6, COMPLEX_PREP + [
        _ctl("U", 2, (1, 0), (0, 1), (0.6, 1.2, -0.4)), _ctl("RY", 4, (1, 0), (0, 1), (2.4,)),
        _ctl("H", 4, (0, 2))]),
}

# Per block after COMPLEX_PREP, per step: whether it is in the block's folded
# prefix of first touches (`Block.narrows` and its target still |0>, as every
# step before it) rather than full-rows BLAS.
FIRST_TOUCHES = {
    "controlled-partial-first-touch": [(True, True)],
    "controlled-full-first-touch": [(True,)],
    "controlled-complex-first-touch": [(False, False)],
    "controlled-mixed-step": [(False,)],
    "controlled-re-touch": [(True, True, False)],
    "controlled-first-touch-on-untouched-controls": [(True, True)],
    "controlled-entries-skip-first-touches": [(True, True, True)],
    "controlled-first-touch-after-blas": [(False, False, False)],
    "controlled-first-touch-after-complex": [(False, False)],
}
# The same for every block of a case without COMPLEX_PREP.
ALL_FIRST_TOUCHES = {
    "uncontrolled-fold-into-blas": [(True, True, True, False, False)],
    "controlled-fold-into-blas": [(True, False), (True, True, False)],
}


@pytest.mark.parametrize("name", sorted(BOX_CASES))
def test_support_box_is_bit_identical_to_per_op_kernel(name):
    """A re-touched target, a complex column 0 on complex amplitudes, a
    target a controlled block has touched, controls on qutrits still at
    |0> and a first touch after any of these in its block each run as
    full-rows BLAS, so BLAS rounds as in the per-op kernel; a block's
    leading first touches by gates with a real or imaginary column 0 fold
    into products on the support box, in blocks with and without controls,
    with entries a step does not list, and round alike too."""
    circuit = BOX_CASES[name]
    assert run(circuit).amplitudes.tobytes() == _per_op_amplitudes(circuit).tobytes()
    if name in FIRST_TOUCHES or name in ALL_FIRST_TOUCHES:
        extents, first = [1] * circuit.num_qutrits, []
        for blk in circuit.blocks:
            steps = []
            for (t, _, _), narrows in zip(blk.steps, blk.narrows):
                steps.append(extents[t] == 1 and narrows and all(steps))
                extents[t] = 3
            first.append(tuple(steps))
        if name in FIRST_TOUCHES:
            assert first[len(Circuit(6, COMPLEX_PREP).blocks):] == FIRST_TOUCHES[name]
        else:
            assert first == ALL_FIRST_TOUCHES[name]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("kind,slot", [("RX", 0), ("RY", 0), ("RZ", 0),
                                        ("U", 0), ("U", 1), ("U", 2)])
def test_non_finite_params_are_rejected_before_any_state(kind, slot, value):
    """No gate holds a NaN or infinite param, so no circuit `run` takes
    does: a NaN times the zeros outside the support box would be NaN in
    the full product.  `_of_shape` checks every row, not just the first."""
    params = [0.5] * PARAM_COUNTS[kind]
    params[slot] = value
    message = rf"^gate {kind}02\(.*\) has a non-finite parameter$"
    with pytest.raises(ValueError, match=message):
        GateSpec(kind, (0, 2), params)
    for rows in ([params], [[0.5] * len(params), params], [[0.5] * len(params)] * 2 + [params]):
        with pytest.raises(ValueError, match=message):
            GateSpec._of_shape(kind, (0, 2), rows)


def _random_image(codec, side, seed):
    rng = np.random.default_rng(seed)
    if codec.gray:
        return GrayImage(rng.integers(0, 256, (side, side)))
    return RgbImage(rng.integers(0, 256, (side, side, 3)))


@pytest.mark.parametrize("side", [3, 9, 27])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_encoder_blocks_match_their_op_view(name, side):
    codec = CODECS[name]
    for circuit in codec.measure(codec.encode(_random_image(codec, side, side))):
        for op in circuit.ops:  # plain ints, so the JSON writer never sees numpy scalars
            assert type(op.target) is int
            assert all(type(c.qutrit) is int and type(c.value) is int for c in op.controls)
        again = _read_by_scan(circuit_to_json(circuit))
        assert again == circuit
        assert circuit_to_json(again) == circuit_to_json(circuit)
        if side < 27:
            expect = _per_op_amplitudes(circuit).tobytes()
            assert run(circuit).amplitudes.tobytes() == expect
            assert run(again).amplitudes.tobytes() == expect


def _reference_ops(circuit):
    """The op view as it was built one op at a time: a checked CircuitOp
    per op from each block's columns."""
    ops = []
    for blk in circuit.blocks:
        for e, t, g in zip(blk.entries.tolist(), blk.targets.tolist(), blk.gate_ids.tolist()):
            controls = [ControlSpec(q, v) for q, v in zip(blk.controls, blk.values[e].tolist())]
            ops.append(CircuitOp(blk.gates[g], t, controls))
    return tuple(ops)


def _assert_view_matches_reference(circuit):
    """The view of a fresh copy of `circuit` on its blocks equals the
    reference op by op, field types and gate identity too, and so does the
    circuit's own `ops`."""
    view = Circuit.from_blocks(circuit.num_qutrits, circuit.blocks).ops
    expect = _reference_ops(circuit)
    assert type(view) is tuple and view == expect and repr(view) == repr(expect)
    for op, ref in zip(view, expect):
        assert type(op) is CircuitOp and type(op.target) is int and type(op.controls) is tuple
        assert op.gate is ref.gate
    assert circuit.ops == expect


@pytest.mark.parametrize("side", [3, 9])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_op_view_matches_reference(name, side):
    codec = CODECS[name]
    circuits = codec.measure(codec.encode(_random_image(codec, side, side)))
    assert len(circuits) == (3 if name == "fqrqci" else 1)
    for circuit in circuits:
        _assert_view_matches_reference(circuit)
        text = circuit_to_json(circuit)
        for read in (_read_by_scan, _op_by_op):
            _assert_view_matches_reference(read(text))
        _assert_view_matches_reference(Circuit(circuit.num_qutrits, circuit.ops))


def _halves(blk):
    """`blk` cut into two blocks at its middle op, or itself if it has one op."""
    cut = len(blk.targets) // 2
    if not cut:
        return [blk]
    return [dataclasses.replace(blk, entries=blk.entries[part], targets=blk.targets[part],
                                gate_ids=blk.gate_ids[part])
            for part in (slice(cut), slice(cut, None))]


@pytest.mark.parametrize("name", sorted(CODECS))
def test_equal_circuits_hash_equal(name):
    """One circuit built by `Circuit(q, ops)`, as a `from_blocks` copy whose
    blocks are cut at other ops, and by a JSON read: all equal, one hash."""
    codec = CODECS[name]
    circuit = codec.measure(codec.encode(_random_image(codec, 3, 5)))[-1]
    built = Circuit(circuit.num_qutrits, circuit.ops)
    cut = Circuit.from_blocks(circuit.num_qutrits,
                              [half for blk in circuit.blocks for half in _halves(blk)])
    read = circuit_from_json(circuit_to_json(circuit))
    assert len(cut.blocks) > len(built.blocks)
    assert built == cut == read and hash(built) == hash(cut) == hash(read)
    assert len({built, cut, read}) == 1
    other = Circuit(circuit.num_qutrits, circuit.ops[:-1])
    assert built != other and built != circuit.ops and not built == circuit.ops
    assert built == mock.ANY


@settings(deadline=None)
@given(circuits())
@example(Circuit(1))
@example(Circuit(3, (CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 1), ControlSpec(2, 0))),
                     CircuitOp(GateSpec("H"), 1, (ControlSpec(0, 2), ControlSpec(2, 0))),
                     CircuitOp(GateSpec("P1"), 0))))
def test_op_view_of_random_circuits_matches_reference(circuit):
    _assert_view_matches_reference(circuit)
    _assert_view_matches_reference(circuit_from_json(circuit_to_json(circuit)))


@pytest.mark.parametrize("side", [3, 9, 27])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_run_returns_no_negative_zero(name, side):
    codec = CODECS[name]
    for circuit in codec.measure(codec.encode(_random_image(codec, side, side))):
        parts = run(circuit).amplitudes.view(np.float64)
        assert not np.signbit(parts[parts == 0]).any()


def test_grouping_keeps_emission_order():
    x, y = ControlSpec(1, 0), ControlSpec(1, 2)
    ops = (
        CircuitOp(GateSpec("H"), 0, (x,)),
        CircuitOp(GateSpec("P1"), 2, (x,)),
        CircuitOp(GateSpec("P2"), 0, (y,)),
        CircuitOp(GateSpec("X", (0, 2)), 0, (x,)),  # x again after y: same block and entry
        CircuitOp(GateSpec("P1"), 0, (ControlSpec(2, 0),)),  # other control qutrit
    )
    circuit = Circuit(3, ops)
    assert [len(b.values) for b in circuit.blocks] == [2, 1]
    assert circuit.blocks[0].entries.tolist() == [0, 0, 1, 0]
    # entry 0's targets 0, 2 rise, then 0 starts level 1; entry 1 joins step (0, 0)
    steps = [(t, e.tolist()) for t, e, _ in circuit.blocks[0].steps]
    assert steps == [(0, [0, 1]), (2, [0]), (0, [0])]
    rebuilt = Circuit.from_blocks(3, circuit.blocks)
    assert rebuilt.ops == ops and rebuilt == circuit


@settings(deadline=None)
@given(multiplexed_circuits())
def test_steps_keep_each_entry_order(circuit):
    for blk in circuit.blocks:
        ran = [[] for _ in blk.values]
        for target, entries, gate_ids in blk.steps:
            assert (np.diff(entries) > 0).all()  # ascending, none twice
            for e, g in zip(entries.tolist(), gate_ids.tolist()):
                ran[e].append((target, g))
        columns = [[] for _ in blk.values]
        for e, t, g in zip(blk.entries.tolist(), blk.targets.tolist(), blk.gate_ids.tolist()):
            columns[e].append((t, g))
        assert ran == columns


@pytest.mark.parametrize("side", [3, 9, 27])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_json_round_trip_keeps_the_kernel_schedule(name, side):
    codec = CODECS[name]
    for circuit in codec.measure(codec.encode(_random_image(codec, side, side))):
        again = circuit_from_json(circuit_to_json(circuit))
        assert [len(b.steps) for b in again.blocks] == [len(b.steps) for b in circuit.blocks]
        if name == "qrciq":  # one step per digit channel
            assert len(circuit.blocks[1].steps) == 3


@pytest.mark.parametrize("build", [
    lambda: ControlSpec(True, 1),
    lambda: ControlSpec(1, True),
    lambda: ControlSpec(1.0, 1),
    lambda: ControlSpec(np.int64(1), 1),
    lambda: CircuitOp(GateSpec("H"), True),
    lambda: CircuitOp(GateSpec("H"), 0.0),
    lambda: Circuit(True),
    lambda: Circuit(np.int64(2)),
], ids=["bool-qutrit", "bool-value", "float-qutrit", "numpy-qutrit", "bool-target",
        "float-target", "bool-width", "numpy-width"])
def test_constructors_reject_non_int_fields(build):
    with pytest.raises(ValueError, match="must be an int"):
        build()


FIELDS = st.one_of(st.integers(-1, 4), st.booleans(), st.sampled_from((1.0, np.int64(1))))


@settings(deadline=None)
@given(FIELDS, FIELDS, st.lists(st.tuples(FIELDS, FIELDS), max_size=3))
def test_constructible_circuits_write_json_that_parses(width, target, controls):
    try:
        circuit = Circuit(width, (CircuitOp(GateSpec("H"), target,
                                            tuple(ControlSpec(q, v) for q, v in controls)),))
    except ValueError:
        return
    assert circuit_from_json(circuit_to_json(circuit)) == circuit


def test_sample_counts_follow_index_order():
    circuit = Circuit(3, (CircuitOp(GateSpec("H"), 0), CircuitOp(GateSpec("H"), 2)))
    state = run(circuit)
    hist = sample(state, shots=2000, seed=9)
    probs = probabilities(state)
    drawn = np.random.default_rng(9).multinomial(2000, probs / probs.sum())
    expect = {trits_from_index(i, 3): int(c) for i, c in enumerate(drawn) if c > 0}
    assert list(hist.counts.items()) == list(expect.items())


def _ints(*items):
    return np.array(items, dtype=np.int64)


@pytest.mark.parametrize("change", [
    {"values": np.array([[0], [0]])},  # a row gathered twice would lose an update
    {"values": np.array([[3], [0]])},
    {"controls": (-1,)},
    {"controls": (True,)},
    {"entries": _ints(), "targets": _ints(), "gate_ids": _ints()},
    {"targets": _ints(1, 1)},  # target is a control
    {"targets": _ints(-1, 0)},
    {"targets": np.array([False, False])},
    {"targets": _ints(0)},
    {"entries": _ints(0, 2)},
    {"gate_ids": _ints(0, 1)},
], ids=["repeated-row", "value-3", "negative-control", "bool-control", "no-ops",
        "target-is-control", "negative-target", "bool-target", "ragged-columns",
        "entry-out-of-range", "gate-id"])
def test_block_rejects_bad_layout(change):
    fields = {"controls": (1,), "values": np.array([[0], [1]]), "gates": (GateSpec("H"),),
              "entries": _ints(0, 1), "targets": _ints(0, 0), "gate_ids": _ints(0, 0)}
    Block(**fields)
    with pytest.raises(ValueError):
        Block(**(fields | change))
    with pytest.raises(ValueError, match="out of range"):
        Circuit.from_blocks(1, (Block(**fields),))


@pytest.mark.parametrize("width", [1, 4, 11, 41])
def test_block_rows_must_be_distinct(width):
    """A repeated row of control values is rejected at any width.  A block
    of `MAX_QUTRITS` controls or more is rejected whatever its rows: no
    register under the cap has room for its target."""
    rng = np.random.default_rng(width)
    rows = np.unique(rng.integers(0, 3, (20, width)), axis=0)
    rng.shuffle(rows)
    m = len(rows)

    def block(values):
        ops = np.arange(len(values))
        return Block(tuple(range(1, width + 1)), values, (GateSpec("H"),), ops,
                     np.zeros_like(ops), np.zeros_like(ops))

    if width < MAX_QUTRITS:
        block(rows)
    else:
        with pytest.raises(ValueError, match=f"fewer than {MAX_QUTRITS} distinct"):
            block(rows)
    for k in (0, m // 2, m):
        repeated = np.insert(rows, k, rows[rng.integers(m)], axis=0)
        with pytest.raises(ValueError, match="distinct rows of control values"):
            block(repeated)


def test_block_keys_uint64_rows_as_int64():
    """uint64 control values are keyed as int64 ones (uint64 @ int64 would
    give float64 keys), at the widest block a register under the cap has:
    the rows [0, ..., 0, 2] and [1, 0, ..., 0, 2] stay distinct."""
    rows = np.zeros((2, MAX_QUTRITS - 1), dtype=np.int64)
    rows[:, -1] = 2
    rows[1, 0] = 1
    ops = np.arange(2)

    def block(values):
        return Block(tuple(range(1, MAX_QUTRITS)), values, (GateSpec("H"),), ops,
                     np.zeros_like(ops), np.zeros_like(ops))

    wide, narrow = block(rows.astype(np.uint64)), block(rows)
    assert np.array_equal(wide.values, narrow.values)
    assert [(t, e.tolist(), g.tolist()) for t, e, g in wide.steps] == [
        (t, e.tolist(), g.tolist()) for t, e, g in narrow.steps]
    assert simulator._row_keys(wide.values).dtype == np.int64
    with pytest.raises(ValueError, match="distinct rows of control values"):
        block(rows[[1, 1]].astype(np.uint64))
