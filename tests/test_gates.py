import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.linalg import expm

from qutritimg import (
    GateSpec,
    hadamard3,
    identity3,
    is_unitary,
    rotation,
    shift_gate,
    u_subspace,
    x_gate,
)
from qutritimg.gates import PARAM_COUNTS, SUBSPACE_KINDS, gate_matrices

PAIRS = ((0, 1), (0, 2), (1, 2))

X01 = np.array([[0, 1, 0], [1, 0, 0], [0, 0, 1]], dtype=complex)
X02 = np.array([[0, 0, 1], [0, 1, 0], [1, 0, 0]], dtype=complex)
X12 = np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=complex)

angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi,
                   allow_nan=False, allow_infinity=False)


def _sigma(axis, j, k):
    m = np.zeros((3, 3), dtype=complex)
    if axis == "z":
        m[j, j], m[k, k] = 1, -1
    elif axis == "x":
        m[j, k] = m[k, j] = 1
    else:
        m[j, k], m[k, j] = -1j, 1j
    return m


def rotation_oracle(axis, j, k, theta):
    return expm(-1j * theta / 2 * _sigma(axis, j, k))


def test_x_gate_matrices():
    np.testing.assert_array_equal(x_gate(0, 1), X01)
    np.testing.assert_array_equal(x_gate(0, 2), X02)
    np.testing.assert_array_equal(x_gate(1, 2), X12)


@pytest.mark.parametrize("pair", PAIRS)
def test_x_gate_is_involution(pair):
    m = x_gate(*pair)
    np.testing.assert_allclose(m @ m, np.eye(3), atol=1e-15)


def test_x_gate_rejects_bad_pair():
    with pytest.raises(ValueError):
        x_gate(1, 0)
    with pytest.raises(ValueError):
        x_gate(1, 1)


def test_shift_action():
    plus1 = shift_gate(1)
    plus2 = shift_gate(2)
    for x in range(3):
        basis = np.zeros(3)
        basis[x] = 1
        np.testing.assert_array_equal(
            plus1 @ basis, np.eye(3)[:, (x + 1) % 3]
        )
        np.testing.assert_array_equal(
            plus2 @ basis, np.eye(3)[:, (x + 2) % 3]
        )


def test_shift_products():
    np.testing.assert_array_equal(shift_gate(1), X01 @ X12)
    np.testing.assert_array_equal(shift_gate(2), X12 @ X01)
    np.testing.assert_allclose(shift_gate(2) @ shift_gate(1), np.eye(3), atol=1e-15)
    plus1 = shift_gate(1)
    np.testing.assert_allclose(plus1 @ plus1 @ plus1, np.eye(3), atol=1e-15)


def test_shift_rejects_bad_amount():
    with pytest.raises(ValueError):
        shift_gate(0)
    with pytest.raises(ValueError):
        shift_gate(3)


def test_hadamard_columns():
    h = hadamard3()
    w = cmath.exp(2j * math.pi / 3)
    s = 1 / math.sqrt(3)
    np.testing.assert_allclose(h[:, 0], [s, s, s], atol=1e-15)
    np.testing.assert_allclose(h[:, 1], [s, s * w, s * w**2], atol=1e-15)
    np.testing.assert_allclose(h[:, 2], [s, s * w**2, s * w**4], atol=1e-15)


def test_hadamard_unitary_and_order_four():
    h = hadamard3()
    assert is_unitary(h, 1e-12)
    np.testing.assert_allclose(np.linalg.matrix_power(h, 4), np.eye(3), atol=1e-12)


def test_rotation_zero_angle_is_identity():
    np.testing.assert_allclose(rotation("y", 0, 1, 0.0), np.eye(3), atol=1e-15)


def test_rotation_y_pi_flips():
    out = rotation("y", 0, 1, math.pi) @ np.array([1, 0, 0], dtype=complex)
    np.testing.assert_allclose(out, [0, 1, 0], atol=1e-15)


def test_rotation_y_half_angle_amplitudes():
    theta = math.pi / 6
    out = rotation("y", 0, 1, 2 * theta) @ np.array([1, 0, 0], dtype=complex)
    np.testing.assert_allclose(out, [math.sqrt(3) / 2, 0.5, 0], atol=1e-15)


@pytest.mark.parametrize("axis", "xyz")
@pytest.mark.parametrize("pair", PAIRS)
def test_rotation_matches_exponential_oracle(axis, pair):
    for theta in np.linspace(-2 * math.pi, 2 * math.pi, 25):
        np.testing.assert_allclose(
            rotation(axis, *pair, theta),
            rotation_oracle(axis, *pair, theta),
            atol=1e-12,
        )


@given(angles, angles)
def test_rotation_additivity(t1, t2):
    for axis in "xyz":
        lhs = rotation(axis, 0, 2, t1) @ rotation(axis, 0, 2, t2)
        np.testing.assert_allclose(lhs, rotation(axis, 0, 2, t1 + t2), atol=1e-12)


def test_rotation_rejects_bad_input():
    with pytest.raises(ValueError):
        rotation("y", 1, 0, 0.3)
    with pytest.raises(ValueError):
        rotation("w", 0, 1, 0.3)


@pytest.mark.parametrize("pair", PAIRS)
def test_u_subspace_reduces_to_rotation_y(pair):
    for theta in np.linspace(0, math.pi, 9):
        np.testing.assert_allclose(
            u_subspace(*pair, theta, 0.0, 0.0),
            rotation("y", *pair, theta),
            atol=1e-12,
        )
    np.testing.assert_allclose(u_subspace(1, 2, 0, 0, 0), np.eye(3), atol=1e-15)


def test_u_subspace_decode_operator_entries():
    m = u_subspace(0, 2, math.pi / 2, -math.pi, -math.pi)
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(m[0, 0], s, atol=1e-15)
    np.testing.assert_allclose(m[0, 2], s, atol=1e-15)
    np.testing.assert_allclose(m[2, 0], -s, atol=1e-15)
    np.testing.assert_allclose(m[2, 2], s, atol=1e-12)
    np.testing.assert_allclose(m[1, 1], 1.0, atol=1e-15)


def test_identity():
    np.testing.assert_array_equal(identity3(), np.eye(3))
    rng = np.random.default_rng(1)
    v = rng.normal(size=3) + 1j * rng.normal(size=3)
    v /= np.linalg.norm(v)
    np.testing.assert_array_equal(identity3() @ v, v)
    np.testing.assert_allclose(
        np.linalg.matrix_power(shift_gate(1), 3), identity3(), atol=1e-15
    )


def test_is_unitary():
    assert is_unitary(hadamard3(), 1e-12)
    bad = np.eye(3, dtype=complex)
    bad[0, 0] = 2
    assert not is_unitary(bad, 1e-12)
    with pytest.raises(ValueError):
        is_unitary(np.eye(3), 0.0)


def test_gatespec_random_instantiations_are_unitary():
    rng = np.random.default_rng(2024)
    kinds = ["X", "P1", "P2", "H", "I", "RX", "RY", "RZ", "U"]
    for _ in range(1000):
        kind = kinds[rng.integers(len(kinds))]
        subspace = PAIRS[rng.integers(3)] if kind in ("X", "RX", "RY", "RZ", "U") else None
        nparams = {"RX": 1, "RY": 1, "RZ": 1, "U": 3}.get(kind, 0)
        params = tuple(rng.uniform(-2 * math.pi, 2 * math.pi, nparams))
        spec = GateSpec(kind, subspace, params)
        assert is_unitary(spec.matrix(), 1e-12)


def test_gatespec_validation():
    with pytest.raises(ValueError):
        GateSpec("RY", None, (0.5,))
    with pytest.raises(ValueError):
        GateSpec("H", (0, 1))
    with pytest.raises(ValueError):
        GateSpec("RY", (0, 1), ())
    with pytest.raises(ValueError):
        GateSpec("U", (0, 1), (0.1, 0.2))
    with pytest.raises(ValueError):
        GateSpec("Q")
    with pytest.raises(ValueError):
        GateSpec("X", (2, 1))


FINITE_EDGES = st.sampled_from((0.0, -0.0, 5e-324, 1e308, -1e308, 1.7976931348623157e308, 1, -3))


@given(st.sampled_from([("RY", (0, 1), 1), ("U", (1, 2), 3), ("X", (0, 2), 0), ("H", None, 0)])
       .flatmap(lambda shape: st.tuples(st.just(shape), st.lists(st.lists(
           st.one_of(FINITE_EDGES, st.floats(allow_nan=False, allow_infinity=False)),
           min_size=shape[2], max_size=shape[2]), min_size=1, max_size=12))))
@example((("RY", (0, 1), 1), [[0.5], [1e308], [1e308], [-0.0]]))
def test_of_shape_matches_one_gatespec_per_row(case):
    """`_of_shape` converts the params a column at a time and tests a
    column's sum for finiteness: a sum that overflows on finite params
    (1e308 + 1e308) must still build every gate, sign of zero kept."""
    (kind, pair, _), rows = case
    gates = GateSpec._of_shape(kind, pair, rows)
    assert gates == [GateSpec(kind, pair, row) for row in rows]
    assert [list(map(repr, g.params)) for g in gates] == [[repr(float(p)) for p in row]
                                                          for row in rows]


def test_gatespec_labels():
    assert GateSpec("H").label() == "H"
    assert GateSpec("P1").label() == "+1"
    assert GateSpec("P2").label() == "+2"
    assert GateSpec("RY", (0, 1), (0.4558,)).label() == "RY01(0.46)"
    assert GateSpec("U", (1, 2), (2.365, 1.0963, 0)).label() == "U12(2.37,1.10,0.00)"


# --- stacked matrices against the scalar builders they replaced ---------------

def _rotation_reference(axis, j, k, theta):
    """`rotation` as one np.eye and item writes, kept as the reference."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    m = np.eye(3, dtype=np.complex128)
    if axis == "z":
        m[j, j] = cmath.exp(-1j * theta / 2)
        m[k, k] = cmath.exp(1j * theta / 2)
    elif axis == "x":
        m[j, j] = m[k, k] = c
        m[j, k] = m[k, j] = -1j * s
    else:
        m[j, j] = m[k, k] = c
        m[j, k] = -s
        m[k, j] = s
    return m


def _u_subspace_reference(j, k, theta, phi, delta):
    """`u_subspace` as one np.eye and item writes, kept as the reference."""
    c = math.cos(theta / 2)
    s = math.sin(theta / 2)
    m = np.eye(3, dtype=np.complex128)
    m[j, j] = c
    m[j, k] = -cmath.exp(1j * delta) * s
    m[k, j] = cmath.exp(1j * phi) * s
    m[k, k] = cmath.exp(1j * (delta + phi)) * c
    return m


SPECIAL_ANGLES = (0.0, -0.0, math.pi, -math.pi)
GATE_ANGLES = st.one_of(st.sampled_from(SPECIAL_ANGLES), angles)


@pytest.mark.parametrize("theta", SPECIAL_ANGLES + (0.3, -2.7, 1e-300, 5e-324))
@pytest.mark.parametrize("pair", PAIRS)
def test_rotation_and_u_are_byte_equal_to_scalar_builders(pair, theta):
    for axis in "xyz":
        assert rotation(axis, *pair, theta).tobytes() == \
            _rotation_reference(axis, *pair, theta).tobytes()
    for phi in SPECIAL_ANGLES + (1.1,):
        for delta in SPECIAL_ANGLES + (-0.4,):
            assert u_subspace(*pair, theta, phi, delta).tobytes() == \
                _u_subspace_reference(*pair, theta, phi, delta).tobytes()


@st.composite
def gate_lists(draw):
    """Gates of every kind, subspace and param sign, kinds interleaved."""
    gates = []
    for _ in range(draw(st.integers(1, 40))):
        kind = draw(st.sampled_from(sorted(PARAM_COUNTS)))
        pair = draw(st.sampled_from(PAIRS)) if kind in SUBSPACE_KINDS else None
        gates.append(GateSpec(kind, pair, [draw(GATE_ANGLES) for _ in range(PARAM_COUNTS[kind])]))
    return gates


def _matrix_reference(gate):
    """`GateSpec.matrix()` as the per-kind chain of public gate functions it was
    before one table defined the kinds, kept as the reference."""
    if gate.kind == "X":
        return x_gate(*gate.subspace)
    if gate.kind == "P1":
        return shift_gate(1)
    if gate.kind == "P2":
        return shift_gate(2)
    if gate.kind == "H":
        return hadamard3()
    if gate.kind == "I":
        return identity3()
    if gate.kind == "U":
        return u_subspace(*gate.subspace, *gate.params)
    return rotation(gate.kind[1].lower(), *gate.subspace, gate.params[0])


def _assert_matrices_match_reference(gates):
    expect = np.array([_matrix_reference(g) for g in gates])
    stacked = gate_matrices(gates)
    assert stacked.dtype == np.complex128 and stacked.shape == (len(gates), 3, 3)
    assert stacked.tobytes() == expect.tobytes()
    assert np.array([g.matrix() for g in gates]).tobytes() == expect.tobytes()
    return expect


@given(gate_lists())
def test_gate_matrices_are_byte_equal_to_per_gate_matrices(gates):
    _assert_matrices_match_reference(gates)


def test_gate_matrices_cover_every_kind_and_signed_angle():
    assert PARAM_COUNTS == {"X": 0, "P1": 0, "P2": 0, "H": 0, "I": 0,
                            "RX": 1, "RY": 1, "RZ": 1, "U": 3}
    assert SUBSPACE_KINDS == frozenset({"X", "RX", "RY", "RZ", "U"})
    gates = [GateSpec(kind, pair, (a, b, c)[:PARAM_COUNTS[kind]])
             for kind in sorted(PARAM_COUNTS)
             for pair in (PAIRS if kind in SUBSPACE_KINDS else (None,))
             for a in SPECIAL_ANGLES for b in SPECIAL_ANGLES[::-1] for c in (0.25, -0.0)]
    expect = _assert_matrices_match_reference(gates)
    for g, m in zip(gates, expect):  # and each kind's own closed form
        if g.kind in ("RX", "RY", "RZ"):
            assert m.tobytes() == _rotation_reference(g.kind[1].lower(), *g.subspace,
                                                      *g.params).tobytes()
        elif g.kind == "U":
            assert m.tobytes() == _u_subspace_reference(*g.subspace, *g.params).tobytes()
