import math
import zlib

import numpy as np
import pytest

from oracles import (
    CLOSED_FORM_STATES,
    fqri_state,
    fqrri_state,
    mcqri_state,
    qrciq_state,
    random_gray,
    random_rgb,
)
from qutritimg import (
    CODECS,
    MAX_QUTRITS,
    CapacityError,
    Circuit,
    GrayImage,
    RgbImage,
    encode_fqri,
    encode_fqrqci,
    encode_fqrri,
    encode_mcqri,
    encode_qrciq,
    fqrri_angles,
    pixel_angle,
    pixel_index,
    probabilities,
    run,
    ternary_digits_u8,
    trits_from_index,
)

HALF_PI = math.pi / 2


def test_pixel_index_examples():
    assert pixel_index(0, 0, 1) == (0, "00")
    assert pixel_index(1, 0, 1) == (1, "01")
    assert pixel_index(2, 2, 1) == (8, "22")


def test_pixel_index_enumeration():
    seen = set()
    for y in range(3):
        for x in range(3):
            i, trits = pixel_index(x, y, 1)
            assert i == y * 3 + x
            assert trits == f"{y}{x}"
            seen.add(i)
    assert seen == set(range(9))
    assert pixel_index(4, 7, 2) == (7 * 9 + 4, "2111")


def test_pixel_index_bounds():
    with pytest.raises(ValueError):
        pixel_index(3, 0, 1)
    with pytest.raises(ValueError):
        pixel_index(0, -1, 1)


def test_pixel_angle():
    assert pixel_angle(0) == 0.0
    assert pixel_angle(255) == HALF_PI
    assert pixel_angle(37) == pytest.approx(0.2279195, abs=1e-6)
    with pytest.raises(ValueError):
        pixel_angle(256)


def test_fqrri_angles_packing():
    gb, gr = fqrri_angles(0, 255, 0)
    assert gb == pytest.approx((15 * 256) / 4095 * HALF_PI)
    assert gr == pytest.approx((15 * 256) / 4095 * HALF_PI)
    assert fqrri_angles(0, 0, 0) == (0.0, 0.0)
    with pytest.raises(ValueError, match="^8-bit value out of range: 256$"):
        fqrri_angles(0, 256, 0)
    # gate arguments (2*theta) for the first two sample pixels
    gb, gr = fqrri_angles(37, 192, 178)
    assert 2 * gb == pytest.approx(0.14, abs=0.005)
    assert 2 * gr == pytest.approx(2.39, abs=0.005)
    gb, gr = fqrri_angles(235, 144, 20)
    assert 2 * gb == pytest.approx(0.02, abs=0.005)
    assert 2 * gr == pytest.approx(1.95, abs=0.005)


def _assert_matches_oracle(enc, oracle_amps, atol=1e-10):
    state = run(enc.circuit)
    np.testing.assert_allclose(state.amplitudes, oracle_amps, atol=atol)
    assert abs(state.norm() - 1) < 1e-10


def test_fqri_structure(sample_gray):
    enc = encode_fqri(sample_gray)
    assert enc.method == "FQRI"
    assert enc.circuit.num_qutrits == 3
    assert enc.qutrit_layout == ("value", "loc0", "loc1")
    assert len(enc.circuit.ops) == 2 + 9
    assert [op.gate.kind for op in enc.circuit.ops[:2]] == ["H", "H"]
    assert [op.target for op in enc.circuit.ops[:2]] == [1, 2]
    first = enc.circuit.ops[2]
    assert first.gate.kind == "RY" and first.gate.subspace == (0, 1)
    assert first.gate.params[0] == pytest.approx(0.4558389, abs=1e-6)
    assert all(op.target == 0 for op in enc.circuit.ops[2:])


def test_fqri_state_matches_formula(sample_gray):
    _assert_matches_oracle(encode_fqri(sample_gray), fqri_state(sample_gray))


def test_fqri_flat_images():
    zero = GrayImage(np.zeros((3, 3), dtype=np.uint8))
    state = run(encode_fqri(zero).circuit)
    expect = np.zeros(27, dtype=complex)
    expect[:9] = 1 / 3
    np.testing.assert_allclose(state.amplitudes, expect, atol=1e-14)

    full = GrayImage(np.full((3, 3), 255, dtype=np.uint8))
    state = run(encode_fqri(full).circuit)
    np.testing.assert_allclose(
        probabilities(state)[9:18], np.full(9, 1 / 9), atol=1e-14
    )


def test_fqrri_structure(sample_rgb):
    enc = encode_fqrri(sample_rgb)
    assert enc.circuit.num_qutrits == 3
    assert len(enc.circuit.ops) == 2 + 18
    kinds = [(op.gate.kind, op.gate.subspace) for op in enc.circuit.ops[2:6]]
    assert kinds == [("RY", (0, 1)), ("RY", (0, 2)), ("RY", (0, 1)), ("RY", (0, 2))]


def test_fqrri_state_matches_formula(sample_rgb):
    _assert_matches_oracle(encode_fqrri(sample_rgb), fqrri_state(sample_rgb))


def test_fqrri_black_image_leaves_superposition():
    black = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    state = run(encode_fqrri(black).circuit)
    expect = np.zeros(27, dtype=complex)
    expect[:9] = 1 / 3
    np.testing.assert_allclose(state.amplitudes, expect, atol=1e-14)


def test_fqrqci_structure(sample_rgb):
    enc = encode_fqrqci(sample_rgb)
    assert len(enc.circuit.ops) == 2 + 18
    ry, u = enc.circuit.ops[2], enc.circuit.ops[3]
    assert ry.gate.params[0] == pytest.approx(0.4558389, abs=1e-6)
    assert u.gate.kind == "U" and u.gate.subspace == (1, 2)
    # pixel (0,0) = (37, 192, 178): args (2*tg, tb, 0)
    assert u.gate.params[0] == pytest.approx(2 * pixel_angle(192), abs=1e-12)
    assert u.gate.params[1] == pytest.approx(pixel_angle(178), abs=1e-12)
    assert u.gate.params[2] == 0.0


def test_fqrqci_state_matches_formula(sample_rgb):
    _assert_matches_oracle(
        encode_fqrqci(sample_rgb), CLOSED_FORM_STATES["FQRQCI"](sample_rgb)
    )


def test_fqrqci_special_pixels():
    # B=0 makes the state real; R=G=255 puts 1/3 magnitude on |2>
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[0, 0] = (100, 200, 0)
    state = run(encode_fqrqci(img).circuit)
    np.testing.assert_allclose(state.amplitudes.imag, 0, atol=1e-14)

    img.pixels[0, 0] = (255, 255, 17)
    state = run(encode_fqrqci(img).circuit)
    assert abs(state.amplitudes[18]) == pytest.approx(1 / 3, abs=1e-12)


def test_mcqri_structure(sample_rgb):
    enc = encode_mcqri(sample_rgb)
    assert enc.circuit.num_qutrits == 4
    assert enc.qutrit_layout[:2] == ("value", "channel")
    assert len(enc.circuit.ops) == 3 + 27
    assert [op.target for op in enc.circuit.ops[:3]] == [1, 2, 3]
    first = enc.circuit.ops[3]
    assert first.gate.params[0] == pytest.approx(0.4558389, abs=1e-6)
    assert first.controls[0].qutrit == 1 and first.controls[0].value == 0
    assert [c.value for c in first.controls[1:]] == [0, 0]


def test_mcqri_state_matches_formula(sample_rgb):
    _assert_matches_oracle(encode_mcqri(sample_rgb), mcqri_state(sample_rgb))


def test_mcqri_equal_channels_share_angle():
    img = RgbImage(np.full((3, 3, 3), 90, dtype=np.uint8))
    enc = encode_mcqri(img)
    angles = {op.gate.params[0] for op in enc.circuit.ops[3:]}
    assert len(angles) == 1


def test_qrciq_structure(sample_rgb):
    enc = encode_qrciq(sample_rgb)
    assert enc.circuit.num_qutrits == 7
    assert enc.qutrit_layout == (
        "r_digit", "g_digit", "b_digit", "plane0", "plane1", "loc0", "loc1"
    )
    hadamards = [op for op in enc.circuit.ops if op.gate.kind == "H"]
    assert [op.target for op in hadamards] == [3, 4, 5, 6]
    shifts = [op for op in enc.circuit.ops if op.gate.kind in ("P1", "P2")]
    nonzero = sum(
        1
        for v in sample_rgb.pixels.reshape(-1)
        for d in ternary_digits_u8(int(v))
        if d != 0
    )
    assert len(shifts) == nonzero
    # plane controls only ever name planes 0..5
    for op in shifts:
        plane = op.controls[0].value * 3 + op.controls[1].value
        assert plane <= 5


def test_qrciq_state_matches_formula(sample_rgb):
    _assert_matches_oracle(encode_qrciq(sample_rgb), qrciq_state(sample_rgb))


def test_qrciq_state_matches_formula_at_27x27():
    img = random_rgb(np.random.default_rng(27), n=3)
    enc = encode_qrciq(img)
    assert enc.circuit.num_qutrits == 11
    _assert_matches_oracle(enc, qrciq_state(img), atol=1e-12)


def test_qrciq_emission_order_is_plane_pixel_channel():
    img = random_rgb(np.random.default_rng(9), n=2)
    expect = []
    for b in range(6):
        for i in range(81):
            y, x = divmod(i, 9)
            location = [(5 + t, int(d)) for t, d in enumerate(trits_from_index(i, 4))]
            for channel in range(3):
                digit = int(img.pixels[y, x, channel]) // 3**b % 3
                if digit:
                    expect.append(
                        (f"P{digit}", channel, [(3, b // 3), (4, b % 3)] + location)
                    )
    ops = encode_qrciq(img).circuit.ops
    hadamards = [(op.gate.kind, op.target) for op in ops[:6]]
    assert hadamards == [("H", target) for target in range(3, 9)]
    got = [
        (op.gate.kind, op.target, [(c.qutrit, c.value) for c in op.controls])
        for op in ops[6:]
    ]
    assert got == expect


def test_qrciq_zero_image_is_hadamards_only():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    enc = encode_qrciq(img)
    assert len(enc.circuit.ops) == 4
    assert all(op.gate.kind == "H" for op in enc.circuit.ops)


@pytest.mark.parametrize("method", [name.upper() for name in CODECS])
def test_random_images_match_formula(method):
    rng = np.random.default_rng(zlib.crc32(method.encode()))
    for _ in range(6):
        img = random_gray(rng) if method == "FQRI" else random_rgb(rng)
        enc = CODECS[method.lower()].encode(img)
        _assert_matches_oracle(enc, CLOSED_FORM_STATES[method](img))


def test_gate_counts_n2():
    rng = np.random.default_rng(3)
    gray = random_gray(rng, n=2)
    rgb = random_rgb(rng, n=2)
    assert len(encode_fqri(gray).circuit.ops) == 4 + 81
    assert len(encode_fqrri(rgb).circuit.ops) == 4 + 162
    assert len(encode_fqrqci(rgb).circuit.ops) == 4 + 162
    assert len(encode_mcqri(rgb).circuit.ops) == 5 + 243
    assert encode_mcqri(rgb).circuit.num_qutrits == 6
    assert encode_qrciq(rgb).circuit.num_qutrits == 9


def test_reordering_pixel_blocks_keeps_state(sample_rgb):
    enc = encode_fqrri(sample_rgb)
    head = list(enc.circuit.ops[:2])
    body = list(enc.circuit.ops[2:])
    blocks = [body[k : k + 2] for k in range(0, len(body), 2)]
    rng = np.random.default_rng(5)
    rng.shuffle(blocks)
    shuffled = Circuit(3, tuple(head + [op for blk in blocks for op in blk]))
    np.testing.assert_allclose(
        run(shuffled).amplitudes, run(enc.circuit).amplitudes, atol=1e-12
    )


def test_encoders_reject_wrong_image_kind(sample_gray, sample_rgb):
    for codec in CODECS.values():
        with pytest.raises(TypeError):
            codec.encode(sample_rgb if codec.gray else sample_gray)


@pytest.mark.parametrize("name", sorted(CODECS))
def test_encoders_check_capacity_before_building_ops(name):
    codec = CODECS[name]
    n = (MAX_QUTRITS - codec.extra_qutrits) // 2 + 1  # smallest n over the cap
    side = 3**n
    if codec.gray:
        image = GrayImage(np.zeros((side, side), dtype=np.uint8))
    else:
        image = RgbImage(np.full((side, side, 3), 255, dtype=np.uint8))
    with pytest.raises(CapacityError, match=f"{2 * n + codec.extra_qutrits} qutrits"):
        codec.encode(image)
