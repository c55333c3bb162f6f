"""End-to-end acceptance checks, one numbered test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  Two sub-claims are recorded as strict xfails because they are
mathematically unattainable; the companion tests prove why and the passing
variants pin the attainable behavior.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

from oracles import (
    CLOSED_FORM_STATES,
    fqrqci_recoverable,
    random_gray,
    random_rgb,
)
from qutritimg import (
    CODECS,
    GateSpec,
    decode_fqri,
    decode_fqrqci,
    decode_fqrri,
    decode_mcqri,
    decode_qrciq,
    encode_fqri,
    encode_fqrqci,
    encode_fqrri,
    encode_mcqri,
    encode_qrciq,
    expected_complete_support_shots,
    fqrqci_measurement_circuits,
    fqrri_angles,
    fqrri_values_from_angles,
    hadamard3,
    identity3,
    is_unitary,
    mae,
    probabilities,
    rotation,
    run,
    sample,
    shift_gate,
    u_subspace,
    x_gate,
)

SUBSPACES = ((0, 1), (0, 2), (1, 2))


def _line(tag, text, elapsed=None):
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    print(f"\n[{tag}] {text}: PASS{suffix}")


def _sigma(axis, j, k):
    m = np.zeros((3, 3), dtype=complex)
    if axis == "z":
        m[j, j], m[k, k] = 1, -1
    elif axis == "x":
        m[j, k] = m[k, j] = 1
    else:
        m[j, k], m[k, j] = -1j, 1j
    return m


def test_c1_gate_algebra():
    start = time.monotonic()
    for pair in SUBSPACES:
        assert is_unitary(x_gate(*pair), 1e-12)
    assert is_unitary(shift_gate(1), 1e-12)
    assert is_unitary(shift_gate(2), 1e-12)
    assert is_unitary(hadamard3(), 1e-12)
    assert is_unitary(identity3(), 1e-12)
    rng = np.random.default_rng(101)
    for _ in range(300):
        pair = SUBSPACES[rng.integers(3)]
        theta, phi, delta = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
        for axis in "xyz":
            assert is_unitary(rotation(axis, *pair, theta), 1e-12)
        assert is_unitary(u_subspace(*pair, theta, phi, delta), 1e-12)

    np.testing.assert_array_equal(shift_gate(1), x_gate(0, 1) @ x_gate(1, 2))
    np.testing.assert_array_equal(shift_gate(2), x_gate(1, 2) @ x_gate(0, 1))

    h0 = hadamard3() @ np.array([1, 0, 0], dtype=complex)
    np.testing.assert_allclose(h0, np.full(3, 1 / math.sqrt(3)), atol=1e-12)

    for theta in np.linspace(-2 * math.pi, 2 * math.pi, 100):
        for axis in "xyz":
            for pair in SUBSPACES:
                oracle = expm(-1j * theta / 2 * _sigma(axis, *pair))
                np.testing.assert_allclose(
                    rotation(axis, *pair, theta), oracle, atol=1e-10
                )
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _line("C1", "gate algebra suite", elapsed)


def test_c2_encoder_formula_equivalence(sample_gray, sample_rgb):
    start = time.monotonic()
    for name, codec in CODECS.items():
        method, encoder = name.upper(), codec.encode
        image = sample_gray if method == "FQRI" else sample_rgb
        cases = [image]
        rng = np.random.default_rng(sum(map(ord, method)))
        maker = random_gray if method == "FQRI" else random_rgb
        cases += [maker(rng) for _ in range(50)]
        for img in cases:
            state = run(encoder(img).circuit)
            expected = CLOSED_FORM_STATES[method](img)
            assert np.max(np.abs(state.amplitudes - expected)) <= 1e-10
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _line("C2", "encoder matches closed-form states (5 x 51 images)", elapsed)


def _exact_probs(circuit):
    return probabilities(run(circuit))


def test_c3_exact_probability_round_trips(sample_gray, sample_rgb):
    report = decode_fqri(_exact_probs(encode_fqri(sample_gray).circuit), 1)
    assert report.image == sample_gray

    for decoder, encoder in (
        (decode_fqrri, encode_fqrri),
        (decode_mcqri, encode_mcqri),
        (decode_qrciq, encode_qrciq),
    ):
        report = decoder(_exact_probs(encoder(sample_rgb).circuit), 1)
        assert report.image == sample_rgb

    rng = np.random.default_rng(303)
    for _ in range(50):
        gray = random_gray(rng)
        assert decode_fqri(_exact_probs(encode_fqri(gray).circuit), 1).image == gray
        rgb = random_rgb(rng)
        assert decode_fqrri(_exact_probs(encode_fqrri(rgb).circuit), 1).image == rgb
        assert decode_mcqri(_exact_probs(encode_mcqri(rgb).circuit), 1).image == rgb
        assert decode_qrciq(_exact_probs(encode_qrciq(rgb).circuit), 1).image == rgb

        circuits = fqrqci_measurement_circuits(encode_fqrqci(rgb))
        p1, p2, p3 = (_exact_probs(c) for c in circuits)
        decoded = decode_fqrqci(p1, p2, p3, 1).image
        assert decoded == fqrqci_recoverable(rgb)
        # channels with surviving information invert exactly
        for y in range(3):
            for x in range(3):
                r, g, b = (int(v) for v in rgb.pixels[y, x])
                assert decoded.pixels[y, x, 0] == r
                if 0 < r:
                    assert decoded.pixels[y, x, 1] == g
                if 0 < r < 255 and g > 0:
                    assert decoded.pixels[y, x, 2] == b
    _line("C3", "exact-probability round trips (degenerate channels pinned)")


def test_c3_fqrqci_sample_image_nondegenerate_pixels(sample_rgb):
    circuits = fqrqci_measurement_circuits(encode_fqrqci(sample_rgb))
    p1, p2, p3 = (_exact_probs(c) for c in circuits)
    decoded = decode_fqrqci(p1, p2, p3, 1).image
    mismatches = []
    for y in range(3):
        for x in range(3):
            r, g, b = (int(v) for v in sample_rgb.pixels[y, x])
            want = (r, g if r > 0 else 0, b if (0 < r < 255 and g > 0) else 0)
            if tuple(decoded.pixels[y, x]) != want:
                mismatches.append((x, y))
    assert mismatches == []
    _line("C3", "three-angle decode exact on all informative channels")


@pytest.mark.xfail(
    strict=True,
    reason="pixel (1,1) has R=255: cos(theta_r)=0 removes the |0> amplitude, "
    "so no computational-basis statistics of the three measurement circuits "
    "depend on the blue phase; exact blue recovery there is impossible",
)
def test_c3_fqrqci_cannot_recover_full_sample_image(sample_rgb):
    circuits = fqrqci_measurement_circuits(encode_fqrqci(sample_rgb))
    p1, p2, p3 = (_exact_probs(c) for c in circuits)
    assert decode_fqrqci(p1, p2, p3, 1).image == sample_rgb


def test_c4_fqrri_value_recovery_formula():
    start = time.monotonic()
    grid = range(0, 256, 17)
    naive_formula_failures = 0
    for r in grid:
        for g in grid:
            for b in grid:
                theta_gb, theta_gr = fqrri_angles(r, g, b)
                assert fqrri_values_from_angles(theta_gb, theta_gr) == (r, g, b)
                v_gb = round(theta_gb * 4095 * 2 / math.pi)
                v_gr = round(theta_gr * 4095 * 2 / math.pi)
                literal_g = (v_gb // 256) + (v_gr % 256) * 16
                if literal_g != g:
                    naive_formula_failures += 1
    assert naive_formula_failures >= 1
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _line(
        "C4",
        f"green-recovery oracle over 16^3 triples "
        f"(naive mod-256 form fails {naive_formula_failures} times)",
        elapsed,
    )


# Frozen 2-decimal gate labels from reference renderings of the sample
# image circuits.  The grayscale labels were produced with a /256 value
# scaling, so they sit up to 0.015 rad below the /255 angles; the 0.02
# tolerance absorbs that.
GOLDEN_FQRI_ANGLES = [0.45, 2.88, 1.72, 0.88, 3.13, 1.68, 2.49, 1.63, 0.97]

GOLDEN_FQRRI_FIRST = [0.14, 2.39, 0.02, 1.95]

# Printed angle at list position k belongs to channel k//9 and pixel
# (x=(k//3)%3, y=k%3): channel blocks scan column-major.
GOLDEN_MCQRI_ANGLES = [
    0.46, 0.89, 2.5, 2.9, 3.14, 1.64, 1.72, 1.69, 0.97,
    2.37, 2.51, 3.1, 1.77, 0.87, 1.65, 1.59, 2.92, 0.31,
    2.19, 1.24, 1.71, 0.25, 1.8, 3.1, 3.13, 2.61, 2.88,
]


def test_c5_golden_diagram_angles(sample_gray, sample_rgb):
    enc = encode_fqrri(sample_rgb)
    got = [op.gate.params[0] for op in enc.circuit.ops[2:6]]
    for angle, printed in zip(got, GOLDEN_FQRRI_FIRST):
        assert abs(angle - printed) <= 0.005

    enc = encode_fqri(sample_gray)
    got = [op.gate.params[0] for op in enc.circuit.ops[2:]]
    assert len(got) == 9
    for angle, printed in zip(got, GOLDEN_FQRI_ANGLES):
        assert abs(angle - printed) <= 0.02

    enc = encode_mcqri(sample_rgb)
    by_key = {}
    for op in enc.circuit.ops[3:]:
        channel = next(c.value for c in op.controls if c.qutrit == 1)
        y = next(c.value for c in op.controls if c.qutrit == 2)
        x = next(c.value for c in op.controls if c.qutrit == 3)
        by_key[(channel, x, y)] = op.gate.params[0]
    assert len(by_key) == 27
    for k, printed in enumerate(GOLDEN_MCQRI_ANGLES):
        key = (k // 9, (k // 3) % 3, k % 3)
        assert abs(by_key[key] - printed) <= 0.02
    _line("C5", "golden diagram angles (two-angle codec within 0.005)")


SHOT_LADDER = (10_000, 100_000, 1_000_000)
SEEDS = (11, 12, 13, 14, 15)


def _mean_mae_ladder(states, decode, reference):
    means = []
    for shots in SHOT_LADDER:
        errors = []
        for seed in SEEDS:
            hists = [
                sample(state, shots, seed + 1000 * k)
                for k, state in enumerate(states)
            ]
            report = decode(*hists)
            errors.append(mae(reference, report.image))
        means.append(float(np.mean(errors)))
    return means


def test_c6_shot_convergence(sample_gray, sample_rgb):
    start = time.monotonic()
    ladders = {}

    state = run(encode_fqri(sample_gray).circuit)
    ladders["FQRI"] = _mean_mae_ladder(
        [state], lambda h: decode_fqri(h, 1), sample_gray
    )
    state = run(encode_fqrri(sample_rgb).circuit)
    ladders["FQRRI"] = _mean_mae_ladder(
        [state], lambda h: decode_fqrri(h, 1), sample_rgb
    )
    states = [run(c) for c in fqrqci_measurement_circuits(encode_fqrqci(sample_rgb))]
    ladders["FQRQCI"] = _mean_mae_ladder(
        states, lambda a, b, c: decode_fqrqci(a, b, c, 1), sample_rgb
    )
    state = run(encode_mcqri(sample_rgb).circuit)
    ladders["MCQRI"] = _mean_mae_ladder(
        [state], lambda h: decode_mcqri(h, 1), sample_rgb
    )

    for method, means in ladders.items():
        assert means[0] > means[1] > means[2], (method, means)
    assert ladders["FQRI"][2] <= 5.0
    elapsed = time.monotonic() - start
    assert elapsed < 180.0
    summary = "; ".join(
        f"{m}: " + " > ".join(f"{v:.2f}" for v in means)
        for m, means in ladders.items()
    )
    _line("C6", f"mean MAE falls with shots ({summary})", elapsed)


def test_c7_plane_codec_determinism_and_shot_floor(sample_rgb):
    state = run(encode_qrciq(sample_rgb).circuit)
    probs = probabilities(state)
    occupied = probs[probs > 1e-15]
    assert occupied.size == 81
    np.testing.assert_allclose(occupied, np.full(81, 1 / 81), atol=1e-12)

    assert decode_qrciq(probs, 1).image == sample_rgb

    complete_runs = 0
    for seed in range(20):
        hist = sample(state, shots=1000, seed=seed)
        report = decode_qrciq(hist, 1)
        if not report.missing_states:
            complete_runs += 1
            assert report.image == sample_rgb
    assert complete_runs >= 19  # >= 95% of 20 runs

    harmonic = sum(1 / k for k in range(1, 82))
    assert abs(expected_complete_support_shots(1) - 81 * harmonic) <= 0.1
    _line(
        "C7",
        f"plane-codec floor: {complete_runs}/20 complete at 1000 shots, "
        f"expectation {81 * harmonic:.1f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="the coupon-collector expectation for 81 equiprobable states is "
    "81*H_81 = 403.204 by direct summation, not 404.6",
)
def test_c7_expectation_is_not_404_6():
    assert abs(expected_complete_support_shots(1) - 404.6) <= 0.1


def test_c8_cli_end_to_end(tmp_path, data_dir):
    import json

    from qutritimg.cli import main

    for method, codec in CODECS.items():
        source = "gray_3x3.pgm" if codec.gray else "rgb_3x3.ppm"
        report_path = tmp_path / f"{method}.json"
        code = main([
            "roundtrip", "--method", method,
            "--input", str(data_dir / source),
            "--shots", "5000", "--seed", "2",
            "--report", str(report_path),
        ])
        assert code == 0
        report = json.loads(report_path.read_text())
        assert report["method"] == method
        assert report["n"] == 1
        assert isinstance(report["mae"], (int, float))
        assert report["psnr"] is None or isinstance(report["psnr"], float)
        assert isinstance(report["exact_match"], bool)
        assert isinstance(report["clip_events"], int)
        assert isinstance(report["missing_states"], list)
        if method == "qrciq":
            assert report["exact_match"] is True
    _line("C8", "CLI roundtrip for all five codecs with schema-valid reports")
