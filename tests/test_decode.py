import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fqrqci_recoverable, random_gray, random_rgb
from qutritimg import (
    CODECS,
    GrayImage,
    HistogramInconsistencyError,
    ProbabilityError,
    RgbImage,
    ShapeError,
    ShotHistogram,
    clip,
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
    fqrqci_measurement_circuits,
    probabilities,
    run,
    sample,
    trits_from_index,
    u_subspace,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=64)


def _probs(circuit):
    return probabilities(run(circuit))


def _fqrqci_probs(img):
    circuits = fqrqci_measurement_circuits(encode_fqrqci(img))
    return tuple(_probs(c) for c in circuits)


# --- clip -------------------------------------------------------------------

def test_clip_examples():
    assert clip(1.03, -1, 1) == 1
    assert clip(0.5, -1, 1) == 0.5
    assert clip(-1.2, -1, 1) == -1


def test_clip_rejects_empty_interval():
    with pytest.raises(ValueError):
        clip(0.0, 1.0, -1.0)


@given(finite, finite, finite)
def test_clip_property(x, a, b):
    lo, hi = min(a, b), max(a, b)
    out = clip(x, lo, hi)
    assert lo <= out <= hi
    if lo <= x <= hi:
        assert out == x


# --- grayscale --------------------------------------------------------------

def test_fqri_exact_round_trip(sample_gray):
    report = decode_fqri(_probs(encode_fqri(sample_gray).circuit), 1)
    assert report.image == sample_gray
    assert report.clip_events == 0
    assert report.shots_used == 0


def test_fqri_hand_histogram():
    hist = ShotHistogram(3, {"000": 50, "100": 50}, 100)
    report = decode_fqri(hist, 1)
    # equal 0/1 weight puts the angle mid-range
    assert report.image.pixels[0, 0] == 128
    # unobserved pixels decode to 0
    assert report.image.pixels[2, 2] == 0
    assert report.shots_used == 100


def test_fqri_register_mismatch():
    with pytest.raises(ShapeError):
        decode_fqri(np.zeros(9), 1)
    with pytest.raises(ShapeError):
        decode_fqri(ShotHistogram(2, {"00": 1}, 1), 1)


# --- two-angle RGB ----------------------------------------------------------

def test_fqrri_exact_round_trip(sample_rgb):
    report = decode_fqrri(_probs(encode_fqrri(sample_rgb).circuit), 1)
    assert report.image == sample_rgb
    assert report.clip_events == 0


def test_fqrri_black_pixel():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    report = decode_fqrri(_probs(encode_fqrri(img).circuit), 1)
    assert report.image == img


def test_fqrri_ratio_branches():
    probs = np.zeros(27)
    probs[18] = 1.0  # pixel 0 entirely on |2>: p0 = 0, p2 > 0
    report = decode_fqrri(probs, 1)
    # theta_gr pegs at pi/2: packed value 4095 -> R=255, G high nibble 15
    assert tuple(report.image.pixels[0, 0]) == (255, 240, 0)
    # unobserved pixels (p0 = p2 = 0) decode to black
    assert tuple(report.image.pixels[1, 1]) == (0, 0, 0)


def test_fqrri_high_packed_values_still_exact():
    # G % 16 == 15 with B == 255 drives theta_gb to pi/2; the tiny
    # residual cos survives in the probability ratio, so exact inputs
    # still invert.  All-white is the extreme case.
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[0, 0] = (123, 255, 255)
    img.pixels[1, 2] = (255, 255, 255)
    report = decode_fqrri(_probs(encode_fqrri(img).circuit), 1)
    assert report.image == img


# --- three-angle RGB --------------------------------------------------------

def test_fqrqci_measurement_circuit_structure(sample_rgb):
    enc = encode_fqrqci(sample_rgb)
    c1, c2, c3 = fqrqci_measurement_circuits(enc)
    k = len(enc.circuit.ops)
    assert (len(c1.ops), len(c2.ops), len(c3.ops)) == (k, k + 1, k + 1)
    np.testing.assert_allclose(
        c2.ops[-1].gate.matrix(),
        u_subspace(0, 2, math.pi / 2, -math.pi, -math.pi),
        atol=1e-15,
    )
    np.testing.assert_allclose(
        c3.ops[-1].gate.matrix(),
        u_subspace(0, 2, math.pi / 2, -math.pi / 2, math.pi / 2),
        atol=1e-15,
    )
    assert c2.ops[-1].controls == () and c2.ops[-1].target == 0
    with pytest.raises(ValueError):
        fqrqci_measurement_circuits(encode_fqrri(sample_rgb))


def test_fqrqci_round_trip_recovers_all_nondegenerate(sample_rgb):
    p1, p2, p3 = _fqrqci_probs(sample_rgb)
    report = decode_fqrqci(p1, p2, p3, 1)
    assert report.image == fqrqci_recoverable(sample_rgb)
    assert report.clip_events == 0
    # the only information loss on this image is blue at the R=255 pixel
    diff = report.image.pixels.astype(int) - sample_rgb.pixels.astype(int)
    assert np.count_nonzero(diff) == 1
    assert diff[1, 1, 2] == -146


def test_fqrqci_red_zero_wipes_dependents():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[0, 1] = (0, 200, 100)
    report = decode_fqrqci(*_fqrqci_probs(img), 1)
    assert tuple(report.image.pixels[0, 1]) == (0, 0, 0)


def test_fqrqci_green_zero_wipes_blue():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[2, 0] = (100, 0, 150)
    report = decode_fqrqci(*_fqrqci_probs(img), 1)
    assert tuple(report.image.pixels[2, 0]) == (100, 0, 0)


def test_fqrqci_blue_zero_decodes_zero():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[1, 1] = (90, 120, 0)
    report = decode_fqrqci(*_fqrqci_probs(img), 1)
    assert tuple(report.image.pixels[1, 1]) == (90, 120, 0)


def test_fqrqci_blue_phase_unmeasurable_at_red_255():
    # With R=255 the |0> amplitude is zero: nothing interferes with the
    # blue phase, so all three measured distributions are independent of
    # B.  This is why the decoder defines blue as 0 there.
    base = np.zeros((3, 3, 3), dtype=np.uint8)
    base[0, 0] = (255, 100, 0)
    other = base.copy()
    other[0, 0, 2] = 146
    for pa, pb in zip(
        _fqrqci_probs(RgbImage(base)), _fqrqci_probs(RgbImage(other))
    ):
        np.testing.assert_allclose(pa, pb, atol=1e-15)
    report = decode_fqrqci(*_fqrqci_probs(RgbImage(other)), 1)
    assert report.image.pixels[0, 0, 2] == 0


def test_fqrqci_register_mismatch(sample_rgb):
    p1, p2, p3 = _fqrqci_probs(sample_rgb)
    with pytest.raises(ShapeError):
        decode_fqrqci(p1[:9], p2, p3, 1)


# --- channel-multiplexed RGB -------------------------------------------------

def test_mcqri_exact_round_trip(sample_rgb):
    report = decode_mcqri(_probs(encode_mcqri(sample_rgb).circuit), 1)
    assert report.image == sample_rgb
    assert report.clip_events == 0


def test_mcqri_value_two_block_is_empty(sample_rgb):
    probs = _probs(encode_mcqri(sample_rgb).circuit)
    assert probs[54:].sum() < 1e-12


def test_mcqri_balanced_counts_hit_midpoint():
    probs = np.zeros(81)
    probs[0] = 0.5   # value 0, channel R, pixel 0
    probs[27] = 0.5  # value 1, channel R, pixel 0
    report = decode_mcqri(probs, 1)
    assert report.image.pixels[0, 0, 0] == 128


# --- ternary-plane RGB -------------------------------------------------------

def test_qrciq_complete_support_is_exact(sample_rgb):
    report = decode_qrciq(_probs(encode_qrciq(sample_rgb).circuit), 1)
    assert report.image == sample_rgb
    assert report.missing_states == ()
    assert report.clip_events == 0


def test_qrciq_missing_state_zeroes_digit():
    img = RgbImage(np.zeros((3, 3, 3), dtype=np.uint8))
    img.pixels[0, 0, 0] = 243  # single digit on plane 5
    probs = _probs(encode_qrciq(img).circuit)
    # drop the basis state carrying (plane 5, pixel 0)
    missing_index = int("1001200", 3)
    assert probs[missing_index] > 0
    probs[missing_index] = 0.0
    report = decode_qrciq(probs, 1)
    assert report.image.pixels[0, 0, 0] == 0
    assert (5, 0, "R") in report.missing_states
    assert (5, 0, "G") in report.missing_states
    assert len(report.missing_states) == 3


def test_qrciq_empty_planes_are_ignored(sample_rgb):
    probs = _probs(encode_qrciq(sample_rgb).circuit)
    trimmed = probs.copy()
    for index in np.nonzero(probs > 1e-15)[0]:
        trits = np.base_repr(index, base=3).zfill(7)
        if int(trits[3]) * 3 + int(trits[4]) >= 6:
            trimmed[index] = 0.0
    assert decode_qrciq(trimmed, 1).image == decode_qrciq(probs, 1).image


def test_qrciq_depends_only_on_support(sample_rgb):
    state = run(encode_qrciq(sample_rgb).circuit)
    hist = sample(state, shots=3000, seed=9)
    scaled = ShotHistogram(
        7, {k: 7 * v for k, v in hist.counts.items()}, 7 * hist.shots
    )
    assert decode_qrciq(hist, 1).image == decode_qrciq(scaled, 1).image


def test_qrciq_inconsistent_histogram_raises():
    hist = ShotHistogram(7, {"0000000": 1, "1000000": 1}, 2)
    with pytest.raises(HistogramInconsistencyError):
        decode_qrciq(hist, 1)


def test_qrciq_overflow_raises():
    counts = {}
    for plane in range(6):
        state = f"200{plane // 3}{plane % 3}00"
        counts[state] = 1
    hist = ShotHistogram(7, counts, 6)
    with pytest.raises(HistogramInconsistencyError):
        decode_qrciq(hist, 1)


def _qrciq_reference(probs, n):
    """Slot by slot: parse each observed state's trits, then walk every slot."""
    q = 2 * n + 5
    area = 9**n
    seen = {}
    for index in np.flatnonzero(probs > 1e-15).tolist():
        trits = trits_from_index(index, q)
        digits = (int(trits[0]), int(trits[1]), int(trits[2]))
        plane = int(trits[3]) * 3 + int(trits[4])
        pixel = int(trits[5:], 3)
        if plane >= 6:
            continue
        key = (plane, pixel)
        if key in seen and seen[key] != digits:
            raise HistogramInconsistencyError(
                f"plane {plane}, pixel {pixel} observed with digits "
                f"{seen[key]} and {digits}"
            )
        seen[key] = digits
    missing = []
    values = np.zeros((area, 3), dtype=np.int64)
    for plane in range(6):
        for pixel in range(area):
            digits = seen.get((plane, pixel))
            if digits is None:
                missing += [(plane, pixel, ch) for ch in ("R", "G", "B")]
                continue
            for channel in range(3):
                values[pixel, channel] += digits[channel] * 3**plane
    if values.max() > 255:
        raise HistogramInconsistencyError(
            "decoded channel value exceeds 255; histogram is not a valid encoding"
        )
    return values.astype(np.uint8).tobytes(), tuple(missing)


@st.composite
def qrciq_supports(draw):
    """(n, probabilities) whose support is a qrciq encoding of a random image,
    with plane-6..8 padding, dropped slots, clashing digits and overwritten
    digits that can push a value past 255."""
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    area = 9**n
    values = rng.integers(0, 256, (area, 3))
    planes = values[None, :, :] // 3 ** np.arange(6)[:, None, None] % 3
    table = (planes @ [9, 3, 1]).reshape(-1)
    slots = np.arange(6 * area)
    overwrite = rng.choice(slots, draw(st.integers(0, 3)), replace=False)
    table[overwrite] = rng.integers(0, 27, overwrite.size)
    kept = slots[rng.random(slots.size) >= draw(st.sampled_from([0.0, 0.05, 0.5]))]
    index = table[kept] * 9 * area + kept
    padding = draw(st.integers(0, 20))
    index = np.concatenate([
        index,
        rng.integers(0, 27, padding) * 9 * area + rng.integers(6 * area, 9 * area, padding),
        rng.integers(0, 27 * 9 * area, draw(st.integers(0, 2))),
    ])
    probs = np.zeros(3 ** (2 * n + 5))
    probs[index] = 1.0 / index.size
    return n, probs


@settings(deadline=None)
@given(qrciq_supports())
def test_qrciq_matches_per_slot_reference(case):
    n, probs = case
    try:
        expected = _qrciq_reference(probs, n)
    except HistogramInconsistencyError as exc:
        with pytest.raises(HistogramInconsistencyError) as caught:
            decode_qrciq(probs, n)
        assert str(caught.value) == str(exc)
        return
    report = decode_qrciq(probs, n)
    assert (report.image.pixels.tobytes(), report.missing_states) == expected
    json.dumps(report.missing_states)  # plain ints, as the CLI report needs


# --- exact round trips over random images ------------------------------------

def test_random_exact_round_trips():
    rng = np.random.default_rng(99)
    for _ in range(8):
        gray = random_gray(rng)
        assert decode_fqri(_probs(encode_fqri(gray).circuit), 1).image == gray
        rgb = random_rgb(rng)
        assert decode_fqrri(_probs(encode_fqrri(rgb).circuit), 1).image == rgb
        assert decode_mcqri(_probs(encode_mcqri(rgb).circuit), 1).image == rgb
        assert decode_qrciq(_probs(encode_qrciq(rgb).circuit), 1).image == rgb
        report = decode_fqrqci(*_fqrqci_probs(rgb), 1)
        assert report.image == fqrqci_recoverable(rgb)


@pytest.mark.parametrize("method,events", [("fqrri", 3), ("fqrqci", 21), ("mcqri", 29)])
def test_perturbed_exact_tables_pin_clip_events(method, events):
    codec = CODECS[method]
    rng = np.random.default_rng(2024)
    img = random_rgb(rng, n=2)
    tables = [_probs(c) for c in codec.measure(codec.encode(img))]
    noisy = [p * rng.uniform(0.9, 1.1, p.shape) for p in tables]
    assert codec.decode(*noisy, 2).clip_events == events


@pytest.mark.parametrize("bad", [-0.25, math.nan, math.inf], ids=["negative", "nan", "inf"])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_raw_vector_with_bad_entry_names_it(name, bad):
    codec = CODECS[name]
    rng = np.random.default_rng(3)
    enc = codec.encode(random_gray(rng, 1) if codec.gray else random_rgb(rng, 1))
    tables = [_probs(c) for c in codec.measure(enc)]
    tables[-1][4] = bad  # in the last table: fqrqci must check its third input too
    with pytest.raises(ProbabilityError, match=f"^probability 4 is {bad!r};"):
        codec.decode(*tables, 1)


def test_all_zero_raw_vector_is_rejected():
    for name, codec in CODECS.items():
        vector = np.zeros(3 ** (2 + codec.extra_qutrits))
        with pytest.raises(ProbabilityError, match="every probability is 0"):
            codec.decode(*[vector] * codec.histograms, 1)


FAULTS = ("long", "short", "2d", "negative", "nan", "inf", "-inf", "zero-sum")


@st.composite
def raw_vectors(draw):
    """(codec, n, vectors, fault): one raw vector per histogram the codec
    decodes, at n = 1 or 2, of scales from subnormal to 1e300 and often
    sparse; `fault` names what was broken in one of them, or is None.
    qrciq gets weighted supports of its encodings with slots dropped, the
    only vectors it can decode; the other codecs any entries >= 0."""
    codec = CODECS[draw(st.sampled_from(sorted(CODECS)))]
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 3 ** (2 * n + codec.extra_qutrits)
    scale = draw(st.sampled_from([5e-324, 1e-300, 1e-3, 1.0, 1e300]))
    keep = draw(st.sampled_from([1.0, 0.5, 0.01]))
    vectors = []
    for i in range(codec.histograms):
        support = np.ones(size, dtype=bool)
        if codec.name == "qrciq":
            support = _probs(codec.encode(random_rgb(rng, n)).circuit) > 1e-15
        vector = rng.random(size) * scale * (support & (rng.random(size) < keep))
        vector[rng.choice(np.flatnonzero(support))] = scale  # never all 0
        vectors.append(vector)
    fault = draw(st.sampled_from((None,) + FAULTS))
    k = draw(st.integers(0, codec.histograms - 1))
    bad = vectors[k]
    i = int(rng.integers(size))
    if fault == "long":
        bad = np.append(bad, scale)
    elif fault == "short":
        bad = bad[:draw(st.sampled_from([0, 1, size - 1]))]
    elif fault == "2d":
        bad = bad.reshape(3, -1)
    elif fault == "zero-sum":
        bad = np.zeros(size)
    elif fault is not None:
        bad[i] = {"negative": -draw(st.sampled_from([5e-324, 1.0])), "nan": math.nan,
                  "inf": math.inf, "-inf": -math.inf}[fault]
    vectors[k] = bad
    return codec, n, vectors, fault


@settings(deadline=None, max_examples=200)
@given(raw_vectors())
def test_fuzz_decoders_with_raw_vectors(case):
    codec, n, vectors, fault = case
    if fault is None:
        report = codec.decode(*vectors, n)
        assert isinstance(report.image, GrayImage if codec.gray else RgbImage)
        assert report.image.side == 3**n and report.shots_used == 0
        return
    error = ShapeError if fault in ("long", "short", "2d") else ProbabilityError
    with pytest.raises(error):
        codec.decode(*vectors, n)


def test_sampled_decode_reports_shots(sample_gray):
    state = run(encode_fqri(sample_gray).circuit)
    hist = sample(state, shots=2000, seed=1)
    report = decode_fqri(hist, 1)
    assert report.shots_used == 2000
    assert isinstance(report.image, GrayImage)


# --- codec registry -----------------------------------------------------------

def test_codec_registry_names():
    assert sorted(CODECS) == ["fqri", "fqrqci", "fqrri", "mcqri", "qrciq"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_codec_register_width_and_measurements(name, n):
    codec = CODECS[name]
    rng = np.random.default_rng(n)
    enc = codec.encode(random_gray(rng, n) if codec.gray else random_rgb(rng, n))
    q = enc.circuit.num_qutrits
    assert q == 2 * n + codec.extra_qutrits
    assert codec.n_from_qutrits(q) == n
    for width in (q - 1, q + 1, codec.extra_qutrits):
        with pytest.raises(ShapeError):
            codec.n_from_qutrits(width)
    circuits = codec.measure(enc)
    assert len(circuits) == codec.histograms
    assert circuits[0] == enc.circuit
    assert all(c.num_qutrits == q for c in circuits)
