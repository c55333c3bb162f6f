import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import fqrqci_recoverable, random_gray, random_rgb
from qutritimg import (
    CODECS,
    CapacityError,
    RegisterWidthError,
    DecodeReport,
    GrayImage,
    HistogramInconsistencyError,
    ProbabilityError,
    RgbImage,
    ShapeError,
    ShotHistogram,
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
from qutritimg.decode import CLIP_COUNT_TOL, DEGENERACY_EPSILON, HALF_PI


def _probs(circuit):
    return probabilities(run(circuit))


def _fqrqci_probs(img):
    circuits = fqrqci_measurement_circuits(encode_fqrqci(img))
    return tuple(_probs(c) for c in circuits)


# --- per-pixel references ----------------------------------------------------

class _ClipCounter:
    """Clamp values into trig domains, counting non-roundoff excursions."""

    def __init__(self):
        self.events = 0

    def __call__(self, x, lo, hi):
        if x < lo - CLIP_COUNT_TOL or x > hi + CLIP_COUNT_TOL:
            self.events += 1
        return min(max(x, lo), hi)


def _round_half_up(x):
    return math.floor(x + 0.5)


def _value_u8(theta):
    return min(max(_round_half_up(theta / HALF_PI * 255), 0), 255)


def _table(hist):
    """(probabilities, shots) of a histogram or a raw vector, -0.0 as +0.0."""
    if isinstance(hist, ShotHistogram):
        return hist.to_probabilities(), hist.shots
    return np.asarray(hist, dtype=float) + 0.0, 0


def _reference_fqri(hist, n):
    probs, shots = _table(hist)
    zeros, ones, _ = probs.reshape(3, -1).tolist()
    values = [
        _value_u8(math.atan2(math.sqrt(p1), math.sqrt(p0)))
        for p0, p1 in zip(zeros, ones)
    ]
    pixels = np.array(values, dtype=np.uint8).reshape(3**n, 3**n)
    return DecodeReport(GrayImage(pixels), 0, (), shots)


def _reference_fqrri_values(theta_gb, theta_gr):
    v_gb = _round_half_up(theta_gb * 4095 * 2 / math.pi)
    v_gr = _round_half_up(theta_gr * 4095 * 2 / math.pi)
    return v_gr % 256, (v_gb // 256) + (v_gr // 256) * 16, v_gb % 256


def _reference_fqrri(hist, n):
    probs, shots = _table(hist)
    counter = _ClipCounter()
    values = []
    for p0, p1, p2 in zip(*probs.reshape(3, -1).tolist()):
        theta_gb = math.asin(counter(3**n * math.sqrt(p1), 0.0, 1.0))
        if p0 > 0:
            theta_gr = math.atan(math.sqrt(p2 / p0))
        elif p2 > 0:
            theta_gr = HALF_PI
        else:
            theta_gr = 0.0
        values.append(_reference_fqrri_values(theta_gb, theta_gr))
    pixels = np.array(values, dtype=np.uint8).reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), counter.events, (), shots)


def _reference_fqrqci(hist1, hist2, hist3, n):
    (probs1, shots1), (probs2, shots2), (probs3, shots3) = map(_table, (hist1, hist2, hist3))
    zeros, ones, _ = probs1.reshape(3, -1).tolist()
    cos0, _, cos2 = probs2.reshape(3, -1).tolist()
    sin0, _, sin2 = probs3.reshape(3, -1).tolist()
    counter = _ClipCounter()
    values = []
    for p0, p1, c0, c2, s0, s2 in zip(zeros, ones, cos0, cos2, sin0, sin2):
        theta_r = math.acos(counter(3**n * math.sqrt(p0), 0.0, 1.0))
        sin_r = math.sin(theta_r)
        theta_g = 0.0
        theta_b = 0.0
        if sin_r >= DEGENERACY_EPSILON:
            theta_g = math.acos(counter(3**n * math.sqrt(p1) / sin_r, 0.0, 1.0))
            amp2 = sin_r * math.sin(theta_g)
            if amp2 >= DEGENERACY_EPSILON and math.cos(theta_r) >= DEGENERACY_EPSILON:
                theta_b = counter(math.atan2(s0 - s2, c0 - c2), 0.0, HALF_PI)
        values.append((_value_u8(theta_r), _value_u8(theta_g), _value_u8(theta_b)))
    pixels = np.array(values, dtype=np.uint8).reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), counter.events, (), shots1 + shots2 + shots3)


def _reference_mcqri(hist, n):
    probs, shots = _table(hist)
    cos_block, sin_block, _ = probs.reshape(3, -1).tolist()
    counter = _ClipCounter()
    scale = 3 ** (2 * n + 1)
    values = [
        _value_u8(math.acos(counter(scale * (p_cos - p_sin), -1.0, 1.0)) / 2)
        for p_cos, p_sin in zip(cos_block, sin_block)
    ]
    pixels = np.array(values, dtype=np.uint8).reshape(3, -1).T.reshape(3**n, 3**n, 3)
    return DecodeReport(RgbImage(pixels), counter.events, (), shots)


REFERENCES = {"fqri": _reference_fqri, "fqrri": _reference_fqrri,
              "fqrqci": _reference_fqrqci, "mcqri": _reference_mcqri}

ENTRIES = (0.0, -0.0, 1.0, 5e-324, 1e-13, 0.5)


@st.composite
def decoder_inputs(draw):
    """(codec, n, tables) for the four trig codecs, one table per histogram.

    The image draws pixels at 0 and 255 in every channel (the R = 0, G = 0
    and R = 255 fqrqci degeneracies).  Its exact tables are used as they
    are, scaled by noise, with entries set to 0 (the fqrri p0 = 0 branches),
    to 1 or to other edge values, or sampled at 1 to 100 shots (sometimes
    10^4) into histograms; or the tables are arbitrary entries >= 0."""
    codec = CODECS[draw(st.sampled_from(sorted(REFERENCES)))]
    n = draw(st.sampled_from([1, 2]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (3**n, 3**n) if codec.gray else (3**n, 3**n, 3)
    pixels = rng.integers(0, 256, shape)
    edges = rng.random(shape) < draw(st.sampled_from([0.0, 0.3, 0.7]))
    pixels[edges] = rng.choice([0, 255], np.count_nonzero(edges))
    image = GrayImage(pixels) if codec.gray else RgbImage(pixels)
    states = [run(c) for c in codec.measure(codec.encode(image))]
    form = draw(st.sampled_from(["exact", "noisy", "edited", "shots", "arbitrary"]))
    if form == "shots":
        shots = draw(st.one_of(st.integers(1, 100), st.just(10**4)))
        return codec, n, [sample(s, shots, int(rng.integers(2**32))) for s in states]
    tables = [probabilities(s) for s in states]
    size = tables[0].size
    for table in tables:
        if form == "noisy":
            table *= rng.uniform(0.9, 1.1, size)
        elif form == "edited":
            picked = rng.random(size) < draw(st.sampled_from([0.05, 0.3]))
            table[picked] = rng.choice(ENTRIES, np.count_nonzero(picked))
        elif form == "arbitrary":
            table[:] = rng.choice(ENTRIES, size) * rng.choice([1.0, 1.0, rng.random()], size)
            table[rng.integers(size)] = 1.0  # never all 0
    return codec, n, tables


@settings(deadline=None, max_examples=300)
@given(decoder_inputs())
def test_array_decoders_match_per_pixel_references(case):
    codec, n, tables = case
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)  # no NaN reaches a cast
        report = codec.decode(*tables, n)
    expected = REFERENCES[codec.name](*tables, n)
    assert report.image.pixels.tobytes() == expected.image.pixels.tobytes()
    assert report.image.pixels.shape == expected.image.pixels.shape
    assert (report.clip_events, report.shots_used) == (expected.clip_events, expected.shots_used)
    assert type(report.clip_events) is int
    assert report.missing_states == ()


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


def _histogram_of_support(n, probs):
    """A histogram of one count per index of the support of `probs`."""
    support = np.flatnonzero(probs > 1e-15)
    q = 2 * n + 5
    return ShotHistogram(q, {trits_from_index(i, q): 1 for i in support.tolist()}, len(support))


@settings(deadline=None)
@given(qrciq_supports())
def test_qrciq_histogram_matches_per_slot_reference(case):
    """A `ShotHistogram` is decoded from its arrays, with the outcome, error
    message included, of the per-slot reference on its dense vector."""
    n, probs = case
    hist = _histogram_of_support(n, probs)
    try:
        expected = _qrciq_reference(hist.to_probabilities(), n)
    except HistogramInconsistencyError as exc:
        with pytest.raises(HistogramInconsistencyError) as caught:
            decode_qrciq(hist, n)
        assert str(caught.value) == str(exc)
        return
    report = decode_qrciq(hist, n)
    assert (report.image.pixels.tobytes(), report.missing_states) == expected
    assert report.shots_used == hist.shots


def test_qrciq_clash_message_names_the_first_clash_in_index_order():
    """Three codes in slot (plane 2, pixel 5) and two in (plane 0, pixel 0),
    with a hit of slot (0, 1) between the first two of (2, 5): the first
    clash in index order is the second hit of slot (2, 5), named with the
    digits of that slot's first hit, from a histogram and from its dense
    vector alike."""
    slot = 2 * 9 + 5
    counts = {trits_from_index(code * 81 + s, 7): 1
              for code, s in ((4, slot), (26, 0), (5, 1), (11, slot), (19, slot), (25, 0))}
    hist = ShotHistogram(7, counts, 6)
    message = r"^plane 2, pixel 5 observed with digits \(0, 1, 1\) and \(1, 0, 2\)$"
    for source in (hist, hist.to_probabilities()):
        with pytest.raises(HistogramInconsistencyError, match=message):
            decode_qrciq(source, 1)


def test_qrciq_histogram_with_zero_counts_decodes_as_its_dense_vector(sample_rgb):
    """A dict-built histogram lists its zero counts; they are not hits, even
    where a hit would clash or fill a missing slot."""
    probs = _probs(encode_qrciq(sample_rgb).circuit)
    support = np.flatnonzero(probs > 1e-15)
    dropped = int(support[0])
    counts = {trits_from_index(i, 7): 3 for i in support[1:].tolist()}
    counts[trits_from_index(dropped, 7)] = 0
    clash = (dropped // 81 + 1) % 27 * 81 + dropped % 81
    counts[trits_from_index(clash, 7)] = 0
    hist = ShotHistogram(7, counts, 3 * (len(support) - 1))
    assert hist.tallies.min() == 0
    report = decode_qrciq(hist, 1)
    dense = decode_qrciq(hist.to_probabilities(), 1)
    assert report.image == dense.image and report.missing_states == dense.missing_states
    assert divmod(dropped % 81, 9) + ("R",) in report.missing_states
    assert report.shots_used == hist.shots


def test_qrciq_past_2_53_shots_drops_counts_below_the_threshold(sample_rgb):
    """Past 10^15 shots a count of 1 is below 1e-15: that state is no hit,
    so it neither clashes nor fills its slot, as in the dense decode of
    `to_probabilities`, whose division is the histogram's own."""
    probs = _probs(encode_qrciq(sample_rgb).circuit)
    support = np.flatnonzero(probs > 1e-15).tolist()
    big = 2**53 // (len(support) - 1) + 12345
    counts = {trits_from_index(i, 7): big for i in support[1:]}
    counts[trits_from_index(support[0], 7)] = 1
    counts[trits_from_index((support[1] // 81 + 1) % 27 * 81 + support[1] % 81, 7)] = 1
    shots = big * (len(support) - 1) + 2
    hist = ShotHistogram(7, counts, shots)
    assert shots > 2**53 and 1 / shots < 1e-15 < big / shots
    report = decode_qrciq(hist, 1)
    dense = decode_qrciq(hist.to_probabilities(), 1)
    assert report.image == dense.image and report.missing_states == dense.missing_states
    assert len(report.missing_states) == 3 and report.shots_used == shots


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


@pytest.mark.parametrize("name", sorted(CODECS))
def test_raw_negative_zero_decodes_like_positive_zero(name):
    """A raw -0.0 entry decodes as +0.0 (atan2(0, -0.0) is pi, which took an
    fqri pixel to 255), and the caller's vector keeps its -0.0."""
    codec = CODECS[name]
    rng = np.random.default_rng(5)
    enc = codec.encode(random_gray(rng, 1) if codec.gray else random_rgb(rng, 1))
    tables = [_probs(c) for c in codec.measure(enc)]
    for table in tables:
        table[[0, 9]] = -0.0  # fqri: p0 = p1 = 0 at pixel 0
    unsigned = [table + 0.0 for table in tables]
    report = codec.decode(*tables, 1)
    assert report == codec.decode(*unsigned, 1)
    assert all(np.signbit(table[[0, 9]]).all() for table in tables)
    if name == "fqri":
        assert report.image.pixels[0, 0] == 0


@pytest.mark.parametrize("n", [6, 10**6])
@pytest.mark.parametrize("name", sorted(CODECS))
def test_raw_vector_over_the_cap_is_rejected_before_its_length(name, n):
    """3^(2n + 1) for n = 10^6 has a million digits: the register width is
    checked against the cap before any power of 3 is taken."""
    codec = CODECS[name]
    with pytest.raises(CapacityError, match=f"^{2 * n + codec.extra_qutrits} qutrits exceeds"):
        codec.decode(*[np.ones(27)] * codec.histograms, n)


def test_raw_vector_width_below_one_is_rejected():
    """n = -1 gives a register of 2n + 1 = -1 qutrits: rejected as a width,
    not measured against the 3^-1 probabilities it would expect."""
    with pytest.raises(RegisterWidthError,
                       match=r"^register width must be an int of at least 1, got -1$"):
        decode_fqri(np.ones(3), -1)


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
    assert len(enc.qutrit_layout) == q
    assert enc.qutrit_layout[codec.extra_qutrits:] == tuple(f"loc{t}" for t in range(2 * n))
    assert enc.method == name.upper() and enc.n == n
    assert codec.n_from_qutrits(q) == n
    for width in (q - 1, q + 1, codec.extra_qutrits):
        with pytest.raises(ShapeError):
            codec.n_from_qutrits(width)
    circuits = codec.measure(enc)
    assert len(circuits) == codec.histograms
    assert circuits[0] == enc.circuit
    assert all(c.num_qutrits == q for c in circuits)
