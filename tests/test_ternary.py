import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qutritimg import (
    MAX_QUTRITS,
    CapacityError,
    RegisterWidthError,
    Statevector,
    index_from_trits,
    statevector_zero,
    ternary_digits_u8,
    trits_from_index,
    value_from_digits,
)
from qutritimg.ternary import indices_of_trit_column, trit_column


def test_statevector_of_the_wrong_shape_is_rejected():
    with pytest.raises(ValueError, match=r"^expected 9 amplitudes, got shape \(3, 3\)$"):
        Statevector(2, np.zeros((3, 3)))


def test_trits_from_index_zero():
    assert trits_from_index(0, 3) == "000"


def test_trits_from_index_basic():
    assert trits_from_index(5, 2) == "12"
    assert trits_from_index(26, 3) == "222"


def test_trits_from_index_rejects_out_of_range():
    with pytest.raises(ValueError):
        trits_from_index(9, 2)
    with pytest.raises(ValueError):
        trits_from_index(-1, 2)
    with pytest.raises(ValueError):
        trits_from_index(0, 0)


def test_index_from_trits_basic():
    assert index_from_trits("000") == 0
    assert index_from_trits("12") == 5
    assert index_from_trits("100") == 9


def test_index_from_trits_brute_force_length_two():
    for a in range(3):
        for b in range(3):
            assert index_from_trits(f"{a}{b}") == a * 3 + b


def test_index_from_trits_rejects_garbage():
    with pytest.raises(ValueError):
        index_from_trits("")
    with pytest.raises(ValueError):
        index_from_trits("013")
    # int(text, 3) takes each of these; none is a trit string
    for text in (" 12", "12 ", "1 2", "+1", "-1", "1_0", "12\n", "\uff11"):
        with pytest.raises(ValueError, match="invalid trit string"):
            index_from_trits(text)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_trit_round_trip(q, data):
    k = data.draw(st.integers(min_value=0, max_value=3**q - 1))
    assert index_from_trits(trits_from_index(k, q)) == k


def test_ternary_digits_u8_examples():
    assert ternary_digits_u8(0) == (0, 0, 0, 0, 0, 0)
    assert ternary_digits_u8(37) == (1, 0, 1, 1, 0, 0)
    assert ternary_digits_u8(255) == (0, 1, 1, 0, 0, 1)


def test_ternary_digits_u8_rejects_out_of_range():
    with pytest.raises(ValueError):
        ternary_digits_u8(256)
    with pytest.raises(ValueError):
        ternary_digits_u8(-1)


def test_value_from_digits_examples():
    assert value_from_digits((0, 0, 0, 0, 0, 0)) == 0
    assert value_from_digits((1, 0, 1, 1, 0, 0)) == 37
    assert value_from_digits((2, 2, 2, 2, 2, 2)) == 728


def test_value_from_digits_validates():
    with pytest.raises(ValueError):
        value_from_digits((0, 1, 2))
    with pytest.raises(ValueError):
        value_from_digits((0, 0, 0, 0, 0, 3))


def test_digit_round_trip_all_bytes():
    for v in range(256):
        assert value_from_digits(ternary_digits_u8(v)) == v


@pytest.mark.parametrize("q", [1, 2, 3])
def test_statevector_zero(q):
    state = statevector_zero(q)
    assert state.amplitudes.shape == (3**q,)
    assert state.amplitudes[0] == 1.0
    assert np.count_nonzero(state.amplitudes) == 1
    assert state.norm() == 1.0


def test_statevector_zero_cap():
    statevector_zero(9)  # the largest register the codecs need
    with pytest.raises(CapacityError):
        statevector_zero(MAX_QUTRITS + 1)
    with pytest.raises(ValueError):
        statevector_zero(0)


@pytest.mark.parametrize("q", [MAX_QUTRITS + 1, 4 * 10**6])
def test_statevector_over_the_cap_is_rejected_before_its_length(q):
    with pytest.raises(CapacityError, match=f"^{q} qutrits exceeds the cap of {MAX_QUTRITS}$"):
        Statevector(q, np.ones(3))
    Statevector(MAX_QUTRITS, np.ones(3**MAX_QUTRITS))


@pytest.mark.parametrize("width", [2.0, True], ids=["float", "bool"])
def test_statevector_width_must_be_an_int(width):
    with pytest.raises(RegisterWidthError,
                       match=rf"^register width must be an int of at least 1, got {width!r}$"):
        Statevector(width, np.ones(3**int(width)))


@pytest.mark.parametrize("length", [1, 2, 5, MAX_QUTRITS])
def test_trit_column_matches_the_scalar_codec(length):
    indices = np.unique(np.random.default_rng(length).integers(0, 3**length, 500))
    column = trit_column(indices, length)
    assert column.dtype == np.dtype(f"S{length}")
    assert [s.decode() for s in column.tolist()] == [
        trits_from_index(i, length) for i in indices.tolist()]
    assert indices_of_trit_column(column).tolist() == indices.tolist()


@given(st.lists(st.text(alphabet="0123x -\x00", min_size=3, max_size=3), min_size=1))
def test_indices_of_trit_column_marks_non_trits(states):
    column = np.array([s.encode() for s in states], dtype="S3")
    expect = []
    for state in states:
        try:
            expect.append(index_from_trits(state))
        except ValueError:
            expect.append(-1)
    assert indices_of_trit_column(column).tolist() == expect
