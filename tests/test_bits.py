import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from emanakey import (
    FramingError,
    MalformedStreamError,
    bit_destuff,
    bit_stuff,
    nrzi_decode,
    nrzi_encode,
)
from emanakey.bits import (
    LineState,
    bits_from_bytes,
    bits_from_int,
    int_from_bits,
)

from oracle import stuff_oracle

J, K, SE0 = LineState.J, LineState.K, LineState.SE0


def bits(s: str) -> list[int]:
    return [int(c) for c in s]


# --- stuffing ------------------------------------------------------------


def test_stuff_inserts_zero_after_six_ones():
    assert list(bit_stuff(bits("1111111"))) == bits("11111101")


def test_stuff_no_ones_no_change():
    assert list(bit_stuff(bits("000000"))) == bits("000000")


def test_stuff_fires_at_stream_end():
    # the inserted zero trails the stream even when nothing follows
    assert list(bit_stuff(bits("111111"))) == bits("1111110")


def test_stuff_returns_a_tuple():
    assert bit_stuff(bits("10101")) == (1, 0, 1, 0, 1)


def test_destuff_examples():
    assert list(bit_destuff(bits("11111101"))) == bits("1111111")
    assert list(bit_destuff(bits("0101"))) == bits("0101")


def test_destuff_rejects_seven_ones():
    with pytest.raises(MalformedStreamError):
        bit_destuff(bits("1111111"))


@given(st.lists(st.integers(0, 1), max_size=512))
@settings(max_examples=300)
def test_stuff_destuff_roundtrip(data):
    assert list(bit_destuff(bit_stuff(data))) == data


@given(st.lists(st.integers(0, 1), max_size=256))
def test_stuff_matches_oracle(data):
    assert list(bit_stuff(data)) == stuff_oracle(data)


@given(st.lists(st.integers(0, 1), max_size=512))
def test_stuffed_never_has_seven_ones(data):
    out = list(bit_stuff(data))
    run = 0
    for b in out:
        run = run + 1 if b else 0
        assert run <= 6


# --- NRZI ----------------------------------------------------------------


def test_nrzi_encode_example():
    assert nrzi_encode(bits("00110"), J) == [K, J, J, J, K]


def test_nrzi_ones_hold_state():
    assert nrzi_encode(bits("1111"), J) == [J, J, J, J]


def test_nrzi_sync_pattern():
    # SYNC byte on an idle line produces the KJKJKJKK chirp
    assert nrzi_encode(bits("00000001"), J) == [K, J, K, J, K, J, K, K]


def test_nrzi_decode_examples():
    assert list(nrzi_decode([K, J, J, J, K], J)) == bits("00110")
    assert list(nrzi_decode([J, J], J)) == bits("11")


def test_nrzi_decode_rejects_se0():
    with pytest.raises(FramingError):
        nrzi_decode([J, SE0, J], J)


@given(
    st.lists(st.integers(0, 1), max_size=256),
    st.sampled_from([LineState.J, LineState.K]),
)
def test_nrzi_roundtrip(data, initial):
    assert list(nrzi_decode(nrzi_encode(data, initial), initial)) == data


def test_transition_count_equals_zero_count():
    data = bits("0011010001111110")
    symbols = nrzi_encode(data, J)
    prev = J
    transitions = 0
    for s in symbols:
        transitions += s != prev
        prev = s
    assert transitions == data.count(0)


# --- serialization helpers ----------------------------------------------


def test_bits_from_bytes_lsb_first():
    assert bits_from_bytes(b"\x80") == bits("00000001")
    assert bits_from_bytes(b"\x01") == bits("10000000")


@given(st.integers(0, 2**16 - 1))
def test_int_bits_roundtrip(value):
    assert int_from_bits(bits_from_int(value, 16)) == value
