from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvk.f3 import (
    TernaryMatrix,
    f3_matmul,
    pack_trits,
    row_stride,
    trit_weight_packed,
    unpack_trits,
)

trit_rows = st.integers(min_value=1, max_value=16)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=40))
def test_pack_unpack_roundtrip(trits):
    packed = pack_trits(trits)
    assert len(packed) == row_stride(len(trits))
    assert list(unpack_trits(packed, len(trits))) == trits


def test_unpack_rejects_bad_field():
    with pytest.raises(ValueError):
        unpack_trits(b"\x03", 4)  # 2-bit field holding 3


def test_unpack_rejects_dirty_padding():
    blob = bytes([0b01000000])  # padding trit set
    with pytest.raises(ValueError):
        unpack_trits(blob, 3)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=64))
def test_weight_matches_naive(trits):
    assert trit_weight_packed(pack_trits(trits)) == sum(1 for t in trits if t)


def test_matrix_validates_payload_length():
    with pytest.raises(ValueError):
        TernaryMatrix(2, 3, b"\x00")


@given(trit_rows, trit_rows, trit_rows, st.data())
def test_matmul_schoolbook_oracle(a, b, c, data):
    rng = Random(data.draw(st.integers(min_value=0, max_value=2**30)))
    left = TernaryMatrix.random(a, b, rng)
    right = TernaryMatrix.random(b, c, rng)
    got = f3_matmul(left, right).to_array()
    expected = (left.to_array().astype(int) @ right.to_array().astype(int)) % 3
    assert np.array_equal(got, expected)


def test_roundtrip_through_packed_bytes(rng):
    m = TernaryMatrix.random(9, 7, rng)
    again = TernaryMatrix(9, 7, m.data)
    assert again == m
    assert np.array_equal(again.to_array(), m.to_array())
