import gc
import sys
import threading
import tracemalloc
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvk import f3
from cvk.f3 import (
    BYTE_LANES,
    MATMUL_BLOCK_ROWS,
    MAX_INNER_DIMENSION,
    TRITS_PER_BYTE,
    TernaryMatrix,
    f3_matmul,
    pack_trits,
    random_trits,
    row_stride,
    unpack_trits,
)
from cvk.wave import WaveParams, WaveSignature, wave_ckeygen

trit_rows = st.integers(min_value=1, max_value=16)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=40))
def test_pack_unpack_roundtrip(trits):
    packed = pack_trits(trits)
    assert len(packed) == row_stride(len(trits))
    assert list(unpack_trits(packed, len(trits))) == trits


@pytest.mark.parametrize(
    "pack, values",
    [
        (pack_trits, np.array([-254, -255, 258])),  # wrapped to [2, 1, 2]
        (TernaryMatrix.from_array, np.array([[-255, 257]], dtype=np.int16)),  # to [[1, 1]]
        (pack_trits, [1.7, 2.2, 0.5]),  # truncated to [1, 2, 0]
        (lambda trits: WaveSignature.from_trits(b"s" * 16, trits), [2.5, 1.0]),  # to [2, 1]
    ],
)
def test_packers_refuse_values_that_the_cast_would_change(pack, values):
    with pytest.raises(ValueError, match=r"trits must lie in \{0, 1, 2\}"):
        pack(values)


def test_unpack_rejects_bad_field():
    with pytest.raises(ValueError):
        unpack_trits(b"\x03", 4)  # 2-bit field holding 3


def test_unpack_rejects_dirty_padding():
    blob = bytes([0b01000000])  # padding trit set
    with pytest.raises(ValueError):
        unpack_trits(blob, 3)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=0, max_size=64))
def test_weight_matches_naive(trits):
    sig = WaveSignature.from_trits(b"s" * 16, trits)
    assert sig.weight() == sum(1 for t in trits if t)


def _unpack_four_pass(raw: np.ndarray, cols: int) -> np.ndarray:
    """Shift-and-mask reference for ``f3._unpack``, one pass per lane."""
    out = np.empty((raw.shape[0], cols), dtype=np.uint8)
    for k in range(4):
        lane = out[:, k::4]
        np.right_shift(raw[:, : lane.shape[1]], 2 * k, out=lane)
        lane &= 3
    return out


def test_byte_lanes_table():
    assert BYTE_LANES.dtype == np.uint8 and BYTE_LANES.shape == (256, 4)
    assert not BYTE_LANES.flags.writeable
    for b in range(256):
        assert BYTE_LANES[b].tolist() == [(b >> shift) & 3 for shift in (0, 2, 4, 6)]


_UNPACK_SHAPES = [
    (0, 9),  # no rows
    (0, 0),
    (5, 0),
    (7, 12),  # cols % 4 == 0
    (7, 13),
    (7, 14),
    (7, 15),
    (1, 8576),  # a Wave 822 signature
    (8496, 80),  # a Wave 822 VK block
    (MATMUL_BLOCK_ROWS + 1, 13),  # a one-row last block
]
_UNPACK_DTYPES = (np.uint8, np.int64, np.float32)


@pytest.mark.parametrize(
    "rows, cols, dtype",
    [
        # uint8 cases keep their rows-cols ids; wider ones add the dtype.
        pytest.param(
            rows,
            cols,
            dtype,
            id=f"{rows}-{cols}" + ("" if dtype is np.uint8 else f"-{dtype.__name__}"),
        )
        for dtype in _UNPACK_DTYPES
        for rows, cols in _UNPACK_SHAPES
    ],
)
def test_unpack_matches_four_pass_oracle(rows, cols, dtype):
    # Arbitrary bytes, fields equal to 3 and padding included: the gather
    # and the oracle must agree on every byte, valid or not.
    raw = np.random.default_rng(rows * 100_000 + cols).integers(
        0, 256, (rows, row_stride(cols)), dtype=np.uint8
    )
    got = f3._unpack(raw, cols, dtype)
    assert got.dtype == dtype and got.shape == (rows, cols)
    assert got.flags.c_contiguous
    assert np.array_equal(got, _unpack_four_pass(raw, cols))


def test_unpack_transient_stays_within_one_block():
    # The gather's intp indices and its uint8 lanes are held for one block
    # of rows at a time, never for the whole matrix, and a wider output is
    # written block by block with no whole uint8 copy beside it.
    rows, cols = 1000, 2001  # a partial last block, cols % 4 != 0
    assert rows % MATMUL_BLOCK_ROWS
    stride = row_stride(cols)
    raw = np.random.default_rng(1000).integers(0, 256, (rows, stride), dtype=np.uint8)
    block = MATMUL_BLOCK_ROWS * stride * (np.dtype(np.intp).itemsize + TRITS_PER_BYTE)
    for dtype in _UNPACK_DTYPES:
        tracemalloc.start()
        try:
            got = f3._unpack(raw, cols, dtype)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got.dtype == dtype
        assert peak <= got.nbytes + block + (64 << 10), dtype
        assert np.array_equal(got, _unpack_four_pass(raw, cols))


def test_unpack_pk_slice_matches_four_pass_oracle():
    # 64 rows of a Wave 822 public key, read back through TernaryMatrix.
    m = TernaryMatrix.random(64, 4288, Random(4288))
    raw = np.frombuffer(m.data, np.uint8).reshape(64, row_stride(4288))
    got = m.to_array()
    assert got.dtype == np.uint8 and got.flags.c_contiguous
    assert np.array_equal(got, _unpack_four_pass(raw, 4288))


def test_matrix_validates_payload_length():
    with pytest.raises(ValueError):
        TernaryMatrix(2, 3, b"\x00")


@given(trit_rows, trit_rows, trit_rows, st.data())
def test_matmul_schoolbook_oracle(a, b, c, data):
    rng = Random(data.draw(st.integers(min_value=0, max_value=2**30)))
    left = TernaryMatrix.random(a, b, rng)
    right = TernaryMatrix.random(b, c, rng)
    got = f3_matmul(left, right)
    expected = (left.to_array().astype(int) @ right.to_array().astype(int)) % 3
    assert np.array_equal(got, expected)


def test_roundtrip_through_packed_bytes(rng):
    m = TernaryMatrix.random(9, 7, rng)
    again = TernaryMatrix(9, 7, m.data)
    assert again == m
    assert np.array_equal(again.to_array(), m.to_array())


def _int64_matmul(left: TernaryMatrix, right: TernaryMatrix) -> np.ndarray:
    """int64 reference for ``f3_matmul``."""
    return (left.to_array().astype(np.int64) @ right.to_array().astype(np.int64)) % 3


@pytest.mark.parametrize("fill", ["twos", "uniform"])
def test_matmul_full_size_against_int64(fill):
    # Wave 822's inner dimension, with a row count that crosses block
    # boundaries and ends in a partial block; all-2 entries give every sum
    # its maximum 4 * 4288.
    rows, inner, cols = 600, 4288, 80
    assert rows > MATMUL_BLOCK_ROWS and rows % MATMUL_BLOCK_ROWS
    if fill == "twos":
        left = TernaryMatrix.from_array(np.full((rows, inner), 2, dtype=np.uint8))
        right = TernaryMatrix.from_array(np.full((inner, cols), 2, dtype=np.uint8))
    else:
        rng = Random(600)
        left = TernaryMatrix.random(rows, inner, rng)
        right = TernaryMatrix.random(inner, cols, rng)
    got = f3_matmul(left, right)
    assert got.dtype == np.uint8
    assert np.array_equal(got, _int64_matmul(left, right))


def test_matmul_rejects_inner_dimension_at_float32_bound():
    # Zero outer dimensions make the operands empty, so only the bound acts.
    with pytest.raises(ValueError):
        f3_matmul(
            TernaryMatrix(0, MAX_INNER_DIMENSION, b""),
            TernaryMatrix(MAX_INNER_DIMENSION, 0, b""),
        )
    inner = MAX_INNER_DIMENSION - 1
    product = f3_matmul(TernaryMatrix(0, inner, b""), TernaryMatrix(inner, 0, b""))
    assert product.shape == (0, 0)


@pytest.mark.parametrize("seed", [0, 1, 7, 2**31 + 5])
@pytest.mark.parametrize("count", [0, 1, 3, 4, 10**5])
def test_random_trits_matches_randrange_loop(seed, count):
    bulk, loop = Random(seed), Random(seed)
    got = random_trits(count, bulk)
    assert got.dtype == np.uint8 and got.shape == (count,)
    assert got.tolist() == [loop.randrange(3) for _ in range(count)]
    assert bulk.getstate() == loop.getstate()


def test_random_trits_across_draw_chunks(monkeypatch):
    # Seven words per getrandbits call forces many chunks and shortfalls.
    monkeypatch.setattr(f3, "SAMPLER_WORDS", 7)
    bulk, loop = Random(5), Random(5)
    assert random_trits(1000, bulk).tolist() == [loop.randrange(3) for _ in range(1000)]
    assert bulk.getstate() == loop.getstate()


def test_random_trits_refuses_a_random_with_its_own_getrandbits():
    # Its draws would not come from the MT19937 state that is read.
    class Biased(Random):
        def getrandbits(self, k):
            return 0

    with pytest.raises(TypeError):
        random_trits(4, Biased(1))


def _after_gauss(rng):
    rng.gauss(0, 1)  # leaves gauss_next pending


def _after_623_words(rng):
    rng.getrandbits(32 * 623)  # one word before the next twist


def _at_word_600(rng):
    rng.getrandbits(32 * 600)


@pytest.mark.parametrize("prelude", [_after_gauss, _after_623_words, _at_word_600])
@pytest.mark.parametrize("count", [0, 1, 2, 17, 24, 30, 1000])
def test_random_trits_keeps_the_random_state_around_the_twist(prelude, count):
    # From word 600 a draw of 24 trits may end at word 624 or past it; 30
    # trits always run past it and regenerate the key, 1 never does.
    bulk, loop = Random(count), Random(count)
    prelude(bulk)
    prelude(loop)
    got = random_trits(count, bulk)
    assert got.tolist() == [loop.randrange(3) for _ in range(count)]
    assert bulk.getstate() == loop.getstate()
    assert bulk.gauss(0, 1) == loop.gauss(0, 1)


def _twisters_holding(rng: Random) -> list:
    """Every live numpy ``MT19937`` whose key words are ``rng``'s: any
    of them would replay every later draw of ``rng``."""
    key = list(rng.getstate()[1][:-1])
    return [
        obj
        for obj in gc.get_objects()
        if isinstance(obj, np.random.MT19937) and obj.state["state"]["key"].tolist() == key
    ]


@pytest.mark.parametrize("count", [4, 3000])
def test_random_trits_leaves_no_generator_with_the_callers_state(count):
    # 3000 trits run past word 624, so the key is regenerated.
    rng = Random(count)
    random_trits(count, rng)
    assert _twisters_holding(rng) == []


def test_wave_ckeygen_leaves_no_generator_with_the_callers_state():
    rng = Random(29)
    wave_ckeygen(WaveParams(n=200, k=100, w=50, tag="toy"), 20, rng)
    assert _twisters_holding(rng) == []


def _in_threads(*calls) -> list:
    """Run each call in its own thread, started together, with a short
    switch interval; their results in call order."""
    results = [None] * len(calls)
    barrier = threading.Barrier(len(calls), timeout=30)

    def run(index, call):
        barrier.wait()
        results[index] = call()

    threads = [threading.Thread(target=run, args=item) for item in enumerate(calls)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    return results


def test_random_trits_in_threads_with_their_own_randoms():
    def draws(seed):
        rng = Random(seed)
        return lambda: [random_trits(20_000, rng).tolist() for _ in range(8)] + [rng.getstate()]

    for seeds in [(1, 2, 3), (4, 4, 5)]:
        assert _in_threads(*map(draws, seeds)) == [draws(seed)() for seed in seeds]


def test_random_trits_in_threads_sharing_one_random():
    # Each thread's draw is one of the three sequential draws, no draw is
    # made twice, and the Random ends where all three leave it.
    for seed in range(5):
        shared, loop = Random(seed), Random(seed)
        got = _in_threads(*[lambda: random_trits(400_000, shared).tobytes()] * 3)
        expected = [random_trits(400_000, loop).tobytes() for _ in range(3)]
        assert sorted(got) == sorted(expected)
        assert shared.getstate() == loop.getstate()


def _full(rows: int, cols: int) -> np.ndarray:
    return np.full((rows, cols), 2, dtype=np.uint8)


def test_matmul_exact_at_the_largest_inner_dimension():
    # All-2 operands make every sum 4 * (2^22 - 1) = 2^24 - 4, the largest
    # float32 must hold, which is divisible by 3; one entry set to 1 makes
    # row 0's sums 2^24 - 6, whose residue is 1.
    inner = MAX_INNER_DIMENSION - 1
    lhs = _full(2, inner)
    lhs[0, 0] = 1
    left = TernaryMatrix.from_array(lhs)
    right = TernaryMatrix.from_array(_full(inner, 2))
    got = f3_matmul(left, right)
    assert np.array_equal(got, _int64_matmul(left, right))
    assert got.tolist() == [[1, 1], [0, 0]]


def test_matmul_wave1644_inner_dimension_with_a_partial_last_block():
    inner = 8256  # Wave 1644's n - k
    left = TernaryMatrix.from_array(_full(MATMUL_BLOCK_ROWS + 3, inner))
    right = TernaryMatrix.from_array(_full(inner, 16))
    assert np.array_equal(f3_matmul(left, right), _int64_matmul(left, right))
