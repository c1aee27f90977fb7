"""Packed linear algebra over F3.

Trits are stored four to a byte in 2-bit fields, least significant field
first, rows padded to a byte boundary.  The 2-bit layout (rather than
five trits per byte in base 243) keeps extraction branch-free: one
(256, 4) table, ``BYTE_LANES``, maps each byte to its four fields, and
every 2-bit read (unpacking here, hash-to-trits in ``wave``) is one
gather from it.  Weights are counted on the unpacked trits.

Validation happens once, on the packed bytes: byte masks reject any
field equal to 3 and any nonzero row padding.
Arithmetic unpacks to numpy lanes.  Nothing is memoized: ``to_array(dtype)``
returns a fresh array of the dtype asked for, and a matrix holds only its
packed bytes.  ``f3_matmul`` streams the packed rows of its left operand.

Products run as float32 BLAS products.  Each term is at most 2 * 2 = 4,
so an inner dimension below 2^22 keeps every sum below 2^24, where
float32 represents integers exactly: the result is the integer product,
not an approximation (the FFLAS-FFPACK approach).  Those sums are
nonnegative integers below 2^24, so they cast to int32 without loss and
are reduced mod 3 there: an integer ``% 3`` runs about five times faster
than the float remainder over the same block.

``random_trits`` has one path: each call builds its own numpy ``MT19937``
from the caller's ``Random`` state and writes the advanced state back,
so no generator outlives the call.  That costs about 0.2 ms per call
besides the draws; a caller that needs only a few trits draws them with
``rng.randrange(3)``, the same draws.
"""

import threading
from random import Random

import numpy as np

from .errors import DimensionMismatch

TRITS_PER_BYTE = 4
MAX_INNER_DIMENSION = 1 << 22  # 4 * 2^22 = 2^24, float32's exact-integer limit
# Rows of the left operand cast to float32 at a time.  Larger blocks run
# no faster at Wave 822; the allocator can keep a freed block resident,
# and at 512 rows (8.8 MB) that added 9 MB to the process's peak RSS.
MATMUL_BLOCK_ROWS = 128
# Mersenne Twister words per random_raw call in random_trits: 8 MiB of
# uint64 words, one byte each once shifted and cast.
SAMPLER_WORDS = 1 << 20
# BYTE_LANES[b] is byte b's four 2-bit fields, least significant first.
BYTE_LANES = (np.arange(256, dtype=np.uint8)[:, None] >> np.uint8([0, 2, 4, 6])) & 3
BYTE_LANES.setflags(write=False)


def row_stride(cols: int) -> int:
    """Packed bytes per row."""
    return (cols + TRITS_PER_BYTE - 1) // TRITS_PER_BYTE


def _trit_array(values) -> np.ndarray:
    """``values`` as a uint8 array, checked as given, before the cast:
    each value must equal 0, 1 or 2, so nothing out of range wraps and
    no fraction truncates into a trit.  Whole floats pass, so a float64
    ``np.eye`` still packs."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if arr.size and (
        kind not in "biuf"
        or arr.max() > 2
        or (kind in "if" and arr.min() < 0)
        or (kind == "f" and np.any(arr % 1))
    ):
        raise ValueError("trits must lie in {0, 1, 2}")
    return arr.astype(np.uint8, copy=False)


def _pack(arr: np.ndarray) -> np.ndarray:
    """(rows, cols) uint8 trits to (rows, stride) packed bytes, padding
    zeroed."""
    out = np.zeros((arr.shape[0], row_stride(arr.shape[1])), dtype=np.uint8)
    for k in range(TRITS_PER_BYTE):
        lane = arr[:, k::TRITS_PER_BYTE]
        out[:, : lane.shape[1]] |= lane << (2 * k)
    return out


def _check_packed(raw: np.ndarray, cols: int) -> None:
    """Byte masks on (rows, stride) packed bytes: no field 3, zero padding."""
    if np.any(raw & (raw >> 1) & 0x55):
        raise ValueError("invalid 2-bit field (value 3) in packed trits")
    if cols % TRITS_PER_BYTE and np.any(raw[:, -1] >> (2 * (cols % TRITS_PER_BYTE))):
        raise ValueError("nonzero padding in packed trits")


def _unpack(raw: np.ndarray, cols: int, dtype=np.uint8) -> np.ndarray:
    """(rows, stride) packed bytes to (rows, cols) C-contiguous trits of
    ``dtype``, one ``BYTE_LANES`` gather per ``MATMUL_BLOCK_ROWS`` rows,
    written straight into the output.  The gather casts its byte indices
    to intp, 8 bytes per packed byte, so blocking it holds that transient
    to one block rather than the whole matrix, and a wide ``dtype`` needs
    no uint8 copy of the whole matrix beside it."""
    rows, stride = raw.shape
    out = np.empty((rows, cols), dtype=dtype)
    for start in range(0, rows, MATMUL_BLOCK_ROWS):
        block = raw[start : start + MATMUL_BLOCK_ROWS]
        lanes = BYTE_LANES.take(block, axis=0).reshape(len(block), TRITS_PER_BYTE * stride)
        out[start : start + len(block)] = lanes[:, :cols]
        del lanes  # free before the next block's gather
    return out


def pack_trits(values) -> bytes:
    """Pack a trit sequence, 2-bit fields LSB-first, padding zeroed."""
    arr = _trit_array(values)
    if arr.ndim != 1:
        raise ValueError("pack_trits takes a flat sequence")
    return _pack(arr[None, :]).tobytes()


def unpack_trits(data: bytes, count: int) -> np.ndarray:
    """Inverse of pack_trits; validates fields and zero padding."""
    raw = np.frombuffer(data, dtype=np.uint8)[None, :]
    if raw.size != row_stride(count):
        raise ValueError(f"expected {row_stride(count)} bytes for {count} trits")
    _check_packed(raw, count)
    return _unpack(raw, count)[0]


# Held around each draw's read, run and write-back of a Random's state, so
# two threads drawing from one Random never get the same trits.
_SAMPLER_LOCK = threading.Lock()


def random_trits(count: int, rng: Random) -> np.ndarray:
    """``count`` uniform trits, draw for draw ``rng.randrange(3)``.

    ``randrange(3)`` keeps the top two bits of one 32-bit Mersenne
    Twister word and rejects the value 3.  Each call reads ``rng``'s
    MT19937 state through ``getstate()``, runs a numpy ``MT19937`` bit
    generator of its own from a copy of it, filters its ``random_raw``
    words the same way and writes the advanced state back with
    ``setstate()``: the same trits, and ``rng`` ends in the same state,
    ``gauss_next`` included.  The generator is dropped when the call
    returns, so no state that a secret was drawn from outlives the
    caller's ``Random``.  An ``rng`` whose ``getrandbits`` is overridden
    does not draw from that state, so it is refused with ``TypeError``.

    A call costs about 0.2 ms besides its draws (building the generator
    and reading its state back), so a caller that needs only a few trits
    calls ``rng.randrange(3)`` for each: the same draws and end state.
    """
    if not isinstance(rng, Random) or type(rng).getrandbits is not Random.getrandbits:
        raise TypeError("random_trits needs a random.Random with its own getrandbits")
    out = np.empty(count, dtype=np.uint8)
    filled = 0
    twister = np.random.MT19937(0)
    with _SAMPLER_LOCK:
        version, internal, gauss_next = rng.getstate()
        # The setter reads the key words by index: a tuple of ints sets
        # them about 35 times faster than a uint32 array.
        state = {"key": internal[:-1], "pos": internal[-1]}
        twister.state = {"bit_generator": "MT19937", "state": state}
        while filled < count:
            words = twister.random_raw(min(count - filled, SAMPLER_WORDS))
            words >>= 30
            kept = words.astype(np.uint8)
            kept = kept.compress(kept < 3)
            out[filled : filled + kept.size] = kept
            filled += kept.size
        state = twister.state["state"]
        rng.setstate((version, (*state["key"].tolist(), state["pos"]), gauss_next))
    return out


class TernaryMatrix:
    """A rows x cols matrix over F3 in packed row-major storage.

    Immutable after construction, and it holds only its packed bytes:
    nothing is memoized, and ``to_array(dtype)`` returns a fresh array
    each call.
    """

    def __init__(self, rows: int, cols: int, data: bytes):
        if rows < 0 or cols < 0:
            raise ValueError("negative dimensions")
        stride = row_stride(cols)
        if len(data) != rows * stride:
            raise ValueError(
                f"payload is {len(data)} bytes, expected {rows * stride} "
                f"for {rows}x{cols}"
            )
        self.rows = rows
        self.cols = cols
        self.data = bytes(data)
        _check_packed(np.frombuffer(self.data, np.uint8).reshape(rows, stride), cols)

    @classmethod
    def from_array(cls, arr) -> "TernaryMatrix":
        arr = _trit_array(arr)
        if arr.ndim != 2:
            raise ValueError("from_array takes a 2-D array")
        return cls(arr.shape[0], arr.shape[1], _pack(arr).tobytes())

    @classmethod
    def random(cls, rows: int, cols: int, rng: Random) -> "TernaryMatrix":
        return cls.from_array(random_trits(rows * cols, rng).reshape(rows, cols))

    def to_array(self, dtype=np.uint8) -> np.ndarray:
        """A fresh (rows, cols) trit array of ``dtype``, which the matrix
        does not keep."""
        raw = np.frombuffer(self.data, np.uint8).reshape(self.rows, row_stride(self.cols))
        return _unpack(raw, self.cols, dtype)

    @property
    def shape(self) -> tuple[int, int]:
        return self.rows, self.cols

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TernaryMatrix)
            and self.shape == other.shape
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        return f"TernaryMatrix({self.rows}x{self.cols})"


def f3_matmul(a: TernaryMatrix, b: TernaryMatrix) -> np.ndarray:
    """Matrix product over F3 as a (a.rows, b.cols) uint8 trit array.

    Walks the packed rows of ``a`` ``MATMUL_BLOCK_ROWS`` at a time, so
    ``a`` is never unpacked whole and neither operand caches a view.  Each block
    goes from bytes to float32 trits in one gather from a float32 copy of
    ``BYTE_LANES``, padding fields included, against zero rows of ``b``
    below its last; BLAS multiplies it exactly, and the block's sums are
    reduced mod 3 in int32 into the output.  At Wave 822, c = 80, a
    product took a median 8% longer than one reading a cached unpacked
    view of ``a``; unpacking each block through uint8 took 19% longer."""
    if a.cols != b.rows:
        raise DimensionMismatch(f"{a.shape} @ {b.shape}")
    if a.cols >= MAX_INNER_DIMENSION:
        raise ValueError(f"inner dimension {a.cols} is not below 2^22; float32 would round")
    raw = np.frombuffer(a.data, np.uint8).reshape(a.rows, row_stride(a.cols))
    rhs = np.zeros((raw.shape[1] * TRITS_PER_BYTE, b.cols), dtype=np.float32)
    rhs[: b.rows] = b.to_array()
    lanes = BYTE_LANES.astype(np.float32)
    out = np.empty((a.rows, b.cols), dtype=np.uint8)
    for start in range(0, a.rows, MATMUL_BLOCK_ROWS):
        rows = slice(start, start + MATMUL_BLOCK_ROWS)
        block = lanes.take(raw[rows], axis=0).reshape(-1, len(rhs)) @ rhs
        out[rows] = block.astype(np.int32) % 3
    return out
