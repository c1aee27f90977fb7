"""Full and compressed verification for Wave-shape ternary-code
signatures.

A public key is the non-identity block R of a parity-check matrix
(I | R)^T over F3; a signature is a fixed-weight vector whose syndrome
matches the hashed message.  The compressed verifier multiplies the
parity-check matrix once by a secret (n-k) x c projection and afterwards
tests c ternary coordinates instead of n-k, accepting a forged syndrome
with probability 3^-c.

Key generation and trapdoor signing for real Wave are out of scope; the
desk-scale key generator and signer that exercise both verifiers end to
end live in ``cvk.toy``.
"""

import hashlib
import math
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

import numpy as np

from .errors import DimensionMismatch, MalformedSignature
from .f3 import (
    BYTE_LANES,
    MAX_INNER_DIMENSION,
    TernaryMatrix,
    f3_matmul,
    pack_trits,
    random_trits,
    row_stride,
    unpack_trits,
)

if TYPE_CHECKING:
    from .opcount import OpCounter

SALT_BYTES = 16
# Products sum at most n terms of at most 4; n below 2^22 keeps them below
# 2^24, so the float32 products of f3_matmul and wave_cverify are exact.
MAX_LENGTH = MAX_INNER_DIMENSION
LOG2_3 = math.log2(3)
# Spare bytes in hash_to_trits' first XOF read, 144 expected spare trits.
HASH_SLACK_BYTES = 48

# Named instances: code length, dimension, signature weight.  Wave822's
# triple is published; the k = n/2 rate carries over to the larger
# instances and their lengths follow from the published key sizes, with
# weights scaled at Wave822's w/n ratio.
_NAMED = {
    "822": (8576, 4288, 7668, 128),
    "1249": (12544, 6272, 11216, 192),
    "1644": (16512, 8256, 14764, 256),
}

WAVE_TAGS = tuple(_NAMED)


@dataclass(frozen=True)
class WaveParams:
    n: int
    k: int
    w: int
    tag: str
    classical_bits: int | None = None

    def __post_init__(self):
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        if self.n >= MAX_LENGTH:
            raise ValueError(f"code length must be below 2^22, got {self.n}")
        if not 0 < self.w <= self.n:
            raise ValueError("need 0 < w <= n")

    @property
    def redundancy(self) -> int:
        """n - k, the syndrome length."""
        return self.n - self.k


def check_c(c: int, redundancy: int) -> int:
    """c, if 1 <= c <= n-k; with c = 0 any signature would pass."""
    if not 1 <= c <= redundancy:
        raise ValueError(f"compression dimension c = {c} outside [1, n-k = {redundancy}]")
    return c


def check_public_key(pk: TernaryMatrix, params: WaveParams) -> None:
    """Shape (k, n-k): checked by ``wave_verify`` and ``wave_vkeygen``."""
    expected = (params.k, params.redundancy)
    if pk.shape != expected:
        raise DimensionMismatch(f"public key is {pk.shape}, expected {expected}")


def named_params(tag: str) -> WaveParams:
    if tag not in _NAMED:
        raise ValueError(f"unknown Wave instance {tag!r}")
    n, k, w, lam = _NAMED[tag]
    return WaveParams(n=n, k=k, w=w, tag=tag, classical_bits=lam)


@dataclass(frozen=True)
class WaveSignature:
    """Full-length (non-truncated) signature: compressed verification
    needs every coordinate, so truncated encodings are rejected.

    The packed trits are unpacked once, here, which also validates them
    (``MalformedSignature`` on a field equal to 3, dirty padding or a
    wrong byte count); ``public_target`` reads the kept read-only array
    through ``trits()``.  Equality compares salt, packed bytes and n.
    """

    salt: bytes
    s_packed: bytes
    n: int
    _trits: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            trits = unpack_trits(self.s_packed, self.n)
        except ValueError as exc:
            raise MalformedSignature(str(exc)) from None
        trits.setflags(write=False)
        object.__setattr__(self, "_trits", trits)

    @classmethod
    def from_trits(cls, salt: bytes, trits) -> "WaveSignature":
        arr = np.asarray(trits)  # pack_trits checks the values as given
        return cls(salt=salt, s_packed=pack_trits(arr), n=arr.size)

    def trits(self) -> np.ndarray:
        """The n trits as a read-only uint8 array, the same object on
        every call."""
        return self._trits

    def weight(self) -> int:
        return int(np.count_nonzero(self._trits))


@dataclass(frozen=True, eq=False)
class WaveVerificationKey:
    """Bottom n-c rows of the projected parity-check matrix; the top c
    rows are an identity block and are never stored.

    ``vk_bottom`` is the packed (n-c, c) block, c >= 1, that is serialized.
    ``fold_block`` is its float32 transpose, shape (c, n-c), the operand
    of ``wave_cverify``'s fold.  It is built here, once, whether the key
    comes from ``wave_vkeygen`` or from a decoder, from one unpack of
    ``vk_bottom`` that is not kept.  The transpose makes the fold read
    each output's row contiguously, which at Wave 822 halves the
    product's time.  Its data starts on a 64-byte boundary, which
    numpy's allocator does not promise: at Wave 822 with two OpenBLAS
    threads, the fold over a block at 16 mod 64 bytes took a median
    33-35 us in three runs, against 25-32 us at 0 or 32 mod 64.
    """

    vk_bottom: TernaryMatrix
    fold_block: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows, c = self.vk_bottom.shape
        if c < 1:
            raise ValueError("the stored block has no columns, so c = 0")
        buf = np.empty(rows * c + 16, dtype=np.float32)  # 16 floats, 64 bytes of slack
        block = buf[-buf.ctypes.data % 64 // 4 :][: rows * c].reshape(c, rows)
        np.copyto(block, self.vk_bottom.to_array().T)
        block.setflags(write=False)
        object.__setattr__(self, "fold_block", block)

    @property
    def c(self) -> int:
        return self.vk_bottom.cols

    @property
    def n(self) -> int:
        return self.vk_bottom.rows + self.vk_bottom.cols


def hash_to_trits(message: bytes, salt: bytes, length: int) -> np.ndarray:
    """Deterministic hash of salt||message to F3^length.

    XOF output is consumed two bits at a time, low bits of each byte
    first (one ``BYTE_LANES`` gather), with the value 3 rejected, so each
    kept symbol is uniform over {0, 1, 2}.

    A byte keeps 3 lanes on average, with variance 3/4, so the first read
    of length // 3 + ``HASH_SLACK_BYTES`` bytes leaves about 144 spare
    trits.  That is 4.3 standard deviations at length 4288 (Wave 822), so
    about one call in 10^5 falls short; at 6272 and 8256 it is 3.5 and 3.1
    deviations, one call in 5000 and in 1200.  A short prefix is re-read
    at twice the size; the XOF extends it, so the kept symbols do not
    change.
    """
    xof = hashlib.shake_128(salt + message)
    nbytes = length // 3 + HASH_SLACK_BYTES
    while True:
        buf = np.frombuffer(xof.digest(nbytes), dtype=np.uint8)
        lanes = BYTE_LANES.take(buf, axis=0).ravel()
        kept = lanes[lanes < 3]
        if kept.size >= length:
            return kept[:length]
        nbytes *= 2


def syndrome_target(s: np.ndarray, h: np.ndarray) -> np.ndarray:
    """t = s - (h | 0) mod 3 as a new uint8 trit vector.

    The head is s + 3 - h, which lies in [1, 5]; one conditional
    subtract of 3, by a 0/3 mask, reduces it with no division."""
    t = s.copy()
    head = t[: h.size]
    head += 3
    head -= h
    head -= (head >= 3) * np.uint8(3)
    return t


def public_target(sig: WaveSignature, message: bytes, params: WaveParams):
    """The public front end of ``wave_verify`` and ``wave_cverify``: the
    length check, the weight gate and the target t = s - (H(salt||m) | 0).

    Both verifiers then check t against their key, and differ only in
    that product.  Everything here reads public data.

    Raises:
        MalformedSignature: if the signature is not n trits long.

    Returns:
        None if the weight is not w, otherwise t as a uint8 trit vector.
    """
    if sig.n != params.n:
        raise MalformedSignature(f"signature length {sig.n} != code length {params.n}")
    if sig.weight() != params.w:
        return None
    return syndrome_target(sig.trits(), hash_to_trits(message, sig.salt, params.redundancy))


def wave_verify(
    sig: WaveSignature,
    message: bytes,
    pk: TernaryMatrix,
    params: WaveParams,
    counter: "OpCounter | None" = None,
) -> bool:
    """``public_target``, then the syndrome check t (I | R)^T = 0.

    Each call widens the packed rows of ``pk`` straight into one int64
    operand, 8·k·(n-k) bytes (147 MB at Wave 822), which the key does not
    keep.  It is not streamed or narrowed yet, though either would make
    this verifier 1.4-4x faster: the compressed verifier's speedup is
    measured against this product, and how to judge a speedup that falls
    only because the full verifier got faster is still open (ROADMAP
    item 1)."""
    nk = params.redundancy
    check_public_key(pk, params)
    t = public_target(sig, message, params)
    if t is None:
        return False
    syndrome = (t[:nk] + t[nk:] @ pk.to_array(np.int64)) % 3
    if counter is not None:
        counter.add(*verify_cost(params))
    return not syndrome.any()


def wave_ckeygen(params: WaveParams, c: int, rng: Random) -> TernaryMatrix:
    """Secret projection in systematic form: identity on top, uniform
    below, hence full rank c by construction.  The (n-k-c) x c lower
    block is drawn row-major in one ``random_trits`` call, the same
    draws as one ``rng.randrange(3)`` per entry."""
    nk = params.redundancy
    check_c(c, nk)
    lower = random_trits((nk - c) * c, rng).reshape(nk - c, c)
    return TernaryMatrix.from_array(np.vstack([np.eye(c, dtype=np.uint8), lower]))


def wave_vkeygen(
    pk: TernaryMatrix, compression: TernaryMatrix, params: WaveParams
) -> WaveVerificationKey:
    """Project the parity-check matrix: full key is (C ; R C), and the
    systematic top block of C makes the first c rows an identity, so
    only the bottom n-c rows are kept.

    The shapes and the identity block are checked before the product.
    ``f3_matmul`` streams the packed rows of ``pk``, so an install leaves
    no unpacked copy on either key; the bottom block is stacked in trits
    and packed once."""
    nk = params.redundancy
    check_public_key(pk, params)
    if compression.rows != nk:
        raise DimensionMismatch(f"projection has {compression.rows} rows, expected {nk}")
    c = compression.cols
    c_arr = compression.to_array()
    if not np.array_equal(c_arr[:c], np.eye(c, dtype=np.uint8)):
        raise ValueError("projection matrix must be systematic (identity top block)")
    bottom = np.vstack([c_arr[c:], f3_matmul(pk, compression)])  # R C below C's lower rows
    return WaveVerificationKey(TernaryMatrix.from_array(bottom))


def wave_cverify(
    sig: WaveSignature,
    message: bytes,
    vk: WaveVerificationKey,
    params: WaveParams,
    counter: "OpCounter | None" = None,
) -> bool:
    """``public_target``, then the c-coordinate projected syndrome check,
    reconstructing the implicit identity rows.

    The fold is one float32 BLAS product of the key's ``fold_block``
    with t[c:]; it is exact because n < 2^22 (``MAX_LENGTH``)."""
    c, rest = vk.fold_block.shape
    if c + rest != params.n:
        raise DimensionMismatch(f"key length {c + rest} != code length {params.n}")
    t = public_target(sig, message, params)
    if t is None:
        return False
    folded = (t[:c] + vk.fold_block @ t[c:].astype(np.float32)) % 3
    if counter is not None:
        counter.add(*cverify_cost(params, c))
    return not folded.any()


def wave_choose_c(target_mu: float) -> tuple[int, float]:
    """Byte-aligned compression dimension nearest target/log2(3);
    returns (c, achieved exponent c*log2(3))."""
    if target_mu <= 0:
        raise ValueError("target security exponent must be positive")
    c = 8 * max(1, round(target_mu / (8 * LOG2_3)))
    return c, c * LOG2_3


def pk_bytes(params: WaveParams) -> int:
    """Our packed serialization: four trits per byte, rows byte-aligned."""
    return params.k * row_stride(params.redundancy)


def vk_bytes(params: WaveParams, c: int) -> int:
    return (params.n - c) * row_stride(c)


def ck_bytes(params: WaveParams, c: int) -> int:
    return params.redundancy * row_stride(c)


def verify_cost(params: WaveParams) -> tuple[int, int]:
    """(trit multiplications, lane reductions) of the product phase."""
    nk = params.redundancy
    return params.k * nk, nk


def cverify_cost(params: WaveParams, c: int) -> tuple[int, int]:
    """As ``verify_cost``, for a c that ``check_c`` accepts."""
    check_c(c, params.redundancy)
    return (params.n - c) * c, c
