"""Full and compressed verification for Squirrels-shape signatures over
co-cyclic lattices.

A public key is the parity-check vector of a co-cyclic lattice held in
residue form along a fixed basis of public primes; checking a signature
means checking one congruence per public prime.  The compressed verifier
instead picks a handful of secret primes, transfers every check-vector
entry to the secret basis with the reconstruction-free CRT, and verifies
by recovering the integer multiplier of the lattice determinant modulo
each secret prime: for honest signatures the recovered values agree and
land in a small window, for anything else they look uniform.

Real Squirrels key generation and trapdoor signing are out of scope; the
desk-scale key generator and round-off signer that stand in as test
oracles live in ``cvk.toy``.
"""

import hashlib
import math
from dataclasses import dataclass, field
from random import Random
from typing import TYPE_CHECKING

import numpy as np

from .ecrt import (
    EcrtPrecomp,
    PrimeBasis,
    mod_ecrt_combine,
    mod_ecrt_reduce,
    mod_ecrt_setup,
    q_coefficients,
)
from .errors import DimensionMismatch, MalformedSignature
from .modmath import PRIME_COUNT_31BIT, inv_mod, sample_distinct_primes

if TYPE_CHECKING:
    from .opcount import OpCounter

SALT_BYTES = 16
COORD_BITS = 16  # serialized signature coordinates: signed 16-bit
# Exactness bounds of the int64 fold in ``cverify``, enforced where
# parameters and keys are built rather than on every call.
MAX_DIMENSION = 1 << 15
MAX_SECRET_PRIME = 1 << 31
# Public primes are words below 2^31 too, checked where params are built:
# ``verify`` sums n < 2^15 products of a target coordinate below 2^17 and
# a residue in int64, below 2^63 only for residues below 2^31, and the PK
# stores each residue as one signed 32-bit ``<i4`` word.
MAX_PUBLIC_PRIME = 1 << 31

# Named instances: dimension, hash bound, max squared norm, public prime
# count, classical security target.
_NAMED = {
    "I": (1034, 4096, 2_026_590, 165, 128),
    "II": (1164, 4096, 2_442_439, 188, 128),
    "III": (1556, 4096, 4_512_242, 262, 192),
    "IV": (1718, 4096, 3_659_372, 275, 192),
    "V": (2056, 4096, 5_370_115, 339, 256),
}

SQUIRRELS_TAGS = tuple(_NAMED)


@dataclass(frozen=True)
class SquirrelsParams:
    n: int
    q: int
    beta_sq: int
    s: int
    tag: str
    public_basis: PrimeBasis | None = None
    classical_bits: int | None = None

    def __post_init__(self):
        check_q(self.q)
        if not 2 <= self.n < MAX_DIMENSION:
            raise ValueError(f"dimension {self.n} not in [2, {MAX_DIMENSION})")
        if self.beta_sq < 0:
            raise ValueError(f"squared norm bound must be nonnegative, got {self.beta_sq}")
        if self.public_basis is not None:
            if len(self.public_basis) != self.s:
                raise ValueError("public basis length disagrees with s")
            widest = max(self.public_basis.primes)
            if widest >= MAX_PUBLIC_PRIME:
                raise ValueError(f"public prime {widest} not below {MAX_PUBLIC_PRIME}")


def check_q(q: int) -> None:
    """A power of two, so masking is uniform, at most 2^16 for ``cverify``."""
    if q < 1 or q & (q - 1) or q > 1 << 16:
        raise ValueError(f"hash bound q must be a power of two in [1, 2^16], got {q}")


def check_t(t: int) -> None:
    """At least one secret prime."""
    if t < 1:
        raise ValueError(f"need at least one secret prime, got t={t}")


def check_basis(params: SquirrelsParams) -> PrimeBasis:
    """The public basis, which named params do not carry."""
    if params.public_basis is None:
        raise ValueError(f"{params.tag} params carry no public basis")
    return params.public_basis


def named_params(tag: str) -> SquirrelsParams:
    if tag not in _NAMED:
        raise ValueError(f"unknown Squirrels instance {tag!r}")
    n, q, beta_sq, s, lam = _NAMED[tag]
    return SquirrelsParams(n=n, q=q, beta_sq=beta_sq, s=s, tag=tag, classical_bits=lam)


@dataclass(frozen=True, eq=False)
class SquirrelsPublicKey:
    """Check-vector residues, shape (n-1, s): residues[i][j] is the i-th
    check coordinate mod the j-th public prime.  The final coordinate is
    -1 by convention and never stored.

    Frozen, with ``residues`` held as a read-only int64 array that no
    other array shares (a view is copied), so the transfer terms that
    ``ecrt_terms`` keeps, and the params that ``check`` records, always
    belong to them.
    """

    residues: np.ndarray
    _checked: tuple = field(default=(), init=False, repr=False, compare=False)
    _terms: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        residues = np.ascontiguousarray(self.residues, dtype=np.int64)
        if residues.base is not None:
            residues = residues.copy()
        if residues.ndim != 2:
            raise ValueError("public key residues must be 2-D")
        residues.setflags(write=False)
        object.__setattr__(self, "residues", residues)

    def check(self, params: SquirrelsParams) -> None:
        """Run ``check_public_key`` unless the key last passed it for the
        same n and public basis, then record that pair: the decoder, the
        first install and ``verify`` check a key once between them, and
        params with another n or basis check it again."""
        key = (params.n, params.public_basis)
        if self._checked != key:
            check_public_key(self, params)
            object.__setattr__(self, "_checked", key)

    def ecrt_terms(self, params: SquirrelsParams) -> np.ndarray:
        """The public half of the basis transfer of every residue row: the
        (n-1, s+1) balanced term table [v | k - f] of ``mod_ecrt_reduce``,
        read-only: the terms u = x q mod p, each lifted to u - p past p/2,
        beside the count k of lifted terms less the floor f.  On the int64
        path it is float64, 8 (n-1)(s+1) bytes: as much as u and f in
        int64, and ready for the secret half's BLAS product.

        It depends only on the key and the public basis, so every
        compression key reuses it.  The first call for a given n and
        public basis runs ``check``, computes ``q_coefficients`` and the
        table, and keeps it with the key.  A call with another n or basis
        checks the key again and replaces it, so no call gets a table
        computed for other params, and a key keeps a table only for
        params it passed.  The table is public data.
        """
        key = (params.n, params.public_basis)
        if not self._terms or self._terms[0] != key:
            self.check(params)
            basis = params.public_basis
            terms = mod_ecrt_reduce(q_coefficients(basis), basis, self.residues)
            terms.setflags(write=False)
            object.__setattr__(self, "_terms", (key, terms))
        return self._terms[1]


@dataclass(frozen=True, eq=False)
class SquirrelsSignature:
    """A salt and the short vector s, one signed 16-bit coordinate each.

    ``s_vec`` is taken as any integer sequence or array and held as a
    read-only int64 array.  The 16-bit range is checked here, once, so
    the decoder and every signer hand the verifiers an array they use
    as it is; a coordinate outside the range raises
    ``MalformedSignature``.  The length is checked against the instance
    by ``public_target``.
    """

    salt: bytes
    s_vec: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.s_vec)
        if raw.ndim != 1 or (raw.size and raw.dtype.kind not in "iu"):
            raise MalformedSignature("signature coordinates must be a flat vector of integers")
        bound = 1 << (COORD_BITS - 1)
        if raw.size and (raw.min() < -bound or raw.max() >= bound):
            raise MalformedSignature("signature coordinate outside 16-bit range")
        s_vec = raw.astype(np.int64)
        s_vec.setflags(write=False)
        object.__setattr__(self, "s_vec", s_vec)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SquirrelsSignature)
            and self.salt == other.salt
            and np.array_equal(self.s_vec, other.s_vec)
        )

    def __hash__(self):
        return hash((self.salt, self.s_vec.tobytes()))


@dataclass(frozen=True)
class SquirrelsCompressionKey:
    public_basis: PrimeBasis  # the basis ``compression_key`` built it for
    secret_basis: PrimeBasis
    precomp: EcrtPrecomp
    inv_delta: tuple[int, ...]  # (product of public primes)^-1 mod each secret prime


@dataclass(frozen=True, eq=False)
class SquirrelsVerificationKey:
    """rows[j][i] = i-th shifted check coordinate mod the j-th secret
    prime (secret-prime-major, matching the verification loop).  Row
    index n-1 holds r_j - 1, the image of the implicit -1 coordinate.

    ``rows`` is held as a read-only int64 array that no other array
    shares (a view is copied), and ``r`` and ``inv_delta_words`` are the
    secret primes and ``inv_delta`` as read-only int64 arrays, built once
    here for ``cverify``; the key is frozen, so they always match the
    fields they come from.  Rows, primes and ``inv_delta`` that disagree
    on t are refused, and so are a prime at or past ``MAX_SECRET_PRIME``
    and an entry of ``rows`` or ``inv_delta`` outside [0, r_j): the
    bounds that keep ``cverify``'s int64 fold exact, checked here for
    keys from ``vkeygen``, from the decoder or built by hand."""

    secret_basis: PrimeBasis
    inv_delta: tuple[int, ...]
    rows: np.ndarray  # shape (t, n)
    r: np.ndarray = field(init=False, repr=False)
    inv_delta_words: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        if rows.base is not None:
            rows = rows.copy()
        arrays = {
            "rows": rows,
            "r": np.array(self.secret_basis.primes, dtype=np.int64),
            "inv_delta_words": np.array(self.inv_delta, dtype=np.int64),
        }
        t = len(self.secret_basis)
        if arrays["rows"].ndim != 2 or len(arrays["rows"]) != t or len(self.inv_delta) != t:
            raise ValueError(
                f"{t} secret primes, {len(self.inv_delta)} inverse residues and "
                f"rows of shape {arrays['rows'].shape}"
            )
        # Viewed as uint64, a negative entry lies past every prime, so each
        # row's maximum alone tests the row against [0, r_j).
        tops = rows.view(np.uint64).max(axis=1).tolist()
        words = zip(tops, self.inv_delta, self.secret_basis.primes)
        if not all(top < r < MAX_SECRET_PRIME and 0 <= d < r for top, d, r in words):
            raise ValueError("secret prime at or past 2^31, or entry outside [0, r_j)")
        for name, arr in arrays.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def hash_to_point(message: bytes, salt: bytes, q: int, n: int) -> np.ndarray:
    """Deterministic hash of salt||message to a vector in [0, q)^n.

    q is a power of two (4096 in every named instance), so masking two
    little-endian bytes per coordinate is exactly uniform.
    """
    check_q(q)
    raw = hashlib.shake_128(salt + message).digest(2 * n)
    words = np.frombuffer(raw, dtype="<u2").astype(np.int64)
    return words & (q - 1)


def k_prime_bounds(params: SquirrelsParams) -> tuple[int, int]:
    """Exact integer range of the recovered determinant multiplier for
    any signature passing the norm gate."""
    double_root = math.isqrt(4 * params.n * params.beta_sq)
    k_min = -double_root - 1
    k_max = 2 * (params.n - 1) * (params.q - 1) + double_root + 1
    return k_min, k_max


def public_target(sig: SquirrelsSignature, message: bytes, params: SquirrelsParams):
    """The public front end of ``verify`` and ``cverify``: the length
    check, the norm gate and the target c = s + H(salt||m).

    Both verifiers then check c against their key, and differ only in
    that product.  Everything here reads public data.

    Raises:
        MalformedSignature: if the signature does not have n coordinates
            (their range was checked when the signature was built).

    Returns:
        None if s.s exceeds beta^2, otherwise c as an int64 vector.
    """
    if sig.s_vec.size != params.n:
        raise MalformedSignature(f"signature has {sig.s_vec.size} coords, expected {params.n}")
    if int(sig.s_vec @ sig.s_vec) > params.beta_sq:
        return None
    return sig.s_vec + hash_to_point(message, sig.salt, params.q, params.n)


def verify(
    sig: SquirrelsSignature,
    message: bytes,
    pk: SquirrelsPublicKey,
    params: SquirrelsParams,
    counter: "OpCounter | None" = None,
) -> bool:
    """Full verification: ``pk.check``, then ``public_target`` and one
    congruence per public prime.

    Raises:
        DimensionMismatch: if the key is not (n-1, s).
        ValueError: if the params carry no public basis, or a residue is
            not reduced mod its prime.
    """
    pk.check(params)
    c = public_target(sig, message, params)
    if c is None:
        return False
    primes = np.asarray(params.public_basis.primes, dtype=np.int64)
    sums = c[:-1] @ pk.residues
    if counter is not None:
        counter.add(*verify_cost(params))
    return bool(np.all((sums - c[-1]) % primes == 0))


def ckeygen(
    params: SquirrelsParams,
    t: int,
    rng: Random,
    secret_width: int = 31,
) -> SquirrelsCompressionKey:
    """Sample the secret basis and precompute the CRT-transfer tables.

    Every secret prime must exceed the recovered-multiplier window so
    the shifted multiplier fits a single residue; 31-bit primes always
    qualify, toy widths are checked explicitly.
    """
    check_t(t)
    basis = check_basis(params)
    k_min, k_max = k_prime_bounds(params)
    if (1 << (secret_width - 1)) <= k_max - k_min:
        raise ValueError(
            f"{secret_width}-bit secret primes cannot exceed the multiplier "
            f"window {k_max - k_min}"
        )
    secret = sample_distinct_primes(secret_width, t, rng, exclude=basis.primes)
    return compression_key(params, PrimeBasis(secret))


def check_secret_basis(secret_basis: PrimeBasis, params: SquirrelsParams) -> None:
    """Every secret prime above the multiplier window of ``k_prime_bounds``,
    else ``cverify`` accepts random vectors, and below ``MAX_SECRET_PRIME``,
    else its int64 fold overflows.  ``compression_key`` and ``vkeygen``
    check it, so no CK that reaches a transfer breaks it."""
    low, high = min(secret_basis.primes), max(secret_basis.primes)
    if high >= MAX_SECRET_PRIME:
        raise ValueError(f"secret prime {high} not below {MAX_SECRET_PRIME}")
    k_min, k_max = k_prime_bounds(params)
    if low <= k_max - k_min:
        raise ValueError(f"secret prime {low} not above the multiplier window {k_max - k_min}")


def compression_key(
    params: SquirrelsParams, secret_basis: PrimeBasis
) -> SquirrelsCompressionKey:
    """The compression key on the given secret primes.  Every word it
    stores besides the primes follows from them and the public basis, so
    keygen and the decoders all build it here.

    Raises:
        SharedFactor: if a secret prime is also a public prime.
        ValueError: if ``check_secret_basis`` refuses the primes.
    """
    basis = check_basis(params)
    check_secret_basis(secret_basis, params)
    precomp = mod_ecrt_setup(basis, secret_basis)
    inv_delta = tuple(
        inv_mod(d, r) for d, r in zip(precomp.weights[:, -1].tolist(), secret_basis.primes)
    )
    return SquirrelsCompressionKey(basis, secret_basis, precomp, inv_delta)


def check_public_key(pk: SquirrelsPublicKey, params: SquirrelsParams) -> None:
    """Shape (n-1, s), residues reduced mod their primes: checked, through
    ``SquirrelsPublicKey.check``, by the decoder, ``vkeygen`` and ``verify``.

    Raises:
        DimensionMismatch: if the key is not (n-1, s).
        ValueError: if the params carry no public basis, or a residue is
            not reduced mod its prime.
    """
    primes = np.array(check_basis(params).primes)
    expected = (params.n - 1, params.s)
    if pk.residues.shape != expected:
        raise DimensionMismatch(f"public key is {pk.residues.shape}, expected {expected}")
    if np.any((pk.residues < 0) | (pk.residues >= primes)):
        raise ValueError("public key residue not reduced mod its prime")


def vkeygen(
    ck: SquirrelsCompressionKey,
    pk: SquirrelsPublicKey,
    params: SquirrelsParams,
) -> SquirrelsVerificationKey:
    """Transfer every check coordinate to the secret basis.

    The raw transfer returns the coordinate or the coordinate minus the
    public product; adding the product's residues once normalizes that
    to coordinate-plus-{0,1}-product, which is the shift the multiplier
    window of ``k_prime_bounds`` accounts for.

    The CK must have been built for the params' public basis, and its
    secret primes pass ``check_secret_basis`` first, so a CK built by
    hand, or for another public key, gets no further than one from the
    decoder.  The public half of the transfer, the balanced term table,
    comes from ``pk.ecrt_terms``, which checks the key and computes it on
    the key's first install; each compression key pays only the secret
    half, ``mod_ecrt_combine``: one exact BLAS product of the table
    against balanced limbs of the cofactor and product residues, and one
    float64 Horner chain.  Its (n-1, t) result, reduced, is added to the
    product residues straight into the (t, n) rows, and one conditional
    subtract reduces the sum.
    """
    if ck.public_basis != params.public_basis:
        raise ValueError("compression key was built for another public basis")
    check_secret_basis(ck.secret_basis, params)
    moved = mod_ecrt_combine(ck.precomp, pk.ecrt_terms(params))
    r = np.array(ck.secret_basis.primes, dtype=np.int64)[:, None]
    rows = np.empty((len(r), params.n), dtype=np.int64)
    body = rows[:, :-1]
    np.add(moved.T, ck.precomp.weights[:, -1:], out=body)
    body -= r * (body >= r)
    rows[:, -1:] = r - 1
    return SquirrelsVerificationKey(
        secret_basis=ck.secret_basis, inv_delta=ck.inv_delta, rows=rows
    )


def cverify(
    sig: SquirrelsSignature,
    message: bytes,
    vk: SquirrelsVerificationKey,
    params: SquirrelsParams,
    counter: "OpCounter | None" = None,
) -> bool:
    """Compressed verification against the secret-basis key.

    After ``public_target``, one fold of the target against every
    transferred check row at once, then per secret prime: multiply by the
    inverse determinant residue and shift by the window minimum.  Accept
    iff every shifted
    multiplier sits inside the window and they all agree; both flags are
    computed over all primes and combined at the end (no early exit on
    secret data).

    The int64 fold is exact: |c_i| < 2^15 + 2^16 (``SquirrelsSignature``,
    and ``SquirrelsParams``, which caps q at 2^16), 0 <= rows < r_j < 2^31
    (``SquirrelsVerificationKey``) and n < 2^15 (``SquirrelsParams``) keep |sum|
    below 2^63, and the reduced sum times inv_delta_j stays below 2^62.

    Raises:
        DimensionMismatch: if the key's rows do not have n entries.
    """
    if vk.rows.shape[1] != params.n:
        raise DimensionMismatch(
            f"verification key rows have {vk.rows.shape[1]} entries, expected {params.n}"
        )
    c = public_target(sig, message, params)
    if c is None:
        return False
    k_min, k_max = k_prime_bounds(params)
    r = vk.r
    k = (vk.rows @ c % r * vk.inv_delta_words - k_min) % r
    if counter is not None:
        counter.add(*cverify_cost(params, len(r)))
    return bool(np.all(k <= k_max - k_min) & np.all(k == k[0]))


def keyspace_log2(t: int) -> float:
    """log2 C(#31-bit primes, t), the keyspace exponent of t secret primes."""
    return math.log2(math.comb(PRIME_COUNT_31BIT, t))


def choose_t(target_mu: float) -> tuple[int, float]:
    """Secret-prime count whose keyspace exponent lands nearest the
    target; returns (t, achieved exponent)."""
    if target_mu <= 0:
        raise ValueError("target security exponent must be positive")
    t = min(range(1, 65), key=lambda t: abs(keyspace_log2(t) - target_mu))
    return t, keyspace_log2(t)


def pk_bytes(params: SquirrelsParams) -> int:
    """Serialized public key: 4(n-1)s bytes of 32-bit residues."""
    return 4 * (params.n - 1) * params.s


def vk_bytes(params: SquirrelsParams, t: int) -> int:
    """Serialized verification key: secret primes, inverse-determinant
    residues, and n-1 transferred rows -- 4(n+1)t bytes."""
    return 4 * (params.n + 1) * t


def ck_bytes(params: SquirrelsParams, t: int) -> int:
    """Serialized compression key: secret primes, product residues,
    cofactor residues, inverse-determinant residues -- 4(s+3)t bytes."""
    return 4 * (params.s + 3) * t


def verify_cost(params: SquirrelsParams) -> tuple[int, int]:
    """(word multiplications, reductions) of the congruence phase."""
    return (params.n - 1) * params.s, params.s


def cverify_cost(params: SquirrelsParams, t: int) -> tuple[int, int]:
    """As ``verify_cost``, for a t that ``check_t`` accepts."""
    check_t(t)
    return (params.n + 1) * t, 2 * t


def __getattr__(name: str):
    # perfbench/quality.py, the only caller, still reaches the toy signer as
    # ``sq.toy_keygen`` and ``sq.toy_sign``.  This alias goes when a
    # benchmark change imports ``cvk.toy``; until first access no toy code
    # loads.
    if name in ("toy_keygen", "toy_sign"):
        from . import toy

        return getattr(toy, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
