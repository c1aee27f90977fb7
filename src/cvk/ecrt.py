"""Explicit modular CRT: re-reduce a residue-form value to a new prime
basis without ever reconstructing the integer.

A value 0 <= x < D, D the product of the public primes p_1..p_s, is held
as residues (x mod p_i).  Writing q_i for the inverse of the i-th
cofactor D/p_i modulo p_i and u_i = x_i q_i mod p_i, x equals
a*D - floor(a)*D with a = sum_i u_i / p_i; evaluating both terms modulo
each secret prime r_k needs only word arithmetic once floor(a) is pinned
down.  Exact integer division truncates each term u_i / p_i to a fixed
number of fractional bits, and their sum recovers floor(a) up to +1, so
the transfer lands on x or on x - D -- downstream consumers absorb that
single-D ambiguity by design.  The precision is ceil(log2 s) + 2 bits,
one above the ceil(log2 s) + 1 that floor recovery needs (Bernstein,
"Multidigit modular multiplication with the explicit Chinese remainder
theorem", 1995).

The transfer has a public half and a secret half.  The terms u_i and
floor(a) depend on the public primes alone: ``mod_ecrt_reduce``
computes them once for a table of values, as one term table [u | -f]
with the negated floor as its last column, and a caller that moves the
same table to many secret bases (a new compression key at every
verification-key refresh) keeps it.  Only the final weighted sum needs
the secret primes, and in it the correction -floor(a) D is one more
term, weighted by D mod r_k beside the cofactor residues.
``mod_ecrt_combine`` is one float64 BLAS product of the table against
narrow limbs of those s + 1 residues, narrow enough that every sum is
an integer below 2^53 and so exact (the exact word products through
floating-point BLAS of FFLAS-FFPACK, Dumas, Giorgi and Pernet, 2008),
then one Horner chain over the limbs with one reduction mod r per limb.
The basis product D is never materialized: setup runs prefix and
suffix products over word residues, and nothing touches a value wider
than a double word.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SharedFactor
from .modmath import MAX_MODULUS_BITS, is_prime_word

# Cap on s, which fixes the precision a = ceil(log2 s) + 2.  It does not
# keep the transfer within 64 bits: the public half checks that itself,
# and its int64 rule, s * 2^(31 + a) < 2^63, admits only s < 2^15, which
# keeps its shifted terms exact.  The secret half's limbs narrow as s
# grows, 22 - ceil(log2 s) bits each, and stay at least 6 bits wide up
# to this cap.
MAX_BASIS_LEN = 1 << 16

# Rows per pass of both halves: bounds the public half's temporaries
# and the secret half's block of BLAS sums, so peak memory stays flat.
# Also sized by measurement, with 2 OpenBLAS threads on 2 CPUs at
# Squirrels V.  A (64 x 339)(339 x 33) block product is split across
# both threads, and with the other CPU busy each such call stalled
# 8 ms, up to 0.25 s a transfer; a 32-row block runs on the calling
# thread, and all 2055 rows take 3.1 ms.  The public half takes 9.4 ms
# at 32 rows against 9.3 ms at 64 and 9.6 ms at 256.
TRANSFER_BLOCK_ROWS = 32


def _word_dtype(primes, *exact: bool):
    """int64 if every prime is below 2^31, so a product of two reduced words
    is below 2^62, and every condition in ``exact`` holds; else object."""
    return np.int64 if all(exact) and max(primes) < 1 << 31 else object


@dataclass(frozen=True)
class PrimeBasis:
    """An ordered tuple of distinct word-sized primes.

    The product exists only implicitly; nothing in this module computes
    it.  The prime 2 is admitted (even toy determinants factor through
    it); all other entries are odd.
    """

    primes: tuple[int, ...]

    def __post_init__(self):
        if not self.primes:
            raise ValueError("prime basis must be non-empty")
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("prime basis entries must be distinct")
        for p in self.primes:
            if not (isinstance(p, int) and p < 1 << MAX_MODULUS_BITS and is_prime_word(p)):
                raise ValueError(f"basis entry {p!r} is not a prime below 2^63")

    def __len__(self) -> int:
        return len(self.primes)

    def __iter__(self):
        return iter(self.primes)


@dataclass(frozen=True)
class RnsResidues:
    """A value represented by its residues along a prime basis."""

    basis: PrimeBasis
    values: tuple[int, ...]

    def __post_init__(self):
        if len(self.values) != len(self.basis):
            raise ValueError("residue count does not match basis length")
        for v, p in zip(self.values, self.basis):
            if not 0 <= v < p:
                raise ValueError(f"residue {v} not reduced mod {p}")

    @classmethod
    def from_int(cls, x: int, basis: PrimeBasis) -> "RnsResidues":
        return cls(basis, tuple(x % p for p in basis))


@dataclass(frozen=True)
class EcrtPrecomp:
    """Precomputed residues driving the basis transfer.

    ``product_res[k]``    = (p_1 ... p_s)       mod r_k
    ``cofactor_res[k][i]`` = (p_1 ... p_s)/p_i  mod r_k

    Storage is keyed by secret prime first (k-major), the (t, s) layout
    the setup scans run along.  Built by ``mod_ecrt_setup`` only.
    """

    secret_basis: PrimeBasis
    product_res: tuple[int, ...]
    cofactor_res: tuple[tuple[int, ...], ...]

    @property
    def precision(self) -> int:
        """Fractional bits of the floor-recovery accumulator, fixed by s."""
        return default_precision(len(self.cofactor_res[0]))


def default_precision(source_len: int) -> int:
    """ceil(log2 s) + 2: one bit above the recovery minimum, which halves
    the chance of landing in the off-by-product branch for random x."""
    return (source_len - 1).bit_length() + 2


def q_coefficients(basis: PrimeBasis) -> tuple[int, ...]:
    """Cofactor inverses by product-then-invert, all in word arithmetic.

    q_i = (prod_{j != i} p_j)^{-1} mod p_i.  Basis invariants (distinct
    primes) guarantee every inverse exists.  One pass per prime p_j
    multiplies it into every other cofactor at once, in the dtype
    ``_word_dtype`` picks.  The primes are public, so the inverses need
    no constant-time ladder.
    """
    primes = basis.primes
    dtype = _word_dtype(primes)
    p = np.array(primes, dtype=dtype)
    acc = np.ones(len(primes), dtype=dtype)
    for j, pj in enumerate(primes):
        u = pj % p
        u[j] = 1
        acc = acc * u % p
    return tuple(pow(int(a), -1, pi) for a, pi in zip(acc, primes))


def _prefix_products(units: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Inclusive prefix products along each row of ``units``, row k mod
    r[k]: ceil(log2 s) passes, each multiplying every entry by the one
    2^pass places before it (a Hillis-Steele scan)."""
    out = units.copy()
    step = 1
    while step < out.shape[1]:
        out[:, step:] = out[:, step:] * out[:, :-step] % r
        step *= 2
    return out


def mod_ecrt_setup(public: PrimeBasis, secret: PrimeBasis) -> EcrtPrecomp:
    """Residues of the public product and its cofactors along the secret
    basis.

    The (t, s) table of public primes mod each secret prime gets one
    prefix and one suffix product scan along its rows; the cofactor of
    p_i is the product before i times the product after i, and the
    public product is the last prefix.  The scans run in the dtype
    ``_word_dtype`` picks for the secret primes.

    Raises:
        SharedFactor: if the bases overlap (the transfer needs every
            secret prime coprime to the public product).
        ValueError: if the public basis is longer than ``MAX_BASIS_LEN``.
    """
    overlap = set(public.primes) & set(secret.primes)
    if overlap:
        raise SharedFactor(f"bases share primes {sorted(overlap)}")
    s = len(public)
    if s > MAX_BASIS_LEN:
        raise ValueError(f"source basis length {s} out of range")
    dtype = _word_dtype(secret.primes)
    r = np.array(secret.primes, dtype=dtype)[:, None]
    units = np.array(public.primes, dtype=dtype) % r
    prefix = _prefix_products(units, r)
    suffix = _prefix_products(units[:, ::-1], r)[:, ::-1]
    before = np.hstack([np.ones_like(r), prefix[:, :-1]])
    after = np.hstack([suffix[:, 1:], np.ones_like(r)])
    return EcrtPrecomp(
        secret_basis=secret,
        product_res=tuple(prefix[:, -1].tolist()),
        cofactor_res=tuple(map(tuple, (before * after % r).tolist())),
    )


def approx_floor(u: np.ndarray, p: np.ndarray, precision: int) -> np.ndarray:
    """Fixed-point recovery of floor(sum_j u[i, j] / p_j) for each row i
    of the (m, s) table ``u`` of reduced terms (0 <= u[i, j] < p_j): m
    floors, each possibly +1.

    Each term is truncated to ``precision`` fractional bits by one exact
    division, (u << a) // p_j; the s truncation errors sum below s, so
    adding s before the final shift turns the sum into an overestimate
    by less than s / 2^precision.  A floor is exact whenever the
    fractional part of its sum is below 1 - s/2^precision.  ``p`` is the
    length-s prime vector, of ``u``'s dtype.
    """
    return (u.shape[1] + ((u << precision) // p).sum(axis=1)) >> precision


def mod_ecrt_reduce(q: tuple[int, ...], basis: PrimeBasis, x: np.ndarray) -> np.ndarray:
    """The public half of the transfer: for the (m, s) array ``x`` of
    reduced residues (checked where they enter), the (m, s + 1) term
    table T = [u | -f] of the reduced terms u = x q mod p and the negated
    floors f = ``approx_floor(u, p, a)``, a = ``default_precision(s)``.

    T depends on the public primes alone, so a caller that transfers the
    same residues to many secret bases computes it once.  Rows go in
    blocks of ``TRANSFER_BLOCK_ROWS``, which bounds the temporaries of
    the floor; each block's u is written straight into T, and no whole u
    exists beside it.  Runs in int64 when every public prime is below
    2^31 and s * 2^(31 + a) < 2^63, which forces s < 2^15; in Python ints
    otherwise.  In int64 each shifted term u << a is below 2^(31 + a) and
    the floors sum below s * 2^a, both under s * 2^(31 + a): exact.  T is
    then float64, also exact: every entry is an integer, 0 <= u < 2^31
    and 0 <= f <= s.
    """
    s = len(basis)
    if len(q) != s:
        raise ValueError("coefficient count does not match basis")
    if x.ndim != 2 or x.shape[1] != s:
        raise ValueError(f"residue table of shape {x.shape}, expected (m, {s})")
    a = default_precision(s)
    dtype = _word_dtype(basis.primes, s << (31 + a) < 1 << 63)
    p = np.array(basis.primes, dtype=dtype)
    qv = np.array(q, dtype=dtype)
    terms = np.empty((x.shape[0], s + 1), dtype=np.float64 if dtype is np.int64 else object)
    for start in range(0, x.shape[0], TRANSFER_BLOCK_ROWS):
        rows = slice(start, start + TRANSFER_BLOCK_ROWS)
        u = x[rows].astype(dtype) * qv % p
        terms[rows, :s] = u
        terms[rows, s] = -approx_floor(u, p, a)
    return terms


def mod_ecrt_combine(pre: EcrtPrecomp, terms: np.ndarray) -> np.ndarray:
    """The secret half of the transfer: the (m, s + 1) term table
    T = [u | -f] of ``mod_ecrt_reduce`` to the (m, t) table of
    sum_j u_j (D/p_j) - f D mod every secret prime r_k.

    With c the (s + 1, t) table of the cofactor residues (D/p_j) mod r_k
    and, as its last row, D mod r_k, the sum is (T @ c) mod r: the
    correction by f D is one more term.  In Python ints, ``T @ c % r`` is
    exact; they are used unless T is float64 (so u < 2^31, from the
    public half's int64 path) and every secret prime is below 2^31.

    Otherwise the sum is one float64 BLAS product and one Horner chain.
    With b = 22 - ceil(log2 s) bits (ceil(log2 1) taken as 0) and
    L = ceil(31 / b), c is cut into L limbs (c >> b i) & (2^b - 1),
    stacked most significant first as one (s + 1, L t) table.  A term
    u * limb is at most (2^31 - 1)(2^b - 1) and the last column's
    -f * limb at most s (2^b - 1) in magnitude, so the magnitudes of a
    sum add up to at most s 2^31 (2^b - 1) < 2^53: every partial sum is
    an exact integer in any order, whatever the thread split, FMA or
    blocking of the BLAS.  T goes into the product one
    ``TRANSFER_BLOCK_ROWS`` block at a time, with no cast, and each
    block's sums are stored as int64.  The Horner chain reduces the top
    limb's sums mod r, then takes z = ((z << b) + w_i) mod r for each
    lower limb, in place: each step is below 2^(31 + b) + 2^53 <= 2^54 in
    magnitude, and floor mod leaves it in [0, r).
    """
    if terms.ndim != 2 or terms.shape[1] != len(pre.cofactor_res[0]) + 1:
        raise ValueError("terms do not match the precomputed public basis")
    secret = pre.secret_basis.primes
    dtype = _word_dtype(secret, terms.dtype == np.float64)
    r = np.array(secret, dtype=dtype)
    c = np.array([cof + (d,) for cof, d in zip(pre.cofactor_res, pre.product_res)], dtype=dtype).T
    if dtype is object:
        # Through int64, so that a float64 table enters as Python ints.
        return terms.astype(np.int64).astype(object) @ c % r
    b = 22 - (len(c) - 2).bit_length()  # len(c) = s + 1
    n_limbs, t = -(-31 // b), len(r)
    limbs = np.hstack([c >> b * i & (1 << b) - 1 for i in reversed(range(n_limbs))], dtype=float)
    w = np.empty((len(terms), n_limbs * t), dtype=np.int64)
    for start in range(0, len(terms), TRANSFER_BLOCK_ROWS):
        rows = slice(start, start + TRANSFER_BLOCK_ROWS)
        w[rows] = terms[rows] @ limbs
    z = w[:, :t] % r
    for lo in range(t, n_limbs * t, t):
        z <<= b
        z += w[:, lo : lo + t]
        z %= r
    return z


def mod_ecrt_rows(
    pre: EcrtPrecomp, q: tuple[int, ...], basis: PrimeBasis, x: np.ndarray
) -> np.ndarray:
    """Transfer m values, one per row of the (m, s) array ``x`` of reduced
    residues (checked where they enter), to the secret basis: row i of the
    (m, t) result represents value i or value i - D.

    The public half, ``mod_ecrt_reduce``, reduces each term once, u = x q
    mod p, and ``approx_floor`` pins down floor(a) for each row, into
    one term table [u | -floor(a)]; the secret half, ``mod_ecrt_combine``,
    takes it to sum_j u_j (D/p_j) - floor(a) D mod every secret prime r_k
    at once, the correction as one more term.  Both walk the rows in
    blocks of ``TRANSFER_BLOCK_ROWS``.  When every prime is below 2^31
    the secret half is one exact float64 BLAS product over limbs of the
    cofactor and product residues, each sum an integer below 2^53, and
    one Horner chain; a wider prime puts the half it enters, and the
    secret half after it, on Python ints.
    """
    return mod_ecrt_combine(pre, mod_ecrt_reduce(q, basis, x))


def mod_ecrt(pre: EcrtPrecomp, q: tuple[int, ...], x_res: RnsResidues) -> RnsResidues:
    """Transfer one value, held as residues on the public basis, to the
    secret basis; the result represents x or x - D, D the public product.

    If x < (1 - s/2^a) * D, a = ``pre.precision``, the result is exactly
    x's residues.
    """
    out = mod_ecrt_rows(pre, q, x_res.basis, np.array([x_res.values], dtype=object))
    return RnsResidues(pre.secret_basis, tuple(int(v) for v in out[0]))
