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
computes them once for a table of values and a caller that moves the
same table to many secret bases (a new compression key at every
verification-key refresh) keeps it.  The table is balanced: each term
u_i > p_i / 2 is lifted to u_i - p_i, and since p_i (D/p_i) = D, the
k lifted terms of a row add k D, so the last column k - floor(a) keeps
the sum unchanged mod every r_k.  Only the final weighted sum needs the
secret primes, and in it that column is one more term, weighted by
D mod r_k beside the cofactor residues.  ``mod_ecrt_combine`` is one
float64 BLAS product of the table against L balanced limbs of those
s + 1 weights, L the fewest limbs that keep every sum an integer below
2^53 and so exact (the exact word products through floating-point BLAS
of FFLAS-FFPACK, Dumas, Giorgi and Pernet, 2008): 2 up to s = 358, so
at every named Squirrels instance.  A float64 Horner chain with no
integer division joins the limbs.  The basis product D is never
materialized: setup runs prefix and suffix products over word residues,
and nothing touches a value wider than a double word.

Every step runs on int64 words under two rules, which ``_words`` checks
wherever a step turns a basis into words: each prime is below 2^31, so
a product of two reduced words is below 2^62, and a basis holds at most
``MAX_BASIS_LEN`` primes.  A basis outside them raises ``ValueError``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import SharedFactor
from .modmath import MAX_MODULUS_BITS, is_prime_word

# Cap on the primes of a basis, the public half's int64 rule: with
# a = ceil(log2 s) + 2, s shifted terms u << a below 2^(31 + a) sum
# below s * 2^(31 + a) < 2^63 only for s < 2^15.  The secret half's
# balanced limbs (``limb_split``) number 2 up to s = 358, 3 up to 13001
# and 4 up to this cap.
MAX_BASIS_LEN = (1 << 15) - 1

# Rows per pass of both halves: bounds the public half's temporaries
# and the secret half's block of BLAS sums, so peak memory stays flat.
# Also sized by measurement, with 2 OpenBLAS threads on 2 CPUs at
# Squirrels V.  A (64 x 339)(339 x 33) block product is split across
# both threads, and with the other CPU busy each such call stalled
# 8 ms, up to 0.25 s a transfer; a 32-row block runs on the calling
# thread, and all 2055 rows take 3.1 ms.  The public half takes 9.4 ms
# at 32 rows against 9.3 ms at 64 and 9.6 ms at 256.
TRANSFER_BLOCK_ROWS = 32


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


def _words(basis: PrimeBasis) -> np.ndarray:
    """The primes of ``basis`` as int64 words, under the transfer's two
    rules: at most ``MAX_BASIS_LEN`` primes, each below 2^31.

    Raises:
        ValueError: if the basis breaks either rule.
    """
    if len(basis) > MAX_BASIS_LEN:
        raise ValueError(f"basis of {len(basis)} primes, more than {MAX_BASIS_LEN}")
    if max(basis.primes) >= 1 << 31:
        raise ValueError(f"basis prime {max(basis.primes)} not below 2^31")
    return np.array(basis.primes, dtype=np.int64)


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


@dataclass(frozen=True, eq=False)
class EcrtPrecomp:
    """Precomputed residues driving the basis transfer: the (t, s + 1)
    word table ``weights``,

    ``weights[k, i]`` = (p_1 ... p_s)/p_i  mod r_k  for i < s,
    ``weights[k, s]`` = (p_1 ... p_s)      mod r_k.

    Keyed by secret prime first (k-major), the layout the setup scans
    run along and the CK file stores.  int64, every entry below its
    secret prime, and held read-only in an array no other array shares
    (a view is copied).  Built by ``mod_ecrt_setup``.
    """

    secret_basis: PrimeBasis
    weights: np.ndarray

    def __post_init__(self):
        weights = np.ascontiguousarray(self.weights)
        if weights.base is not None:
            weights = weights.copy()
        t = len(self.secret_basis)
        if weights.ndim != 2 or len(weights) != t:
            raise ValueError(f"weights of shape {weights.shape} for {t} secret primes")
        weights.setflags(write=False)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EcrtPrecomp)
            and self.secret_basis == other.secret_basis
            and np.array_equal(self.weights, other.weights)
        )

    def __hash__(self):
        return hash(self.secret_basis)

    @property
    def precision(self) -> int:
        """Fractional bits of the floor-recovery accumulator, fixed by s."""
        return default_precision(self.weights.shape[1] - 1)


def default_precision(source_len: int) -> int:
    """ceil(log2 s) + 2: one bit above the recovery minimum, which halves
    the chance of landing in the off-by-product branch for random x."""
    return (source_len - 1).bit_length() + 2


def q_coefficients(basis: PrimeBasis) -> tuple[int, ...]:
    """Cofactor inverses by product-then-invert, all in word arithmetic.

    q_i = (prod_{j != i} p_j)^{-1} mod p_i.  Basis invariants (distinct
    primes) guarantee every inverse exists.  One pass per prime p_j
    multiplies it into every other cofactor at once, in int64 words.
    The primes are public, so the inverses need no constant-time ladder.

    Raises:
        ValueError: if the basis breaks a rule of ``_words``.
    """
    primes = basis.primes
    p = _words(basis)
    acc = np.ones(len(primes), dtype=np.int64)
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
    basis, as the ``weights`` table of an ``EcrtPrecomp``.

    The (t, s) table of public primes mod each secret prime gets one
    prefix and one suffix product scan along its rows; the cofactor of
    p_i is the product before i times the product after i, and the
    public product is the last prefix.  The scans run in int64 words.

    Raises:
        SharedFactor: if the bases overlap (the transfer needs every
            secret prime coprime to the public product).
        ValueError: if either basis breaks a rule of ``_words``.
    """
    overlap = set(public.primes) & set(secret.primes)
    if overlap:
        raise SharedFactor(f"bases share primes {sorted(overlap)}")
    r = _words(secret)[:, None]
    units = _words(public) % r
    prefix = _prefix_products(units, r)
    suffix = _prefix_products(units[:, ::-1], r)[:, ::-1]
    before = np.hstack([np.ones_like(r), prefix[:, :-1]])
    after = np.hstack([suffix[:, 1:], np.ones_like(r)])
    return EcrtPrecomp(secret, np.hstack([before * after % r, prefix[:, -1:]]))


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
    reduced residues (checked where they enter), the (m, s + 1) balanced
    term table T = [v | k - f].  With u = x q mod p the reduced terms and
    f = ``approx_floor(u, p, a)``, a = ``default_precision(s)``, the
    floors, v lifts each u_j > p_j / 2 to u_j - p_j, into (-p_j/2, p_j/2],
    and k counts the lifted terms of a row.  Since p_j (D/p_j) = D,

        sum_j u_j (D/p_j) - f D = sum_j v_j (D/p_j) + (k - f) D,

    so T stands for the same sum as [u | -f] modulo every secret prime.

    T depends on the public primes alone, so a caller that transfers the
    same residues to many secret bases computes it once.  Rows go in
    blocks of ``TRANSFER_BLOCK_ROWS``, which bounds the temporaries of
    the floor; each block's v is written straight into T, and no whole u
    exists beside it.  Runs in int64, under the rules of ``_words``: each
    shifted term u << a is below 2^(31 + a) and the floors sum below
    s * 2^a, both under s * 2^(31 + a) < 2^63: exact.  T is float64,
    also exact: every entry is an integer, |v| <= 2^30 - 1 and
    |k - f| <= s.

    Raises:
        ValueError: if ``q`` or ``x`` does not match the basis, or the
            basis breaks a rule of ``_words``.
    """
    s = len(basis)
    if len(q) != s:
        raise ValueError("coefficient count does not match basis")
    if x.ndim != 2 or x.shape[1] != s:
        raise ValueError(f"residue table of shape {x.shape}, expected (m, {s})")
    a = default_precision(s)
    p = _words(basis)
    qv = np.array(q, dtype=np.int64)
    terms = np.empty((x.shape[0], s + 1))
    for start in range(0, x.shape[0], TRANSFER_BLOCK_ROWS):
        rows = slice(start, start + TRANSFER_BLOCK_ROWS)
        u = x[rows].astype(np.int64) * qv % p
        floors = approx_floor(u, p, a)
        lift = u > p >> 1
        u -= p * lift
        terms[rows, :s] = u
        terms[rows, s] = lift.sum(axis=1) - floors
    return terms


def limb_split(s: int) -> tuple[int, int]:
    """(L, B): the limb count and base of the secret half for s public
    primes, every prime below 2^31.

    A weight lifted to (-r/2, r/2] is at most 2^30 - 1 in magnitude, and
    L balanced digits of base B = ceil(2^(31/L)), each at most
    floor(B/2) in magnitude, span it.  A BLAS sum of the balanced table
    (|v| <= 2^30 - 1, |k - f| <= s) against one limb is then at most
    s 2^30 floor(B/2) in magnitude, and a Horner step z B + w, z in
    [0, r), with its reduction r floor(z / r), at most that plus
    2^31 (B + 1).  L is the fewest limbs with

        s 2^30 floor(B/2) + 2^31 (B + 1) < 2^53,

    so every partial sum and every step is an exact float64 integer in
    any order, whatever the thread split, FMA or blocking of the BLAS:
    L = 2 (B = 46341) up to s = 358, L = 3 (B = 1291) up to s = 13001
    and L = 4 (B = 216) up to ``MAX_BASIS_LEN``.
    """
    n_limbs = 2  # one limb would need s 2^60 < 2^53
    while True:
        base = math.ceil(2 ** (31 / n_limbs))
        if s * (base // 2) << 30 < (1 << 53) - ((base + 1) << 31):
            return n_limbs, base
        n_limbs += 1


def _reduce_float(z: np.ndarray, r: np.ndarray, r_inv: np.ndarray) -> None:
    """z mod r in place, for float64 integers z with |z| + r < 2^53 and r,
    r_inv = 1/r of z's shape: the quotient z (1/r) rounds to within one
    of z / r, so z - r floor(z (1/r)) lies in [-r, 2r), and one
    conditional add and one conditional subtract bring it into [0, r)."""
    q = z * r_inv
    np.floor(q, out=q)
    q *= r
    z -= q
    np.add(z, r, out=z, where=z < 0)
    np.subtract(z, r, out=z, where=z >= r)


def mod_ecrt_combine(pre: EcrtPrecomp, terms: np.ndarray) -> np.ndarray:
    """The secret half of the transfer: the (m, s + 1) balanced term table
    T = [v | k - f] of ``mod_ecrt_reduce`` to the (m, t) table of
    sum_j v_j (D/p_j) + (k - f) D mod every secret prime r_k.

    With c = ``pre.weights``.T, the (s + 1, t) table of the cofactor
    residues and, as its last row, D mod r_k, the sum is (T @ c) mod r:
    the floor correction is one more term.

    The sum is one float64 BLAS product and one float64 Horner chain, on
    secret primes under the rules of ``_words``.  c is lifted to
    (-r/2, r/2] and cut into the L balanced limbs of base B of
    ``limb_split``, stacked most significant first as one (s + 1, L t)
    table; every sum and every chain step then stays an exact integer
    below 2^53.  T goes into the product one
    ``TRANSFER_BLOCK_ROWS`` block at a time, with no cast.  The chain
    reduces the top limb's sums mod r, then takes z = (z B + w_i) mod r
    for each lower limb, in place, each reduction z - r floor(z (1/r))
    with one conditional add and one conditional subtract and no integer
    division.  The result is int64.

    Raises:
        ValueError: if ``terms`` does not match the weights, or the secret
            basis breaks a rule of ``_words``.
    """
    weights = pre.weights
    if terms.ndim != 2 or terms.shape[1] != weights.shape[1]:
        raise ValueError("terms do not match the precomputed public basis")
    words = _words(pre.secret_basis)[:, None]
    n_limbs, base = limb_split(weights.shape[1] - 1)
    rest = weights - words * (weights > words >> 1)
    digits = []  # least significant first
    for _ in range(n_limbs - 1):
        digits.append((rest + base // 2) % base - base // 2)
        rest = (rest - digits[-1]) // base
    limbs = np.hstack([d.T for d in [rest] + digits[::-1]], dtype=np.float64)
    t = len(words)
    w = np.empty((len(terms), n_limbs * t))
    for start in range(0, len(terms), TRANSFER_BLOCK_ROWS):
        rows = slice(start, start + TRANSFER_BLOCK_ROWS)
        np.matmul(terms[rows], limbs, out=w[rows])
    # Broadcast once: a ufunc is slower along a trailing axis of length t.
    r = np.tile(words.T.astype(np.float64), (len(terms), 1))
    r_inv = 1 / r
    z = w[:, :t].copy()
    _reduce_float(z, r, r_inv)
    for lo in range(t, n_limbs * t, t):
        z *= base
        z += w[:, lo : lo + t]
        _reduce_float(z, r, r_inv)
    return z.astype(np.int64)


def mod_ecrt_rows(
    pre: EcrtPrecomp, q: tuple[int, ...], basis: PrimeBasis, x: np.ndarray
) -> np.ndarray:
    """Transfer m values, one per row of the (m, s) array ``x`` of reduced
    residues (checked where they enter), to the secret basis: row i of the
    (m, t) result represents value i or value i - D.

    The public half, ``mod_ecrt_reduce``, reduces each term once, u = x q
    mod p, and ``approx_floor`` pins down floor(a) for each row, into
    one balanced term table [v | k - floor(a)]; the secret half,
    ``mod_ecrt_combine``, takes it to sum_j u_j (D/p_j) - floor(a) D mod
    every secret prime r_k at once, the correction as one more term.
    Both walk the rows in blocks of ``TRANSFER_BLOCK_ROWS``, on int64
    words under the rules of ``_words``: the public half's floor is exact
    in int64, and the secret half is one exact float64 BLAS product over
    balanced limbs of the cofactor and product residues, each sum an
    integer below 2^53, and one float64 Horner chain.
    """
    return mod_ecrt_combine(pre, mod_ecrt_reduce(q, basis, x))


def mod_ecrt(pre: EcrtPrecomp, q: tuple[int, ...], x_res: RnsResidues) -> RnsResidues:
    """Transfer one value, held as residues on the public basis, to the
    secret basis; the result represents x or x - D, D the public product.

    If x < (1 - s/2^a) * D, a = ``pre.precision``, the result is exactly
    x's residues.
    """
    out = mod_ecrt_rows(pre, q, x_res.basis, np.array([x_res.values], dtype=np.int64))
    return RnsResidues(pre.secret_basis, tuple(int(v) for v in out[0]))
