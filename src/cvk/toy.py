"""Desk-scale key generators and signers for Squirrels and Wave.

Real key generation and trapdoor signing are out of scope for both
schemes.  These stand in as test oracles and drive the CLI pipeline's
``keygen`` and ``sign-toy``: a random co-cyclic lattice read off its
Hermite form with a round-off signer, and a uniform ternary code whose
signer solves the identity block directly.  No verifier, compression or
install path imports this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

import numpy as np

from . import LazyModule
from .errors import ResampleLimit

ecrt = LazyModule("ecrt")
f3 = LazyModule("f3")
modmath = LazyModule("modmath")
sq = LazyModule("squirrels")
wv = LazyModule("wave")

MAX_TOY_DIMENSION = 32
# Resampling caps of the Squirrels keygen and salt loops.
TOY_KEYGEN_ATTEMPTS = 2000
SQUIRRELS_SIGN_SALTS = 200
MAX_TOY_LENGTH = 64
WAVE_SIGN_SALTS = 5000  # resampling cap of the Wave signer's salt loop


# ---------------------------------------------------------------------------
# Squirrels: random co-cyclic lattice + round-off signer.
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class ToySquirrelsSecret:
    """Short generating matrix for the round-off signer."""

    basis: np.ndarray  # (n, n) int64, rows generate the lattice
    inv: np.ndarray  # float64 inverse, used only to pick a near point


def _row_hnf(mat: list[list[int]]) -> list[list[int]] | None:
    """Row-style Hermite form, upper triangular with positive diagonal
    and above-diagonal entries reduced; None if the matrix is singular."""
    n = len(mat)
    a = [row[:] for row in mat]
    for col in range(n):
        while True:
            nz = [r for r in range(col, n) if a[r][col] != 0]
            if not nz:
                return None
            r0 = min(nz, key=lambda r: abs(a[r][col]))
            a[col], a[r0] = a[r0], a[col]
            if a[col][col] < 0:
                a[col] = [-x for x in a[col]]
            pivot = a[col][col]
            clean = True
            for r in range(col + 1, n):
                if a[r][col]:
                    f = a[r][col] // pivot
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                    if a[r][col]:
                        clean = False
            if clean:
                break
        pivot = a[col][col]
        for r in range(col):
            f = a[r][col] // pivot
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return a


def _pollard_rho(n: int, rng: Random) -> int:
    while True:
        c = rng.randrange(1, n)
        x = y = rng.randrange(2, n)
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def _factorize(n: int, rng: Random) -> list[int]:
    """Prime factorization with multiplicity; trial division then rho."""
    out = []
    for p in (2, 3, 5, 7, 11, 13):
        while n % p == 0:
            out.append(p)
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if modmath.is_prime_word(m):
            out.append(m)
            continue
        d = _pollard_rho(m, rng)
        stack.extend((d, m // d))
    return sorted(out)


def toy_keygen(
    n: int,
    entry_bound: int,
    rng: Random,
    q: int = 16,
) -> tuple[sq.SquirrelsPublicKey, sq.SquirrelsParams, ToySquirrelsSecret]:
    """Random co-cyclic lattice small enough to cross-check with big
    integers.

    Samples integer matrices until the Hermite form is co-cyclic (unit
    diagonal except the last entry) with an odd-or-even squarefree
    determinant whose prime factors all fit 31 bits.  The check vector
    is read off the Hermite form's last column; the sampled matrix
    itself serves as the signer's short basis.
    """
    if not 2 <= n <= MAX_TOY_DIMENSION:
        raise ValueError(f"toy dimension must be in [2, {MAX_TOY_DIMENSION}]")
    if entry_bound < 1:
        raise ValueError("entry bound must be positive")
    for _ in range(TOY_KEYGEN_ATTEMPTS):
        g = [[rng.randint(-entry_bound, entry_bound) for _ in range(n)] for _ in range(n)]
        h = _row_hnf(g)
        if h is None:
            continue
        det = h[n - 1][n - 1]
        if any(h[i][i] != 1 for i in range(n - 1)) or det <= 1:
            continue
        if det >= (1 << 62):
            continue
        factors = _factorize(det, rng)
        if len(set(factors)) != len(factors):
            continue  # determinant not squarefree
        if max(factors) >= sq.MAX_PUBLIC_PRIME:
            continue  # params refuse it
        basis = ecrt.PrimeBasis(tuple(factors))
        check = [h[i][n - 1] for i in range(n - 1)]
        residues = np.array(
            [[v % p for p in basis.primes] for v in check], dtype=np.int64
        )
        params = sq.SquirrelsParams(
            n=n,
            q=q,
            beta_sq=n * n * entry_bound * entry_bound,
            s=len(basis),
            tag="toy",
            public_basis=basis,
        )
        g_arr = np.array(g, dtype=np.int64)
        secret = ToySquirrelsSecret(basis=g_arr, inv=np.linalg.inv(g_arr.astype(float)))
        return sq.SquirrelsPublicKey(residues), params, secret
    raise ResampleLimit(f"no usable co-cyclic lattice in {TOY_KEYGEN_ATTEMPTS} attempts")


def toy_sign(
    secret: ToySquirrelsSecret,
    message: bytes,
    params: sq.SquirrelsParams,
    rng: Random,
) -> sq.SquirrelsSignature:
    """Round-off signer: snap the hashed point to a nearby lattice point
    with the short basis, retrying salts until the difference clears the
    norm gate.  Stands in for the trapdoor sampler, which is out of
    scope."""
    for _ in range(SQUIRRELS_SIGN_SALTS):
        salt = rng.randbytes(sq.SALT_BYTES)
        h = sq.hash_to_point(message, salt, params.q, params.n)
        coeffs = np.rint(h.astype(float) @ secret.inv).astype(np.int64)
        nearby = coeffs @ secret.basis
        s_vec = nearby - h
        if int(s_vec @ s_vec) <= params.beta_sq:
            return sq.SquirrelsSignature(salt=salt, s_vec=s_vec)
    raise ResampleLimit(f"no short signature after {SQUIRRELS_SIGN_SALTS} salts")


# ---------------------------------------------------------------------------
# Wave: uniform public key + identity-block signer.
# ---------------------------------------------------------------------------


def wave_toy_keygen(params: wv.WaveParams, rng: Random) -> f3.TernaryMatrix:
    """Uniform random public key at desk scale."""
    if params.n > MAX_TOY_LENGTH:
        raise ValueError(f"toy keygen capped at n <= {MAX_TOY_LENGTH}")
    return f3.TernaryMatrix.random(params.k, params.redundancy, rng)


def wave_toy_sign(
    pk: f3.TernaryMatrix,
    message: bytes,
    params: wv.WaveParams,
    rng: Random,
) -> wv.WaveSignature:
    """Solve the identity block directly: draw the last k coordinates,
    derive the first n-k from the hash, retry salts until the weight
    gate is met.  Stands in for the trapdoor decoder, which is out of
    scope."""
    if params.n > MAX_TOY_LENGTH:
        raise ValueError(f"toy signing capped at n <= {MAX_TOY_LENGTH}")
    nk = params.redundancy
    r_arr = pk.to_array(np.int64)
    for _ in range(WAVE_SIGN_SALTS):
        salt = rng.randbytes(wv.SALT_BYTES)
        h = wv.hash_to_trits(message, salt, nk).astype(np.int64)
        tail = f3.random_trits(params.k, rng).astype(np.int64)
        head = (h - tail @ r_arr) % 3
        s = np.concatenate([head, tail]).astype(np.uint8)
        if int(np.count_nonzero(s)) == params.w:
            return wv.WaveSignature.from_trits(salt, s)
    raise ResampleLimit(f"no weight-{params.w} signature after {WAVE_SIGN_SALTS} salts")
