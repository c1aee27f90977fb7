"""Planted keys: honest signatures at published sizes without a trapdoor.

Real Squirrels/Wave signing is out of scope and the package's toy
signers stop at n <= 32 (Squirrels) and n <= 64 (Wave).  A planted key
reverses the order: sample short signatures first, then solve a few
key coordinates so that exactly those signatures verify.

* Squirrels: a few check coordinates per public prime p_j, one small
  linear system mod p_j each (batched over all primes at once).
* Wave: a few rows of R, one small linear system over F3 with n-k
  right-hand sides.

Everything else in the key is uniform, and neither verifier exits early
on key data, so a planted key exercises the same code as any other.
Every request carries the verdict it must get; ``Request.expect`` is the
correctness oracle the benchmark checks both verifiers against.
"""

import math
from dataclasses import dataclass, replace
from random import Random

import numpy as np

from cvk import squirrels as sq
from cvk import wave as wv
from cvk.ecrt import PrimeBasis
from cvk.f3 import TernaryMatrix
from cvk.modmath import sample_distinct_primes

HONEST, TAMPERED, GATE = "honest", "tampered", "gate"
# Request mix, repeated in this order: 50% honest, 25% cryptographic
# reject, 25% rejected by the public norm/weight gate.  A fixed order
# gives every run, however short, the same mix.
MIX_CYCLE = (HONEST, TAMPERED, HONEST, GATE)


@dataclass(frozen=True)
class Request:
    kind: str
    message: bytes
    sig: object

    @property
    def expect(self) -> bool:
        return self.kind == HONEST


@dataclass
class SquirrelsInstance:
    params: sq.SquirrelsParams
    pk: sq.SquirrelsPublicKey
    honest: list
    tampered: list
    gate: list


@dataclass
class WaveInstance:
    params: wv.WaveParams
    pk_data: bytes  # packed R, the decoded-PK payload
    honest: list
    tampered: list
    gate: list

    def pk_matrix(self) -> TernaryMatrix:
        """A freshly decoded PK, with no unpacked view cached yet."""
        return TernaryMatrix(self.params.k, self.params.redundancy, self.pk_data)


def request_stream(inst, rng: Random):
    """Endless request sequence cycling through MIX_CYCLE, each request
    drawn at random from the pool of its kind."""
    pools = {HONEST: inst.honest, TAMPERED: inst.tampered, GATE: inst.gate}
    while True:
        for kind in MIX_CYCLE:
            yield rng.choice(pools[kind])


# ── Squirrels ────────────────────────────────────────────────────────────


def _solve_mod_primes(a: np.ndarray, b: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Solve a[j] x[j] = b[j] (mod primes[j]) for every j at once.

    a: (s, m, m), b: (s, m), entries reduced mod their prime.  Raises
    ValueError on a zero pivot (probability about m/2^30 per prime).
    """
    m = a.shape[1]
    aug = np.concatenate([a, b[:, :, None]], axis=2)
    p = primes[:, None]
    for col in range(m):
        pivot = aug[:, col, col]
        if np.any(pivot == 0):
            raise ValueError("singular planting system")
        inv = np.array([pow(int(x), -1, int(q)) for x, q in zip(pivot, primes)])
        aug[:, col, :] = aug[:, col, :] * inv[:, None] % p
        factors = aug[:, :, col].copy()
        factors[:, col] = 0
        aug -= factors[:, :, None] * aug[:, col, None, :] % primes[:, None, None]
        aug %= primes[:, None, None]
    return aug[:, :, m]


def _short_vector(n: int, bound: int, beta_sq: int, gen: np.random.Generator) -> np.ndarray:
    while True:
        s_vec = gen.integers(-bound, bound + 1, size=n, dtype=np.int64)
        if int(s_vec @ s_vec) <= beta_sq - (2 * bound + 1):
            return s_vec


def plant_squirrels(base: sq.SquirrelsParams, count: int, seed: int) -> SquirrelsInstance:
    """Planted Squirrels key for ``base`` (whose public basis is sampled
    here) with ``count`` < n-1 honest signatures, and one tampered and one
    over-norm signature per honest one."""
    rng = Random(seed)
    gen = np.random.default_rng(seed)
    basis = PrimeBasis(sample_distinct_primes(31, base.s, rng))
    params = replace(base, public_basis=basis)
    n, s = params.n, params.s
    primes = np.asarray(basis.primes, dtype=np.int64)
    # Uniform coordinates in [-B, B] have mean square B(B+1)/3; aim at
    # 80% of the norm bound so one +-1 tamper stays under it.
    bound = int((2.4 * params.beta_sq / n) ** 0.5)
    sigs, c_rows = [], []
    for _ in range(count):
        salt = rng.randbytes(sq.SALT_BYTES)
        s_vec = _short_vector(n, bound, params.beta_sq, gen)
        message = b"sq-%d" % rng.getrandbits(64)
        c_rows.append(s_vec + sq.hash_to_point(message, salt, params.q, n))
        sigs.append((message, sq.SquirrelsSignature(salt, tuple(int(x) for x in s_vec))))
    c_mat = np.array(c_rows, dtype=np.int64)  # (count, n)

    # Unknowns: check coordinates 0..count-1 for every prime.
    residues = gen.integers(0, primes, size=(n - 1, s), dtype=np.int64)
    solved = slice(0, count)
    rest = c_mat[:, count : n - 1] @ residues[count:]  # (count, s), < 2^55
    rhs = (c_mat[:, n - 1, None] - rest) % primes  # (count, s)
    a = c_mat[None, :, solved] % primes[:, None, None]  # (s, count, count)
    residues[solved] = _solve_mod_primes(a, rhs.T.copy(), primes).T
    pk = sq.SquirrelsPublicKey(residues)

    honest, tampered, gate = [], [], []
    for message, sig in sigs:
        honest.append(Request(HONEST, message, sig))
        s_vec = list(sig.s_vec)
        i = rng.randrange(n)
        s_vec[i] += rng.choice((-1, 1))
        tampered.append(Request(TAMPERED, message, sq.SquirrelsSignature(sig.salt, tuple(s_vec))))
        factor = math.isqrt(params.beta_sq // sum(x * x for x in sig.s_vec)) + 1
        over = tuple(factor * x for x in sig.s_vec)
        gate.append(Request(GATE, message, sq.SquirrelsSignature(sig.salt, over)))
    return SquirrelsInstance(params, pk, honest, tampered, gate)


# ── Wave ─────────────────────────────────────────────────────────────────


def _f3_pivots(mat: np.ndarray) -> list[int]:
    """Pivot columns of a full-row-rank matrix over F3 (row echelon)."""
    a = mat.astype(np.int64) % 3
    rows, cols = a.shape
    pivots, r = [], 0
    for col in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        k = r + nz[0]
        a[[r, k]] = a[[k, r]]
        a[r] = a[r] * a[r, col] % 3  # 1*1 = 2*2 = 1 mod 3: scale to pivot 1
        below = a[r + 1 :, col].copy()
        a[r + 1 :] = (a[r + 1 :] - below[:, None] * a[r]) % 3
        pivots.append(col)
        r += 1
    if r != rows:
        raise ValueError("planting system is rank deficient")
    return pivots


def _f3_inverse(a: np.ndarray) -> np.ndarray:
    m = a.shape[0]
    aug = np.concatenate([a.astype(np.int64) % 3, np.eye(m, dtype=np.int64)], axis=1)
    for col in range(m):
        k = col + np.nonzero(aug[col:, col])[0][0]
        aug[[col, k]] = aug[[k, col]]
        aug[col] = aug[col] * aug[col, col] % 3
        factors = aug[:, col].copy()
        factors[col] = 0
        aug = (aug - factors[:, None] * aug[col]) % 3
    return aug[:, m:]


def _weighted_trits(n: int, w: int, gen: np.random.Generator) -> np.ndarray:
    s = np.zeros(n, dtype=np.uint8)
    s[gen.choice(n, size=w, replace=False)] = gen.integers(1, 3, size=w, dtype=np.uint8)
    return s


def plant_wave(params: wv.WaveParams, count: int, seed: int) -> WaveInstance:
    """Planted Wave key: uniform R except ``count`` <= k rows solved over
    F3 so that the sampled weight-w signatures verify (needs w < n)."""
    rng = Random(seed)
    gen = np.random.default_rng(seed)
    n, k, nk = params.n, params.k, params.redundancy
    sigs = []
    for _ in range(count):
        salt = rng.randbytes(wv.SALT_BYTES)
        message = b"wave-%d" % rng.getrandbits(64)
        sigs.append((message, salt, _weighted_trits(n, params.w, gen)))
    tails = np.array([s[nk:] for _, _, s in sigs], dtype=np.int64)  # (count, k)
    rows = _f3_pivots(tails)

    r_mat = gen.integers(0, 3, size=(k, nk), dtype=np.uint8)
    r_mat[rows] = 0
    # tails @ R in float32, 512 rows of R at a time to bound memory; every
    # sum stays below 4k < 2^24, so the float products are exact.
    acc = np.zeros((count, nk), dtype=np.int64)
    tails32 = tails.astype(np.float32)
    for start in range(0, k, 512):
        block = r_mat[start : start + 512].astype(np.float32)
        acc += (tails32[:, start : start + 512] @ block).astype(np.int64)
    # Honest iff s_head - h + s_tail @ R = 0 over F3.
    heads = np.array([s[:nk] for _, _, s in sigs], dtype=np.int64)
    hashes = np.array([wv.hash_to_trits(m, salt, nk) for m, salt, _ in sigs], dtype=np.int64)
    rhs = (hashes - heads - acc) % 3
    r_mat[rows] = (_f3_inverse(tails[:, rows]) @ rhs % 3).astype(np.uint8)
    pk = TernaryMatrix.from_array(r_mat)

    honest, tampered, gate = [], [], []
    for message, salt, s in sigs:
        honest.append(Request(HONEST, message, wv.WaveSignature.from_trits(salt, s)))
        swapped = s.copy()
        i = gen.choice(np.flatnonzero(swapped))
        swapped[i] = 3 - swapped[i]  # 1 <-> 2, weight kept
        tampered.append(Request(TAMPERED, message, wv.WaveSignature.from_trits(salt, swapped)))
        heavy = s.copy()
        heavy[gen.choice(np.flatnonzero(heavy == 0))] = 1  # weight w + 1
        gate.append(Request(GATE, message, wv.WaveSignature.from_trits(salt, heavy)))
    return WaveInstance(params, pk.data, honest, tampered, gate)
