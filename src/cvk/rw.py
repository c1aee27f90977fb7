"""Rabin-Williams signatures with compressed verification.

The pedagogical instance of the compression pattern: a signature is a
tuple (e, f, salt, s, t) with e*f*s^2 - t*N equal to the hashed message
over the integers.  The full verifier checks the congruence mod N; the
compressed verifier keeps only a secret prime ell and N mod ell, and
checks the same relation mod ell.  A forger who knows ell can split the
two verifiers, which is exactly the distinguisher used in the tests.

Toy moduli only (64..512 bits): this module leans on Python integers as
its big-number layer and doubles as the big-int oracle for the schemes
that genuinely avoid multiprecision arithmetic.
"""

import hashlib
import math
from dataclasses import dataclass
from random import Random

from .errors import MalformedSignature, ResampleLimit
from .modmath import (
    MAX_PRIME_WIDTH,
    MIN_PRIME_WIDTH,
    PRIME_COUNT_31BIT,
    count_primes_bounds,
    inv_mod,
    is_prime_word,
    is_quadratic_residue,
    sample_prime,
    sqrt_mod,
)

SALT_BYTES = 16
MIN_MODULUS_BITS = 64
MAX_MODULUS_BITS = 512


@dataclass(frozen=True)
class RwKeypair:
    """p = 3 (mod 8), q = 7 (mod 8), n = p*q."""

    p: int
    q: int

    def __post_init__(self):
        if self.p % 8 != 3:
            raise ValueError(f"p must be 3 mod 8, got {self.p} = {self.p % 8} (mod 8)")
        if self.q % 8 != 7:
            raise ValueError(f"q must be 7 mod 8, got {self.q} = {self.q % 8} (mod 8)")

    @property
    def n(self) -> int:
        return self.p * self.q


def check_modulus_width(n_bits: int) -> None:
    """A modulus width ``rw_keygen`` makes, which ``encode_rw_vk`` stores
    in 16 bits."""
    if not MIN_MODULUS_BITS <= n_bits <= MAX_MODULUS_BITS:
        raise ValueError(f"modulus width {n_bits} not in [{MIN_MODULUS_BITS}, {MAX_MODULUS_BITS}]")


def check_modulus(n: int) -> int:
    """An N of the shape ``rw_keygen`` makes: a width ``check_modulus_width``
    accepts, and p*q = 3*7 = 5 (mod 8)."""
    check_modulus_width(n.bit_length())
    if n % 8 != 5:
        raise ValueError(f"N = {n % 8} (mod 8), expected 5")
    return n


def check_keypair(kp: RwKeypair) -> RwKeypair:
    """p and q prime, under an N that ``check_modulus`` accepts, which
    first bounds the cost of the primality tests."""
    check_modulus(kp.n)
    if not (is_prime_word(kp.p) and is_prime_word(kp.q)):
        raise ValueError("p and q must be prime")
    return kp


def check_ell(ell: int) -> int:
    """A prime of a width ``rw_ckeygen`` draws; with ell = 1
    ``rw_cverify`` would accept anything."""
    width_ok = 1 << (MIN_PRIME_WIDTH - 1) < ell < 1 << MAX_PRIME_WIDTH
    if not (width_ok and is_prime_word(ell)):
        raise ValueError(f"ell = {ell} is not a compression-key prime")
    return ell


@dataclass(frozen=True)
class RwSignature:
    e: int  # -1 or 1
    f: int  # 1 or 2
    salt: bytes
    s: int
    t: int


@dataclass(frozen=True)
class RwVerificationKey:
    """The compressed verifier's entire state.

    ``n_bits`` (the public modulus width) rides along so the verifier
    can evaluate the fixed-width message hash without ever seeing N.
    """

    ell: int
    n_ell: int
    n_bits: int


def message_digest(salt: bytes, message: bytes, n_bits: int) -> int:
    """XOF digest of salt||message as an integer in [0, N).

    Width is pinned to n_bits - 2, so the value is under N/2 for any
    modulus of the stated bit length and both verifiers can recompute it
    from public data alone.
    """
    width = n_bits - 2
    raw = hashlib.shake_256(salt + message).digest((width + 7) // 8)
    return int.from_bytes(raw, "little") & ((1 << width) - 1)


def _sample_congruent_prime(bits: int, residue: int, rng: Random) -> int:
    # Top two bits forced so that p*q has exactly the requested width.
    for _ in range(40 * bits):
        c = (0b11 << (bits - 2)) | rng.getrandbits(bits - 2)
        c += (residue - c) % 8
        if c.bit_length() != bits:
            continue
        if is_prime_word(c):
            return c
    raise ResampleLimit("prime search ran too long")  # pragma: no cover


def rw_keygen(bits: int = 128, rng: Random | None = None) -> RwKeypair:
    """Toy Rabin-Williams keypair with an exactly ``bits``-wide modulus."""
    check_modulus_width(bits)
    rng = rng or Random()
    half = bits // 2
    while True:
        p = _sample_congruent_prime(half, 3, rng)
        q = _sample_congruent_prime(bits - half, 7, rng)
        if p != q and (p * q).bit_length() == bits:
            return RwKeypair(p, q)


def rw_sign(sk: RwKeypair, message: bytes, rng: Random) -> RwSignature:
    """Sign so that e*f*s^2 - t*N = digest(salt||message) exactly.

    Under the p = 3, q = 7 (mod 8) convention, exactly one of
    {h, -h, 2h, -2h} is a square mod N; (e, f) are read off the Legendre
    symbols of h, after which s is a CRT-combined square root and t the
    exact integer quotient.
    """
    p, q, n = sk.p, sk.q, sk.n
    n_bits = n.bit_length()
    while True:
        salt = rng.randbytes(SALT_BYTES)
        h = message_digest(salt, message, n_bits)
        if h == 0 or math.gcd(h, n) != 1:
            continue
        chi_p = 1 if is_quadratic_residue(h, p) else -1
        chi_q = 1 if is_quadratic_residue(h, q) else -1
        # Characters of the tweaks: -1 -> (-1,-1), 2 -> (-1,+1), -2 -> (+1,-1).
        e, f = {
            (1, 1): (1, 1),
            (-1, -1): (-1, 1),
            (-1, 1): (1, 2),
            (1, -1): (-1, 2),
        }[(chi_p, chi_q)]
        u = h * inv_mod(e * f % n, n) % n
        sp = pow(u % p, (p + 1) // 4, p)
        sq = pow(u % q, (q + 1) // 4, q)
        s = (sp * q * inv_mod(q % p, p) + sq * p * inv_mod(p % q, q)) % n
        if not 1 < s < n:
            continue
        t, rem = divmod(e * f * s * s - h, n)
        assert rem == 0
        return RwSignature(e=e, f=f, salt=salt, s=s, t=t)


def _check_shape(sig: RwSignature, n: int) -> None:
    """Public range gate; ``n`` is N, or 2^n_bits when only the VK is held."""
    if sig.e not in (-1, 1):
        raise MalformedSignature(f"e must be +-1, got {sig.e}")
    if sig.f not in (1, 2):
        raise MalformedSignature(f"f must be 1 or 2, got {sig.f}")
    if not 1 < sig.s < n:
        raise MalformedSignature("s out of range (1, N)")
    if not -2 * n < sig.t < 2 * n:
        raise MalformedSignature("t out of range (-2N, 2N)")


def rw_verify(sig: RwSignature, message: bytes, n: int) -> bool:
    """Full verification: e*f*s^2 = digest (mod N), the residual mod N."""
    _check_shape(sig, n)
    return rw_residual(sig, message, n) % n == 0


def rw_ckeygen(mu: int, rng: Random) -> int:
    """Compression key: a secret mu-bit prime."""
    return sample_prime(mu, rng)


def rw_vkeygen(ck: int, pk: int) -> RwVerificationKey:
    """Verification key (ell, N mod ell).  The same ell may be reused
    across distinct public keys.

    ``check_ell`` refuses the CK; N goes unchecked, so a key can be
    installed on a modulus ``rw_keygen`` does not make."""
    return RwVerificationKey(ell=check_ell(ck), n_ell=pk % ck, n_bits=pk.bit_length())


def rw_cverify(sig: RwSignature, message: bytes, vk: RwVerificationKey) -> bool:
    """Compressed verification: e*f*s^2 - t*N = digest (mod ell)."""
    ell = vk.ell
    _check_shape(sig, 1 << vk.n_bits)
    h = message_digest(sig.salt, message, vk.n_bits)
    s_l = sig.s % ell
    t_l = sig.t % ell
    return (sig.e * sig.f * s_l * s_l - t_l * vk.n_ell - h) % ell == 0


def rw_residual(sig: RwSignature, message: bytes, n: int) -> int:
    """e*f*s^2 - t*N - digest over the integers: zero for honest
    signatures, a nonzero multiple of ell for an ell-forgery."""
    h = message_digest(sig.salt, message, n.bit_length())
    return sig.e * sig.f * sig.s * sig.s - sig.t * n - h


def rw_forge_known_ell(ell: int, message: bytes, pk: int, rng: Random) -> RwSignature:
    """An adversary holding ell defeats the compressed verifier.

    Scan t until digest + t*N is a square mod ell, take its modular
    square root as s; the congruence holds mod ell by construction but
    fails over the integers, so the full verifier still rejects.
    """
    n_bits = pk.bit_length()
    while True:
        salt = rng.randbytes(SALT_BYTES)
        h = message_digest(salt, message, n_bits)
        for t in range(64):
            x = (h + t * pk) % ell
            if x == 0 or not is_quadratic_residue(x, ell):
                continue
            s = sqrt_mod(x, ell)
            if s < 2:
                s = ell - s
            if s < 2:
                continue
            return RwSignature(e=1, f=1, salt=salt, s=s, t=t)


def rw_forgery_bound(pk: int, mu: int, queries: int) -> float:
    """Probability bound 2*kappa*Q / #Primes(mu) on an adversary landing
    a forgery past the compressed verifier in Q attempts, kappa the
    number of mu-bit primes that can divide one residual.

    Uses the exact 31-bit prime count where it is known, otherwise the
    conservative Dusart lower estimate.
    """
    if queries < 0:
        raise ValueError("query count must be non-negative")
    kappa = int(math.log2(pk) / mu)
    if mu == 31:
        prime_count = float(PRIME_COUNT_31BIT)
    else:
        prime_count = count_primes_bounds(mu)[0]
    return 2 * kappa * queries / prime_count
