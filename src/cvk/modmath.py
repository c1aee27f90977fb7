"""Scalar modular arithmetic on word-sized moduli and random prime sampling.

Everything downstream (CRT transfer, compressed verifiers) is built from
single-word modular operations: moduli fit 63 bits so that any product of
two reduced operands fits 126 bits, i.e. a double word.  No routine here
ever manipulates an integer wider than that.

Secret moduli (the verifier's hidden primes) reach ``inv_mod`` when a
Squirrels compression key is built; it runs a binary-gcd ladder for a
fixed number of divsteps, so its iteration count depends only on the
modulus width.
"""

import math
from random import Random
from typing import Collection, Iterable

from .errors import Exhausted, NotInvertible

# Moduli must leave double-width products inside two 63-bit words.
MAX_MODULUS_BITS = 63
MIN_PRIME_WIDTH = 8
MAX_PRIME_WIDTH = 62

# Deterministic Miller-Rabin witness set: correct for every n < 3.3e24,
# far above the 62-bit sampling cap.
DETERMINISTIC_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# The unique odd composite in (2^30, 2^31) that is a strong pseudoprime
# to bases 2, 3 and 5 simultaneously: 24061 * 48121.  The 31-bit sampler
# runs only those three bases and rejects this value by inequality.
STRONG_PSEUDOPRIME_31BIT_EXCEPTION = 1157839381

# Exact count of 31-bit primes, pi(2^31) - pi(2^30).  Known from prime
# tables; used wherever a bound needs the true size of the 31-bit pool.
PRIME_COUNT_31BIT = 50_697_537


def check_modulus(m: int) -> int:
    """Validate a word modulus: odd (or the prime 2), below 2^63.

    The prime 2 is admitted because squarefree toy determinants may be
    even; every *sampled* (secret) modulus is odd.
    """
    if not isinstance(m, int):
        raise TypeError(f"modulus must be int, got {type(m).__name__}")
    if m == 2:
        return m
    if m <= 2 or m >= (1 << MAX_MODULUS_BITS):
        raise ValueError(f"modulus {m} outside (2, 2^63)")
    if m % 2 == 0:
        raise ValueError(f"modulus {m} must be odd")
    return m


def _divsteps_for_bits(bits: int) -> int:
    # Iteration bound for the safegcd-style ladder below; a few spare
    # iterations are harmless (once g == 0 the state is stable).
    if bits <= 46:
        return (49 * bits + 80) // 17 + 4
    return (49 * bits + 57) // 17 + 4


def inv_mod(a: int, m: int) -> int:
    """a^-1 mod m via a fixed-iteration binary extended gcd.

    Runs the divstep ladder exactly ``_divsteps_for_bits(m.bit_length())``
    times regardless of operand values, so the trip count leaks only the
    (public) modulus width.  Requires m odd; m == 2 is special-cased.

    Raises:
        NotInvertible: if gcd(a, m) != 1.
    """
    if m == 2:
        if a & 1:
            return 1
        raise NotInvertible(f"{a} has no inverse mod 2")
    if m <= 2 or m % 2 == 0:
        raise ValueError(f"inv_mod needs an odd modulus, got {m}")
    a %= m

    def half_mod(x: int) -> int:
        # x/2 mod m for odd m: add m first when x is odd.
        return (x + m * (x & 1)) >> 1

    delta, f, g, d, e = 1, m, a, 0, 1
    for _ in range(_divsteps_for_bits(m.bit_length())):
        if delta > 0 and g & 1:
            delta, f, g, d, e = 1 - delta, g, (g - f) >> 1, e, half_mod(e - d)
        elif g & 1:
            delta, f, g, d, e = 1 + delta, f, (g + f) >> 1, d, half_mod(e + d)
        else:
            delta, f, g, d, e = 1 + delta, f, g >> 1, d, half_mod(e)
    # f holds +-gcd(a, m); d holds the candidate inverse scaled by sign(f).
    inv = d * f % m
    if a * inv % m != 1:
        raise NotInvertible(f"gcd({a}, {m}) != 1")
    return inv


def is_strong_pseudoprime(r: int, a: int) -> bool:
    """Strong (Miller-Rabin) pseudoprimality of odd r > 2 to base a.

    With r - 1 = d * 2^u, true iff a^d = 1 or a^(d*2^v) = -1 (mod r) for
    some 0 <= v < u.  Every odd prime passes for every base.
    """
    if r <= 2 or r % 2 == 0:
        raise ValueError(f"r must be odd and > 2, got {r}")
    if not 1 < a < r:
        raise ValueError(f"base must satisfy 1 < a < r, got {a}")
    d = r - 1
    u = 0
    while d % 2 == 0:
        d //= 2
        u += 1
    x = pow(a, d, r)
    if x == 1 or x == r - 1:
        return True
    for _ in range(u - 1):
        x = x * x % r
        if x == r - 1:
            return True
    return False


def is_prime_word(n: int) -> bool:
    """Deterministic primality for word-sized n (< 2^63)."""
    if n < 2:
        return False
    for p in DETERMINISTIC_MR_BASES:
        if n == p:
            return True
        if n % p == 0:
            return False
    return all(is_strong_pseudoprime(n, a) for a in DETERMINISTIC_MR_BASES)


def sample_prime(
    width: int,
    rng: Random,
    exclude: Collection[int] = (),
    max_draws: int | None = None,
) -> int:
    """Sample a uniform prime r with 2^(width-1) < r < 2^width.

    Candidates are drawn uniformly over odd ``width``-bit integers.  At
    width 31 a candidate is accepted iff it is a strong pseudoprime to
    bases 2, 3 and 5 and differs from the single composite exception to
    that test; at every other width the full deterministic witness set
    is used (the three-base shortcut is a 31-bit fact only).

    Raises:
        Exhausted: after ``max_draws`` candidates (default 10 * 2^width
            / width) without an acceptable prime.
    """
    if not MIN_PRIME_WIDTH <= width <= MAX_PRIME_WIDTH:
        raise ValueError(f"prime width must be in [8, 62], got {width}")
    if max_draws is None:
        max_draws = max(64, (10 << width) // width)
    excluded = frozenset(exclude)
    top = 1 << (width - 1)
    for _ in range(max_draws):
        candidate = top | rng.getrandbits(width - 1) | 1
        if candidate in excluded:
            continue
        if width == 31:
            if candidate == STRONG_PSEUDOPRIME_31BIT_EXCEPTION:
                continue
            if all(is_strong_pseudoprime(candidate, a) for a in (2, 3, 5)):
                return candidate
        elif is_prime_word(candidate):
            return candidate
    raise Exhausted(f"no {width}-bit prime found in {max_draws} draws")


def sample_distinct_primes(
    width: int,
    count: int,
    rng: Random,
    exclude: Iterable[int] = (),
) -> tuple[int, ...]:
    """Sample ``count`` distinct primes of the given width."""
    taken = set(exclude)
    out = []
    for _ in range(count):
        r = sample_prime(width, rng, exclude=taken)
        taken.add(r)
        out.append(r)
    return tuple(out)


def count_primes_bounds(mu: int) -> tuple[float, float]:
    """Dusart bounds on the number of exactly-mu-bit primes.

    Returns (0.975 * 2^(mu-1) / ((mu-1) ln 2),  2^(mu-1) / ((mu-1) ln 2)).
    Valid for mu >= 8; smaller widths are rejected rather than returning
    a vacuous interval.
    """
    if mu < MIN_PRIME_WIDTH:
        raise ValueError(f"prime-count bounds need mu >= 8, got {mu}")
    upper = 2.0 ** (mu - 1) / ((mu - 1) * math.log(2))
    return 0.975 * upper, upper


def is_quadratic_residue(a: int, p: int) -> bool:
    """Euler criterion for odd prime p; nonzero a."""
    return pow(a % p, (p - 1) // 2, p) == 1


def sqrt_mod(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Raises:
        ValueError: if a is not a quadratic residue mod p.
    """
    a %= p
    if a == 0:
        return 0
    if not is_quadratic_residue(a, p):
        raise ValueError(f"{a} is not a square mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # Tonelli-Shanks: write p - 1 = q * 2^s with q odd.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while is_quadratic_residue(z, p):
        z += 1
    c = pow(z, q, p)
    x = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        x = x * b % p
        t = t * b * b % p
        c = b * b % p
        m = i
    return x
