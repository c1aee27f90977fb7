"""Scalar modular arithmetic on word-sized moduli and random prime sampling.

Everything downstream (CRT transfer, compressed verifiers) is built from
single-word modular operations: moduli fit 63 bits so that any product of
two reduced operands fits 126 bits, i.e. a double word.  No routine here
ever manipulates an integer wider than that.

Secret moduli (the verifier's hidden primes) reach ``inv_mod`` when a
Squirrels compression key is built; it runs a binary-gcd ladder for a
fixed number of divsteps, so its iteration count depends only on the
modulus width.

``is_prime_word`` is the one primality rule: every prime that is
sampled (Squirrels and Rabin-Williams secret primes, RW key halves) or
loaded (public and secret prime bases, RW compression and signing keys)
passes through it.  After trial division by the primes up to 61 it runs
strong-pseudoprime tests: bases 2, 7 and 61 below 2^32, exact there
because the least composite passing all three is 4,759,123,141 > 2^32
(Jaeschke, "On strong pseudoprimes to several bases", Math. Comp. 61,
1993); the twelve prime bases 2..37 from 2^32 up, exact below
psi_12 = 318,665,857,834,031,151,167,461 ~ 3.2e23 (Sorenson and
Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 86,
2017).  Above psi_12, reached only by Rabin-Williams key halves wider
than 78 bits, it is a probable-prime test: psi_12 itself passes, and
a composite built to pass all twelve bases would too.
"""

import math
from random import Random
from typing import Collection, Iterable

from .errors import NotInvertible, ResampleLimit

# Moduli must leave double-width products inside two 63-bit words.
MAX_MODULUS_BITS = 63
MIN_PRIME_WIDTH = 8
MAX_PRIME_WIDTH = 62

# Strong-pseudoprime bases of ``is_prime_word``: the first set is exact
# below 2^32, the second below psi_12 ~ 3.2e23, far above the 62-bit
# sampling cap (see the module docstring).
WORD32_MR_BASES = (2, 7, 61)
DETERMINISTIC_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

# Trial divisors: every n that reaches a base test exceeds every base.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)
_SMALL_PRIMORIAL = math.prod(_SMALL_PRIMES)

# Exact count of 31-bit primes, pi(2^31) - pi(2^30).  Known from prime
# tables; used wherever a bound needs the true size of the 31-bit pool.
PRIME_COUNT_31BIT = 50_697_537


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
    delta, f, g, d, e = 1, m, a, 0, 1
    for _ in range(_divsteps_for_bits(m.bit_length())):
        if delta > 0 and g & 1:
            delta, f, g, d, e = 1 - delta, g, (g - f) >> 1, e, e - d
        elif g & 1:
            delta, g, e = 1 + delta, (g + f) >> 1, e + d
        else:
            delta, g = 1 + delta, g >> 1
        e = (e + m * (e & 1)) >> 1  # e/2 mod m for odd m: add m first when e is odd
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
    """Primality of n: exact below psi_12 ~ 3.2e23, which covers every
    word (< 2^63); a twelve-base probable-prime test above it.

    Trial division by the primes up to 61, then bases 2, 7 and 61 below
    2^32 and the twelve prime bases 2..37 from 2^32 up.
    """
    if n <= _SMALL_PRIMES[-1]:
        return n in _SMALL_PRIMES
    if math.gcd(n, _SMALL_PRIMORIAL) != 1:
        return False
    bases = WORD32_MR_BASES if n < 1 << 32 else DETERMINISTIC_MR_BASES
    return all(is_strong_pseudoprime(n, a) for a in bases)


def sample_prime(width: int, rng: Random, exclude: Collection[int] = ()) -> int:
    """Sample a uniform prime r with 2^(width-1) < r < 2^width outside
    ``exclude``: one draw of ``sample_distinct_primes``.

    Raises:
        ResampleLimit: after 10 * 2^width / width candidates (at least 64)
            without a prime outside ``exclude``.
    """
    (prime,) = sample_distinct_primes(width, 1, rng, exclude)
    return prime


def sample_distinct_primes(
    width: int,
    count: int,
    rng: Random,
    exclude: Iterable[int] = (),
) -> tuple[int, ...]:
    """Sample ``count`` distinct uniform primes of the given width outside
    ``exclude``.

    Candidates are drawn uniformly over odd ``width``-bit integers and
    accepted by ``is_prime_word``, exact at every supported width.  The
    exclusion set is built once per call and grows by each prime drawn.

    Raises:
        ResampleLimit: after 10 * 2^width / width candidates (at least 64)
            without a new prime.
    """
    if not MIN_PRIME_WIDTH <= width <= MAX_PRIME_WIDTH:
        raise ValueError(f"prime width must be in [8, 62], got {width}")
    max_draws = max(64, (10 << width) // width)
    taken = set(exclude)
    top = 1 << (width - 1)
    out = []
    for _ in range(count):
        for _ in range(max_draws):
            candidate = top | rng.getrandbits(width - 1) | 1
            if candidate not in taken and is_prime_word(candidate):
                break
        else:
            raise ResampleLimit(f"no {width}-bit prime found in {max_draws} draws")
        taken.add(candidate)
        out.append(candidate)
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
