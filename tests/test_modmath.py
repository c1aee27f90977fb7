import math
from random import Random

import numpy as np
import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

from cvk.errors import NotInvertible, ResampleLimit
from cvk import modmath as mm

odd_moduli = st.integers(min_value=3, max_value=(1 << 63) - 1).map(lambda m: m | 1)


def test_inv_mod_trivial_and_derived():
    assert mm.inv_mod(1, 101) == 1
    assert mm.inv_mod(2, 7) == 4
    # 35 reduces to 2 mod 3; its inverse is 2 (part of the CRT setup
    # worked example).
    assert mm.inv_mod(35 % 3, 3) == 2


def test_inv_mod_rejects_non_units():
    with pytest.raises(NotInvertible):
        mm.inv_mod(6, 9)
    with pytest.raises(NotInvertible):
        mm.inv_mod(0, 7)


def test_inv_mod_two():
    assert mm.inv_mod(1, 2) == 1
    with pytest.raises(NotInvertible):
        mm.inv_mod(0, 2)


@given(odd_moduli, st.data())
def test_inv_mod_property(m, data):
    a = data.draw(st.integers(min_value=1, max_value=m - 1))
    if math.gcd(a, m) != 1:
        with pytest.raises(NotInvertible):
            mm.inv_mod(a, m)
    else:
        assert a * mm.inv_mod(a, m) % m == 1


def test_inv_mod_bulk_random_coprime_pairs():
    # Module invariant: 1e5 random coprime pairs across widths.
    rng = Random(2)
    done = 0
    while done < 100_000:
        m = rng.getrandbits(rng.randrange(4, 63)) | 1
        if m < 3:
            continue
        a = rng.randrange(1, m)
        if math.gcd(a, m) != 1:
            continue
        assert a * mm.inv_mod(a, m) % m == 1
        done += 1


def test_strong_pseudoprime_25_base_7():
    assert mm.is_strong_pseudoprime(25, 7)
    assert not sympy.isprime(25)


def test_strong_pseudoprime_primes_always_pass():
    for p in sympy.primerange(5, 2000):
        assert mm.is_strong_pseudoprime(int(p), 2)
        assert mm.is_strong_pseudoprime(int(p), 3)


def test_strong_pseudoprime_composites_mostly_fail():
    assert not mm.is_strong_pseudoprime(15, 2)
    assert not mm.is_strong_pseudoprime(1105, 2)  # Carmichael, caught by strong test


def test_31bit_exception_value():
    # The single composite passing bases 2, 3 and 5 in the 31-bit range.
    n = 1157839381
    assert n == 24061 * 48121
    assert all(mm.is_strong_pseudoprime(n, a) for a in (2, 3, 5))
    assert not sympy.isprime(n)


def test_is_prime_word_matches_sieve():
    limit = 1 << 20
    sieve = np.ones(limit, dtype=bool)
    sieve[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if sieve[i]:
            sieve[i * i :: i] = False
    got = np.fromiter(map(mm.is_prime_word, range(limit)), dtype=bool, count=limit)
    assert np.array_equal(got, sieve)


@pytest.mark.parametrize("bits", [31, 32, 33, 48, 62])
def test_is_prime_word_matches_sympy(bits):
    rng = Random(bits)
    primes = 0
    for _ in range(3000):
        n = rng.getrandbits(bits) | 1 << (bits - 1) | 1
        expected = sympy.isprime(n)
        assert mm.is_prime_word(n) == expected, n
        primes += expected
    assert primes > 0


# Composites at the edge of each base set: the least strong pseudoprimes
# to the first 1, 2, 3 and 4 prime bases; the one odd 31-bit composite
# that passes bases 2, 3 and 5; the least that passes every prime base up
# to 31; and the least that passes 2, 7 and 61, which lies just above 2^32.
STRONG_PSEUDOPRIMES = (
    2047, 1373653, 25326001, 3215031751, 1157839381, 3825123056546413051, 4759123141,
)


@pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
def test_is_prime_word_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not mm.is_prime_word(n)


def test_word32_bases_switch_at_two_to_the_32():
    n = 4759123141
    assert 1 << 32 < n
    assert all(mm.is_strong_pseudoprime(n, a) for a in mm.WORD32_MR_BASES)


def _sample_prime_removed_rule(width, rng, exclude=()):
    """The sampler's rule before ``is_prime_word`` was its only test: bases
    2, 3 and 5 plus the one composite exception at width 31, otherwise
    trial division by the twelve bases and all twelve base tests."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    top = 1 << (width - 1)
    while True:
        candidate = top | rng.getrandbits(width - 1) | 1
        if candidate in exclude:
            continue
        if width == 31:
            if candidate != 1157839381 and all(
                mm.is_strong_pseudoprime(candidate, a) for a in (2, 3, 5)
            ):
                return candidate
        elif all(candidate % a for a in bases) and all(
            mm.is_strong_pseudoprime(candidate, a) for a in bases
        ):
            return candidate


def test_sample_prime_matches_removed_rule():
    for width in range(mm.MIN_PRIME_WIDTH, mm.MAX_PRIME_WIDTH + 1):
        for seed in range(4):
            new, old = Random(seed), Random(seed)
            taken = set()
            for _ in range(6):
                r = mm.sample_prime(width, new, exclude=taken)
                assert r == _sample_prime_removed_rule(width, old, taken), (width, seed)
                taken.add(r)


def test_sample_distinct_primes_draws_as_one_prime_at_a_time():
    # One exclusion set for the whole call draws the same primes, and
    # leaves the generator in the same state, as one sample_prime call
    # per prime with the primes drawn so far excluded.
    for width, count, exclude in ((8, 20, {131, 137}), (16, 11, ()), (31, 11, (2147483647,))):
        for seed in range(3):
            whole, single = Random(seed), Random(seed)
            taken, expected = set(exclude), []
            for _ in range(count):
                expected.append(mm.sample_prime(width, single, exclude=taken))
                taken.add(expected[-1])
            assert mm.sample_distinct_primes(width, count, whole, exclude) == tuple(expected)
            assert whole.getstate() == single.getstate()


class _ForcedCandidateRng(Random):
    """Yields randbits making the sampler's first candidates hit a
    scripted list, then falls back to the seeded stream."""

    def __new__(cls, forced, width, seed=0):
        return super().__new__(cls, seed)

    def __init__(self, forced, width, seed=0):
        super().__init__(seed)
        top = 1 << (width - 1)
        self._queue = [f ^ top for f in forced]

    def getrandbits(self, k):
        if self._queue:
            return self._queue.pop(0)
        return super().getrandbits(k)


def test_sample_prime_rejects_31bit_exception():
    bad = 1157839381
    rng = _ForcedCandidateRng([bad], 31, seed=7)
    r = mm.sample_prime(31, rng)
    assert r != bad
    assert sympy.isprime(r)


def test_sample_prime_candidates_always_odd():
    # Even raw draws are forced odd before testing; the sampler can
    # never return an even value.
    rng = _ForcedCandidateRng([2**30 + 4, 2**30 + 16], 31, seed=9)
    assert mm.sample_prime(31, rng) % 2 == 1


@pytest.mark.parametrize("width", [8, 12, 16, 31, 48, 62])
def test_sample_prime_oracle(width):
    rng = Random(width)
    for _ in range(200):
        r = mm.sample_prime(width, rng)
        assert 2 ** (width - 1) < r < 2**width
        assert sympy.isprime(r)


def test_sample_prime_every_supported_width():
    rng = Random(8062)
    for width in range(mm.MIN_PRIME_WIDTH, mm.MAX_PRIME_WIDTH + 1):
        for _ in range(20):
            r = mm.sample_prime(width, rng)
            assert 2 ** (width - 1) < r < 2**width
            assert sympy.isprime(r)


def test_sample_prime_respects_exclusions():
    rng = Random(3)
    seen = set()
    for _ in range(40):
        r = mm.sample_prime(10, rng, exclude=seen)
        assert r not in seen
        seen.add(r)


def test_sample_prime_exhausted():
    every_8bit_prime = {int(p) for p in sympy.primerange(129, 256)}
    with pytest.raises(ResampleLimit):
        mm.sample_prime(8, Random(0), exclude=every_8bit_prime)


def test_sample_prime_width_bounds():
    with pytest.raises(ValueError):
        mm.sample_prime(7, Random(0))
    with pytest.raises(ValueError):
        mm.sample_prime(63, Random(0))


def test_count_primes_bounds_31():
    lo, hi = mm.count_primes_bounds(31)
    assert lo < mm.PRIME_COUNT_31BIT < hi


def test_count_primes_bounds_domain_guard():
    with pytest.raises(ValueError):
        mm.count_primes_bounds(2)


def test_count_primes_bounds_128_vs_mpmath():
    import mpmath

    lo, hi = mm.count_primes_bounds(128)
    expected_hi = mpmath.mpf(2) ** 127 / (127 * mpmath.log(2))
    assert hi == pytest.approx(float(expected_hi), rel=1e-12)
    assert lo == pytest.approx(float(expected_hi) * 0.975, rel=1e-12)
    assert lo < hi
    assert 120.0 < math.log2(lo) < math.log2(hi) < 121.0


@given(st.integers(min_value=8, max_value=900))
def test_count_primes_bounds_ordering(mu):
    lo, hi = mm.count_primes_bounds(mu)
    assert 0 < lo < hi


@given(st.sampled_from([11, 13, 101, 65537, 2147483647]), st.data())
def test_sqrt_mod_roundtrip(p, data):
    x = data.draw(st.integers(min_value=1, max_value=p - 1))
    square = x * x % p
    root = mm.sqrt_mod(square, p)
    assert root * root % p == square


def test_sqrt_mod_rejects_nonresidue():
    with pytest.raises(ValueError):
        mm.sqrt_mod(5, 13)  # 5 is not a square mod 13
