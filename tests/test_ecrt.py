import dataclasses
import math
from dataclasses import replace
import tracemalloc
from fractions import Fraction
from itertools import accumulate
from random import Random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cvk import ecrt
from cvk import squirrels as sq
from cvk.ecrt import (
    PrimeBasis,
    RnsResidues,
    approx_floor,
    mod_ecrt,
    mod_ecrt_combine,
    mod_ecrt_reduce,
    mod_ecrt_rows,
    mod_ecrt_setup,
    q_coefficients,
)
from cvk.errors import SharedFactor
from cvk.modmath import is_prime_word, sample_distinct_primes, sample_prime
from oracles import check_bigint_transfer

SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _random_basis(rng, size, widths=(8, 10, 12, 16)):
    primes = set()
    while len(primes) < size:
        primes.add(sample_prime(rng.choice(widths), rng, exclude=primes))
    return PrimeBasis(tuple(sorted(primes)))


def _random_secret(rng, size, taken, widths=(12, 14, 16)):
    primes = set()
    while len(primes) < size:
        primes.add(sample_prime(rng.choice(widths), rng, exclude=primes | taken))
    return PrimeBasis(tuple(sorted(primes)))


# ── types ────────────────────────────────────────────────────────────────


def test_prime_basis_validation():
    with pytest.raises(ValueError):
        PrimeBasis((3, 3))
    with pytest.raises(ValueError):
        PrimeBasis((4, 5))
    with pytest.raises(ValueError):
        PrimeBasis(())
    PrimeBasis((2, 3))  # 2 is admitted


def test_residues_validation():
    basis = PrimeBasis((3, 5))
    with pytest.raises(ValueError):
        RnsResidues(basis, (0, 5))
    with pytest.raises(ValueError):
        RnsResidues(basis, (0,))
    assert RnsResidues.from_int(14, basis).values == (2, 4)


# ── q_coefficients ───────────────────────────────────────────────────────


def test_q_coefficients_single_prime():
    assert q_coefficients(PrimeBasis((13,))) == (1,)


def test_q_coefficients_3_5_7():
    assert q_coefficients(PrimeBasis((3, 5, 7))) == (2, 1, 1)


def test_q_coefficients_2_3():
    assert q_coefficients(PrimeBasis((2, 3))) == (1, 2)


@given(st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6, unique=True))
def test_q_coefficients_oracle(primes):
    basis = PrimeBasis(tuple(primes))
    product = math.prod(primes)
    qc = q_coefficients(basis)
    for q, p in zip(qc, primes):
        assert 0 < q < p or (p == 2 and q == 1)
        assert q * (product // p) % p == 1


@pytest.mark.parametrize("width,size", [(31, 165), (40, 12)])
def test_q_coefficients_bigint_oracle(width, size):
    # 31 bits at Squirrels I length; 40-bit primes are refused.
    basis = PrimeBasis(sample_distinct_primes(width, size, Random(width)))
    if width > 31:
        with pytest.raises(ValueError, match="not below 2\\^31"):
            q_coefficients(basis)
        return
    product = math.prod(basis.primes)
    assert q_coefficients(basis) == tuple(pow(product // p, -1, p) for p in basis.primes)


# ── mod_ecrt_setup ───────────────────────────────────────────────────────


def test_setup_frozen_example():
    pre = mod_ecrt_setup(PrimeBasis((3, 5, 7)), PrimeBasis((11, 13)))
    assert pre.weights.shape == (2, 4)
    assert pre.weights[:, -1].tolist() == [105 % 11, 105 % 13] == [6, 1]
    # cofactor of the first prime is 35
    assert pre.weights[:, 0].tolist() == [2, 9]
    # all three cofactors against a big-integer oracle
    for k, r in enumerate((11, 13)):
        for i, p in enumerate((3, 5, 7)):
            assert pre.weights[k, i] == (105 // p) % r


def test_setup_single_prime_is_trivial():
    pre = mod_ecrt_setup(PrimeBasis((7,)), PrimeBasis((11, 13)))
    assert pre.weights.tolist() == [[1, 7], [1, 7]]


def test_precomp_weights_are_read_only_and_owned():
    basis, secret = PrimeBasis((3, 5, 7)), PrimeBasis((11, 13))
    pre = mod_ecrt_setup(basis, secret)
    with pytest.raises(ValueError):
        pre.weights[0, 0] = 0
    source = pre.weights.copy()
    viewed = ecrt.EcrtPrecomp(secret, source[:, :])
    source[0, 0] += 1
    assert viewed == pre and hash(viewed) == hash(pre)
    assert dataclasses.replace(pre, weights=source) != pre
    with pytest.raises(ValueError):  # one row per secret prime
        ecrt.EcrtPrecomp(secret, source[:1])


def test_setup_precision_follows_basis_length():
    secret = PrimeBasis((11, 13))
    assert mod_ecrt_setup(PrimeBasis((7,)), secret).precision == 2
    assert mod_ecrt_setup(PrimeBasis((3, 5, 7)), secret).precision == 4  # ceil(log2 3) + 2


def test_setup_rejects_overlong_basis(monkeypatch):
    monkeypatch.setattr(ecrt, "MAX_BASIS_LEN", 2)
    with pytest.raises(ValueError):
        mod_ecrt_setup(PrimeBasis((3, 5, 7)), PrimeBasis((11,)))


def test_setup_shared_factor():
    with pytest.raises(SharedFactor):
        mod_ecrt_setup(PrimeBasis((3, 5, 7)), PrimeBasis((7, 11)))


def test_setup_oracle_random_instances(rng):
    for _ in range(40):
        basis = _random_basis(rng, rng.randrange(2, 9))
        secret = _random_secret(rng, rng.randrange(1, 5), set(basis.primes))
        pre = mod_ecrt_setup(basis, secret)
        product = math.prod(basis.primes)
        for k, r in enumerate(secret.primes):
            assert pre.weights[k, -1] == product % r
            for i, p in enumerate(basis.primes):
                assert pre.weights[k, i] == (product // p) % r


def _loop_setup(public, secret):
    """Per-prime accumulate loops: the scalar reference for the scans in
    ``mod_ecrt_setup``.  Returns the weights as lists, one per secret
    prime: the cofactor residues, then the product residue."""
    rows = []
    for r in secret.primes:
        units = [p % r for p in public.primes]
        before = list(accumulate(units[:-1], lambda a, b: a * b % r, initial=1))
        after = list(accumulate(units[:0:-1], lambda a, b: a * b % r, initial=1))[::-1]
        rows.append([a * b % r for a, b in zip(before, after)] + [before[-1] * units[-1] % r])
    return rows


@pytest.mark.parametrize(
    "public_width,secret_width,s,t",
    [
        (31, 31, 1, 3),
        (31, 31, 2, 1),
        (31, 31, 165, 5),  # Squirrels I
        (31, 31, 339, 11),  # Squirrels V
        (16, 30, 257, 2),  # one past a power of two
        (40, 31, 33, 4),  # public primes above 2^31: refused
        (31, 40, 33, 4),  # secret primes above 2^31: refused
        (62, 62, 9, 2),
    ],
)
def test_setup_matches_loop_oracle(public_width, secret_width, s, t):
    rng = Random(public_width * 1000 + s)
    public = PrimeBasis(sample_distinct_primes(public_width, s, rng))
    secret = PrimeBasis(sample_distinct_primes(secret_width, t, rng, exclude=public.primes))
    if max(public_width, secret_width) > 31:
        with pytest.raises(ValueError, match="not below 2\\^31"):
            mod_ecrt_setup(public, secret)
        return
    pre = mod_ecrt_setup(public, secret)
    assert pre.weights.tolist() == _loop_setup(public, secret)
    assert pre.weights.dtype == np.int64


def test_setup_oracle_165_prime_basis():
    rng = Random(165)
    primes = set()
    while len(primes) < 165:
        primes.add(sample_prime(31, rng, exclude=primes))
    basis = PrimeBasis(tuple(sorted(primes)))
    secret = _random_secret(rng, 5, set(basis.primes), widths=(31,))
    pre = mod_ecrt_setup(basis, secret)
    product = math.prod(basis.primes)
    for k, r in enumerate(secret.primes):
        assert pre.weights[k, -1] == product % r
        for i in (0, 42, 164):
            assert pre.weights[k, i] == (product // basis.primes[i]) % r


# ── approx_floor on reduced terms ────────────────────────────────────────
#
# ``floor_accumulate`` in these names is the per-term floor (u << a) // p
# that ``approx_floor`` accumulates.  Each input is an unreduced pair
# (x, q), reduced to u = x q mod p as ``mod_ecrt_rows`` reduces it, and
# ``approx_floor`` is checked against the restoring-division loop.


def _restoring_division_floor(u, p, precision):
    """Oracle: the quotient of u by p, then one fractional bit per step,
    doubling the remainder and counting its overflows past p."""
    acc, rem = u // p, u % p
    for _ in range(precision):
        rem <<= 1
        over = rem >= p
        rem -= p * over
        acc = (acc << 1) | over
    return acc


def _assert_floor_matches_oracle(x, q, p, precision):
    """Reduce u = x q mod p, then compare ``approx_floor`` with the sum of
    the oracle's per-term floors plus s, shifted down."""
    u = x * q % p
    got = approx_floor(u, p, precision)
    expected = (u.shape[1] + _restoring_division_floor(u, p, precision).sum(axis=1)) >> precision
    assert got.dtype == u.dtype
    assert np.array_equal(got, expected)
    return got


def test_floor_accumulate_zero():
    zero = np.zeros((1, 1), dtype=np.int64)
    p = np.array([7], dtype=np.int64)
    got = _assert_floor_matches_oracle(zero, np.array([3], dtype=np.int64), p, 5)
    assert got.tolist() == [0]


def test_floor_accumulate_frozen_examples():
    # x = (2, 2), q = (2, 3) against p = (3, 7) reduce to u = (1, 6).  At 3
    # fractional bits the terms are floor(8/3) = 2 and floor(48/7) = 6, so
    # the floor is (2 + 2 + 6) >> 3 = 1 = floor(1/3 + 6/7).
    x = np.array([[2, 2]], dtype=np.int64)
    q, p = np.array([2, 3], dtype=np.int64), np.array([3, 7], dtype=np.int64)
    assert _assert_floor_matches_oracle(x, q, p, 3).tolist() == [1]
    assert (x * q % p).tolist() == [[1, 6]]


@given(
    st.sampled_from(SMALL_PRIMES),
    st.integers(min_value=1, max_value=12),
    st.data(),
)
def test_floor_accumulate_rational_oracle(p, a, data):
    x = data.draw(st.integers(min_value=0, max_value=p - 1))
    q = data.draw(st.integers(min_value=1, max_value=p - 1))
    pv = np.array([p], dtype=np.int64)
    got = _assert_floor_matches_oracle(np.array([[x]]), np.array([q]), pv, a)
    # One term u/p < 1: the floor is 0, or 1 where u/p >= 1 - 1/2^a.
    u = Fraction(x * q % p, p)
    assert got.tolist() == [int(u >= 1 - Fraction(1, 2**a))]


def test_floor_accumulate_wide_operands():
    p = (1 << 61) - 1  # Mersenne prime
    x = np.array([[p - 2], [p - 1]], dtype=object)
    q = np.array([[p - 5], [1]], dtype=object)
    got = _assert_floor_matches_oracle(x, q, np.array([p], dtype=object), 20)
    assert got.tolist() == [0, 1]  # u = 10 and u = p - 1


@pytest.mark.parametrize("precision", range(2, ecrt.default_precision(ecrt.MAX_BASIS_LEN) + 1))
def test_floor_accumulate_matches_oracle_at_word_edge(precision):
    # p = 2^31 - 1 and x = p - 1, with q = p - 1 (u = 1) and with q = 1
    # (u = p - 1, each shifted term just below 2^(31 + a)).
    p = (1 << 31) - 1
    x = np.full((2, 4), p - 1, dtype=np.int64)
    q = np.array([[p - 1] * 4, [1] * 4], dtype=np.int64)
    _assert_floor_matches_oracle(x, q, np.full(4, p, dtype=np.int64), precision)


@pytest.mark.parametrize("s", [165, 339])
def test_floor_accumulate_matches_oracle_on_int64_blocks(s):
    rng = Random(s)
    np_rng = np.random.default_rng(s)
    p = np.array(sample_distinct_primes(31, s, rng), dtype=np.int64)
    x = np_rng.integers(0, p, size=(256, s))
    q = np_rng.integers(1, p)
    _assert_floor_matches_oracle(x, q, p, ecrt.default_precision(s))


def test_floor_accumulate_matches_oracle_on_object_arrays():
    rng = Random(40)
    s = 12
    primes = sample_distinct_primes(40, s, rng)
    p = np.array(primes, dtype=object)
    x = np.array([[rng.randrange(pi) for pi in primes] for _ in range(64)], dtype=object)
    q = np.array([rng.randrange(1, pi) for pi in primes], dtype=object)
    _assert_floor_matches_oracle(x, q, p, ecrt.default_precision(s))


# ── approx_floor (fixed-point multiplier recovery) ───────────────────────


def _reduced_table(basis, qc, values):
    """Rows u_i = (x mod p_i) q_i mod p_i for each value x, and the
    prime vector."""
    table = np.array(
        [[x % p * qi % p for p, qi in zip(basis.primes, qc)] for x in values], dtype=np.int64
    )
    return table, np.array(basis.primes, dtype=np.int64)


def test_approx_floor_matches_worked_trace():
    # 104 reduces to u = (1, 4, 6) and 52 to u = (2, 2, 3).  At 3 bits the
    # term floors sum to 2 + 6 + 6 = 14 and 5 + 3 + 3 = 11; adding s = 3
    # and shifting gives 2 (floor 1 + 1: 104 sits in the ambiguous tail)
    # and 1 (exact).
    basis = PrimeBasis((3, 5, 7))
    table, p = _reduced_table(basis, q_coefficients(basis), (104, 52))
    assert table.tolist() == [[1, 4, 6], [2, 2, 3]]
    assert approx_floor(table, p, 3).tolist() == [2, 1]


def test_approx_floor_within_one_of_true_floor(rng):
    for _ in range(300):
        basis = _random_basis(rng, rng.randrange(2, 8))
        qc = q_coefficients(basis)
        product = math.prod(basis.primes)
        a = ecrt.default_precision(len(basis))
        xs = [rng.randrange(product) for _ in range(4)]
        table, p = _reduced_table(basis, qc, xs)
        floors = approx_floor(table, p, a)
        assert floors.shape == (len(xs),)
        for row, f in zip(table.tolist(), floors.tolist()):
            alpha = sum(Fraction(ui, pi) for ui, pi in zip(row, basis.primes))
            assert f in (math.floor(alpha), math.floor(alpha) + 1)
            if alpha - math.floor(alpha) < 1 - Fraction(len(basis), 2**a):
                assert f == math.floor(alpha)


# ── mod_ecrt ─────────────────────────────────────────────────────────────


def _transfer_setup():
    basis = PrimeBasis((3, 5, 7))
    secret = PrimeBasis((11, 13))
    pre = mod_ecrt_setup(basis, secret)
    return basis, pre, q_coefficients(basis)


def test_mod_ecrt_zero():
    basis, pre, qc = _transfer_setup()
    out = mod_ecrt(pre, qc, RnsResidues.from_int(0, basis))
    assert out.values == (0, 0)


def test_mod_ecrt_exact_branch():
    basis, pre, qc = _transfer_setup()
    # 52 < (1 - 3/16) * 105, so the transfer is exact.
    out = mod_ecrt(pre, qc, RnsResidues.from_int(52, basis))
    assert out.values == (52 % 11, 52 % 13) == (8, 0)


def test_mod_ecrt_wrapped_branch():
    basis, pre, qc = _transfer_setup()
    # 104 sits in the ambiguous tail; the result is 104 - 105 = -1.
    out = mod_ecrt(pre, qc, RnsResidues.from_int(104, basis))
    assert out.values == ((-1) % 11, (-1) % 13) == (10, 12)


def test_mod_ecrt_oracle_random(rng):
    for _ in range(150):
        basis = _random_basis(rng, rng.randrange(2, 10))
        secret = _random_secret(rng, rng.randrange(1, 4), set(basis.primes))
        pre = mod_ecrt_setup(basis, secret)
        qc = q_coefficients(basis)
        product = math.prod(basis.primes)
        x = rng.randrange(product)
        got = mod_ecrt(pre, qc, RnsResidues.from_int(x, basis)).values
        check_bigint_transfer(got, x, product, secret.primes, pre.precision, len(basis))


def test_mod_ecrt_rejects_foreign_residues():
    basis, pre, qc = _transfer_setup()
    other = PrimeBasis((3, 5))
    with pytest.raises(ValueError):
        mod_ecrt(pre, q_coefficients(other), RnsResidues.from_int(1, other))


@pytest.mark.parametrize("secret_width", [16, 31])
def test_mod_ecrt_rows_matches_single_rows_across_blocks(secret_width):
    # 600 rows span many transfer blocks and end in a partial one.
    rng = Random(600 + secret_width)
    basis = _random_basis(rng, 12, widths=(31,))
    secret = _random_secret(rng, 3, set(basis.primes), widths=(secret_width,))
    pre = mod_ecrt_setup(basis, secret)
    qc = q_coefficients(basis)
    values = [rng.randrange(math.prod(basis.primes)) for _ in range(600)]
    table = np.array([[x % p for p in basis.primes] for x in values], dtype=np.int64)
    got = mod_ecrt_rows(pre, qc, basis, table)
    assert got.shape == (600, 3)
    for x, row in zip(values, got.tolist()):
        single = mod_ecrt(pre, qc, RnsResidues.from_int(x, basis)).values
        assert tuple(row) == single


def test_mod_ecrt_rows_rejects_wrong_width():
    basis, pre, qc = _transfer_setup()
    with pytest.raises(ValueError):
        mod_ecrt_rows(pre, qc, basis, np.zeros((4, 2), dtype=np.int64))
    with pytest.raises(ValueError):
        mod_ecrt_rows(pre, qc[:2], basis, np.zeros((4, 3), dtype=np.int64))


# ── mod_ecrt_rows against the per-prime loop ─────────────────────────────


def _per_prime_transfer(pre, q, basis, x):
    """Oracle for ``mod_ecrt_rows``: the unreduced formulation, one secret
    prime at a time.  Each term keeps y = x_j q_j whole; its floor has
    the two parts (y // p_j) 2^a + ((y mod p_j) 2^a) // p_j, and the sum
    runs over x_j w[k, j] mod r_k with the weights w[k, j] = q_j (D/p_j)
    mod r_k.  Writing y = u + k p_j, the extra D sum_j k_j enters both the
    sum and floor(a) D, so the result equals the reduced transfer's."""
    a = pre.precision
    secret = pre.secret_basis.primes
    s = len(basis)
    assert max(basis.primes + secret) < (1 << 31) and s << (31 + a) < (1 << 63)
    p = np.array(basis.primes, dtype=np.int64)
    qv = np.array(q, dtype=np.int64)
    w = qv * pre.weights[:, :-1].astype(np.int64) % np.array(secret, dtype=np.int64)[:, None]
    out = np.empty((x.shape[0], len(secret)), dtype=np.int64)
    for start in range(0, x.shape[0], ecrt.TRANSFER_BLOCK_ROWS):
        rows = slice(start, start + ecrt.TRANSFER_BLOCK_ROWS)
        block = x[rows].astype(np.int64)
        y = block * qv
        f = (s + ((y // p << a) + (y % p << a) // p).sum(axis=1)) >> a
        for k, r in enumerate(secret):
            z = (block * w[k] % r).sum(axis=1)
            out[rows, k] = (z - f % r * pre.weights[k, -1]) % r
    return out


def _balanced_table(u, p, floors):
    """The balanced term table [v | k - f] from the reduced terms u: each
    u_j above p_j / 2 becomes u_j - p_j, and k counts them."""
    lift = 2 * u > p
    return np.hstack([u - p * lift, (lift.sum(axis=1) - floors)[:, None]])


def _assert_transfer_matches_oracle(pre, q, basis, x):
    """Run the public half and the secret half one after the other, check
    the public half's float64 balanced term table exactly against u and
    the floors computed in int64, and compare the result, and the one
    call of ``mod_ecrt_rows``, with the oracle."""
    terms = mod_ecrt_reduce(q, basis, x)
    s = len(basis)
    assert terms.dtype == np.float64
    p = np.array(basis.primes, dtype=np.int64)
    u = x.astype(np.int64) * np.array(q, dtype=np.int64) % p
    assert terms.shape == (x.shape[0], s + 1)
    assert np.array_equal(terms, _balanced_table(u, p, approx_floor(u, p, pre.precision)))
    assert np.all(np.abs(terms[:, :s]) <= p >> 1)
    got = mod_ecrt_combine(pre, terms)
    expected = _per_prime_transfer(pre, q, basis, x)
    assert got.dtype == expected.dtype
    assert got.shape == (x.shape[0], len(pre.secret_basis))
    assert np.array_equal(got, expected)
    assert np.array_equal(mod_ecrt_rows(pre, q, basis, x), got)
    return got


def _random_table(basis, rows, seed):
    p = np.array(basis.primes, dtype=np.int64)
    return np.random.default_rng(seed).integers(0, p, size=(rows, len(basis)))


@pytest.mark.parametrize("s,t", [(165, 5), (339, 11)])  # Squirrels I and V
@pytest.mark.parametrize("rows", [600, 0])  # 600: a partial last block
def test_mod_ecrt_rows_matches_per_prime_oracle(s, t, rows):
    rng = Random(s * 1000 + t)
    basis = PrimeBasis(sample_distinct_primes(31, s, rng))
    secret = PrimeBasis(sample_distinct_primes(31, t, rng, exclude=basis.primes))
    pre = mod_ecrt_setup(basis, secret)
    got = _assert_transfer_matches_oracle(
        pre, q_coefficients(basis), basis, _random_table(basis, rows, s)
    )
    assert got.dtype == np.int64


def _primes_below(limit, count):
    """The ``count`` largest primes below ``limit``, descending, from a
    segmented sieve."""
    span = 32 * count
    low = limit - span
    composite = np.zeros(span, dtype=bool)
    for d in range(2, math.isqrt(limit) + 1):
        composite[(-low) % d :: d] = True
    primes = tuple(int(v) for v in np.flatnonzero(~composite)[::-1][:count] + low)
    assert len(primes) == count
    return primes


def _sieved_basis(primes):
    """A ``PrimeBasis`` of sieved primes, built without its per-entry
    primality check (about 1 s at 2^15 entries): the sieve already proves
    each entry prime."""
    basis = object.__new__(PrimeBasis)
    object.__setattr__(basis, "primes", primes)
    return basis


def test_mod_ecrt_rows_matches_oracle_at_int64_edge():
    # The largest s the int64 rule admits, every other operand at its
    # largest: primes just below 2^31 and x = p - 1, with q = p - 1 as
    # given (unreduced y = (p - 1)^2, u = 1) and with q = 1 (every
    # reduced u = p - 1).
    s, t = (1 << 15) - 1, 11
    a = ecrt.default_precision(s)
    assert s << (31 + a) < (1 << 63) <= (s + 1) << (31 + ecrt.default_precision(s + 1))
    primes = _primes_below(1 << 31, s + t)
    assert all(is_prime_word(p) for p in primes[::1024])
    secret, basis = PrimeBasis(primes[:t]), _sieved_basis(primes[t:])
    pre = mod_ecrt_setup(basis, secret)
    x = np.tile(np.array([p - 1 for p in basis.primes], dtype=np.int64), (3, 1))
    for q in (tuple(p - 1 for p in basis.primes), (1,) * s):
        got = _assert_transfer_matches_oracle(pre, q, basis, x)
        assert got.dtype == np.int64


def _three_limb_combine(pre, table):
    """Oracle for ``mod_ecrt_combine``: the secret half as it ran on the
    unsigned table [u | -f], for any integer table with entries below
    2^31 in magnitude and a last column of at most s, on secret primes
    below 2^31.  The weights are cut into ceil(31 / b) unsigned limbs of
    b = 22 - ceil(log2 s) bits (three at every named instance), each
    limb's sums are taken exactly in float64 and stored as int64, and an
    int64 Horner chain takes one % r per limb."""
    s = table.shape[1] - 1
    secret = pre.secret_basis.primes
    assert max(secret) < 1 << 31
    r = np.array(secret, dtype=np.int64)
    c = pre.weights.T.astype(np.int64)
    b = 22 - (s - 1).bit_length()
    n_limbs, t = -(-31 // b), len(r)
    limbs = np.hstack([c >> b * i & (1 << b) - 1 for i in reversed(range(n_limbs))], dtype=float)
    w = (table.astype(float) @ limbs).astype(np.int64)
    z = w[:, :t] % r
    for lo in range(t, n_limbs * t, t):
        z <<= b
        z += w[:, lo : lo + t]
        z %= r
    return z


def _unsigned_table(u, floors):
    return np.hstack([u, -floors[:, None]])


def _limb_extremes(r, s):
    """Weights mod r whose balanced limbs reach +-floor(B/2): +-(r - 1)/2,
    the top limb's extreme, and +-(the largest value up to (r - 1)/2
    whose lower limbs all equal floor(B/2))."""
    n_limbs, base = ecrt.limb_split(s)
    low_limbs = base // 2 * (base ** (n_limbs - 1) - 1) // (base - 1)
    top = ((r - 1) // 2 - low_limbs) // base ** (n_limbs - 1)
    low = top * base ** (n_limbs - 1) + low_limbs
    return ((r - 1) // 2, (r + 1) // 2, low, r - low)


def _assert_extremes_match_oracles(s, rows):
    """Every term v_j = +-(p_j - 1)/2, the largest in magnitude, with
    primes just below 2^31 and q = 1 (so u = x = (p - 1)/2 on even rows
    and (p + 1)/2 on odd ones).  Against the setup's weights the transfer
    matches both oracles on the unsigned table; against uniform weights
    at each of the ``_limb_extremes``, which are no cofactors, so that
    only the balanced table stands for the sum, it matches the
    three-limb chain and Python ints on that table."""
    t = 11
    primes = _primes_below(1 << 31, s + t)
    secret, basis = PrimeBasis(primes[:t]), _sieved_basis(primes[t:])
    pre = mod_ecrt_setup(basis, secret)
    p = np.array(basis.primes, dtype=np.int64)
    x = (p - 1) // 2 + np.arange(rows)[:, None] % 2
    got = _assert_transfer_matches_oracle(pre, (1,) * s, basis, x)
    floors = approx_floor(x, p, pre.precision)
    assert np.array_equal(got, _three_limb_combine(pre, _unsigned_table(x, floors)))
    terms = mod_ecrt_reduce((1,) * s, basis, x)
    assert np.array_equal(np.abs(terms[:, :s]), np.broadcast_to((p - 1) // 2, (rows, s)))
    r = np.array(secret.primes, dtype=object)
    for column in zip(*(_limb_extremes(r, s) for r in secret.primes)):
        weights = np.repeat(np.array(column)[:, None], s + 1, axis=1)
        uniform = dataclasses.replace(pre, weights=weights)
        got = mod_ecrt_combine(uniform, terms)
        assert got.dtype == np.int64
        assert np.array_equal(got, _three_limb_combine(uniform, terms))
        exact = terms.astype(np.int64).astype(object) @ weights.T.astype(object) % r
        assert np.array_equal(got, exact.astype(np.int64))


@pytest.mark.parametrize("rows", [0, 1, ecrt.TRANSFER_BLOCK_ROWS - 1, ecrt.TRANSFER_BLOCK_ROWS + 1])
@pytest.mark.parametrize("s", [63, 64, 65, 511, 512, 513])
def test_mod_ecrt_rows_matches_oracle_at_limb_width_steps(s, rows):
    # Where the unsigned limbs of ``_unsigned_combine`` change width, 2
    # limbs at s = 63 and 64, 3 from 65 and 12 bits at 513, and on both
    # sides of the balanced limbs' 2 (to s = 358) and 3: the largest
    # terms against weights at the limb extremes.
    _assert_extremes_match_oracles(s, rows)


@pytest.mark.parametrize("s,n_limbs", [(358, 2), (359, 3)])
def test_mod_ecrt_combine_at_the_last_two_limb_basis(s, n_limbs):
    # s = 358 is the largest basis with two limbs: there the bound of
    # ``limb_split`` holds with B = 46341, and one prime more breaks it.
    base = math.ceil(2 ** (31 / 2))
    assert ecrt.limb_split(s) == ((2, base) if n_limbs == 2 else (3, 1291))
    exceeds = s * (base // 2) * 2**30 + 2**31 * (base + 1) >= 2**53
    assert exceeds == (n_limbs == 3)
    _assert_extremes_match_oracles(s, 2 * ecrt.TRANSFER_BLOCK_ROWS + 1)


def test_reduce_float_corrects_the_quotient_both_ways():
    # Integers k r + d next to multiples of r, up to 2^53 - r in magnitude:
    # z (1/r) rounds across the integer k both ways, so the reduction needs
    # its conditional add and its conditional subtract, and brings every z
    # into [0, r).
    gen = np.random.default_rng(53)
    primes = (3, 11, 65537, 1073741827) + sample_distinct_primes(31, 12, Random(53))
    z = np.empty((3 * 20000, len(primes)))
    for j, r in enumerate(primes):
        k = gen.integers(-((1 << 53) // r) + 2, (1 << 53) // r - 2, size=20000)
        z[:, j] = np.concatenate([k * r - 1, k * r, k * r + 1])
    r = np.tile(np.array(primes, dtype=np.float64), (len(z), 1))
    raw = z - r * np.floor(z * (1 / r))
    assert np.any(raw < 0) and np.any(raw >= r)
    expected = z.astype(np.int64) % np.array(primes)
    ecrt._reduce_float(z, r, 1 / r)
    assert np.array_equal(z, expected)


@pytest.mark.parametrize(
    "s,expected", [(1, (2, 46341)), (339, (2, 46341)), (13001, (3, 1291)), (13002, (4, 216))]
)
def test_limb_split_takes_the_fewest_limbs_under_the_bound(s, expected):
    n_limbs, base = ecrt.limb_split(s)
    assert (n_limbs, base) == expected
    assert base**n_limbs >= 1 << 31 > (base - 1) ** n_limbs
    assert s * (base // 2) * 2**30 + 2**31 * (base + 1) < 2**53
    fewer = math.ceil(2 ** (31 / (n_limbs - 1)))
    assert s * (fewer // 2) * 2**30 + 2**31 * (fewer + 1) >= 2**53


def test_balanced_table_sum_equals_the_unsigned_sum():
    # Over the integers, sum_j v_j (D/p_j) + (k - f) D equals
    # sum_j u_j (D/p_j) - f D, so the two agree modulo every secret prime.
    rng = Random(359)
    basis = PrimeBasis(sample_distinct_primes(31, 20, rng))
    secret = PrimeBasis(sample_distinct_primes(31, 4, rng, exclude=basis.primes))
    pre = mod_ecrt_setup(basis, secret)
    qc = q_coefficients(basis)
    x = _random_table(basis, 64, 359)
    terms = mod_ecrt_reduce(qc, basis, x).astype(np.int64)
    p = np.array(basis.primes, dtype=np.int64)
    u = x * np.array(qc, dtype=np.int64) % p
    floors = approx_floor(u, p, pre.precision)
    product = math.prod(basis.primes)
    cofactors = [product // pi for pi in basis.primes]
    for row, u_row, f in zip(terms.tolist(), u.tolist(), floors.tolist()):
        balanced = sum(v * c for v, c in zip(row, cofactors)) + row[-1] * product
        assert balanced == sum(ui * c for ui, c in zip(u_row, cofactors)) - f * product
    unsigned = _three_limb_combine(pre, _unsigned_table(u, floors))
    assert np.array_equal(mod_ecrt_combine(pre, terms.astype(float)), unsigned)


def test_mod_ecrt_combine_holds_one_block_of_float64_terms():
    # Squirrels V: the secret half may hold the (m, L t) limb sums as
    # float64 and as int64, and one block of terms in float64, never a
    # copy of the whole (m, s + 1) term table, which alone would exceed
    # the bound.
    m, s, t = 2055, 339, 11
    rng = Random(2055)
    basis = PrimeBasis(sample_distinct_primes(31, s, rng))
    secret = PrimeBasis(sample_distinct_primes(31, t, rng, exclude=basis.primes))
    pre = mod_ecrt_setup(basis, secret)
    qc, x = q_coefficients(basis), _random_table(basis, m, s)
    terms = mod_ecrt_reduce(qc, basis, x)
    n_limbs = -(-31 // (22 - (s - 1).bit_length()))
    bound = 2 * m * n_limbs * t * 8 + ecrt.TRANSFER_BLOCK_ROWS * s * 8 + (64 << 10)
    assert m * s * 8 > bound
    tracemalloc.start()
    try:
        got = mod_ecrt_combine(pre, terms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert np.array_equal(got, _per_prime_transfer(pre, qc, basis, x))


def test_mod_ecrt_reduce_writes_the_term_table_block_by_block():
    # Squirrels V: the public half holds its (m, s + 1) float64 term table
    # and the temporaries of one block of rows, never a whole int64 u
    # beside the table, which alone would exceed the bound.
    m, s = 2055, 339
    basis = PrimeBasis(sample_distinct_primes(31, s, Random(2056)))
    qc, x = q_coefficients(basis), _random_table(basis, m, s)
    table_bytes = m * (s + 1) * 8
    bound = table_bytes + 8 * ecrt.TRANSFER_BLOCK_ROWS * s * 8 + (64 << 10)
    assert table_bytes + m * s * 8 > bound
    tracemalloc.start()
    try:
        terms = mod_ecrt_reduce(qc, basis, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound
    assert terms.dtype == np.float64 and terms.shape == (m, s + 1)
    p = np.array(basis.primes, dtype=np.int64)
    u = x * np.array(qc, dtype=np.int64) % p
    assert np.array_equal(terms, _balanced_table(u, p, approx_floor(u, p, ecrt.default_precision(s))))


# ── the public half, kept across secret bases ────────────────────────────


@pytest.mark.parametrize("secret_width", [16, 31])
def test_mod_ecrt_reduce_is_reused_across_secret_bases(secret_width):
    # One public half, then the secret half for three secret bases, equals
    # a whole transfer per basis and the oracle.
    rng = Random(700 + secret_width)
    basis = PrimeBasis(sample_distinct_primes(31, 40, rng))
    qc = q_coefficients(basis)
    x = _random_table(basis, 300, secret_width)
    terms = mod_ecrt_reduce(qc, basis, x)
    assert terms.dtype == np.float64
    p = np.array(basis.primes, dtype=np.int64)
    u = x * np.array(qc, dtype=np.int64) % p
    f = approx_floor(u, p, ecrt.default_precision(40))
    assert np.array_equal(terms, _balanced_table(u, p, f))
    for _ in range(3):
        secret = PrimeBasis(sample_distinct_primes(secret_width, 4, rng, exclude=basis.primes))
        pre = mod_ecrt_setup(basis, secret)
        got = mod_ecrt_combine(pre, terms)
        assert got.dtype == np.int64
        assert np.array_equal(got, mod_ecrt_rows(pre, qc, basis, x))
        assert np.array_equal(got, _per_prime_transfer(pre, qc, basis, x))


def test_mod_ecrt_combine_rejects_mismatched_terms():
    basis, pre, qc = _transfer_setup()
    terms = mod_ecrt_reduce(qc, basis, np.zeros((4, 3), dtype=np.int64))
    assert terms.shape == (4, 4)
    with pytest.raises(ValueError):  # u without its floor column
        mod_ecrt_combine(pre, terms[:, :3])
    with pytest.raises(ValueError):  # one row, not a table
        mod_ecrt_combine(pre, terms[0])


# ── the VK refresh against the three-limb oracle ─────────────────────────


def _oracle_vk_rows(ck, table):
    """``vkeygen``'s rows from the oracle's transfer of the unsigned table:
    the product residues added and reduced by %, the r - 1 column
    stacked, and all of it transposed."""
    r = np.array(ck.secret_basis.primes, dtype=object)
    moved = _three_limb_combine(ck.precomp, table)
    return np.vstack([(moved + ck.precomp.weights[:, -1]) % r, r - 1]).T.astype(np.int64)


@pytest.mark.parametrize("tag,t", [("I", 5), ("V", 11)])
def test_vkeygen_matches_three_limb_oracle_over_many_refreshes(tag, t):
    # 200 compression keys on one public key of the instance's shape.
    base = sq.named_params(tag)
    rng = Random(base.s + 28)
    params = replace(base, public_basis=PrimeBasis(sample_distinct_primes(31, base.s, rng)))
    p = np.array(params.public_basis.primes, dtype=np.int64)
    residues = np.random.default_rng(base.s).integers(0, p, size=(base.n - 1, base.s))
    pk = sq.SquirrelsPublicKey(residues)
    u = residues * np.array(q_coefficients(params.public_basis), dtype=np.int64) % p
    table = _unsigned_table(u, approx_floor(u, p, ecrt.default_precision(base.s)))
    for _ in range(200):
        ck = sq.ckeygen(params, t, rng)
        assert np.array_equal(sq.vkeygen(ck, pk, params).rows, _oracle_vk_rows(ck, table))


@pytest.mark.parametrize("public_width,secret_width", [(40, 31)])
def test_vkeygen_matches_oracle_on_the_object_path(public_width, secret_width):
    # A Squirrels install never hands the transfer a prime past 2^31:
    # params refuse 40-bit public primes here, and ``vkeygen`` refuses a
    # compression key on 40-bit secret primes (test_squirrels.py).
    rng = Random(public_width * 100 + secret_width)
    s, n = 12, 48
    basis = PrimeBasis(sample_distinct_primes(public_width, s, rng))
    with pytest.raises(ValueError, match="public prime"):
        sq.SquirrelsParams(n=n, q=16, beta_sq=1 << 20, s=s, tag="toy", public_basis=basis)


# ── the int64 rules ──────────────────────────────────────────────────────


# The refusal text of each rule.
_RULES = {"wide": "not below 2\\^31", "long": "more than"}


def _basis_outside(rule):
    """A basis that breaks one rule of the transfer: its one prime is the
    first past 2^31, or it holds ``MAX_BASIS_LEN`` + 1 primes below 2^31."""
    if rule == "wide":
        return PrimeBasis((next(p for p in range(1 << 31, (1 << 31) + 100) if is_prime_word(p)),))
    return _sieved_basis(_primes_below(1 << 31, ecrt.MAX_BASIS_LEN + 1))


_STEPS = {
    "q_coefficients": q_coefficients,
    "setup-public": lambda basis: mod_ecrt_setup(basis, PrimeBasis((3, 5))),
    "setup-secret": lambda basis: mod_ecrt_setup(PrimeBasis((3, 5)), basis),
    "reduce": lambda basis: mod_ecrt_reduce(
        (1,) * len(basis), basis, np.zeros((1, len(basis)), dtype=np.int64)
    ),
    "combine": lambda basis: mod_ecrt_combine(
        ecrt.EcrtPrecomp(basis, np.zeros((len(basis), 3), dtype=np.int64)), np.zeros((1, 3))
    ),
}


@pytest.mark.parametrize("rule", list(_RULES))
@pytest.mark.parametrize("step", list(_STEPS))
def test_transfer_steps_refuse_bases_outside_the_int64_rules(step, rule):
    # Every step that turns a basis into words refuses it, whichever side
    # of the transfer the basis is on; the combine step gets a hand-built
    # precomputation on it.
    with pytest.raises(ValueError, match=_RULES[rule]):
        _STEPS[step](_basis_outside(rule))
