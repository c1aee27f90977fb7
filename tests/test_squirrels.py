import math
from dataclasses import FrozenInstanceError, replace
from random import Random

import numpy as np
import pytest

from cvk import security
from cvk import squirrels as sq
from cvk.ecrt import (
    EcrtPrecomp,
    PrimeBasis,
    mod_ecrt_reduce,
    q_coefficients,
)
from cvk.errors import DimensionMismatch, MalformedSignature, ResampleLimit, SharedFactor
from cvk.modmath import is_prime_word, sample_distinct_primes
from cvk.opcount import OpCounter

MESSAGE = b"the quick brown squirrel"


@pytest.fixture(scope="module")
def toy(toy_squirrels):
    return toy_squirrels


@pytest.fixture(scope="module")
def toy_keys(toy):
    pk, params, secret = toy
    rng = Random(99)
    ck = sq.ckeygen(params, 2, rng, secret_width=16)
    vk = sq.vkeygen(ck, pk, params)
    return ck, vk


def _check_vector(secret, params):
    """Reconstruct the integer check vector from the signer's matrix."""
    h = sq._row_hnf([[int(x) for x in row] for row in secret.basis])
    return [h[i][params.n - 1] for i in range(params.n - 1)] + [-1]


# ── hash_to_point ────────────────────────────────────────────────────────


def test_hash_determinism():
    a = sq.hash_to_point(b"m", b"s" * 16, 4096, 64)
    b = sq.hash_to_point(b"m", b"s" * 16, 4096, 64)
    assert np.array_equal(a, b)


def test_hash_range():
    for i in range(100):
        h = sq.hash_to_point(b"m%d" % i, b"s" * 16, 4096, 100)
        assert h.min() >= 0 and h.max() < 4096


def test_hash_mean_unbiased():
    q, n, samples = 4096, 64, 160  # 160 * 64 > 1e4 coordinates
    total = 0
    for i in range(samples):
        total += int(sq.hash_to_point(b"mean", b"%016d" % i, q, n).sum())
    count = samples * n
    mean = total / count
    sigma = math.sqrt((q * q - 1) / 12 / count)  # variance of uniform [0, q)
    assert abs(mean - (q - 1) / 2) < 3 * sigma


def test_hash_rejects_bad_q():
    with pytest.raises(ValueError):
        sq.hash_to_point(b"m", b"s", 1000, 4)


# ── multiplier window ────────────────────────────────────────────────────

KNOWN_BOUNDS = {
    "I": (-91554, 8551824),
    "II": (-106640, 9631610),
    "III": (-167584, 12903034),
    "IV": (-158579, 14220809),
    "V": (-210152, 17040602),
}


@pytest.mark.parametrize("tag", sq.SQUIRRELS_TAGS)
def test_k_prime_bounds_named(tag):
    params = sq.named_params(tag)
    k_min, k_max = sq.k_prime_bounds(params)
    assert (k_min, k_max) == KNOWN_BOUNDS[tag]
    # independent integer-square-root oracle
    root = math.isqrt(4 * params.n * params.beta_sq)
    assert k_min == -root - 1
    assert k_max == 2 * (params.n - 1) * (params.q - 1) + root + 1


def test_k_prime_bounds_degenerate():
    params = sq.SquirrelsParams(n=2, q=1, beta_sq=0, s=1, tag="toy")
    assert sq.k_prime_bounds(params) == (-1, 1)


# ── toy key generation ───────────────────────────────────────────────────


def test_toy_keygen_cocyclic_and_squarefree(toy):
    pk, params, secret = toy
    h = sq._row_hnf([[int(x) for x in row] for row in secret.basis])
    delta = math.prod(params.public_basis.primes)
    assert all(h[i][i] == 1 for i in range(params.n - 1))
    assert h[params.n - 1][params.n - 1] == delta
    assert len(set(params.public_basis.primes)) == params.s


def test_toy_keygen_rows_satisfy_check_congruence(toy):
    pk, params, secret = toy
    delta = math.prod(params.public_basis.primes)
    check = _check_vector(secret, params)
    for row in secret.basis:
        assert sum(int(c) * v for c, v in zip(row, check)) % delta == 0


def test_toy_keygen_residues_match_check_vector(toy):
    pk, params, secret = toy
    check = _check_vector(secret, params)
    for i in range(params.n - 1):
        for j, p in enumerate(params.public_basis.primes):
            assert pk.residues[i][j] == check[i] % p


def test_toy_keygen_dimension_guard():
    with pytest.raises(ValueError):
        sq.toy_keygen(64, 3, Random(0))


def test_row_hnf_against_sympy_oracle():
    import sympy

    rng = Random(404)
    for _ in range(25):
        n = rng.randrange(2, 6)
        g = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        h = sq._row_hnf(g)
        det = int(sympy.Matrix(g).det())
        if det == 0:
            assert h is None
            continue
        # upper triangular, positive diagonal, reduced above-diagonal
        assert all(h[i][j] == 0 for i in range(n) for j in range(i))
        assert all(h[i][i] > 0 for i in range(n))
        assert all(
            0 <= h[i][j] < h[j][j] for j in range(n) for i in range(j)
        )
        assert math.prod(h[i][i] for i in range(n)) == abs(det)
        # row spaces agree: each basis solves integrally against the other
        gm, hm = sympy.Matrix(g), sympy.Matrix(h)
        assert all(x == int(x) for x in hm * gm.inv())
        assert all(x == int(x) for x in gm * hm.inv())


# ── toy signer ───────────────────────────────────────────────────────────


def test_toy_sign_verifies(toy):
    pk, params, secret = toy
    rng = Random(5)
    for i in range(20):
        sig = sq.toy_sign(secret, b"sign %d" % i, params, rng)
        assert sq.verify(sig, b"sign %d" % i, pk, params)


def test_toy_sign_norm_enforced(toy):
    pk, params, secret = toy
    rng = Random(6)
    for i in range(20):
        sig = sq.toy_sign(secret, b"norm %d" % i, params, rng)
        assert sum(x * x for x in sig.s_vec) <= params.beta_sq


def test_toy_sign_lands_on_lattice(toy):
    pk, params, secret = toy
    delta = math.prod(params.public_basis.primes)
    check = _check_vector(secret, params)
    rng = Random(7)
    sig = sq.toy_sign(secret, MESSAGE, params, rng)
    h = sq.hash_to_point(MESSAGE, sig.salt, params.q, params.n)
    c = [int(si + hi) for si, hi in zip(sig.s_vec, h)]
    assert sum(ci * vi for ci, vi in zip(c, check)) % delta == 0


# ── public front end ─────────────────────────────────────────────────────


def test_public_target_is_the_length_check_norm_gate_and_target(toy):
    pk, params, secret = toy
    sig = sq.toy_sign(secret, MESSAGE, params, Random(10))
    c = sq.public_target(sig, MESSAGE, params)
    assert c.dtype == np.int64
    assert np.array_equal(c, sig.s_vec + sq.hash_to_point(MESSAGE, sig.salt, params.q, params.n))
    on_gate = replace(params, beta_sq=int(sig.s_vec @ sig.s_vec))
    assert np.array_equal(sq.public_target(sig, MESSAGE, on_gate), c)
    assert sq.public_target(sig, MESSAGE, replace(on_gate, beta_sq=on_gate.beta_sq - 1)) is None
    for size in (params.n - 1, params.n + 1):
        short = sq.SquirrelsSignature(sig.salt, (0,) * size)
        with pytest.raises(MalformedSignature, match=f"{size} coords, expected {params.n}"):
            sq.public_target(short, MESSAGE, params)


# ── full verification ────────────────────────────────────────────────────


def test_verify_rejects_overlong_s(toy):
    pk, params, secret = toy
    sig = sq.toy_sign(secret, MESSAGE, params, Random(8))
    inflated = sq.SquirrelsSignature(sig.salt, tuple(20 * x + 30 for x in sig.s_vec))
    assert not sq.verify(inflated, MESSAGE, pk, params)


def test_verify_rejects_tampered_pk_entry(toy):
    pk, params, secret = toy
    sig = sq.toy_sign(secret, MESSAGE, params, Random(9))
    h = sq.hash_to_point(MESSAGE, sig.salt, params.q, params.n)
    c = [int(si + hi) for si, hi in zip(sig.s_vec, h)]
    # pick a coordinate whose coefficient is a unit mod the tampered prime
    j = int(np.argmax(params.public_basis.primes))
    p = params.public_basis.primes[j]
    i = next(i for i in range(params.n - 1) if c[i] % p != 0)
    bad = pk.residues.copy()
    bad[i][j] = (bad[i][j] + 1) % p
    assert not sq.verify(sig, MESSAGE, sq.SquirrelsPublicKey(bad), params)


def test_verify_malformed_signature(toy):
    pk, params, secret = toy
    with pytest.raises(MalformedSignature):
        sq.verify(sq.SquirrelsSignature(b"x" * 16, (0,) * (params.n + 1)), MESSAGE, pk, params)
    with pytest.raises(MalformedSignature):
        sq.verify(
            sq.SquirrelsSignature(b"x" * 16, (1 << 20,) + (0,) * (params.n - 1)),
            MESSAGE,
            pk,
            params,
        )


def test_shape_gate_16_bit_edges(toy, toy_keys):
    # The 16-bit range is checked where a signature is built: -2^15 is
    # built and passes both verifiers' shape gate (and then fails the
    # norm gate), 2^15 and anything too wide for int64 cannot be built.
    pk, params, secret = toy
    _, vk = toy_keys
    rest = (0,) * (params.n - 1)
    edge = sq.SquirrelsSignature(b"x" * 16, (-(1 << 15),) + rest)
    assert not sq.verify(edge, MESSAGE, pk, params)
    assert not sq.cverify(edge, MESSAGE, vk, params)
    for x in (1 << 15, -(1 << 15) - 1, 1 << 63, 1 << 70, -(1 << 70)):
        with pytest.raises(MalformedSignature):
            sq.SquirrelsSignature(b"x" * 16, (x,) + rest)


@pytest.mark.parametrize("x", [-(1 << 15), (1 << 15) - 1])
@pytest.mark.parametrize("as_array", [False, True])
def test_signature_keeps_16_bit_edges(x, as_array):
    coords = [x, 0, -1]
    sig = sq.SquirrelsSignature(b"x" * 16, np.array(coords) if as_array else coords)
    assert sig.s_vec.dtype == np.int64
    assert sig.s_vec.tolist() == coords


@pytest.mark.parametrize("x", [1 << 15, -(1 << 15) - 1, 1 << 63, 1 << 70, -(1 << 70)])
def test_signature_rejects_coordinate_outside_16_bits(x):
    with pytest.raises(MalformedSignature):
        sq.SquirrelsSignature(b"x" * 16, (0, x, 0))
    if -(1 << 63) <= x < 1 << 64:  # also as a numpy array, where one holds it
        with pytest.raises(MalformedSignature):
            sq.SquirrelsSignature(b"x" * 16, np.array([0, x, 0]))


@pytest.mark.parametrize("coords", [[0.5, 1.0], [[1, 2]], [True, False], ["1"]])
def test_signature_rejects_non_integer_or_nested_coordinates(coords):
    with pytest.raises(MalformedSignature):
        sq.SquirrelsSignature(b"x" * 16, coords)


def test_signature_coordinates_are_a_read_only_copy():
    source = np.array([1, -2, 3], dtype=np.int16)
    sig = sq.SquirrelsSignature(b"x" * 16, source)
    with pytest.raises(ValueError):
        sig.s_vec[0] = 5
    source[0] = 7
    assert sig.s_vec.tolist() == [1, -2, 3]
    assert sig == sq.SquirrelsSignature(b"x" * 16, (1, -2, 3))
    assert sig != sq.SquirrelsSignature(b"y" * 16, (1, -2, 3))
    assert sig != sq.SquirrelsSignature(b"x" * 16, (1, -2, 4))
    assert sig != sq.SquirrelsSignature(b"x" * 16, (1, -2))
    assert hash(sig) == hash(sq.SquirrelsSignature(b"x" * 16, [1, -2, 3]))


def test_params_reject_dimension_beyond_fold_bound():
    sq.SquirrelsParams(n=(1 << 15) - 1, q=4096, beta_sq=1, s=1, tag="edge")
    with pytest.raises(ValueError):
        sq.SquirrelsParams(n=1 << 15, q=4096, beta_sq=1, s=1, tag="edge")


def test_params_reject_hash_bound_beyond_fold_bound():
    sq.SquirrelsParams(n=12, q=1 << 16, beta_sq=1, s=1, tag="edge")
    with pytest.raises(ValueError):
        sq.SquirrelsParams(n=12, q=1 << 17, beta_sq=1, s=1, tag="edge")


@pytest.mark.parametrize("n, beta_sq", [(-3, 1), (0, 1), (1, 1), (12, -1)])
def test_params_reject_short_dimension_or_negative_norm_bound(n, beta_sq):
    sq.SquirrelsParams(n=2, q=16, beta_sq=0, s=1, tag="edge")
    with pytest.raises(ValueError):
        sq.SquirrelsParams(n=n, q=16, beta_sq=beta_sq, s=1, tag="edge")


def test_params_refuse_a_public_prime_past_the_word_bound():
    below = max(p for p in range((1 << 31) - 100, 1 << 31) if is_prime_word(p))
    above = next(p for p in range(1 << 31, (1 << 31) + 100) if is_prime_word(p))
    edge = sq.SquirrelsParams(n=12, q=16, beta_sq=1, s=2, tag="edge")
    replace(edge, public_basis=PrimeBasis((3, below)))
    with pytest.raises(ValueError, match="public prime"):
        replace(edge, public_basis=PrimeBasis((3, above)))


def test_params_refuse_wide_public_primes_that_overflow_verify():
    # Three 40-bit public primes, residues near p - 1 and every coordinate
    # 30000, with row 0 solved so that each congruence holds over the
    # integers: a valid signature whose sums pass 2^63, which verify's
    # int64 product rejected.
    n, q, salt = 1034, 4096, b"w" * sq.SALT_BYTES
    rng = Random(40)
    primes = sample_distinct_primes(40, 3, rng)
    c = [30000 + h for h in sq.hash_to_point(MESSAGE, salt, q, n).tolist()]
    x = [[p - 1 - rng.randrange(1000) for p in primes] for _ in range(n - 1)]
    x[0] = [
        (c[-1] - sum(c[i] * x[i][j] for i in range(1, n - 1))) * pow(c[0], -1, p) % p
        for j, p in enumerate(primes)
    ]
    sums = [sum(c[i] * x[i][j] for i in range(n - 1)) for j in range(len(primes))]
    assert all((total - c[-1]) % p == 0 for total, p in zip(sums, primes))
    assert max(sums) >= 1 << 63
    with pytest.raises(ValueError, match="public prime"):
        sq.SquirrelsParams(
            n=n, q=q, beta_sq=n * 30000**2, s=3, tag="edge", public_basis=PrimeBasis(primes)
        )


def test_vk_copies_a_view_of_its_rows():
    big = np.arange(12, dtype=np.int64).reshape(4, 3) + 5
    vk = sq.SquirrelsVerificationKey(PrimeBasis((31, 37)), (1, 1), big[:2])
    assert not np.shares_memory(vk.rows, big)
    big[:2] = 0
    assert vk.rows.tolist() == [[5, 6, 7], [8, 9, 10]]


# ── one owner per rule: every entry point refuses a value just outside ───


def _hand_built_ck(params, primes):
    """A compression key on ``primes`` that skips the checks of
    ``compression_key`` and ``mod_ecrt_setup``: every word follows from
    the primes, as in a CK file, here in Python ints."""
    secret = PrimeBasis(tuple(primes))
    product = math.prod(params.public_basis.primes)
    cofactors = [product // p for p in params.public_basis.primes] + [product]
    weights = np.array([[c % r for c in cofactors] for r in secret.primes], dtype=np.int64)
    inv_delta = tuple(pow(product, -1, r) for r in secret.primes)
    return sq.SquirrelsCompressionKey(secret, EcrtPrecomp(secret, weights), inv_delta)


@pytest.mark.parametrize("where", ["in-window", "40-bit"])
def test_vkeygen_refuses_secret_primes_outside_the_rule(toy, where):
    # The rule compression_key checks, on a CK that skipped it.  The key
    # is refused before the transfer, so the public key keeps no terms.
    pk, params, _ = toy
    key = sq.SquirrelsPublicKey(pk.residues)
    k_min, k_max = sq.k_prime_bounds(params)
    if where == "in-window":
        bad = max(p for p in range(2, k_max - k_min + 1) if is_prime_word(p))
    else:
        bad = sample_distinct_primes(40, 1, Random(40), exclude=params.public_basis.primes)[0]
    ck = _hand_built_ck(params, (bad, 65537))
    with pytest.raises(ValueError, match="secret prime"):
        sq.vkeygen(ck, key, params)
    assert key._terms == ()


@pytest.mark.parametrize("where", ["entry-at-r", "negative-entry", "inv-delta-at-r", "prime-2^31"])
def test_verification_key_refuses_entries_outside_the_rule(where):
    # Entries in [0, r_j) and primes below 2^31 keep cverify's int64 fold
    # exact; the key refuses anything else, however it was built.
    primes, rows, inv_delta = (65537, 65539), np.ones((2, 8), dtype=np.int64), (1, 1)
    if where == "entry-at-r":
        rows[1, 3] = primes[1]
    elif where == "negative-entry":
        rows[0, 0] = -1
    elif where == "inv-delta-at-r":
        inv_delta = (1, primes[1])
    else:
        primes = (65537, next(p for p in range(1 << 31, (1 << 31) + 100) if is_prime_word(p)))
    with pytest.raises(ValueError):
        sq.SquirrelsVerificationKey(PrimeBasis(primes), inv_delta, rows)


def test_verify_refuses_an_unchecked_key_with_an_unreduced_residue(toy):
    # A key built in process, never decoded or installed: verify runs the
    # decoder's rule on it, through the key's check memo.
    pk, params, _ = toy
    bad = pk.residues.copy()
    bad[0, 0] = params.public_basis.primes[0]
    sig = sq.SquirrelsSignature(b"x" * sq.SALT_BYTES, [0] * params.n)
    with pytest.raises(ValueError, match="not reduced"):
        sq.verify(sig, MESSAGE, sq.SquirrelsPublicKey(bad), params)


@pytest.mark.parametrize("entry", ["SquirrelsParams", "hash_to_point"])
@pytest.mark.parametrize("q", [3, 1 << 17])
def test_hash_bound_outside_the_rule_is_refused_everywhere(entry, q):
    with pytest.raises(ValueError):
        if entry == "SquirrelsParams":
            sq.SquirrelsParams(n=12, q=q, beta_sq=1, s=1, tag="edge")
        else:
            sq.hash_to_point(b"m", b"s", q, 4)


@pytest.mark.parametrize("entry", ["ckeygen", "cverify_cost", "squirrels_budget"])
def test_t_zero_is_refused_everywhere(toy, entry):
    _, params, _ = toy
    call = {
        "ckeygen": lambda: sq.ckeygen(params, 0, Random(0), secret_width=16),
        "cverify_cost": lambda: sq.cverify_cost(params, 0),
        "squirrels_budget": lambda: security.squirrels_budget(params.s, 0, 2**64),
    }[entry]
    with pytest.raises(ValueError):
        call()


@pytest.mark.parametrize(
    "entry", ["verify", "ckeygen", "compression_key", "check_public_key"]
)
def test_params_without_a_public_basis_are_refused_everywhere(toy, entry):
    pk, params, _ = toy
    bare = replace(params, public_basis=None)
    sig = sq.SquirrelsSignature(b"x" * sq.SALT_BYTES, [0] * params.n)
    call = {
        "verify": lambda: sq.verify(sig, MESSAGE, pk, bare),
        "ckeygen": lambda: sq.ckeygen(bare, 1, Random(0), secret_width=16),
        "compression_key": lambda: sq.compression_key(bare, PrimeBasis((65521,))),
        "check_public_key": lambda: sq.check_public_key(pk, bare),
    }[entry]
    with pytest.raises(ValueError):
        call()


# ── compression and verification keys ────────────────────────────────────


def test_ckeygen_requires_positive_t(toy):
    pk, params, secret = toy
    with pytest.raises(ValueError):
        sq.ckeygen(params, 0, Random(0))


def test_ckeygen_rejects_narrow_secret_primes(toy):
    pk, params, secret = toy
    with pytest.raises(ValueError):
        sq.ckeygen(params, 1, Random(0), secret_width=8)


def test_ckeygen_invariants(toy, toy_keys):
    pk, params, secret = toy
    ck, _ = toy_keys
    k_min, k_max = sq.k_prime_bounds(params)
    primes = ck.secret_basis.primes
    assert len(set(primes)) == len(primes)
    assert not set(primes) & set(params.public_basis.primes)
    delta = math.prod(params.public_basis.primes)
    for j, r in enumerate(primes):
        assert r > k_max - k_min
        assert ck.precomp.weights[j, -1] == delta % r
        assert ck.inv_delta[j] * (delta % r) % r == 1


def test_ckeygen_is_sampling_then_compression_key(toy):
    # ckeygen draws the secret primes as sample_distinct_primes does, and
    # every other word comes from compression_key alone.
    pk, params, secret = toy
    ck = sq.ckeygen(params, 3, Random(5), secret_width=16)
    primes = sample_distinct_primes(16, 3, Random(5), exclude=params.public_basis.primes)
    assert ck.secret_basis.primes == primes
    assert sq.compression_key(params, ck.secret_basis) == ck


def test_compression_key_rejects_public_prime(toy):
    pk, params, secret = toy
    with pytest.raises(SharedFactor):
        sq.compression_key(params, PrimeBasis(params.public_basis.primes[:1]))


def test_compression_key_rejects_prime_inside_window(toy):
    pk, params, secret = toy
    k_min, k_max = sq.k_prime_bounds(params)
    below = max(p for p in range(2, k_max - k_min + 1) if is_prime_word(p))
    with pytest.raises(ValueError):
        sq.compression_key(params, PrimeBasis((below, 65537)))


def test_compression_key_rejects_prime_beyond_fold_bound(toy):
    pk, params, secret = toy
    wide = next(p for p in range(1 << 31, (1 << 31) + 100) if is_prime_word(p))
    with pytest.raises(ValueError):
        sq.compression_key(params, PrimeBasis((65537, wide)))
    with pytest.raises(ValueError):
        sq.ckeygen(params, 1, Random(0), secret_width=40)


def test_vkeygen_rows_shifted_by_at_most_one_product(toy, toy_keys):
    pk, params, secret = toy
    ck, vk = toy_keys
    delta = math.prod(params.public_basis.primes)
    check = _check_vector(secret, params)
    for i in range(params.n - 1):
        candidates = []
        for eps in (0, 1):
            target = check[i] + eps * delta
            if all(
                vk.rows[j][i] == target % r
                for j, r in enumerate(vk.secret_basis.primes)
            ):
                candidates.append(eps)
        assert len(candidates) == 1, f"row {i} is not a clean 0/1 product shift"


def test_vkeygen_last_row_is_minus_one(toy, toy_keys):
    pk, params, secret = toy
    _, vk = toy_keys
    for j, r in enumerate(vk.secret_basis.primes):
        assert vk.rows[j][params.n - 1] == r - 1


def test_vkeygen_full_size_matches_bigint_crt():
    # Squirrels I shape with a sampled 31-bit basis and uniform residues:
    # 1033 rows cross several transfer blocks.  Each stored entry is the
    # big-integer CRT value x shifted by 0 or 1 public product, and by
    # exactly one product wherever the transfer is exact.
    rng = Random(1034)
    basis = PrimeBasis(sample_distinct_primes(31, 165, rng))
    params = replace(sq.named_params("I"), public_basis=basis)
    gen = np.random.default_rng(1034)
    residues = gen.integers(0, np.array(basis.primes), size=(1033, 165), dtype=np.int64)
    ck = sq.ckeygen(params, 5, rng)
    vk = sq.vkeygen(ck, sq.SquirrelsPublicKey(residues), params)
    delta = math.prod(basis.primes)
    weights = [
        qi * (delta // p) for qi, p in zip(q_coefficients(basis), basis.primes)
    ]
    a, s = ck.precomp.precision, len(basis)
    secret = ck.secret_basis.primes
    exact_rows = 0
    for i, row in enumerate(residues.tolist()):
        x = sum(v * w for v, w in zip(row, weights)) % delta
        got = [int(vk.rows[j, i]) for j in range(len(secret))]
        shifted = [(x + delta) % r for r in secret]
        assert got in ([x % r for r in secret], shifted), f"row {i}"
        if (x << a) < ((1 << a) - s) * delta:
            assert got == shifted, f"row {i} inside the exact region"
            exact_rows += 1
    assert exact_rows > 750  # about 1 - s/2^a = 84% of uniform values


def test_vkeygen_rejects_unreduced_residue(toy, toy_keys):
    # A refused key keeps no transfer terms: the next install checks it
    # again.
    pk, params, _ = toy
    ck, _ = toy_keys
    bad = pk.residues.copy()
    bad[-1, 0] = params.public_basis.primes[0]
    key = sq.SquirrelsPublicKey(bad)
    for _ in range(2):
        with pytest.raises(ValueError):
            sq.vkeygen(ck, key, params)


# ── the public half of the transfer, kept with the public key ────────────


def _full_size_i_key(seed):
    """Squirrels I shape: a sampled 31-bit basis and uniform residues."""
    rng = Random(seed)
    params = replace(
        sq.named_params("I"), public_basis=PrimeBasis(sample_distinct_primes(31, 165, rng))
    )
    gen = np.random.default_rng(seed)
    primes = np.array(params.public_basis.primes)
    return gen.integers(0, primes, size=(params.n - 1, params.s)), params, rng


def _assert_cached_terms_change_nothing(residues, params, cks):
    # One key installed under every CK in turn, against a fresh key per
    # CK, whose terms are computed for that install alone.
    kept = sq.SquirrelsPublicKey(residues)
    for ck in cks:
        fresh = sq.vkeygen(ck, sq.SquirrelsPublicKey(residues), params)
        cached = sq.vkeygen(ck, kept, params)
        assert cached.secret_basis == fresh.secret_basis
        assert cached.inv_delta == fresh.inv_delta
        assert np.array_equal(cached.rows, fresh.rows)
    return kept


def test_vkeygen_with_cached_terms_matches_fresh_key(toy):
    pk, params, _ = toy
    rng = Random(4242)
    cks = [sq.ckeygen(params, t, rng, secret_width=16) for t in (1, 2, 3)]
    _assert_cached_terms_change_nothing(pk.residues, params, cks)


def test_vkeygen_with_cached_terms_matches_fresh_key_at_full_size():
    residues, params, rng = _full_size_i_key(1035)
    cks = [sq.ckeygen(params, 5, rng) for _ in range(3)]
    kept = _assert_cached_terms_change_nothing(residues, params, cks)
    terms = kept.ecrt_terms(params)
    assert terms.dtype == np.float64
    p = np.array(params.public_basis.primes, dtype=np.int64)
    u = residues * np.array(q_coefficients(params.public_basis), dtype=np.int64) % p
    assert np.array_equal(terms[:, :-1], np.where(u > p // 2, u - p, u))


def test_vkeygen_with_cached_terms_matches_fresh_key_at_40_bit_secret_primes():
    # ``vkeygen`` refuses CKs on secret primes past the fold bound, built
    # by hand past ``compression_key``, before the transfer: the public
    # key keeps no terms, cached or fresh.
    residues, params, rng = _full_size_i_key(1036)
    key = sq.SquirrelsPublicKey(residues)
    for _ in range(3):
        secret = sample_distinct_primes(40, 3, rng, exclude=params.public_basis.primes)
        with pytest.raises(ValueError, match="not below"):
            sq.vkeygen(_hand_built_ck(params, secret), key, params)
    assert key._terms == ()


def _held_bytes(obj) -> int:
    """Bytes of the arrays an object keeps in its attributes, counted
    through tuples."""
    def count(value):
        if isinstance(value, np.ndarray):
            return value.nbytes
        return sum(map(count, value)) if isinstance(value, tuple) else 0

    return sum(map(count, vars(obj).values()))


def test_squirrels_v_public_key_holds_its_residues_and_one_term_table():
    # After its first install, a Squirrels V key holds its int64 residues
    # and the (n-1, s+1) balanced float64 term table [v | k - f], the same
    # bytes as u and f kept as two int64 arrays, and nothing else.
    rng = Random(2056)
    params = replace(
        sq.named_params("V"), public_basis=PrimeBasis(sample_distinct_primes(31, 339, rng))
    )
    primes = np.array(params.public_basis.primes)
    residues = np.random.default_rng(2056).integers(0, primes, size=(params.n - 1, params.s))
    pk = sq.SquirrelsPublicKey(residues)
    assert _held_bytes(pk) == 8 * (params.n - 1) * params.s
    vk = sq.vkeygen(sq.ckeygen(params, 11, rng), pk, params)
    assert vk.rows.shape == (11, params.n)
    terms = pk.ecrt_terms(params)
    assert terms.dtype == np.float64 and terms.shape == (params.n - 1, params.s + 1)
    assert _held_bytes(pk) == 8 * (params.n - 1) * params.s + 8 * (params.n - 1) * (params.s + 1)


def test_public_key_is_frozen(toy):
    pk, params, _ = toy
    key = sq.SquirrelsPublicKey(pk.residues)
    with pytest.raises(FrozenInstanceError):
        key.residues = pk.residues.copy()
    terms = key.ecrt_terms(params)
    for arr in (key.residues, terms, terms[:, -1]):
        with pytest.raises(ValueError):
            arr[0] = 0
    assert key.ecrt_terms(params) is terms  # kept, not recomputed
    source = pk.residues.copy()
    viewed = sq.SquirrelsPublicKey(source[:, :])
    source[0, 0] ^= 1
    assert np.array_equal(viewed.residues, pk.residues)


def test_public_key_reused_with_another_basis_gets_new_terms():
    # Two 31-bit bases of the same length, and residues reduced under
    # both: the terms follow the params' basis on every call, and a basis
    # under which a residue is unreduced is refused, not served the old
    # terms.
    rng = Random(77)
    first = PrimeBasis(sample_distinct_primes(31, 6, rng))
    second = PrimeBasis(sample_distinct_primes(31, 6, rng, exclude=first.primes))
    base = sq.SquirrelsParams(n=40, q=16, beta_sq=1 << 20, s=6, tag="toy")
    params_a = replace(base, public_basis=first)
    params_b = replace(base, public_basis=second)
    low = min(first.primes + second.primes)
    residues = np.random.default_rng(77).integers(0, low, size=(base.n - 1, base.s))
    key = sq.SquirrelsPublicKey(residues)
    for params in (params_a, params_b, params_a):
        basis = params.public_basis
        terms = key.ecrt_terms(params)
        assert np.array_equal(terms, mod_ecrt_reduce(q_coefficients(basis), basis, residues))
        secret = sample_distinct_primes(31, 2, rng, exclude=first.primes + second.primes)
        ck = sq.compression_key(params, PrimeBasis(secret))
        fresh = sq.vkeygen(ck, sq.SquirrelsPublicKey(residues), params)
        assert np.array_equal(sq.vkeygen(ck, key, params).rows, fresh.rows)
    tight = PrimeBasis(
        (next(p for p in range(low // 2, low) if is_prime_word(p)),) + first.primes[1:]
    )
    with pytest.raises(ValueError):
        key.ecrt_terms(replace(base, public_basis=tight))
    with pytest.raises(DimensionMismatch, match="public key is"):
        key.ecrt_terms(replace(params_a, n=base.n + 1))


def test_size_formulas_table_values():
    params = sq.named_params("I")
    assert sq.pk_bytes(params) == 681780
    assert sq.vk_bytes(params, 5) == 20700
    assert sq.ck_bytes(params, 5) == 3360
    assert sq.pk_bytes(params) / sq.vk_bytes(params, 5) == pytest.approx(32.94, abs=0.005)


@pytest.mark.parametrize(
    "tag,t,pk_b,ck_b,vk_b",
    [
        ("I", 5, 681780, 3360, 20700),
        ("II", 5, 874576, 3820, 23300),
        ("III", 8, 1629640, 8480, 49824),
        ("IV", 8, 1888700, 8896, 55008),
        ("V", 11, 2786580, 15048, 90508),
    ],
)
def test_size_formulas_all_instances(tag, t, pk_b, ck_b, vk_b):
    params = sq.named_params(tag)
    assert sq.pk_bytes(params) == pk_b
    assert sq.ck_bytes(params, t) == ck_b
    assert sq.vk_bytes(params, t) == vk_b


# ── compressed verification ──────────────────────────────────────────────


def test_cverify_completeness(toy, toy_keys):
    pk, params, secret = toy
    _, vk = toy_keys
    rng = Random(10)
    for i in range(100):
        message = b"complete %d" % i
        sig = sq.toy_sign(secret, message, params, rng)
        assert sq.verify(sig, message, pk, params)
        assert sq.cverify(sig, message, vk, params)


class _NumpyWithoutArray:
    """numpy, except that ``array`` fails the test."""

    def __getattr__(self, name):
        if name == "array":
            raise AssertionError("cverify built an array from a key field")
        return getattr(np, name)


def test_cverify_builds_no_key_arrays(toy, toy_keys, monkeypatch):
    # The frozen VK builds its word arrays once, read-only; a cverify call
    # reads them and gives the same verdicts.
    pk, params, secret = toy
    _, vk = toy_keys
    assert vk.r.dtype == vk.inv_delta_words.dtype == np.int64
    assert vk.r.tolist() == list(vk.secret_basis.primes)
    assert vk.inv_delta_words.tolist() == list(vk.inv_delta)
    for arr in (vk.rows, vk.r, vk.inv_delta_words):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(FrozenInstanceError):
        vk.inv_delta = (1,) * len(vk.inv_delta)
    rng = Random(12)
    cases = []
    for i in range(10):
        message = b"prepared %d" % i
        sig = sq.toy_sign(secret, message, params, rng)
        cases += [(sig, message), (sig, message + b"!")]
    expected = [sq.cverify(sig, m, vk, params) for sig, m in cases]
    assert all(expected[::2])  # every honest pair accepts
    monkeypatch.setattr(sq, "np", _NumpyWithoutArray())
    assert [sq.cverify(sig, m, vk, params) for sig, m in cases] == expected


def test_cverify_rejects_wrong_message(toy, toy_keys):
    pk, params, secret = toy
    _, vk = toy_keys
    sig = sq.toy_sign(secret, MESSAGE, params, Random(11))
    assert not sq.cverify(sig, b"something else", vk, params)


def test_cverify_norm_gate(toy, toy_keys):
    pk, params, secret = toy
    _, vk = toy_keys
    sig = sq.toy_sign(secret, MESSAGE, params, Random(12))
    inflated = sq.SquirrelsSignature(sig.salt, tuple(25 * x + 40 for x in sig.s_vec))
    assert not sq.cverify(inflated, MESSAGE, vk, params)


def test_recovered_multiplier_stays_in_window(toy, toy_keys):
    # White-box check of the window lemma: with the determinant known,
    # reconstruct the integer multiplier including its 0/1 shift bits
    # and confirm it sits inside the published window, matching what the
    # compressed verifier computes modulo every secret prime.
    pk, params, secret = toy
    _, vk = toy_keys
    delta = math.prod(params.public_basis.primes)
    check = _check_vector(secret, params)
    k_min, k_max = sq.k_prime_bounds(params)
    shifts = []
    for i in range(params.n - 1):
        eps = next(
            e
            for e in (0, 1)
            if all(
                vk.rows[j][i] == (check[i] + e * delta) % r
                for j, r in enumerate(vk.secret_basis.primes)
            )
        )
        shifts.append(eps)
    rng = Random(13)
    for i in range(50):
        message = b"window %d" % i
        sig = sq.toy_sign(secret, message, params, rng)
        h = sq.hash_to_point(message, sig.salt, params.q, params.n)
        c = [int(si + hi) for si, hi in zip(sig.s_vec, h)]
        total = sum(ci * vi for ci, vi in zip(c, check))
        assert total % delta == 0
        k = total // delta
        k_prime = k + sum(e * ci for e, ci in zip(shifts, c[:-1]))
        assert k_min <= k_prime <= k_max
        for j, r in enumerate(vk.secret_basis.primes):
            folded = sum(ci * int(vj) for ci, vj in zip(c, vk.rows[j]))
            assert (folded * vk.inv_delta[j] - k_min) % r == k_prime - k_min


def test_cverify_multiple_widths_and_counts(toy):
    pk, params, secret = toy
    rng = Random(14)
    sig = sq.toy_sign(secret, MESSAGE, params, rng)
    for t, width in [(1, 16), (3, 20), (2, 31)]:
        ck = sq.ckeygen(params, t, rng, secret_width=width)
        vk = sq.vkeygen(ck, pk, params)
        assert sq.cverify(sig, MESSAGE, vk, params)


def _scalar_check_shape(sig, n):
    if len(sig.s_vec) != n:
        raise MalformedSignature(f"signature has {len(sig.s_vec)} coords, expected {n}")
    bound = 1 << (sq.COORD_BITS - 1)
    if any(not -bound <= x < bound for x in sig.s_vec):
        raise MalformedSignature("signature coordinate outside 16-bit range")
    return np.asarray(sig.s_vec, dtype=np.int64)


def _scalar_cverify(sig, message, vk, params):
    """Per-prime, per-coordinate reference for ``sq.cverify`` in Python
    integers: no fixed-width arithmetic anywhere."""
    s_vec = _scalar_check_shape(sig, params.n)
    if int(s_vec @ s_vec) > params.beta_sq:
        return False
    c = [int(x) for x in s_vec + sq.hash_to_point(message, sig.salt, params.q, params.n)]
    k_min, k_max = sq.k_prime_bounds(params)
    span = k_max - k_min
    n = params.n
    multipliers = []
    in_window = True
    for j, r in enumerate(vk.secret_basis.primes):
        row = vk.rows[j]
        acc = 0
        for i in range(n):
            acc += c[i] * int(row[i])
        k_j = (acc % r * vk.inv_delta[j] - k_min) % r
        multipliers.append(k_j)
        in_window &= k_j <= span
    agree = True
    for k_j in multipliers:
        agree &= k_j == multipliers[0]
    return bool(in_window & agree)


def _differential_inputs(secret, params, rng):
    """Honest signatures, 1-4 coordinate tampers, over-norm multiples,
    and uniform vectors both inside the norm ball and over the 16-bit
    range: (kind, message, signature) triples.  The tampers and
    over-norm multiples come both as tuples and, like decoded
    signatures, as arrays."""
    n = params.n
    bound = 1 << (sq.COORD_BITS - 1)
    small = math.isqrt(params.beta_sq // n)
    for i in range(12):
        message = b"differential %d" % i
        sig = sq.toy_sign(secret, message, params, rng)
        yield "honest", message, sig
        s_vec = list(sig.s_vec)
        for j in rng.sample(range(n), rng.randint(1, 4)):
            s_vec[j] += rng.choice((-1, 1)) * rng.randint(1, 3)
        yield "tamper", message, sq.SquirrelsSignature(sig.salt, tuple(s_vec))
        yield "over-norm", message, sq.SquirrelsSignature(
            sig.salt, tuple(30 * x + 1 for x in sig.s_vec)
        )
        tampered = sig.s_vec.copy()
        tampered[rng.randrange(n)] += rng.choice((-1, 1))
        yield "tamper-array", message, sq.SquirrelsSignature(sig.salt, tampered)
        yield "over-norm-array", message, sq.SquirrelsSignature(sig.salt, 30 * sig.s_vec + 1)
        yield "uniform-ball", message, sq.SquirrelsSignature(
            sig.salt, tuple(rng.randint(-small, small) for _ in range(n))
        )
        yield "uniform-16", message, sq.SquirrelsSignature(
            sig.salt, tuple(rng.randrange(-bound, bound) for _ in range(n))
        )


@pytest.mark.parametrize("t", [1, 3, 5])
@pytest.mark.parametrize("width", [16, 20, 31])
def test_cverify_matches_scalar_oracle(toy, t, width):
    pk, params, secret = toy
    rng = Random(1000 * t + width)
    vk = sq.vkeygen(sq.ckeygen(params, t, rng, secret_width=width), pk, params)
    verdicts = {}
    for kind, message, sig in _differential_inputs(secret, params, rng):
        got = sq.cverify(sig, message, vk, params)
        assert got == _scalar_cverify(sig, message, vk, params), kind
        verdicts.setdefault(kind, set()).add(got)
    assert verdicts["honest"] == {True}
    assert verdicts["over-norm"] == verdicts["uniform-16"] == {False}
    assert verdicts["over-norm-array"] == {False}
    assert False in verdicts["tamper"]
    assert False in verdicts["tamper-array"]


# Squirrels I dimension with a norm bound that admits every coordinate
# at the 16-bit edge.
FULL_SIZE = sq.SquirrelsParams(n=1034, q=4096, beta_sq=1034 << 30, s=165, tag="edge")


def _full_size_fold(offsets):
    """One 31-bit secret prime per offset, rows drawn near the top of
    [0, r_j) and every coordinate at a 16-bit edge.  inv_delta is chosen
    from the big-integer fold so that prime j recovers the shifted
    multiplier offsets[j], given relative to the window's middle (signed
    values reduce mod r_j).  Returns (vk, signature)."""
    n, q = FULL_SIZE.n, FULL_SIZE.q
    rng = Random(1034)
    gen = np.random.default_rng(1034)
    secret = PrimeBasis(sample_distinct_primes(31, len(offsets), rng))
    r = np.array(secret.primes, dtype=np.int64)
    rows = r[:, None] - 1 - gen.integers(0, 1 << 20, size=(len(offsets), n))
    edge = 1 << (sq.COORD_BITS - 1)
    sig = sq.SquirrelsSignature(
        b"e" * 16, tuple(rng.choice((-edge, -edge, -edge, edge - 1)) for _ in range(n))
    )
    c = [int(s) + int(h) for s, h in zip(sig.s_vec, sq.hash_to_point(MESSAGE, sig.salt, q, n))]
    k_min, k_max = sq.k_prime_bounds(FULL_SIZE)
    mid = (k_max - k_min) // 2
    inv_delta = []
    for j, p in enumerate(secret.primes):
        folded = sum(ci * int(v) for ci, v in zip(c, rows[j]))
        assert abs(folded) > 1 << 53  # past the integers float64 holds exactly
        inv_delta.append((mid + offsets[j] + k_min) * pow(folded % p, -1, p) % p)
    return sq.SquirrelsVerificationKey(secret, tuple(inv_delta), rows), sig


def _instance_i_keys_and_ii_params():
    """A Squirrels I PK and VK of the right shapes, II params with a
    basis, and a signature of II's length."""
    rng = Random(1164)
    params_i = sq.named_params("I")
    params_ii = replace(
        sq.named_params("II"), public_basis=PrimeBasis(sample_distinct_primes(31, 188, rng))
    )
    gen = np.random.default_rng(1164)
    pk = sq.SquirrelsPublicKey(gen.integers(0, 1 << 30, size=(params_i.n - 1, params_i.s)))
    secret = PrimeBasis(sample_distinct_primes(31, 5, rng))
    rows = gen.integers(0, 1 << 30, size=(5, params_i.n))
    vk = sq.SquirrelsVerificationKey(secret, tuple(range(1, 6)), rows)
    sig = sq.SquirrelsSignature(bytes(sq.SALT_BYTES), (0,) * params_ii.n)
    return pk, vk, params_ii, sig


def test_verify_refuses_a_public_key_of_another_instance():
    pk, _, params_ii, sig = _instance_i_keys_and_ii_params()
    with pytest.raises(DimensionMismatch, match="public key is"):
        sq.verify(sig, MESSAGE, pk, params_ii)


def test_cverify_refuses_a_verification_key_of_another_instance():
    _, vk, params_ii, sig = _instance_i_keys_and_ii_params()
    with pytest.raises(DimensionMismatch, match="verification key rows"):
        sq.cverify(sig, MESSAGE, vk, params_ii)


@pytest.mark.parametrize("rows_t,inv_t", [(3, 2), (2, 3), (1, 2)])
def test_verification_key_refuses_disagreeing_t(rows_t, inv_t):
    secret = PrimeBasis((65537, 65539))
    with pytest.raises(ValueError):
        sq.SquirrelsVerificationKey(secret, (1,) * inv_t, np.zeros((rows_t, 8), dtype=np.int64))
    with pytest.raises(ValueError):  # rows must be a table
        sq.SquirrelsVerificationKey(secret, (1, 1), np.zeros(8, dtype=np.int64))


def test_cverify_fold_exact_at_full_size():
    # The exact verdict is accept: any wrap or rounding in the fold
    # changes a residue and rejects.
    vk, sig = _full_size_fold((0,) * 5)
    assert _scalar_cverify(sig, MESSAGE, vk, FULL_SIZE)
    assert sq.cverify(sig, MESSAGE, vk, FULL_SIZE)
    assert not sq.cverify(sig, b"other message", vk, FULL_SIZE)


@pytest.mark.parametrize(
    "case,accept",
    [
        ("low-edge", True),
        ("high-edge", True),
        ("below-window", False),
        ("above-window", False),
        ("disagree", False),
    ],
)
def test_cverify_window_and_agreement_flags(case, accept):
    # Each flag rejects on its own: equal multipliers just outside the
    # window, or in-window multipliers that differ in one prime.
    k_min, k_max = sq.k_prime_bounds(FULL_SIZE)
    mid, span = (k_max - k_min) // 2, k_max - k_min
    offsets = {
        "low-edge": (-mid,) * 5,
        "high-edge": (span - mid,) * 5,
        "below-window": (-mid - 1,) * 5,
        "above-window": (span - mid + 1,) * 5,
        "disagree": (0, 0, 0, 1, 0),
    }[case]
    vk, sig = _full_size_fold(offsets)
    assert _scalar_cverify(sig, MESSAGE, vk, FULL_SIZE) is accept
    assert sq.cverify(sig, MESSAGE, vk, FULL_SIZE) is accept


# ── parameter selection ──────────────────────────────────────────────────


@pytest.mark.parametrize(
    "lam,t,mu", [(128, 5, 121.1), (192, 8, 189.5), (256, 11, 256.3)]
)
def test_choose_t_reference_points(lam, t, mu):
    got_t, got_mu = sq.choose_t(lam)
    assert got_t == t
    assert got_mu == pytest.approx(mu, abs=0.05)


def test_choose_t_mu_is_exact_log_binomial():
    t, mu = sq.choose_t(128)
    assert mu == pytest.approx(math.log2(math.comb(50697537, t)), rel=1e-12)


# ── operation counts ─────────────────────────────────────────────────────


def test_instrumented_counts_match_formulas(toy, toy_keys):
    pk, params, secret = toy
    _, vk = toy_keys
    sig = sq.toy_sign(secret, MESSAGE, params, Random(15))
    v_counter, c_counter = OpCounter(), OpCounter()
    sq.verify(sig, MESSAGE, pk, params, counter=v_counter)
    sq.cverify(sig, MESSAGE, vk, params, counter=c_counter)
    assert (v_counter.word_muls, v_counter.reductions) == sq.verify_cost(params)
    t = len(vk.secret_basis)
    assert (c_counter.word_muls, c_counter.reductions) == sq.cverify_cost(params, t)


def test_named_instance_speedup_factor():
    for tag, t in [("I", 5), ("II", 5), ("III", 8), ("IV", 8), ("V", 11)]:
        params = sq.named_params(tag)
        ratio = sq.verify_cost(params)[0] / sq.cverify_cost(params, t)[0]
        assert ratio >= params.s / (t + 1)
