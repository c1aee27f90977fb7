import math
from dataclasses import replace
from random import Random

import numpy as np
import pytest

from cvk import squirrels as sq
from cvk.ecrt import PrimeBasis, q_coefficients
from cvk.errors import MalformedSignature, ResampleLimit, SharedFactor
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
    params = sq.SquirrelsParams(n=1, q=1, beta_sq=0, s=1, tag="toy")
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
        assert ck.precomp.product_res[j] == delta % r
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
    pk, params, _ = toy
    ck, _ = toy_keys
    bad = pk.residues.copy()
    bad[-1, 0] = params.public_basis.primes[0]
    with pytest.raises(ValueError):
        sq.vkeygen(ck, sq.SquirrelsPublicKey(bad), params)


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
