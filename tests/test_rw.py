import math
from random import Random

import pytest
import sympy

from cvk import rw
from cvk.errors import MalformedSignature
from cvk.modmath import count_primes_bounds


@pytest.fixture(scope="module")
def keypair():
    return rw.rw_keygen(128, Random(1))


@pytest.fixture(scope="module")
def signatures(keypair):
    rng = Random(2)
    return [
        (b"message %d" % i, rw.rw_sign(keypair, b"message %d" % i, rng))
        for i in range(50)
    ]


@pytest.mark.parametrize("bits", [64, 96, 128])
def test_keygen_structure(bits):
    kp = rw.rw_keygen(bits, Random(bits))
    assert kp.p % 8 == 3 and kp.q % 8 == 7
    assert sympy.isprime(kp.p) and sympy.isprime(kp.q)
    assert kp.n == kp.p * kp.q
    assert kp.n.bit_length() == bits
    # end-to-end round trip at each size
    rng = Random(bits + 1)
    sig = rw.rw_sign(kp, b"roundtrip", rng)
    assert rw.rw_verify(sig, b"roundtrip", kp.n)


def test_keygen_rejects_bad_sizes():
    with pytest.raises(ValueError):
        rw.rw_keygen(32, Random(0))


def test_congruence_class_is_checked():
    with pytest.raises(ValueError):
        rw.RwKeypair(p=5, q=7)  # 5 is prime but lies in the wrong class
    with pytest.raises(ValueError):
        rw.RwKeypair(p=3, q=5)


def test_sign_satisfies_expanded_equation(keypair, signatures):
    n = keypair.n
    for message, sig in signatures:
        h = rw.message_digest(sig.salt, message, n.bit_length())
        assert sig.e * sig.f * sig.s * sig.s - sig.t * n == h
        # t is exactly the quotient of the expanded equation
        assert sig.t == (sig.e * sig.f * sig.s * sig.s - h) // n


def test_sign_t_range(keypair):
    rng = Random(3)
    n = keypair.n
    for i in range(1000):
        sig = rw.rw_sign(keypair, b"t-range %d" % i, rng)
        assert -2 * n < sig.t < 2 * n
        assert (sig.t >= 0) == (sig.e == 1)


def test_verify_accepts_honest(keypair, signatures):
    for message, sig in signatures:
        assert rw.rw_verify(sig, message, keypair.n)


def test_verify_rejects_tampered_s(keypair, signatures):
    message, sig = signatures[0]
    bad = rw.RwSignature(sig.e, sig.f, sig.salt, sig.s + 1, sig.t)
    assert not rw.rw_verify(bad, message, keypair.n)


def test_verify_rejects_flipped_e(keypair, signatures):
    message, sig = signatures[0]
    bad = rw.RwSignature(-sig.e, sig.f, sig.salt, sig.s, sig.t)
    assert not rw.rw_verify(bad, message, keypair.n)


def test_verify_malformed(keypair, signatures):
    message, sig = signatures[0]
    n = keypair.n
    vk = rw.rw_vkeygen(rw.rw_ckeygen(31, Random(4)), n)
    upper = 1 << vk.n_bits
    with pytest.raises(MalformedSignature):
        # t = 2N passes the compressed gate, which knows only 2^n_bits > N
        rw.rw_verify(rw.RwSignature(sig.e, sig.f, sig.salt, sig.s, 2 * n), message, n)
    malformed = [
        rw.RwSignature(2, sig.f, sig.salt, sig.s, sig.t),
        rw.RwSignature(sig.e, 3, sig.salt, sig.s, sig.t),
        rw.RwSignature(sig.e, sig.f, sig.salt, 1, sig.t),
        rw.RwSignature(sig.e, sig.f, sig.salt, upper, sig.t),
        rw.RwSignature(sig.e, sig.f, sig.salt, sig.s, 2 * upper),
    ]
    for bad in malformed:
        with pytest.raises(MalformedSignature):
            rw.rw_verify(bad, message, n)
        with pytest.raises(MalformedSignature):
            rw.rw_cverify(bad, message, vk)


def test_vkeygen_small_modulus():
    vk = rw.rw_vkeygen(1048583, 12345)  # N < ell
    assert vk.n_ell == 12345


# The ell rule that the CK and VK decoders check, at the in-process
# install: ell = 1 would accept every tuple.
@pytest.mark.parametrize("ell", [1, 131 * 137, 127], ids=["one", "composite", "7-bit-prime"])
def test_vkeygen_refuses_ell_outside_the_rule(keypair, ell):
    with pytest.raises(ValueError, match="compression-key prime"):
        rw.rw_vkeygen(ell, keypair.n)


def test_vkeygen_matches_bigint_oracle(rng):
    for _ in range(50):
        n = rng.getrandbits(128) | (1 << 127) | 1
        ell = rw.rw_ckeygen(20, rng)
        assert rw.rw_vkeygen(ell, n).n_ell == n % ell


def test_vk_reuse_across_public_keys(rng):
    kp1 = rw.rw_keygen(64, Random(11))
    kp2 = rw.rw_keygen(64, Random(12))
    ell = rw.rw_ckeygen(20, rng)
    vk1 = rw.rw_vkeygen(ell, kp1.n)
    vk2 = rw.rw_vkeygen(ell, kp2.n)
    assert vk1.ell == vk2.ell == ell
    assert vk1.n_ell != vk2.n_ell
    sig1 = rw.rw_sign(kp1, b"reuse", rng)
    sig2 = rw.rw_sign(kp2, b"reuse", rng)
    assert rw.rw_cverify(sig1, b"reuse", vk1)
    assert rw.rw_cverify(sig2, b"reuse", vk2)


def test_completeness_across_keys_and_ells():
    # verify-Accept implies cverify-Accept for every secret prime.
    for key_seed in range(10):
        kp = rw.rw_keygen(96, Random(100 + key_seed))
        rng = Random(200 + key_seed)
        ells = [rw.rw_ckeygen(18, rng) for _ in range(3)]
        vks = [rw.rw_vkeygen(ell, kp.n) for ell in ells]
        for i in range(100):
            message = b"complete %d %d" % (key_seed, i)
            sig = rw.rw_sign(kp, message, rng)
            assert rw.rw_verify(sig, message, kp.n)
            for vk in vks:
                assert rw.rw_cverify(sig, message, vk)


def test_forgery_distinguishes_verifiers(keypair):
    rng = Random(77)
    ell = rw.rw_ckeygen(16, rng)
    vk = rw.rw_vkeygen(ell, keypair.n)
    for i in range(100):
        message = b"forge me %d" % i
        forged = rw.rw_forge_known_ell(ell, message, keypair.n, rng)
        assert rw.rw_cverify(forged, message, vk)
        assert not rw.rw_verify(forged, message, keypair.n)


def test_forgery_residual_properties(keypair):
    rng = Random(78)
    ell = rw.rw_ckeygen(16, rng)
    forged = rw.rw_forge_known_ell(ell, b"res", keypair.n, rng)
    residual = rw.rw_residual(forged, b"res", keypair.n)
    assert residual != 0
    assert residual % ell == 0


def test_gcd_of_two_forgery_residuals_reveals_ell(keypair):
    rng = Random(79)
    ell = rw.rw_ckeygen(16, rng)
    other_key = rw.rw_keygen(96, Random(80))
    r1 = rw.rw_residual(
        rw.rw_forge_known_ell(ell, b"one", keypair.n, rng), b"one", keypair.n
    )
    r2 = rw.rw_residual(
        rw.rw_forge_known_ell(ell, b"two", other_key.n, rng), b"two", other_key.n
    )
    assert math.gcd(r1, r2) % ell == 0


def test_soundness_gap_random_tuples(keypair):
    # Random invalid tuples against a 16-bit secret prime: the compressed
    # verifier's false-accept rate stays under the forgery bound scaled
    # to width 16, within 3 binomial sigmas over 1e6 trials.
    rng = Random(81)
    n = keypair.n
    ell = rw.rw_ckeygen(16, rng)
    vk = rw.rw_vkeygen(ell, n)
    trials = 1_000_000
    accepts = 0
    message = b"soundness"
    for _ in range(trials):
        sig = rw.RwSignature(
            e=rng.choice((-1, 1)),
            f=rng.choice((1, 2)),
            salt=rng.randbytes(rw.SALT_BYTES),
            s=rng.randrange(2, n),
            t=rng.randrange(-2 * n + 1, 2 * n),
        )
        accepts += rw.rw_cverify(sig, message, vk)
    kappa = int(math.log2(n) / 16)
    bound = 2 * kappa / count_primes_bounds(16)[0]
    rate = accepts / trials
    sigma = math.sqrt(bound * (1 - bound) / trials)
    assert rate <= bound + 3 * sigma
    # and the rate is in the right ballpark of 1/ell
    assert rate == pytest.approx(1 / ell, abs=5 * math.sqrt((1 / ell) / trials))


def test_forgery_bound_zero_queries(keypair):
    assert rw.rw_forgery_bound(keypair.n, 31, 0) == 0.0


def test_forgery_bound_reference_value(keypair):
    # kappa = floor(128/31) = 4 and the exact 31-bit prime count.
    bound = rw.rw_forgery_bound(keypair.n, 31, 2**16)
    assert bound == pytest.approx(2 * 4 * 2**16 / 50697537, rel=1e-12)
    assert bound == pytest.approx(0.0103, abs=5e-4)


def test_forgery_bound_is_linear_in_queries(keypair):
    one = rw.rw_forgery_bound(keypair.n, 31, 1 << 20)
    two = rw.rw_forgery_bound(keypair.n, 31, 1 << 21)
    assert two == pytest.approx(2 * one, rel=1e-12)
