import dataclasses
import hashlib
import math
import tracemalloc
from random import Random

import numpy as np
import pytest

from cvk import f3, security, serial
from cvk import wave as wv
from cvk.errors import DimensionMismatch, MalformedSignature
from cvk.f3 import TernaryMatrix, random_trits
from cvk.opcount import OpCounter
from cvk.toy import MAX_TOY_LENGTH, wave_toy_keygen, wave_toy_sign

MESSAGE = b"ride the wave"


@pytest.fixture(scope="module")
def toy(toy_wave):
    return toy_wave


@pytest.fixture(scope="module")
def toy_keys(toy):
    pk, params = toy
    rng = Random(31337)
    ck = wv.wave_ckeygen(params, 4, rng)
    vk = wv.wave_vkeygen(pk, ck, params)
    return ck, vk


def _f3_rank(arr) -> int:
    a = [list(map(int, row)) for row in arr]
    rows, cols = len(a), len(a[0])
    rank, pivot_row = 0, 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, rows) if a[r][col] % 3), None)
        if pivot is None:
            continue
        a[pivot_row], a[pivot] = a[pivot], a[pivot_row]
        inv = 1 if a[pivot_row][col] % 3 == 1 else 2
        a[pivot_row] = [(x * inv) % 3 for x in a[pivot_row]]
        for r in range(rows):
            if r != pivot_row and a[r][col] % 3:
                f = a[r][col] % 3
                a[r] = [(x - f * y) % 3 for x, y in zip(a[r], a[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


# ── hashing ──────────────────────────────────────────────────────────────


def test_hash_to_trits_deterministic():
    a = wv.hash_to_trits(b"m", b"s" * 16, 100)
    b = wv.hash_to_trits(b"m", b"s" * 16, 100)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() <= 2


def test_hash_to_trits_roughly_uniform():
    counts = np.zeros(3)
    for i in range(200):
        h = wv.hash_to_trits(b"uniform", b"%016d" % i, 60)
        for v in range(3):
            counts[v] += int((h == v).sum())
    total = counts.sum()
    sigma = math.sqrt(total * (1 / 3) * (2 / 3))
    assert all(abs(c - total / 3) < 3 * sigma for c in counts)


def _hash_to_trits_loop(message: bytes, salt: bytes, length: int) -> np.ndarray:
    """Byte-at-a-time reference for ``hash_to_trits``."""
    xof = hashlib.shake_128(salt + message)
    out = np.empty(length, dtype=np.uint8)
    filled = 0
    nbytes = max(16, (length * 2) // 3)
    offset = 0
    buf = xof.digest(nbytes)
    while filled < length:
        if offset >= len(buf):
            nbytes *= 2
            buf = xof.digest(nbytes)
        byte = buf[offset]
        offset += 1
        for shift in (0, 2, 4, 6):
            v = (byte >> shift) & 3
            if v < 3:
                out[filled] = v
                filled += 1
                if filled == length:
                    break
    return out


@pytest.mark.parametrize("length", [0, 1, 5, 24, 4288, 6272, 8256])
def test_hash_to_trits_matches_byte_loop(length):
    for i in range(100):
        message, salt = b"oracle %d" % i, b"%016d" % length
        got = wv.hash_to_trits(message, salt, length)
        assert got.dtype == np.uint8
        assert np.array_equal(got, _hash_to_trits_loop(message, salt, length))


def test_hash_to_trits_rereads_a_short_prefix(monkeypatch):
    # Prepending as many bytes of rejected lanes as the first read asks
    # for leaves that read with no kept symbol, so every call must re-read
    # past it, and must keep the symbols it kept before.
    expected = {n: wv.hash_to_trits(MESSAGE, b"s" * 16, n) for n in (1, 24, 100, 4288)}
    real = hashlib.shake_128

    class Padded:
        def __init__(self, data):
            self.xof = real(data)
            self.pad = None
            self.calls = 0

        def digest(self, nbytes):
            self.calls += 1
            if self.pad is None:
                self.pad = nbytes
            return (b"\xff" * self.pad + self.xof.digest(nbytes))[:nbytes]

    made = []

    def shake(data):
        made.append(Padded(data))
        return made[-1]

    monkeypatch.setattr(hashlib, "shake_128", shake)
    for n, want in expected.items():
        assert np.array_equal(wv.hash_to_trits(MESSAGE, b"s" * 16, n), want)
        assert made[-1].calls >= 2
        assert np.array_equal(_hash_to_trits_loop(MESSAGE, b"s" * 16, n), want)
        assert made[-1].calls >= 2


# ── named parameters ─────────────────────────────────────────────────────


def test_named_wave822():
    p = wv.named_params("822")
    assert (p.n, p.k, p.w) == (8576, 4288, 7668)


def test_params_reject_length_at_float32_bound():
    with pytest.raises(ValueError):
        wv.WaveParams(n=wv.MAX_LENGTH, k=wv.MAX_LENGTH // 2, w=1, tag="big")
    wv.WaveParams(n=wv.MAX_LENGTH - 1, k=wv.MAX_LENGTH // 2, w=1, tag="big")


@pytest.mark.parametrize(
    "lam,c,mu", [(128, 80, 126.8), (192, 120, 190.2), (256, 160, 253.6)]
)
def test_choose_c_reference_points(lam, c, mu):
    got_c, got_mu = wv.wave_choose_c(lam)
    assert got_c == c
    assert got_mu == pytest.approx(mu, abs=0.05)


def test_choose_c_byte_aligned():
    for lam in range(40, 300, 7):
        c, _ = wv.wave_choose_c(lam)
        assert c % 8 == 0


def test_vk_size_identities():
    for tag, c in [("822", 80), ("1249", 120), ("1644", 160)]:
        p = wv.named_params(tag)
        # byte-aligned c: the packed payload is exactly c(n-c)/4 bytes
        assert wv.vk_bytes(p, c) == c * (p.n - c) // 4


def test_wave822_stored_payload():
    assert wv.vk_bytes(wv.named_params("822"), 80) == 169920


# ── toy keygen / signer ──────────────────────────────────────────────────


def test_toy_keygen_dimensions(toy):
    pk, params = toy
    assert pk.shape == (params.k, params.redundancy)


def test_toy_keygen_entries_roughly_uniform():
    params = wv.WaveParams(n=64, k=32, w=43, tag="toy")
    pk = wave_toy_keygen(params, Random(1))
    arr = pk.to_array()
    total = arr.size
    sigma = math.sqrt(total * (1 / 3) * (2 / 3))
    for v in range(3):
        assert abs(int((arr == v).sum()) - total / 3) < 3 * sigma


def test_toy_keygen_distinct_across_seeds():
    params = wv.WaveParams(n=24, k=12, w=16, tag="toy")
    assert wave_toy_keygen(params, Random(1)) != wave_toy_keygen(params, Random(2))


def test_toy_sign_satisfies_syndrome_equation(toy):
    pk, params = toy
    rng = Random(3)
    nk = params.redundancy
    for i in range(20):
        sig = wave_toy_sign(pk, b"syndrome %d" % i, params, rng)
        s = sig.trits().astype(np.int64)
        h = wv.hash_to_trits(b"syndrome %d" % i, sig.salt, nk)
        lhs = (s[:nk] + s[nk:] @ pk.to_array().astype(np.int64)) % 3
        assert np.array_equal(lhs, h)
        assert sig.weight() == params.w
        assert wv.wave_verify(sig, b"syndrome %d" % i, pk, params)


# ── full verification ────────────────────────────────────────────────────


def test_verify_weight_gate(toy):
    pk, params = toy
    sig = wave_toy_sign(pk, MESSAGE, params, Random(4))
    trits = sig.trits().copy()
    hot = int(np.argmax(trits > 0))
    trits[hot] = 0  # weight w - 1
    assert not wv.wave_verify(wv.WaveSignature.from_trits(sig.salt, trits), MESSAGE, pk, params)


def test_verify_single_trit_flip(toy):
    pk, params = toy
    sig = wave_toy_sign(pk, MESSAGE, params, Random(5))
    trits = sig.trits().copy()
    hot = int(np.argmax(trits > 0))
    trits[hot] = 3 - trits[hot]  # swap 1 <-> 2: weight preserved
    assert not wv.wave_verify(wv.WaveSignature.from_trits(sig.salt, trits), MESSAGE, pk, params)


def test_verify_malformed_length(toy):
    pk, params = toy
    short = wv.WaveSignature.from_trits(b"x" * 16, [1] * (params.n - 1))
    with pytest.raises(MalformedSignature):
        wv.wave_verify(short, MESSAGE, pk, params)


def test_signature_rejects_invalid_packed_bytes():
    with pytest.raises(MalformedSignature):
        wv.WaveSignature(salt=b"x" * 16, s_packed=b"\x03", n=4)


@pytest.mark.parametrize("entry", ["decode_wave_sig", "WaveSignature"])
def test_wave_signature_one_byte_short_is_malformed(toy, entry):
    # The byte count has one owner, WaveSignature; the decoder relies on it.
    _, params = toy
    sig = wv.WaveSignature.from_trits(b"x" * wv.SALT_BYTES, [1] * params.n)
    with pytest.raises(MalformedSignature):
        if entry == "WaveSignature":
            wv.WaveSignature(sig.salt, sig.s_packed[:-1], params.n)
        else:
            payload = (sig.salt + sig.s_packed)[:-1]
            serial.decode_wave_sig(
                serial.wrap(serial.SCHEME_WAVE, serial.KIND_SIG, 0, payload), params
            )


def test_signature_trits_unpacked_once_and_read_only(toy):
    pk, params = toy
    sig = wave_toy_sign(pk, MESSAGE, params, Random(6))
    trits = sig.trits()
    assert sig.trits() is trits
    assert trits.dtype == np.uint8 and trits.size == params.n
    with pytest.raises(ValueError):
        trits[0] = 1
    again = wv.WaveSignature(sig.salt, sig.s_packed, sig.n)
    assert again == sig and hash(again) == hash(sig)
    assert np.array_equal(again.trits(), trits)


def test_public_target_is_the_length_check_weight_gate_and_target(toy):
    pk, params = toy
    sig = wave_toy_sign(pk, MESSAGE, params, Random(7))
    t = wv.public_target(sig, MESSAGE, params)
    h = wv.hash_to_trits(MESSAGE, sig.salt, params.redundancy)
    assert t.dtype == np.uint8
    assert np.array_equal(t, wv.syndrome_target(sig.trits(), h))
    for w in (params.w - 1, params.w + 1):
        assert wv.public_target(sig, MESSAGE, dataclasses.replace(params, w=w)) is None
    for n in (params.n - 1, params.n + 1):
        other = wv.WaveSignature.from_trits(sig.salt, [1] * n)
        with pytest.raises(MalformedSignature, match=f"length {n} != code length {params.n}"):
            wv.public_target(other, MESSAGE, params)


def _float_target(s, h):
    """The float32 t = s - (h | 0) mod 3 that ``syndrome_target`` replaced."""
    t = s.astype(np.float32)
    t[: h.size] -= h
    t %= 3
    return t


def test_syndrome_target_matches_float_path_on_every_pair():
    s = np.repeat(np.arange(3, dtype=np.uint8), 3)
    h = np.tile(np.arange(3, dtype=np.uint8), 3)
    for tail in (0, 2):  # with and without coordinates past the hash
        padded = np.concatenate([s, np.full(tail, 2, dtype=np.uint8)])
        t = wv.syndrome_target(padded, h)
        assert t.dtype == np.uint8
        assert np.array_equal(t, _float_target(padded, h))
        assert np.array_equal(t[: h.size], (s.astype(int) - h) % 3)


def test_syndrome_target_matches_float_path_at_wave822():
    params = wv.named_params("822")
    s = random_trits(params.n, Random(822))
    s.setflags(write=False)  # as a signature holds it: the helper copies
    h = wv.hash_to_trits(MESSAGE, b"s" * 16, params.redundancy)
    t = wv.syndrome_target(s, h)
    assert np.array_equal(t, _float_target(s, h))
    assert np.array_equal(t[params.redundancy :], s[params.redundancy :])


# ── compression keys ─────────────────────────────────────────────────────


def _header_only(kind):
    return serial.wrap(serial.SCHEME_WAVE, kind, 0, b"")


# Every entry point of the rule 1 <= c <= n-k (wave.check_c), with the
# exception it raises for a c outside it.  WaveVerificationKey, which does
# not know k, refuses c = 0 in test_vk_refuses_c_below_one.
C_RULE_ENTRIES = {
    "wave_ckeygen": (lambda p, c: wv.wave_ckeygen(p, c, Random(0)), ValueError),
    "cverify_cost": (wv.cverify_cost, ValueError),
    "wave_budget": (lambda p, c: security.wave_budget(p.n, p.k, c, 2**64), ValueError),
    "wave_segp_instance": (lambda p, c: security.wave_segp_instance(p.redundancy, c), ValueError),
    "decode_wave_ck": (
        lambda p, c: serial.decode_wave_ck(_header_only(serial.KIND_CK), p, c),
        MalformedSignature,
    ),
    "decode_wave_vk": (
        lambda p, c: serial.decode_wave_vk(_header_only(serial.KIND_VK), p, c),
        MalformedSignature,
    ),
}


@pytest.mark.parametrize("entry", C_RULE_ENTRIES)
@pytest.mark.parametrize("step", [0, 1], ids=["c=0", "c=n-k+1"])
def test_c_outside_one_to_n_minus_k_is_refused_everywhere(toy, entry, step):
    _, params = toy
    call, error = C_RULE_ENTRIES[entry]
    with pytest.raises(error):
        call(params, step * (params.redundancy + 1))


def test_ckeygen_systematic_and_full_rank(toy):
    pk, params = toy
    rng = Random(6)
    for c in (1, 2, 4, 6):
        ck = wv.wave_ckeygen(params, c, rng)
        arr = ck.to_array()
        assert np.array_equal(arr[:c], np.eye(c, dtype=np.uint8))
        assert _f3_rank(arr) == c


def test_ckeygen_kernel_dimension(toy):
    pk, params = toy
    ck = wv.wave_ckeygen(params, 3, Random(7))
    nk = params.redundancy
    # count kernel vectors of x -> x C by brute force on a subsampled
    # domain: rank-nullity via the elimination oracle instead
    assert _f3_rank(ck.to_array()) == 3
    # kernel dimension of the left-multiplication map is nk - c
    kernel_dim = nk - _f3_rank(ck.to_array())
    assert kernel_dim == nk - 3


def _ckeygen_loop(params: wv.WaveParams, c: int, rng: Random) -> TernaryMatrix:
    """One ``randrange(3)`` per entry: reference for ``wave_ckeygen``."""
    nk = params.redundancy
    block = np.zeros((nk, c), dtype=np.uint8)
    block[:c] = np.eye(c, dtype=np.uint8)
    for i in range(c, nk):
        for j in range(c):
            block[i, j] = rng.randrange(3)
    return TernaryMatrix.from_array(block)


@pytest.mark.parametrize("c", [1, 4, 12])
def test_ckeygen_matches_randrange_loop_toy(toy, c):
    _, params = toy
    for seed in range(5):
        bulk, loop = Random(seed), Random(seed)
        assert wv.wave_ckeygen(params, c, bulk).data == _ckeygen_loop(params, c, loop).data
        assert bulk.getstate() == loop.getstate()


def test_ckeygen_matches_randrange_loop_wave822():
    params = wv.named_params("822")
    bulk, loop = Random(822), Random(822)
    assert wv.wave_ckeygen(params, 80, bulk).data == _ckeygen_loop(params, 80, loop).data
    assert bulk.getstate() == loop.getstate()


def test_ckeygen_distinct_draws(toy):
    pk, params = toy
    assert wv.wave_ckeygen(params, 4, Random(8)) != wv.wave_ckeygen(params, 4, Random(9))


# ── verification keys ────────────────────────────────────────────────────


def test_vkeygen_zero_public_key(toy):
    pk, params = toy
    zero_pk = TernaryMatrix.from_array(
        np.zeros((params.k, params.redundancy), dtype=np.uint8)
    )
    ck = wv.wave_ckeygen(params, 4, Random(10))
    vk = wv.wave_vkeygen(zero_pk, ck, params)
    got = vk.vk_bottom.to_array()
    nk = params.redundancy
    assert np.array_equal(got[: nk - 4], ck.to_array()[4:])
    assert not got[nk - 4 :].any()


def test_vkeygen_matches_schoolbook_product(toy, toy_keys):
    pk, params = toy
    ck, vk = toy_keys
    full = np.vstack(
        [
            np.eye(4, dtype=np.uint8),
            vk.vk_bottom.to_array(),
        ]
    ).astype(np.int64)
    parity = np.vstack(
        [np.eye(params.redundancy, dtype=np.uint8), pk.to_array()]
    ).astype(np.int64)
    expected = (parity @ ck.to_array().astype(np.int64)) % 3
    assert np.array_equal(full, expected)


def test_vkeygen_dimension_mismatch(toy):
    pk, params = toy
    with pytest.raises(DimensionMismatch):
        wv.wave_vkeygen(pk, TernaryMatrix.from_array(np.eye(params.redundancy + 1)), params)


def test_vkeygen_short_projection_is_a_dimension_mismatch(toy):
    # Fewer rows than n-k, and fewer than its c columns: the shape check
    # runs before the identity-block check, so this is not a ValueError.
    pk, params = toy
    short = TernaryMatrix.from_array(np.eye(3, 4, dtype=np.uint8))
    with pytest.raises(DimensionMismatch):
        wv.wave_vkeygen(pk, short, params)


# ── compressed verification ──────────────────────────────────────────────


def test_cverify_completeness(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    rng = Random(11)
    for i in range(100):
        message = b"complete %d" % i
        sig = wave_toy_sign(pk, message, params, rng)
        assert wv.wave_verify(sig, message, pk, params)
        assert wv.wave_cverify(sig, message, vk, params)


def test_cverify_weight_gate(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    sig = wave_toy_sign(pk, MESSAGE, params, Random(12))
    trits = sig.trits().copy()
    hot = int(np.argmax(trits > 0))
    trits[hot] = 0
    assert not wv.wave_cverify(
        wv.WaveSignature.from_trits(sig.salt, trits), MESSAGE, vk, params
    )


def test_cverify_rejects_truncated_signature(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    sig = wave_toy_sign(pk, MESSAGE, params, Random(13))
    truncated = wv.WaveSignature.from_trits(sig.salt, sig.trits()[params.redundancy :])
    with pytest.raises(MalformedSignature):
        wv.wave_cverify(truncated, MESSAGE, vk, params)


def _int64_cverify(sig, message, vk, params) -> bool:
    """int64 reference for ``wave_cverify``'s float32 fold."""
    nk = params.redundancy
    s = sig.trits()
    if sig.weight() != params.w:
        return False
    t = s.astype(np.int64)
    t[:nk] -= wv.hash_to_trits(message, sig.salt, nk)
    t %= 3
    c = vk.c
    folded = (t[:c] + t[c:] @ vk.vk_bottom.to_array().astype(np.int64)) % 3
    return not folded.any()


def test_vk_refuses_c_below_one():
    # With c = 0 the compressed check has no rows and accepts anything.
    with pytest.raises(ValueError):
        wv.WaveVerificationKey(TernaryMatrix(24, 0, b""))


def test_vk_fold_block_built_once(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    block = vk.fold_block
    assert vk.fold_block is block
    assert block.dtype == np.float32 and block.flags.c_contiguous
    assert np.array_equal(block, vk.vk_bottom.to_array().T)
    with pytest.raises(ValueError):
        block[0, 0] = 1


def _held_bytes(obj) -> int:
    """Bytes of the arrays, bytes and matrices an object keeps in its
    attributes, counted recursively through matrices."""
    held = 0
    for value in vars(obj).values():
        if isinstance(value, np.ndarray):
            held += value.nbytes
        elif isinstance(value, bytes):
            held += len(value)
        elif isinstance(value, TernaryMatrix):
            held += _held_bytes(value)
    return held


@pytest.mark.parametrize("fill", ["twos", "uniform"])
def test_wave822_install_holds_no_unpacked_copies(fill):
    # Full size, c = 80.  All-2 entries in R and in the CK's lower block
    # give the product its largest sums.  Both the keygen and the decoder
    # path are checked against int64 products.
    params, c = wv.named_params("822"), 80
    k, nk = params.k, params.redundancy
    if fill == "twos":
        r_arr = np.full((k, nk), 2, dtype=np.uint8)
        lower = np.full((nk - c, c), 2, dtype=np.uint8)
        ck = TernaryMatrix.from_array(np.vstack([np.eye(c, dtype=np.uint8), lower]))
    else:
        r_arr = np.random.default_rng(822).integers(0, 3, (k, nk), dtype=np.uint8)
        ck = wv.wave_ckeygen(params, c, Random(822))
    pk = TernaryMatrix.from_array(r_arr)
    tracemalloc.start()
    try:
        vk = wv.wave_vkeygen(pk, ck, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < k * nk == 18_386_944  # below one unpacked copy of R
    assert "_array" not in vars(pk) and "_array" not in vars(ck)
    assert _held_bytes(pk) == wv.pk_bytes(params) == 4_596_736
    assert _held_bytes(vk) == 169_920 + 2_718_720
    assert len(vk.vk_bottom.data) == wv.vk_bytes(params, c) == 169_920

    c_arr = ck.to_array().astype(np.int64)
    product = np.vstack(
        [(r_arr[i : i + 512].astype(np.int64) @ c_arr) % 3 for i in range(0, k, 512)]
    )
    want = np.vstack([c_arr[c:], product]).astype(np.float32).T
    decoded = serial.decode_wave_vk(serial.encode_wave_vk(vk, params), params, c)
    rng = np.random.default_rng(80)
    tails = [np.full(params.n - c, 2, dtype=np.int64)]
    tails += [rng.integers(0, 3, params.n - c) for _ in range(3)]
    for key in (vk, decoded):
        block = key.fold_block
        assert block.ctypes.data % 64 == 0
        assert block.dtype == np.float32 and block.flags.c_contiguous
        assert not block.flags.writeable
        assert np.array_equal(block, want)
        for tail in tails:
            got = (block @ tail.astype(np.float32)) % 3
            assert np.array_equal(got, (want.astype(np.int64) @ tail) % 3)


def test_full_verify_widens_into_one_int64_operand_and_keeps_nothing():
    # k = n-k = 1024: the int64 operand is 8 MiB.  The call may hold it,
    # plus one block's gather transient, but no uint8 copy of R (1 MiB)
    # beside it, and the key keeps nothing once the call returns.
    k = nk = 1024
    r_arr = np.random.default_rng(1024).integers(0, 3, (k, nk), dtype=np.uint8)
    rng = Random(1024)
    salt = rng.randbytes(wv.SALT_BYTES)
    tail = random_trits(k, rng).astype(np.int64)
    head = (wv.hash_to_trits(MESSAGE, salt, nk) - tail @ r_arr.astype(np.int64)) % 3
    s = np.concatenate([head, tail])
    params = wv.WaveParams(n=k + nk, k=k, w=int(np.count_nonzero(s)), tag="2048")
    sig = wv.WaveSignature.from_trits(salt, s)
    pk = TernaryMatrix.from_array(r_arr)
    tracemalloc.start()
    try:
        ok = wv.wave_verify(sig, MESSAGE, pk, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ok
    lane_bytes = np.dtype(np.intp).itemsize + f3.TRITS_PER_BYTE  # per packed byte
    block = f3.MATMUL_BLOCK_ROWS * f3.row_stride(nk) * lane_bytes
    assert peak <= 8 * k * nk + block + (64 << 10)
    assert _held_bytes(pk) == wv.pk_bytes(params) == k * nk // 4
    assert not wv.wave_verify(sig, b"another message", pk, params)
    assert _held_bytes(pk) == wv.pk_bytes(params)


def test_cverify_matches_int64_oracle(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    rng = Random(16)
    verdicts = []
    for i in range(60):
        message = b"oracle %d" % i
        sig = wave_toy_sign(pk, message, params, rng)
        trits = sig.trits().copy()
        hot = int(np.flatnonzero(trits)[rng.randrange(params.w)])
        flipped = trits.copy()
        flipped[hot] = 3 - flipped[hot]  # tamper, weight kept
        light = trits.copy()
        light[hot] = 0  # weight w - 1: the gate rejects
        for candidate in (trits, flipped, light):
            forged = wv.WaveSignature.from_trits(sig.salt, candidate)
            got = wv.wave_cverify(forged, message, vk, params)
            assert got == _int64_cverify(forged, message, vk, params)
            verdicts.append(got)
    assert verdicts[0::3] == [True] * 60
    assert not any(verdicts[2::3])


@pytest.mark.parametrize("case", ["twos-signature", "twos-accept", "uniform-accept"])
def test_cverify_full_size_against_int64(case):
    # Wave 822.  "twos-signature" signs with every trit 2 against a VK of
    # all 2s.  The accept cases fix t = s - (h | 0) and set t[:c] so the
    # exact fold is 0; any rounding would reject.  In "twos-accept" every
    # VK entry and every trit of t[c:] is 2, so each fold sum sits at its
    # maximum 4 (n - c).
    base, c = wv.named_params("822"), 80
    nk = base.redundancy
    rng = Random(822)
    if case == "uniform-accept":
        vk_arr = random_trits((base.n - c) * c, rng).reshape(base.n - c, c)
    else:
        vk_arr = np.full((base.n - c, c), 2, dtype=np.uint8)
    vk = wv.WaveVerificationKey(vk_bottom=TernaryMatrix.from_array(vk_arr))
    salt = b"e" * wv.SALT_BYTES
    if case == "twos-signature":
        s = np.full(base.n, 2, dtype=np.uint8)
    else:
        if case == "twos-accept":
            t = np.full(base.n, 2, dtype=np.uint8)
        else:
            t = random_trits(base.n, rng)
        t[:c] = -(t[c:].astype(np.int64) @ vk_arr.astype(np.int64)) % 3
        s = t.copy()
        s[:nk] = (t[:nk] + wv.hash_to_trits(MESSAGE, salt, nk)) % 3
    sig = wv.WaveSignature.from_trits(salt, s)
    params = dataclasses.replace(base, w=sig.weight())
    expected = case != "twos-signature"
    assert wv.wave_cverify(sig, MESSAGE, vk, params) is expected
    assert _int64_cverify(sig, MESSAGE, vk, params) is expected


def test_cverify_false_accept_rate_smoke(toy, toy_keys):
    # A quick version of the 3^-c soundness experiment (the full 1e5
    # version runs in the acceptance suite).
    pk, params = toy
    _, vk = toy_keys
    nk = params.redundancy
    c = vk.c
    rng = np.random.default_rng(14)
    trials = 20_000
    syndromes = rng.integers(0, 3, size=(trials, nk), dtype=np.int64)
    keep = syndromes.any(axis=1)
    syndromes = syndromes[keep]
    ckey_arr = np.vstack(
        [np.eye(c, dtype=np.uint8), vk.vk_bottom.to_array()[: nk - c]]
    ).astype(np.int64)
    folded = (syndromes @ ckey_arr) % 3
    rate = float((~folded.any(axis=1)).mean())
    expected = 3.0**-c
    sigma = math.sqrt(expected * (1 - expected) / len(syndromes))
    assert abs(rate - expected) < 3 * sigma


# ── operation counts ─────────────────────────────────────────────────────


def test_instrumented_counts_match_formulas(toy, toy_keys):
    pk, params = toy
    _, vk = toy_keys
    sig = wave_toy_sign(pk, MESSAGE, params, Random(15))
    v_counter, c_counter = OpCounter(), OpCounter()
    wv.wave_verify(sig, MESSAGE, pk, params, counter=v_counter)
    wv.wave_cverify(sig, MESSAGE, vk, params, counter=c_counter)
    assert (v_counter.word_muls, v_counter.reductions) == wv.verify_cost(params)
    assert (c_counter.word_muls, c_counter.reductions) == wv.cverify_cost(params, vk.c)


def test_named_instance_speedup_factor():
    for tag, c in [("822", 80), ("1249", 120), ("1644", 160)]:
        params = wv.named_params(tag)
        ratio = wv.verify_cost(params)[0] / wv.cverify_cost(params, c)[0]
        assert ratio >= params.redundancy / (2 * c)


# ── the full verifier is the compressed one at c = n-k ───────────────────


@pytest.mark.parametrize("n, w", [(24, 16), (MAX_TOY_LENGTH, 43)])
def test_full_verifier_equals_compressed_verifier_on_the_public_key(n, w):
    # The public key R is the stored block of a VK with c = n-k, whose
    # fold t[:c] + R^T t[c:] is the full syndrome: the two verifiers
    # agree on every request, which is what lets wave_verify's own
    # product go.
    params = wv.WaveParams(n=n, k=n // 2, w=w, tag="toy")
    rng = Random(2400 + n)
    pk = wave_toy_keygen(params, rng)
    vk = wv.WaveVerificationKey(pk)
    assert (vk.c, vk.n) == (params.redundancy, n)
    verdicts = []
    for i in range(5):
        message = b"identity %d" % i
        sig = wave_toy_sign(pk, message, params, rng)
        trits = sig.trits()
        hot = rng.choice(np.flatnonzero(trits).tolist())
        swapped, light = trits.copy(), trits.copy()
        swapped[hot] = 3 - swapped[hot]  # 1 <-> 2: weight kept
        light[hot] = 0  # weight w - 1
        requests = [
            (sig, message),
            (sig, b"another " + message),
            (wv.WaveSignature.from_trits(sig.salt, swapped), message),
            (wv.WaveSignature.from_trits(sig.salt, light), message),
        ]
        for s, m in requests:
            full = wv.wave_verify(s, m, pk, params)
            assert full == wv.wave_cverify(s, m, vk, params)
            verdicts.append(full)
    assert verdicts == [True, False, False, False] * 5
    for size in (n - 1, n + 1):
        other = wv.WaveSignature.from_trits(sig.salt, [1] * size)
        with pytest.raises(MalformedSignature):
            wv.wave_verify(other, message, pk, params)
        with pytest.raises(MalformedSignature):
            wv.wave_cverify(other, message, vk, params)
