import hashlib
import importlib
import math
import struct
from dataclasses import replace
from random import Random
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import example, given
from hypothesis import strategies as st

from cvk import rw, serial
from cvk import squirrels as sq
from cvk import wave as wv
from cvk.ecrt import PrimeBasis, mod_ecrt_setup
from cvk.errors import MalformedSignature
from cvk.f3 import TernaryMatrix, pack_trits, random_trits, row_stride
from cvk.modmath import inv_mod, sample_distinct_primes, sample_prime
from cvk.toy import toy_sign, wave_toy_keygen, wave_toy_sign


@pytest.fixture(scope="module")
def sq_world(toy_squirrels):
    pk, params, secret = toy_squirrels
    rng = Random(55)
    ck = sq.ckeygen(params, 2, rng, secret_width=16)
    vk = sq.vkeygen(ck, pk, params)
    sig = toy_sign(secret, b"serial", params, rng)
    return pk, params, secret, ck, vk, sig


@pytest.fixture(scope="module")
def wv_world(toy_wave):
    pk, params = toy_wave
    rng = Random(56)
    ck = wv.wave_ckeygen(params, 4, rng)
    vk = wv.wave_vkeygen(pk, ck, params)
    sig = wave_toy_sign(pk, b"serial", params, rng)
    return pk, params, ck, vk, sig


# ── header ───────────────────────────────────────────────────────────────


def test_header_magic_and_fields():
    blob = serial.wrap(serial.SCHEME_WAVE, serial.KIND_PK, 822, b"abc")
    assert blob[:4] == b"CVK1"
    assert serial.unwrap(blob, serial.SCHEME_WAVE, serial.KIND_PK) == b"abc"
    _, _, _, tag, length = serial.HEADER.unpack_from(blob)
    assert tag == 822 and length == 3


@pytest.mark.parametrize("kind", range(5))
@pytest.mark.parametrize("scheme", [serial.SCHEME_RW, serial.SCHEME_SQUIRRELS, serial.SCHEME_WAVE])
def test_is_private_reads_the_kind_from_the_header(scheme, kind):
    # CK, VK and toy SK are private; PK and SIG are public, whatever the scheme.
    blob = serial.wrap(scheme, kind, 0, b"payload")
    assert serial.is_private(blob) == (kind in (serial.KIND_CK, serial.KIND_VK, serial.KIND_SK))
    assert not serial.is_private(blob[: serial.HEADER.size - 1])
    assert not serial.is_private(b"CVK0" + blob[4:])


def test_is_private_is_false_without_a_header():
    sidecar = b'{\n  "scheme": "wave",\n  "tag": "toy",\n  "n": 12,\n  "k": 6,\n  "w": 8\n}\n'
    assert not serial.is_private(sidecar)
    assert not serial.is_private(b"")


@pytest.mark.parametrize("tag, code", [("65535", 65535), ("65536", None), ("70000", None)])
def test_wave_tag_code_fits_the_header_or_is_refused(wv_world, tag, code):
    pk, params, *_ = wv_world
    params = replace(params, tag=tag)
    if code is None:
        with pytest.raises(ValueError, match="16 bits"):
            serial.encode_wave_pk(pk, params)
    else:
        blob = serial.encode_wave_pk(pk, params)
        payload = serial.unwrap(blob, serial.SCHEME_WAVE, serial.KIND_PK)
        assert payload == blob[serial.HEADER.size :]
        assert serial.HEADER.unpack_from(blob)[3] == code


def test_unwrap_rejects_bad_magic():
    blob = b"XXXX" + bytes(12) + b"p"
    with pytest.raises(MalformedSignature):
        serial.unwrap(blob, 0, 0)


def test_unwrap_rejects_wrong_kind():
    blob = serial.wrap(serial.SCHEME_RW, serial.KIND_PK, 0, b"x")
    with pytest.raises(MalformedSignature):
        serial.unwrap(blob, serial.SCHEME_RW, serial.KIND_VK)


def test_unwrap_rejects_length_mismatch():
    blob = serial.wrap(serial.SCHEME_RW, serial.KIND_PK, 0, b"xyz")[:-1]
    with pytest.raises(MalformedSignature):
        serial.unwrap(blob, serial.SCHEME_RW, serial.KIND_PK)


def test_unwrap_rejects_truncated_header():
    with pytest.raises(MalformedSignature):
        serial.unwrap(b"CVK1", 0, 0)


# ── squirrels round trips and sizes ──────────────────────────────────────


def test_squirrels_pk_roundtrip(sq_world):
    pk, params, *_ = sq_world
    blob = serial.encode_squirrels_pk(pk, params)
    assert len(blob) == serial.HEADER.size + sq.pk_bytes(params)
    again = serial.decode_squirrels_pk(blob, params)
    assert np.array_equal(again.residues, pk.residues)
    assert serial.encode_squirrels_pk(again, params) == blob


def test_squirrels_pk_checked_once_from_decode_through_vkeygen(sq_world, monkeypatch):
    pk, params, _, ck, _, _ = sq_world
    calls = []
    check = sq.check_public_key
    monkeypatch.setattr(sq, "check_public_key", lambda *a: calls.append(a) or check(*a))
    key = serial.decode_squirrels_pk(serial.encode_squirrels_pk(pk, params), params)
    assert len(calls) == 1
    first = sq.vkeygen(ck, key, params)
    again = sq.vkeygen(sq.ckeygen(params, 3, Random(57), secret_width=16), key, params)
    assert len(calls) == 1
    assert np.array_equal(first.rows, sq.vkeygen(ck, pk, params).rows)
    assert again.rows.shape[0] == 3
    # Params with another public basis check the key again.
    low = int(pk.residues.max()) + 1
    other = sample_distinct_primes(31, params.s, Random(58), exclude=params.public_basis.primes)
    assert min(other) > low
    key.ecrt_terms(replace(params, public_basis=PrimeBasis(other)))
    assert len(calls) == 2


def test_squirrels_ck_roundtrip(sq_world):
    _, params, _, ck, _, _ = sq_world
    blob = serial.encode_squirrels_ck(ck, params)
    assert len(blob) == serial.HEADER.size + sq.ck_bytes(params, len(ck.secret_basis))
    again = serial.decode_squirrels_ck(blob, params)
    assert again.secret_basis == ck.secret_basis
    assert again.inv_delta == ck.inv_delta
    assert np.array_equal(again.precomp.weights, ck.precomp.weights)
    assert again == ck
    assert serial.encode_squirrels_ck(again, params) == blob


def test_squirrels_vk_roundtrip(sq_world):
    _, params, _, _, vk, _ = sq_world
    blob = serial.encode_squirrels_vk(vk, params)
    assert len(blob) == serial.HEADER.size + sq.vk_bytes(params, len(vk.secret_basis))
    again = serial.decode_squirrels_vk(blob, params)
    assert again.secret_basis == vk.secret_basis
    assert np.array_equal(again.rows, vk.rows)
    assert serial.encode_squirrels_vk(again, params) == blob


def test_squirrels_sig_roundtrip(sq_world):
    _, params, _, _, _, sig = sq_world
    blob = serial.encode_squirrels_sig(sig, params)
    again = serial.decode_squirrels_sig(blob, params)
    assert again == sig
    assert serial.encode_squirrels_sig(again, params) == blob


SQ_I = sq.named_params("I")


@given(st.binary(min_size=2 * SQ_I.n, max_size=2 * SQ_I.n))
@example(b"\x00\x80" * SQ_I.n)  # -2^15 everywhere
@example(b"\xff\x7f" * SQ_I.n)  # 2^15 - 1 everywhere
def test_squirrels_sig_decode_any_words_in_range(words):
    # Every 16-bit word decodes, as one read-only int64 coordinate in
    # [-2^15, 2^15), and re-encodes to the same bytes.
    blob = serial.wrap(serial.SCHEME_SQUIRRELS, serial.KIND_SIG, 1, b"s" * sq.SALT_BYTES + words)
    sig = serial.decode_squirrels_sig(blob, SQ_I)
    assert sig.s_vec.dtype == np.int64 and sig.s_vec.shape == (SQ_I.n,)
    assert not sig.s_vec.flags.writeable
    bound = 1 << (sq.COORD_BITS - 1)
    assert -bound <= sig.s_vec.min() and sig.s_vec.max() < bound
    assert sig.s_vec.tolist() == list(struct.unpack(f"<{SQ_I.n}h", words))
    assert serial.encode_squirrels_sig(sig, SQ_I) == blob


def test_squirrels_sk_roundtrip(sq_world):
    _, params, secret, *_ = sq_world
    blob = serial.encode_squirrels_sk(secret, params)
    again = serial.decode_squirrels_sk(blob, params)
    assert np.array_equal(again.basis, secret.basis)


@pytest.mark.parametrize("size", [7, 8 * 143, 8 * 144])
def test_squirrels_sk_rejects_bad_payload(sq_world, size):
    # A ragged payload, one entry short of 12x12, and the all-zero
    # (singular) 12x12 key.
    _, params, *_ = sq_world
    blob = serial.wrap(serial.SCHEME_SQUIRRELS, serial.KIND_SK, 0, bytes(size))
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_sk(blob, params)


def test_squirrels_sig_rejects_wrong_length(sq_world):
    _, params, _, _, _, sig = sq_world
    blob = serial.encode_squirrels_sig(sig, params)
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_sig(blob[:-2], params)


def test_full_scale_ck_vk_payload_sizes():
    # Synthetic basis at the largest level-1 shape: the byte counts are
    # functions of (n, s, t) only, so a sampled basis exercises the real
    # encoders at true size.
    rng = Random(165)
    primes = set()
    while len(primes) < 165:
        primes.add(sample_prime(31, rng, exclude=primes))
    basis = PrimeBasis(tuple(sorted(primes)))
    params = sq.SquirrelsParams(
        n=1034, q=4096, beta_sq=2026590, s=165, tag="I", public_basis=basis
    )
    secret = set()
    while len(secret) < 5:
        secret.add(sample_prime(31, rng, exclude=secret | primes))
    secret_basis = PrimeBasis(tuple(sorted(secret)))
    ck = sq.compression_key(params, secret_basis)
    ck_blob = serial.encode_squirrels_ck(ck, params)
    assert len(ck_blob) - serial.HEADER.size == 3360

    rows = np.empty((5, 1034), dtype=np.int64)
    for j, r in enumerate(secret_basis.primes):
        rows[j] = np.array([Random(j).randrange(r) for _ in range(1034)])
        rows[j, -1] = r - 1
    vk = sq.SquirrelsVerificationKey(secret_basis, ck.inv_delta, rows)
    vk_blob = serial.encode_squirrels_vk(vk, params)
    assert len(vk_blob) - serial.HEADER.size == 20700
    assert serial.decode_squirrels_vk(vk_blob, params).secret_basis == secret_basis


# ── wave round trips and sizes ───────────────────────────────────────────


def test_wave_pk_roundtrip(wv_world):
    pk, params, *_ = wv_world
    blob = serial.encode_wave_pk(pk, params)
    assert len(blob) == serial.HEADER.size + wv.pk_bytes(params)
    assert serial.decode_wave_pk(blob, params) == pk


def test_wave_ck_roundtrip(wv_world):
    _, params, ck, _, _ = wv_world
    blob = serial.encode_wave_ck(ck, params)
    assert serial.decode_wave_ck(blob, params, ck.cols) == ck


def test_wave_vk_roundtrip(wv_world):
    _, params, _, vk, _ = wv_world
    blob = serial.encode_wave_vk(vk, params)
    assert len(blob) == serial.HEADER.size + wv.vk_bytes(params, vk.c)
    again = serial.decode_wave_vk(blob, params, vk.c)
    assert again.vk_bottom == vk.vk_bottom
    assert serial.encode_wave_vk(again, params) == blob


def test_wave_vk_payload_matches_quarter_formula():
    # byte-aligned c: stored payload is exactly c(n-c)/4 bytes
    params = wv.WaveParams(n=40, k=20, w=27, tag="toy")
    rng = Random(77)
    pk = wave_toy_keygen(params, rng)
    ck = wv.wave_ckeygen(params, 8, rng)
    vk = wv.wave_vkeygen(pk, ck, params)
    blob = serial.encode_wave_vk(vk, params)
    assert len(blob) - serial.HEADER.size == 8 * (params.n - 8) // 4


def test_wave_sig_roundtrip(wv_world):
    _, params, _, _, sig = wv_world
    blob = serial.encode_wave_sig(sig, params)
    again = serial.decode_wave_sig(blob, params)
    assert again == sig
    assert serial.encode_wave_sig(again, params) == blob


def test_wave_sig_rejects_truncation(wv_world):
    _, params, _, _, sig = wv_world
    blob = serial.encode_wave_sig(sig, params)
    with pytest.raises(MalformedSignature):
        serial.decode_wave_sig(blob[:-1], params)


def _wave_sig_trits_loop(packed: bytes, n: int) -> list[int] | None:
    """Field-at-a-time reference for a packed Wave signature: its n
    trits, or None when a field holds 3 or a padding field is set."""
    trits = []
    for i, byte in enumerate(packed):
        for k in range(4):
            field = (byte >> (2 * k)) & 3
            if 4 * i + k >= n:
                if field:
                    return None
            elif field == 3:
                return None
            else:
                trits.append(field)
    return trits


def _packed_with_noise(n: int):
    """Exactly row_stride(n) bytes: arbitrary, or a valid packing with
    up to two bytes rewritten, so both outcomes are drawn often."""
    valid = st.lists(st.integers(0, 2), min_size=n, max_size=n).map(pack_trits)
    edits = st.lists(st.tuples(st.integers(0, row_stride(n) - 1), st.integers(0, 255)), max_size=2)

    def rewrite(args):
        packed, changes = bytearray(args[0]), args[1]
        for pos, value in changes:
            packed[pos] = value
        return bytes(packed)

    arbitrary = st.binary(min_size=row_stride(n), max_size=row_stride(n))
    return st.one_of(arbitrary, st.tuples(valid, edits).map(rewrite))


@pytest.mark.parametrize("n", [24, 25, 26, 27])
@given(data=st.data())
def test_wave_sig_decode_matches_field_loop(n, data):
    # Every payload of the right size either decodes to the loop's trits
    # or raises MalformedSignature exactly when the loop finds a field
    # equal to 3 or a set padding field.
    params = wv.WaveParams(n=n, k=n // 2, w=n // 2, tag="toy")
    packed = data.draw(_packed_with_noise(n))
    blob = serial.wrap(serial.SCHEME_WAVE, serial.KIND_SIG, 0, b"s" * wv.SALT_BYTES + packed)
    want = _wave_sig_trits_loop(packed, n)
    try:
        sig = serial.decode_wave_sig(blob, params)
    except MalformedSignature:
        assert want is None
    else:
        assert sig.trits().tolist() == want
        assert serial.encode_wave_sig(sig, params) == blob


def test_wave_pk_rejects_invalid_trits(wv_world):
    pk, params, *_ = wv_world
    blob = bytearray(serial.encode_wave_pk(pk, params))
    blob[serial.HEADER.size] = 0xFF  # four fields of 3
    with pytest.raises(MalformedSignature):
        serial.decode_wave_pk(bytes(blob), params)


def _wave_vk_payload(params, c):
    rng = Random(58)
    vk = wv.wave_vkeygen(wave_toy_keygen(params, rng), wv.wave_ckeygen(params, c, rng), params)
    return bytearray(serial.encode_wave_vk(vk, params))


def test_wave_vk_rejects_bad_field_in_last_row(toy_wave):
    _, params = toy_wave
    blob = _wave_vk_payload(params, 5)
    blob[-row_stride(5)] |= 0x03  # first field of the last row set to 3
    with pytest.raises(MalformedSignature):
        serial.decode_wave_vk(bytes(blob), params, 5)


def test_wave_vk_rejects_dirty_padding_in_middle_row(toy_wave):
    _, params = toy_wave
    blob = _wave_vk_payload(params, 5)
    middle = (params.n - 5) // 2
    # c = 5 fills one field of each row's second byte; the rest is padding.
    blob[serial.HEADER.size + middle * row_stride(5) + 1] |= 0x04
    with pytest.raises(MalformedSignature):
        serial.decode_wave_vk(bytes(blob), params, 5)


def _corrupted(blob, rng, runs):
    """Copies of a key file with 1-4 payload bytes rewritten."""
    for _ in range(runs):
        bad = bytearray(blob)
        for _ in range(rng.randint(1, 4)):
            bad[serial.HEADER.size + rng.randrange(len(bad) - serial.HEADER.size)] = (
                rng.randrange(256)
            )
        yield bytes(bad)


def test_squirrels_decoders_reject_corrupted_bytes(sq_world):
    # Rewrite 1-4 payload bytes per run: every decoder either returns a
    # key or raises MalformedSignature, and a decoded PK always feeds
    # vkeygen (its residues were range-checked on load).
    pk, params, _, ck, vk, _ = sq_world
    cases = [
        (serial.encode_squirrels_pk(pk, params), serial.decode_squirrels_pk),
        (serial.encode_squirrels_ck(ck, params), serial.decode_squirrels_ck),
        (serial.encode_squirrels_vk(vk, params), serial.decode_squirrels_vk),
    ]
    rng = Random(3000)
    for blob, decode in cases:
        rejected = 0
        for bad in _corrupted(blob, rng, 400):
            try:
                key = decode(bad, params)
            except MalformedSignature:
                rejected += 1
                continue
            if decode is serial.decode_squirrels_pk:
                sq.vkeygen(ck, key, params)
        assert rejected > 0


# ── squirrels PK and VK decoders under hypothesis ────────────────────────
#
# A toy basis with one prime at each end of the word range, so drawn
# residues land both inside and outside [0, p).

FUZZ_PARAMS = sq.SquirrelsParams(
    n=6, q=16, beta_sq=100, s=3, tag="toy", public_basis=PrimeBasis((251, 65521, 2147483647))
)
FUZZ_CK = sq.ckeygen(FUZZ_PARAMS, 2, Random(57), secret_width=16)
FUZZ_PK_BYTES = sq.pk_bytes(FUZZ_PARAMS)
FUZZ_VK_BYTES = sq.vk_bytes(FUZZ_PARAMS, 2)


def _sq_blob(kind, payload):
    return serial.wrap(serial.SCHEME_SQUIRRELS, kind, 0, payload)


def _residue_words():
    """PK payloads of the right length, each residue drawn near [0, p)."""
    cells = [st.integers(-2, min(p + 1, (1 << 31) - 1)) for p in FUZZ_PARAMS.public_basis.primes]
    row = st.tuples(*cells)
    return st.lists(row, min_size=FUZZ_PARAMS.n - 1, max_size=FUZZ_PARAMS.n - 1).map(
        lambda rows: struct.pack(f"<{len(rows) * FUZZ_PARAMS.s}i", *sum(rows, ()))
    )


def _wrong_lengths(right):
    return st.binary(max_size=right + 8).filter(lambda b: len(b) != right)


@given(
    payload=st.one_of(
        _residue_words(),
        st.binary(min_size=FUZZ_PK_BYTES, max_size=FUZZ_PK_BYTES),
        _wrong_lengths(FUZZ_PK_BYTES),
    )
)
def test_squirrels_pk_decoder_returns_key_or_malformed(payload):
    # A PK the decoder returns feeds the transfer terms kept with the key
    # and vkeygen, and encodes back to the same file.
    blob = _sq_blob(serial.KIND_PK, payload)
    try:
        pk = serial.decode_squirrels_pk(blob, FUZZ_PARAMS)
    except MalformedSignature:
        return
    terms = pk.ecrt_terms(FUZZ_PARAMS)
    assert terms.shape == (FUZZ_PARAMS.n - 1, FUZZ_PARAMS.s + 1)
    vk = sq.vkeygen(FUZZ_CK, pk, FUZZ_PARAMS)
    assert vk.rows.shape == (2, FUZZ_PARAMS.n)
    assert serial.encode_squirrels_pk(pk, FUZZ_PARAMS) == blob


def _vk_edits():
    """The words of an installed VK, with up to three of them replaced."""
    pk = sq.SquirrelsPublicKey(
        np.arange(1, 1 + (FUZZ_PARAMS.n - 1) * FUZZ_PARAMS.s).reshape(FUZZ_PARAMS.n - 1, -1)
    )
    vk = sq.vkeygen(FUZZ_CK, pk, FUZZ_PARAMS)
    return _word_edits(serial.encode_squirrels_vk(vk, FUZZ_PARAMS)[serial.HEADER.size :])


def _word_edits(payload):
    """The 32-bit words of a payload, with up to three of them replaced."""
    words = list(struct.unpack(f"<{len(payload) // 4}i", payload))
    value = st.one_of(
        st.integers(-(1 << 31), (1 << 31) - 1),
        st.sampled_from(words).flatmap(lambda w: st.integers(w - 2, w + 2)),
    )
    edit = st.tuples(st.integers(0, len(words) - 1), value)

    def apply(edits):
        out = list(words)
        for index, v in edits:
            out[index] = max(-(1 << 31), min((1 << 31) - 1, v))
        return struct.pack(f"<{len(out)}i", *out)

    return st.lists(edit, max_size=3).map(apply)


@given(
    payload=st.one_of(
        _vk_edits(),
        st.binary(min_size=FUZZ_VK_BYTES, max_size=FUZZ_VK_BYTES),
        _wrong_lengths(FUZZ_VK_BYTES),
    )
)
def test_squirrels_vk_decoder_returns_key_or_malformed(payload):
    # A VK the decoder returns holds reduced rows over its secret primes
    # and encodes back to the same file.
    blob = _sq_blob(serial.KIND_VK, payload)
    try:
        vk = serial.decode_squirrels_vk(blob, FUZZ_PARAMS)
    except MalformedSignature:
        return
    assert np.all((vk.rows >= 0) & (vk.rows < vk.r[:, None]))
    assert serial.encode_squirrels_vk(vk, FUZZ_PARAMS) == blob


FUZZ_CK_PAYLOAD = serial.encode_squirrels_ck(FUZZ_CK, FUZZ_PARAMS)[serial.HEADER.size :]


@given(
    payload=st.one_of(
        _word_edits(FUZZ_CK_PAYLOAD),
        st.binary(min_size=len(FUZZ_CK_PAYLOAD), max_size=len(FUZZ_CK_PAYLOAD)),
        _wrong_lengths(len(FUZZ_CK_PAYLOAD)),
    )
)
def test_squirrels_ck_decoder_returns_key_or_malformed(payload):
    blob = _sq_blob(serial.KIND_CK, payload)
    try:
        ck = serial.decode_squirrels_ck(blob, FUZZ_PARAMS)
    except MalformedSignature:
        return
    assert serial.encode_squirrels_ck(ck, FUZZ_PARAMS) == blob


# ── wave decoders under hypothesis ───────────────────────────────────────
#
# n - k = 13 and c = 3 leave padding fields in every PK, CK and VK row,
# and n = 26 in the signature.

WAVE_FUZZ = wv.WaveParams(n=26, k=13, w=13, tag="toy")
WAVE_FUZZ_C = 3
_wave_fuzz_pk = wave_toy_keygen(WAVE_FUZZ, Random(59))
_wave_fuzz_ck = wv.wave_ckeygen(WAVE_FUZZ, WAVE_FUZZ_C, Random(60))
WAVE_FUZZ_PAYLOADS = {
    serial.KIND_PK: _wave_fuzz_pk.data,
    serial.KIND_CK: _wave_fuzz_ck.data,
    serial.KIND_VK: wv.wave_vkeygen(_wave_fuzz_pk, _wave_fuzz_ck, WAVE_FUZZ).vk_bottom.data,
    serial.KIND_SIG: b"s" * wv.SALT_BYTES + pack_trits(random_trits(WAVE_FUZZ.n, Random(61))),
}


def _wave_payloads(kind):
    """A valid payload with up to three bytes replaced, any bytes of its
    length, or bytes of another length."""
    payload = WAVE_FUZZ_PAYLOADS[kind]
    edit = st.tuples(st.integers(0, len(payload) - 1), st.integers(0, 255))

    def apply(edits):
        out = bytearray(payload)
        for index, value in edits:
            out[index] = value
        return bytes(out)

    return st.one_of(
        st.lists(edit, max_size=3).map(apply),
        st.binary(min_size=len(payload), max_size=len(payload)),
        _wrong_lengths(len(payload)),
    )


def _wave_decodes_to_itself(kind, payload, decode, encode):
    """A payload either decodes to a value that encodes back to the same
    file, or raises MalformedSignature."""
    blob = serial.wrap(serial.SCHEME_WAVE, kind, 0, payload)
    try:
        value = decode(blob)
    except MalformedSignature:
        return
    assert encode(value) == blob


@given(payload=_wave_payloads(serial.KIND_PK))
def test_wave_pk_decoder_returns_key_or_malformed(payload):
    _wave_decodes_to_itself(
        serial.KIND_PK, payload,
        lambda blob: serial.decode_wave_pk(blob, WAVE_FUZZ),
        lambda pk: serial.encode_wave_pk(pk, WAVE_FUZZ),
    )


@given(payload=_wave_payloads(serial.KIND_CK))
def test_wave_ck_decoder_returns_key_or_malformed(payload):
    _wave_decodes_to_itself(
        serial.KIND_CK, payload,
        lambda blob: serial.decode_wave_ck(blob, WAVE_FUZZ, WAVE_FUZZ_C),
        lambda ck: serial.encode_wave_ck(ck, WAVE_FUZZ),
    )


@given(payload=_wave_payloads(serial.KIND_VK))
def test_wave_vk_decoder_returns_key_or_malformed(payload):
    _wave_decodes_to_itself(
        serial.KIND_VK, payload,
        lambda blob: serial.decode_wave_vk(blob, WAVE_FUZZ, WAVE_FUZZ_C),
        lambda vk: serial.encode_wave_vk(vk, WAVE_FUZZ),
    )


@given(payload=_wave_payloads(serial.KIND_SIG))
def test_wave_sig_decoder_returns_signature_or_malformed(payload):
    _wave_decodes_to_itself(
        serial.KIND_SIG, payload,
        lambda blob: serial.decode_wave_sig(blob, WAVE_FUZZ),
        lambda sig: serial.encode_wave_sig(sig, WAVE_FUZZ),
    )


def _word(blob, index):
    return struct.unpack_from("<i", blob, serial.HEADER.size + 4 * index)[0]


def _with_word(blob, index, value):
    bad = bytearray(blob)
    struct.pack_into("<i", bad, serial.HEADER.size + 4 * index, value)
    return bytes(bad)


@pytest.mark.parametrize("field", ["product", "cofactor", "inv_delta"])
def test_squirrels_ck_rejects_word_not_following_from_primes(sq_world, field):
    # Payload: t primes, t product residues, t*s cofactor residues, t
    # inverse residues.  The primes stay intact and the new word stays
    # reduced, so only the rebuild-and-compare catches it.
    _, params, _, ck, _, _ = sq_world
    t, s = len(ck.secret_basis), params.s
    index = {"product": t, "cofactor": 2 * t, "inv_delta": (s + 2) * t}[field]
    r = ck.secret_basis.primes[0]
    blob = serial.encode_squirrels_ck(ck, params)
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_ck(_with_word(blob, index, (_word(blob, index) + 1) % r), params)


def test_squirrels_ck_vk_reject_primes_inside_multiplier_window(sq_world):
    # Consistent files on secret primes 3 and 5: the transfer is defined,
    # but every multiplier mod 3 or 5 lands in the window, so cverify
    # would accept random vectors.  vkeygen refuses such a CK, so the VK
    # file is written by hand: the primes, their inverse residues and
    # reduced rows.
    pk, params, *_ = sq_world
    small = PrimeBasis((3, 5))
    precomp = mod_ecrt_setup(params.public_basis, small)
    inv_delta = tuple(inv_mod(d, r) for d, r in zip(precomp.weights[:, -1].tolist(), small.primes))
    ck = sq.SquirrelsCompressionKey(params.public_basis, small, precomp, inv_delta)
    rows = pk.residues[:, :2] % np.array(small.primes)
    payload = np.concatenate([small.primes, inv_delta, rows.ravel()]).astype("<i4").tobytes()
    assert len(payload) == sq.vk_bytes(params, 2)
    vk_file = serial.wrap(serial.SCHEME_SQUIRRELS, serial.KIND_VK, 0, payload)
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_ck(serial.encode_squirrels_ck(ck, params), params)
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_vk(vk_file, params)


def test_squirrels_vk_rejects_altered_inv_delta(sq_world):
    _, params, _, _, vk, _ = sq_world
    t = len(vk.secret_basis)
    r = vk.secret_basis.primes[1]
    blob = serial.encode_squirrels_vk(vk, params)
    bad = _with_word(blob, t + 1, (_word(blob, t + 1) + 1) % r)
    with pytest.raises(MalformedSignature):
        serial.decode_squirrels_vk(bad, params)


def test_squirrels_vk_rejects_unreduced_row(sq_world):
    # Rows are stored coordinate-major after the 2t header words: the
    # entry for coordinate i and secret prime j is word 2t + i*t + j.
    _, params, _, _, vk, _ = sq_world
    t = len(vk.secret_basis)
    blob = serial.encode_squirrels_vk(vk, params)
    for j, r in enumerate(vk.secret_basis.primes):
        for value in (r, -1):
            with pytest.raises(MalformedSignature):
                serial.decode_squirrels_vk(_with_word(blob, 2 * t + 5 * t + j, value), params)


def test_squirrels_ck_decodes_only_unchanged_files(sq_world):
    _, params, _, ck, _, _ = sq_world
    blob = serial.encode_squirrels_ck(ck, params)
    for bad in _corrupted(blob, Random(2996), 300):
        try:
            serial.decode_squirrels_ck(bad, params)
        except MalformedSignature:
            continue
        assert bad == blob


def test_squirrels_vk_decodes_only_in_range_row_rewrites(sq_world):
    _, params, _, _, vk, _ = sq_world
    blob = serial.encode_squirrels_vk(vk, params)
    head = serial.HEADER.size + 8 * len(vk.secret_basis)
    for bad in _corrupted(blob, Random(2997), 300):
        try:
            key = serial.decode_squirrels_vk(bad, params)
        except MalformedSignature:
            continue
        assert bad[:head] == blob[:head]
        assert np.all(key.rows < np.array(key.secret_basis.primes)[:, None])


# ── rabin-williams round trips ───────────────────────────────────────────


def test_rw_roundtrips():
    rng = Random(31)
    kp = rw.rw_keygen(96, rng)
    sig = rw.rw_sign(kp, b"serial", rng)
    ell = rw.rw_ckeygen(20, rng)
    vk = rw.rw_vkeygen(ell, kp.n)

    assert serial.decode_rw_pk(serial.encode_rw_pk(kp.n)) == kp.n
    assert serial.decode_rw_sk(serial.encode_rw_sk(kp)) == kp
    assert serial.decode_rw_ck(serial.encode_rw_ck(ell)) == ell
    assert serial.decode_rw_vk(serial.encode_rw_vk(vk)) == vk
    assert serial.decode_rw_sig(serial.encode_rw_sig(sig)) == sig


def test_rw_sig_negative_t_roundtrip():
    rng = Random(32)
    kp = rw.rw_keygen(96, rng)
    sig = None
    for i in range(50):
        candidate = rw.rw_sign(kp, b"neg %d" % i, rng)
        if candidate.t < 0:
            sig = candidate
            break
    assert sig is not None
    assert serial.decode_rw_sig(serial.encode_rw_sig(sig)) == sig


def test_rw_sig_rejects_trailing_bytes():
    rng = Random(33)
    kp = rw.rw_keygen(96, rng)
    sig = rw.rw_sign(kp, b"trail", rng)
    blob = serial.encode_rw_sig(sig)
    broken = blob[: serial.HEADER.size - 8]
    broken += (len(blob) - serial.HEADER.size + 1).to_bytes(8, "little")
    broken += blob[serial.HEADER.size :] + b"\x00"
    with pytest.raises(MalformedSignature):
        serial.decode_rw_sig(broken)


# ── rabin-williams load checks ───────────────────────────────────────────

# Just outside (2^7, 2^62): the largest 7-bit prime and the first prime
# above 2^62; inside it, a product of two primes.
_RW_BAD_ELLS = [0, 1, 4, 127, (1 << 62) + 135, 131 * 137]


@pytest.mark.parametrize("ell", _RW_BAD_ELLS)
def test_rw_ck_rejects_ell_that_is_not_a_compression_key(ell):
    with pytest.raises(MalformedSignature):
        serial.decode_rw_ck(serial.encode_rw_ck(ell))


@pytest.mark.parametrize("ell", _RW_BAD_ELLS)
def test_rw_vk_rejects_ell_that_is_not_a_compression_key(ell):
    with pytest.raises(MalformedSignature):
        serial.decode_rw_vk(serial.encode_rw_vk(rw.RwVerificationKey(ell, 0, 96)))


@pytest.mark.parametrize("ell", [131, (1 << 62) - 57])
def test_rw_keys_accept_ell_at_the_width_edges(ell):
    vk = rw.RwVerificationKey(ell, ell - 1, 96)
    assert serial.decode_rw_ck(serial.encode_rw_ck(ell)) == ell
    assert serial.decode_rw_vk(serial.encode_rw_vk(vk)) == vk


def test_rw_vk_rejects_unreduced_n_mod_ell():
    ell = rw.rw_ckeygen(20, Random(34))
    with pytest.raises(MalformedSignature):
        serial.decode_rw_vk(serial.encode_rw_vk(rw.RwVerificationKey(ell, ell, 96)))


def test_rw_sk_rejects_primes_of_the_wrong_class():
    kp = rw.rw_keygen(96, Random(35))
    swapped = serial.encode_rw_sk(SimpleNamespace(p=kp.q, q=kp.p))
    with pytest.raises(MalformedSignature):
        serial.decode_rw_sk(swapped)


# Moduli rw_keygen cannot make: N = 1 (mod 8), and N = 5 (mod 8) just
# outside [64, 512] bits.
@pytest.mark.parametrize(
    "n",
    [3, (1 << 95) + 1, 1 << 100, (1 << 62) + 5, (1 << 512) + 5],
    ids=["three", "one-mod-8", "power-of-two", "63-bit", "513-bit"],
)
def test_rw_pk_rejects_modulus_rw_keygen_cannot_make(n):
    with pytest.raises(MalformedSignature):
        serial.decode_rw_pk(serial.encode_rw_pk(n))


@pytest.mark.parametrize("n", [(1 << 63) + 5, (1 << 511) + 5], ids=["64-bit", "512-bit"])
def test_rw_pk_accepts_modulus_at_the_width_edges(n):
    assert serial.decode_rw_pk(serial.encode_rw_pk(n)) == n


@pytest.mark.parametrize("n_bits", [0, 63, 513, 0xFFFF])
def test_rw_vk_rejects_modulus_width_outside_keygen_range(n_bits):
    ell = rw.rw_ckeygen(20, Random(36))
    with pytest.raises(MalformedSignature):
        serial.decode_rw_vk(serial.encode_rw_vk(rw.RwVerificationKey(ell, 0, n_bits)))


def _prime_in_class(low, residue):
    p = sympy.nextprime(low)
    while p % 8 != residue:
        p = sympy.nextprime(p)
    return int(p)


def test_rw_sk_rejects_composite_or_too_wide_factors():
    kp = rw.rw_keygen(96, Random(37))
    composite_p, composite_q = (
        next(v for v in range(x + 8, x + 8000, 8) if not sympy.isprime(v)) for x in (kp.p, kp.q)
    )
    wide = (_prime_in_class(1 << 256, 3), _prime_in_class(1 << 256, 7))
    for p, q in ((kp.p, composite_q), (composite_p, kp.q), wide):
        with pytest.raises(MalformedSignature):
            serial.decode_rw_sk(serial.encode_rw_sk(SimpleNamespace(p=p, q=q)))


def test_rw_decoders_reject_corrupted_bytes():
    # Rewrite 1-4 payload bytes per run: every decoder either returns a
    # key or raises MalformedSignature.
    rng = Random(3001)
    kp = rw.rw_keygen(96, rng)
    ell = rw.rw_ckeygen(31, rng)
    cases = [
        (serial.encode_rw_pk(kp.n), serial.decode_rw_pk),
        (serial.encode_rw_sk(kp), serial.decode_rw_sk),
        (serial.encode_rw_ck(ell), serial.decode_rw_ck),
        (serial.encode_rw_vk(rw.rw_vkeygen(ell, kp.n)), serial.decode_rw_vk),
        (serial.encode_rw_sig(rw.rw_sign(kp, b"fuzz", rng)), serial.decode_rw_sig),
    ]
    for blob, decode in cases:
        rejected = 0
        for bad in _corrupted(blob, rng, 600):
            try:
                decode(bad)
            except MalformedSignature:
                rejected += 1
        assert rejected > 0, decode.__name__


# ── pinned key-file bytes ────────────────────────────────────────────────
#
# sha256 prefixes of whole key files from seeded keygens.  A change that
# is meant to leave the file formats and the key arithmetic alone must
# leave these bytes alone too.


def _sha_prefix(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


def test_squirrels_tag_codes_follow_the_instance_table(monkeypatch):
    # Toy keys are 0 and the named instances 1 to 5 in table order; an
    # instance added to the table gets the next code, not 0.
    codes = [serial.tag_code(serial.SCHEME_SQUIRRELS, tag) for tag in ("toy",) + sq.SQUIRRELS_TAGS]
    assert codes == [0, 1, 2, 3, 4, 5]
    monkeypatch.setattr(sq, "SQUIRRELS_TAGS", sq.SQUIRRELS_TAGS + ("VI",))
    try:
        importlib.reload(serial)
        assert serial.tag_code(serial.SCHEME_SQUIRRELS, "VI") == 6
        assert serial.tag_code(serial.SCHEME_SQUIRRELS, "V") == 5
    finally:
        monkeypatch.undo()
        importlib.reload(serial)
    assert serial.tag_code(serial.SCHEME_SQUIRRELS, "VI") == 0


@pytest.mark.parametrize(
    "tag,t,ck_sha,vk_sha",
    [
        ("I", 5, "01887a444b49def1", "b75d70f0241be881"),
        ("V", 11, "2becf18720bdea69", "201d740ad897f8d8"),
    ],
    ids=["I", "V"],
)
def test_squirrels_key_files_are_pinned(tag, t, ck_sha, vk_sha):
    base = sq.named_params(tag)
    rng = Random(7000 + base.s)
    params = replace(base, public_basis=PrimeBasis(sample_distinct_primes(31, base.s, rng)))
    gen = np.random.default_rng(base.s)
    primes = np.array(params.public_basis.primes)
    pk = sq.SquirrelsPublicKey(gen.integers(0, primes, size=(base.n - 1, base.s)))
    ck = sq.ckeygen(params, t, rng)
    vk = sq.vkeygen(ck, pk, params)
    assert _sha_prefix(serial.encode_squirrels_ck(ck, params)) == ck_sha
    assert _sha_prefix(serial.encode_squirrels_vk(vk, params)) == vk_sha


def test_wave_vk_file_is_pinned():
    params = wv.WaveParams(n=512, k=256, w=300, tag="512")
    rng = Random(512)
    pk = TernaryMatrix.random(params.k, params.redundancy, rng)
    vk = wv.wave_vkeygen(pk, wv.wave_ckeygen(params, 80, rng), params)
    assert _sha_prefix(serial.encode_wave_vk(vk, params)) == "8b8da4b63c21b204"


def test_rw_key_files_are_pinned():
    kp = rw.rw_keygen(128, Random(128))
    assert _sha_prefix(serial.encode_rw_pk(kp.n)) == "57f7d08daa7ace8f"
    assert _sha_prefix(serial.encode_rw_sk(kp)) == "ee1bec65c599bbb2"
