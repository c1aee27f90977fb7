"""Binary file formats for keys and signatures.

Every file is a 16-byte header followed by a scheme-specific payload:

    magic   4 bytes  b"CVK1"
    scheme  1 byte   0 = Rabin-Williams, 1 = Squirrels, 2 = Wave
    kind    1 byte   0 = PK, 1 = CK, 2 = VK, 3 = SIG, 4 = toy signing key
    tag     2 bytes  instance code, little-endian (0 = toy)
    length  8 bytes  payload bytes, little-endian

``wrap`` packs this header onto a payload; ``unwrap`` checks magic,
scheme, kind and length and returns the payload alone, and a caller
that wants the tag reads it with ``HEADER.unpack_from``.

The decoders check the framing only: the header, the payload lengths,
the word widths, and the words that must re-encode byte for byte.  Key
rules belong to the scheme modules, which every builder calls, decoders
included; ``_malformed`` raises an owner's refusal as
``MalformedSignature``.

Little-endian throughout.  Squirrels residues are signed 32-bit fields
(always non-negative except the implicit final -1, which is never
stored), so PK/VK/CK payload lengths land exactly on the documented
4(n-1)s / 4(n+1)t / 4(s+3)t byte counts.  Wave payloads are packed
trits, rows byte-aligned.

Each scheme's modules load on the first call that needs them, so a
process that reads only Wave files never runs Squirrels or RW code.
"""

from __future__ import annotations

import struct

import numpy as np

from . import LazyModule
from .errors import CvkError, MalformedSignature

ecrt = LazyModule("ecrt")
f3 = LazyModule("f3")
rw = LazyModule("rw")
sq = LazyModule("squirrels")
wv = LazyModule("wave")

MAGIC = b"CVK1"
HEADER = struct.Struct("<4sBBHQ")

SCHEME_RW = 0
SCHEME_SQUIRRELS = 1
SCHEME_WAVE = 2

KIND_PK = 0
KIND_CK = 1
KIND_VK = 2
KIND_SIG = 3
KIND_SK = 4  # toy signing key: artifact plumbing for the CLI pipeline

# Compression, verification and toy signing keys stay with their owner.
PRIVATE_KINDS = frozenset({KIND_CK, KIND_VK, KIND_SK})


def tag_code(scheme: int, tag: str) -> int:
    """The header's instance code for ``tag``, which must fit its 16 bits.
    Toy keys are 0; named Squirrels instances are numbered from 1 in their
    table order."""
    code = 0
    if scheme == SCHEME_SQUIRRELS and tag in sq.SQUIRRELS_TAGS:
        code = sq.SQUIRRELS_TAGS.index(tag) + 1
    elif scheme == SCHEME_WAVE and tag.isdigit():
        code = int(tag)
    if code >= 1 << 16:
        raise ValueError(f"tag {tag!r}: instance code {code} does not fit the header's 16 bits")
    return code


def wrap(scheme: int, kind: int, tag: int, payload: bytes) -> bytes:
    return HEADER.pack(MAGIC, scheme, kind, tag, len(payload)) + payload


def is_private(blob: bytes) -> bool:
    """Whether ``blob``'s header names one of the ``PRIVATE_KINDS``."""
    if len(blob) < HEADER.size:
        return False
    magic, _, kind, _, _ = HEADER.unpack_from(blob)
    return magic == MAGIC and kind in PRIVATE_KINDS


def unwrap(blob: bytes, scheme: int, kind: int) -> bytes:
    """``blob``'s payload, once the header's magic, scheme, kind and
    length check out.  The tag goes unchecked: decoders take the instance
    from their params."""
    if len(blob) < HEADER.size:
        raise MalformedSignature("file shorter than header")
    magic, got_scheme, got_kind, _, length = HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise MalformedSignature(f"bad magic {magic!r}")
    if got_scheme != scheme or got_kind != kind:
        raise MalformedSignature(
            f"file holds scheme={got_scheme} kind={got_kind}, "
            f"expected scheme={scheme} kind={kind}"
        )
    payload = blob[HEADER.size :]
    if len(payload) != length:
        raise MalformedSignature(
            f"payload is {len(payload)} bytes, header promises {length}"
        )
    return payload


def _words(dtype: str, *parts) -> bytes:
    """Little-endian words; a value the width cannot hold raises, not wraps."""
    arr = np.concatenate([np.asarray(part, dtype=np.int64).ravel() for part in parts])
    info = np.iinfo(dtype)
    if arr.size and (arr.min() < info.min or arr.max() > info.max):
        raise ValueError(f"value outside the {dtype} word range")
    return arr.astype(dtype).tobytes()


def _malformed(build, *args):
    """``build(*args)``, its ``ValueError`` or ``CvkError`` raised as
    ``MalformedSignature``."""
    try:
        return build(*args)
    except (ValueError, CvkError) as exc:
        raise MalformedSignature(str(exc)) from None


def _read_words(payload: bytes, dtype: str) -> np.ndarray:
    if len(payload) % np.dtype(dtype).itemsize:
        raise MalformedSignature("payload not a whole number of words")
    return np.frombuffer(payload, dtype=dtype).astype(np.int64)


# ── Squirrels ────────────────────────────────────────────────────────────


def encode_squirrels_pk(pk: sq.SquirrelsPublicKey, params: sq.SquirrelsParams) -> bytes:
    payload = _words("<i4", pk.residues)
    assert len(payload) == sq.pk_bytes(params)
    return wrap(SCHEME_SQUIRRELS, KIND_PK, tag_code(SCHEME_SQUIRRELS, params.tag), payload)


def decode_squirrels_pk(blob: bytes, params: sq.SquirrelsParams) -> sq.SquirrelsPublicKey:
    payload = unwrap(blob, SCHEME_SQUIRRELS, KIND_PK)
    expected = sq.pk_bytes(params)
    if len(payload) != expected:
        raise MalformedSignature(f"PK payload {len(payload)} != {expected}")
    # Shaped before the widening copy, so the key owns its residues and
    # need not copy them again.
    residues = np.frombuffer(payload, dtype="<i4").reshape(params.n - 1, params.s)
    pk = sq.SquirrelsPublicKey(residues.astype(np.int64))
    _malformed(pk.check, params)
    return pk


def _squirrels_ck_payload(ck: sq.SquirrelsCompressionKey) -> bytes:
    """t primes, t product residues, t s cofactor residues (prime-major)
    and t inverse residues: the precomp's weights with the last column
    first."""
    weights = ck.precomp.weights
    return _words("<i4", ck.secret_basis.primes, weights[:, -1], weights[:, :-1], ck.inv_delta)


def encode_squirrels_ck(ck: sq.SquirrelsCompressionKey, params: sq.SquirrelsParams) -> bytes:
    payload = _squirrels_ck_payload(ck)
    assert len(payload) == sq.ck_bytes(params, len(ck.secret_basis))
    return wrap(SCHEME_SQUIRRELS, KIND_CK, tag_code(SCHEME_SQUIRRELS, params.tag), payload)


def decode_squirrels_ck(blob: bytes, params: sq.SquirrelsParams) -> sq.SquirrelsCompressionKey:
    """Every CK word besides the t secret primes follows from them, so
    the key is rebuilt from the primes and must re-encode to the file."""
    payload = unwrap(blob, SCHEME_SQUIRRELS, KIND_CK)
    words = _read_words(payload, "<i4")
    if words.size % (params.s + 3):
        raise MalformedSignature("CK payload does not split into t rows")
    basis = _malformed(ecrt.PrimeBasis, tuple(words[: words.size // (params.s + 3)].tolist()))
    ck = _malformed(sq.compression_key, params, basis)
    if _squirrels_ck_payload(ck) != payload:
        raise MalformedSignature("CK words do not follow from its secret primes")
    return ck


def encode_squirrels_vk(vk: sq.SquirrelsVerificationKey, params: sq.SquirrelsParams) -> bytes:
    t = len(vk.secret_basis)
    # Transferred rows, coordinate-major; the final (implicit -1) row is
    # reconstructed on load and not stored.
    payload = _words("<i4", vk.secret_basis.primes, vk.inv_delta, vk.rows[:, : params.n - 1].T)
    assert len(payload) == sq.vk_bytes(params, t)
    return wrap(SCHEME_SQUIRRELS, KIND_VK, tag_code(SCHEME_SQUIRRELS, params.tag), payload)


def decode_squirrels_vk(blob: bytes, params: sq.SquirrelsParams) -> sq.SquirrelsVerificationKey:
    """The inverse-determinant words must follow from the secret primes,
    and ``SquirrelsVerificationKey`` refuses an entry not reduced mod its
    prime; a row rewritten within range is not detectable from the
    payload alone."""
    payload = unwrap(blob, SCHEME_SQUIRRELS, KIND_VK)
    n = params.n
    if len(payload) % (4 * (n + 1)):
        raise MalformedSignature("VK payload does not split into t columns")
    words = _read_words(payload, "<i4")
    t = words.size // (n + 1)
    basis = _malformed(ecrt.PrimeBasis, tuple(words[:t].tolist()))
    ck = _malformed(sq.compression_key, params, basis)
    if ck.inv_delta != tuple(words[t : 2 * t].tolist()):
        raise MalformedSignature("VK inverse residues do not follow from its secret primes")
    rows = np.empty((t, n), dtype=np.int64)
    rows[:, : n - 1] = words[2 * t :].reshape(n - 1, t).T
    rows[:, n - 1] = words[:t] - 1
    return _malformed(sq.SquirrelsVerificationKey, ck.secret_basis, ck.inv_delta, rows)


def encode_squirrels_sig(sig: sq.SquirrelsSignature, params: sq.SquirrelsParams) -> bytes:
    payload = sig.salt + _words("<i2", sig.s_vec)
    return wrap(SCHEME_SQUIRRELS, KIND_SIG, tag_code(SCHEME_SQUIRRELS, params.tag), payload)


def decode_squirrels_sig(blob: bytes, params: sq.SquirrelsParams) -> sq.SquirrelsSignature:
    payload = unwrap(blob, SCHEME_SQUIRRELS, KIND_SIG)
    expected = sq.SALT_BYTES + 2 * params.n
    if len(payload) != expected:
        raise MalformedSignature(f"signature payload {len(payload)} != {expected}")
    coords = np.frombuffer(payload, dtype="<i2", offset=sq.SALT_BYTES)
    return sq.SquirrelsSignature(salt=payload[: sq.SALT_BYTES], s_vec=coords)


def encode_squirrels_sk(secret: sq.ToySquirrelsSecret, params: sq.SquirrelsParams) -> bytes:
    payload = secret.basis.astype("<i8").tobytes()
    return wrap(SCHEME_SQUIRRELS, KIND_SK, tag_code(SCHEME_SQUIRRELS, params.tag), payload)


def decode_squirrels_sk(blob: bytes, params: sq.SquirrelsParams) -> sq.ToySquirrelsSecret:
    payload = unwrap(blob, SCHEME_SQUIRRELS, KIND_SK)
    basis = _malformed(np.reshape, _read_words(payload, "<i8"), (params.n, params.n))
    return sq.ToySquirrelsSecret(basis=basis, inv=_malformed(np.linalg.inv, basis.astype(float)))


# ── Wave ─────────────────────────────────────────────────────────────────


def encode_wave_pk(pk: f3.TernaryMatrix, params: wv.WaveParams) -> bytes:
    payload = pk.data
    assert len(payload) == wv.pk_bytes(params)
    return wrap(SCHEME_WAVE, KIND_PK, tag_code(SCHEME_WAVE, params.tag), payload)


def decode_wave_pk(blob: bytes, params: wv.WaveParams) -> f3.TernaryMatrix:
    payload = unwrap(blob, SCHEME_WAVE, KIND_PK)
    return _malformed(f3.TernaryMatrix, params.k, params.redundancy, payload)


def encode_wave_ck(ck: f3.TernaryMatrix, params: wv.WaveParams) -> bytes:
    payload = ck.data
    assert len(payload) == wv.ck_bytes(params, ck.cols)
    return wrap(SCHEME_WAVE, KIND_CK, tag_code(SCHEME_WAVE, params.tag), payload)


def decode_wave_ck(blob: bytes, params: wv.WaveParams, c: int) -> f3.TernaryMatrix:
    payload = unwrap(blob, SCHEME_WAVE, KIND_CK)
    c = _malformed(wv.check_c, c, params.redundancy)
    return _malformed(f3.TernaryMatrix, params.redundancy, c, payload)


def encode_wave_vk(vk: wv.WaveVerificationKey, params: wv.WaveParams) -> bytes:
    payload = vk.vk_bottom.data
    assert len(payload) == wv.vk_bytes(params, vk.c)
    return wrap(SCHEME_WAVE, KIND_VK, tag_code(SCHEME_WAVE, params.tag), payload)


def decode_wave_vk(blob: bytes, params: wv.WaveParams, c: int) -> wv.WaveVerificationKey:
    payload = unwrap(blob, SCHEME_WAVE, KIND_VK)
    c = _malformed(wv.check_c, c, params.redundancy)
    return wv.WaveVerificationKey(_malformed(f3.TernaryMatrix, params.n - c, c, payload))


def encode_wave_sig(sig: wv.WaveSignature, params: wv.WaveParams) -> bytes:
    payload = sig.salt + sig.s_packed
    return wrap(SCHEME_WAVE, KIND_SIG, tag_code(SCHEME_WAVE, params.tag), payload)


def decode_wave_sig(blob: bytes, params: wv.WaveParams) -> wv.WaveSignature:
    payload = unwrap(blob, SCHEME_WAVE, KIND_SIG)
    return wv.WaveSignature(
        salt=payload[: wv.SALT_BYTES], s_packed=payload[wv.SALT_BYTES :], n=params.n
    )


# ── Rabin-Williams ───────────────────────────────────────────────────────


def _encode_biguint(x: int) -> bytes:
    length = max(1, (x.bit_length() + 7) // 8)
    return struct.pack("<I", length) + x.to_bytes(length, "little")


def _decode_biguint(payload: bytes, pos: int) -> tuple[int, int]:
    if pos + 4 > len(payload):
        raise MalformedSignature("truncated integer field")
    (length,) = struct.unpack_from("<I", payload, pos)
    pos += 4
    if pos + length > len(payload):
        raise MalformedSignature("truncated integer field")
    return int.from_bytes(payload[pos : pos + length], "little"), pos + length


def encode_rw_pk(n: int) -> bytes:
    return wrap(SCHEME_RW, KIND_PK, 0, _encode_biguint(n))


def decode_rw_pk(blob: bytes) -> int:
    """An N that ``rw.check_modulus`` accepts."""
    payload = unwrap(blob, SCHEME_RW, KIND_PK)
    n, pos = _decode_biguint(payload, 0)
    if pos != len(payload):
        raise MalformedSignature("trailing bytes in PK")
    return _malformed(rw.check_modulus, n)


def encode_rw_sk(kp) -> bytes:
    payload = _encode_biguint(kp.p) + _encode_biguint(kp.q)
    return wrap(SCHEME_RW, KIND_SK, 0, payload)


def decode_rw_sk(blob: bytes) -> rw.RwKeypair:
    payload = unwrap(blob, SCHEME_RW, KIND_SK)
    p, pos = _decode_biguint(payload, 0)
    q, pos = _decode_biguint(payload, pos)
    if pos != len(payload):
        raise MalformedSignature("trailing bytes in SK")
    return _malformed(rw.check_keypair, _malformed(rw.RwKeypair, p, q))


def encode_rw_ck(ell: int) -> bytes:
    return wrap(SCHEME_RW, KIND_CK, 0, struct.pack("<Q", ell))


def decode_rw_ck(blob: bytes) -> int:
    payload = unwrap(blob, SCHEME_RW, KIND_CK)
    if len(payload) != 8:
        raise MalformedSignature("CK payload must be 8 bytes")
    return _malformed(rw.check_ell, struct.unpack("<Q", payload)[0])


def encode_rw_vk(vk) -> bytes:
    payload = struct.pack("<QQH", vk.ell, vk.n_ell, vk.n_bits)
    return wrap(SCHEME_RW, KIND_VK, 0, payload)


def decode_rw_vk(blob: bytes) -> rw.RwVerificationKey:
    payload = unwrap(blob, SCHEME_RW, KIND_VK)
    if len(payload) != 18:
        raise MalformedSignature("VK payload must be 18 bytes")
    ell, n_ell, n_bits = struct.unpack("<QQH", payload)
    if n_ell >= _malformed(rw.check_ell, ell):
        raise MalformedSignature("VK: N mod ell not reduced")
    _malformed(rw.check_modulus_width, n_bits)
    return rw.RwVerificationKey(ell=ell, n_ell=n_ell, n_bits=n_bits)


def encode_rw_sig(sig) -> bytes:
    payload = (
        struct.pack("<bB", sig.e, sig.f)
        + sig.salt
        + _encode_biguint(sig.s)
        + struct.pack("<b", -1 if sig.t < 0 else 1)
        + _encode_biguint(abs(sig.t))
    )
    return wrap(SCHEME_RW, KIND_SIG, 0, payload)


def decode_rw_sig(blob: bytes) -> rw.RwSignature:
    payload = unwrap(blob, SCHEME_RW, KIND_SIG)
    if len(payload) < 2 + rw.SALT_BYTES:
        raise MalformedSignature("signature payload truncated")
    e, f = struct.unpack_from("<bB", payload, 0)
    salt = payload[2 : 2 + rw.SALT_BYTES]
    s, pos = _decode_biguint(payload, 2 + rw.SALT_BYTES)
    if pos + 1 > len(payload):
        raise MalformedSignature("signature payload truncated")
    (sign,) = struct.unpack_from("<b", payload, pos)
    t_abs, pos = _decode_biguint(payload, pos + 1)
    if pos != len(payload):
        raise MalformedSignature("trailing bytes in signature")
    return rw.RwSignature(e=e, f=f, salt=salt, s=s, t=sign * t_abs)
