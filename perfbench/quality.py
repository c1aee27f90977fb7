"""The paper's own metrics, reported beside the wall-clock figures.

* Word-multiplication counts of ``verify``/``cverify`` at every named
  instance, from the package's cost functions.
* Empirical against predicted false-accept rates of the compressed
  verifiers on toy instances, from a fixed seed so that runs of
  different commits are comparable: Wave 3^-c and Squirrels
  (window span + 1)/r.
"""

from random import Random

import numpy as np

from cvk import squirrels as sq
from cvk import wave as wv

QUALITY_SEED = 20250903
WAVE_FA_C = 4
WAVE_FA_TRIALS = 200_000
SQ_FA_TRIALS = 20_000


def opcount_table() -> list[dict]:
    """verify/cverify word-muls and their ratio for Squirrels I-V and
    Wave 822/1249/1644, at the t and c the parameter tables choose."""
    rows = []
    for tag in sq.SQUIRRELS_TAGS:
        params = sq.named_params(tag)
        t, _ = sq.choose_t(params.classical_bits)
        v, c = sq.verify_cost(params)[0], sq.cverify_cost(params, t)[0]
        rows.append({"scheme": "squirrels", "instance": tag, "compression": t,
                     "verify_word_muls": v, "cverify_word_muls": c, "ratio": v / c})
    for tag in wv.WAVE_TAGS:
        params = wv.named_params(tag)
        c_dim, _ = wv.wave_choose_c(params.classical_bits)
        v, c = wv.verify_cost(params)[0], wv.cverify_cost(params, c_dim)[0]
        rows.append({"scheme": "wave", "instance": tag, "compression": c_dim,
                     "verify_word_muls": v, "cverify_word_muls": c, "ratio": v / c})
    return rows


def wave_false_accept() -> tuple[float, float]:
    """Share of uniform nonzero syndromes that a random systematic
    projection maps to zero, against 3^-c."""
    params = wv.WaveParams(n=24, k=12, w=16, tag="toy")
    ck = wv.wave_ckeygen(params, WAVE_FA_C, Random(QUALITY_SEED)).to_array().astype(np.int64)
    gen = np.random.default_rng(QUALITY_SEED)
    syn = gen.integers(0, 3, size=(WAVE_FA_TRIALS, params.redundancy), dtype=np.int64)
    syn = syn[syn.any(axis=1)]
    rate = float((~((syn @ ck) % 3).any(axis=1)).mean())
    return rate, 3.0 ** -WAVE_FA_C


def squirrels_false_accept() -> tuple[float, float]:
    """Share of norm-valid one-coordinate tampers with fresh salts that
    ``cverify`` accepts under one 16-bit secret prime r, against
    (span + 1)/r."""
    rng = Random(QUALITY_SEED)
    pk, params, secret = sq.toy_keygen(12, 3, rng, q=16)
    ck = sq.ckeygen(params, 1, rng, secret_width=16)
    vk = sq.vkeygen(ck, pk, params)
    k_min, k_max = sq.k_prime_bounds(params)
    predicted = (k_max - k_min + 1) / vk.secret_basis.primes[0]
    base = list(sq.toy_sign(secret, b"target", params, rng).s_vec)
    accepts = tried = 0
    for _ in range(SQ_FA_TRIALS):
        forged = base.copy()
        forged[rng.randrange(params.n)] += rng.choice((-4, -3, -2, -1, 1, 2, 3, 4))
        if sum(x * x for x in forged) > params.beta_sq:
            continue
        sig = sq.SquirrelsSignature(salt=rng.randbytes(sq.SALT_BYTES), s_vec=tuple(forged))
        accepts += sq.cverify(sig, b"target", vk, params)
        tried += 1
    return accepts / tried, predicted


def false_accept_metrics() -> dict:
    wave_emp, wave_pred = wave_false_accept()
    sq_emp, sq_pred = squirrels_false_accept()
    return {
        "quality.wave_fa_empirical": wave_emp,
        "quality.wave_fa_predicted": wave_pred,
        "quality.squirrels_fa_empirical": sq_emp,
        "quality.squirrels_fa_predicted": sq_pred,
    }
