"""Command-line surface: parameter tables, the key pipeline, the
verifiers, operation-count comparisons, and the forgery-game simulator.

Exit codes: 0 = Accept, 1 = Reject, 2 = malformed input or usage error.

Named instances carry published parameters only; key material flows
through toy instances, whose parameters travel in a JSON sidecar written
by ``keygen``.  A file's privacy follows from its kind: CK, VK and toy
SK files (``serial.PRIVATE_KINDS``) are written with owner-only
permissions.

A process loads only the scheme its command names: ``rw``, ``security``,
``squirrels`` and ``wave`` (and through them ``ecrt``, ``f3`` and
``modmath``) load when a command first reaches them.
"""

import argparse
import json
import math
import os
import sys
import tempfile
from random import Random

from . import LazyModule, serial
from .errors import CvkError

ecrt = LazyModule("ecrt")
rw = LazyModule("rw")
security = LazyModule("security")
sq = LazyModule("squirrels")
wv = LazyModule("wave")


def _write(path: str, blob: bytes) -> None:
    """A file of a private kind is an owner-only temp file renamed over
    ``path``, so it keeps no older file's mode and replaces a symlink, not
    its target.  A JSON sidecar has no header and is public."""
    if not serial.is_private(blob):
        with open(path, "wb") as fh:
            fh.write(blob)
        return
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path) or ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _message(args) -> bytes:
    """The ``--message`` text or the ``--message-file`` bytes; argparse
    has already seen to it that exactly one was given."""
    if args.message is None:
        return _read(args.message_file)
    return args.message.encode()


def _require(value, flag: str):
    if value is None:
        raise CvkError(f"{flag} is required for this scheme")
    return value


def _int_fields(doc: dict, path: str, *keys: str) -> dict:
    for key in keys:
        if type(doc.get(key)) is not int:
            raise CvkError(f"{path}: {key!r} must be an integer")
    return {key: doc[key] for key in keys}


# The integer fields of each scheme's params sidecar, in file order.
_SIDECAR_INTS = {"squirrels": ("n", "q", "beta_sq"), "wave": ("n", "k", "w")}


def _load_params(args):
    """The ``--params`` sidecar, which must be for ``--scheme``; None for rw."""
    scheme, path = args.scheme, args.params
    if scheme == "rw":
        return None
    doc = json.loads(_read(_require(path, "--params")).decode())
    if not isinstance(doc, dict):
        raise CvkError(f"{path}: params must be a JSON object")
    if doc.get("scheme") != scheme:
        raise CvkError(f"{path}: params are for scheme {doc.get('scheme')!r}, expected {scheme!r}")
    tag = doc.get("tag", "toy")
    if not isinstance(tag, str):
        raise CvkError(f"{path}: 'tag' must be a string")
    serial.tag_code(serial.SCHEME_SQUIRRELS if scheme == "squirrels" else serial.SCHEME_WAVE, tag)
    if scheme == "squirrels":
        primes = doc.get("primes")
        if not isinstance(primes, list) or any(type(p) is not int for p in primes):
            raise CvkError(f"{path}: 'primes' must be a list of integers")
        return sq.SquirrelsParams(
            **_int_fields(doc, path, *_SIDECAR_INTS[scheme]),
            s=len(primes),
            tag=tag,
            public_basis=ecrt.PrimeBasis(tuple(primes)),
        )
    return wv.WaveParams(**_int_fields(doc, path, *_SIDECAR_INTS[scheme]), tag=tag)


def _dump_params(args, params) -> None:
    """The ``--out-params`` sidecar that ``_load_params`` reads back."""
    doc = {"scheme": args.scheme, "tag": params.tag}
    doc |= {key: getattr(params, key) for key in _SIDECAR_INTS[args.scheme]}
    if args.scheme == "squirrels":
        doc["primes"] = list(params.public_basis.primes)
    _write(args.out_params, json.dumps(doc, indent=2).encode() + b"\n")


# ── params ───────────────────────────────────────────────────────────────


# Each table's columns: header, row field, width (the gap before the
# column included) and the format after the width.
_SQUIRRELS_COLUMNS = (
    ("instance", "instance", 8, ""),
    ("lambda", "lambda", 8, ""),
    ("n", "n", 6, ""),
    ("s", "s", 5, ""),
    ("t", "t", 4, ""),
    ("mu", "mu", 7, ".1f"),
    ("|PK|", "pk_bytes", 11, ""),
    ("|CK|", "ck_bytes", 9, ""),
    ("|VK|", "vk_bytes", 8, ""),
    ("ratio", "ratio", 7, ".2f"),
    ("k_min", "k_min", 10, ""),
    ("k_max", "k_max", 10, ""),
)
_WAVE_COLUMNS = (
    ("instance", "instance", 8, ""),
    ("lambda", "lambda", 8, ""),
    ("n", "n", 7, ""),
    ("k", "k", 6, ""),
    ("c", "c", 5, ""),
    ("mu", "mu", 7, ".1f"),
    ("|PK|", "pk_bytes", 10, ""),
    ("|CK|", "ck_bytes", 9, ""),
    ("|VK|", "vk_bytes", 8, ""),
    ("ratio", "ratio", 7, ".2f"),
)


def _table_row(params, mu: float, pk: int, ck: int, vk: int, **fields) -> dict:
    """The fields both schemes' tables share, and the scheme's own."""
    return {
        "instance": params.tag,
        "lambda": params.classical_bits,
        "mu": mu,
        "pk_bytes": pk,
        "ck_bytes": ck,
        "vk_bytes": vk,
        "ratio": pk / vk,
        **fields,
    }


def squirrels_table_row(tag: str) -> dict:
    params = sq.named_params(tag)
    t, mu = sq.choose_t(params.classical_bits)
    k_min, k_max = sq.k_prime_bounds(params)
    return _table_row(
        params, mu, sq.pk_bytes(params), sq.ck_bytes(params, t), sq.vk_bytes(params, t),
        n=params.n, s=params.s, t=t, k_min=k_min, k_max=k_max,
    )


def wave_table_row(tag: str) -> dict:
    params = wv.named_params(tag)
    c, mu = wv.wave_choose_c(params.classical_bits)
    return _table_row(
        params, mu, wv.pk_bytes(params), wv.ck_bytes(params, c), wv.vk_bytes(params, c),
        n=params.n, k=params.k, c=c,
    )


def cmd_params(args) -> int:
    if args.scheme == "squirrels":
        tags, table_row, columns = sq.SQUIRRELS_TAGS, squirrels_table_row, _SQUIRRELS_COLUMNS
        note = ""
    else:
        tags, table_row, columns = wv.WAVE_TAGS, wave_table_row, _WAVE_COLUMNS
        note = " (|PK| at 4 trits per byte)"
    print("".join(f"{header:>{width}}" for header, _, width, _ in columns) + note)
    for tag in [args.instance] if args.instance else tags:
        row = table_row(tag)
        print("".join(f"{row[key]:>{width}{spec}}" for _, key, width, spec in columns))
    return 0


# ── pipeline commands ────────────────────────────────────────────────────


# The files keygen writes besides the PK: a Wave toy signer needs only the
# PK, and an RW key has no sidecar.
_KEYGEN_WRITES = {"squirrels": ("sk", "params"), "wave": ("params",), "rw": ("sk",)}


def cmd_keygen(args) -> int:
    # Every output flag is checked before the first write, so a refused
    # call leaves no file behind.
    for name in ("sk", "params"):
        flag, value = f"--out-{name}", getattr(args, f"out_{name}")
        if name in _KEYGEN_WRITES[args.scheme]:
            _require(value, flag)
        elif value is not None:
            raise CvkError(f"{flag}: scheme {args.scheme} writes no such file")
    rng = Random(args.seed)
    if args.scheme == "squirrels":
        pk, params, secret = sq.toy_keygen(args.n, args.entry_bound, rng, q=args.q)
        _dump_params(args, params)
        _write(args.out_pk, serial.encode_squirrels_pk(pk, params))
        _write(args.out_sk, serial.encode_squirrels_sk(secret, params))
    elif args.scheme == "wave":
        params = wv.WaveParams(n=args.n, k=args.k, w=args.w, tag="toy")
        pk = wv.wave_toy_keygen(params, rng)
        _dump_params(args, params)
        _write(args.out_pk, serial.encode_wave_pk(pk, params))
    else:
        kp = rw.rw_keygen(args.bits, rng)
        _write(args.out_pk, serial.encode_rw_pk(kp.n))
        _write(args.out_sk, serial.encode_rw_sk(kp))
    return 0


def cmd_ck_gen(args) -> int:
    rng = Random(args.seed)
    params = _load_params(args)
    if args.scheme == "squirrels":
        ck = sq.ckeygen(params, args.t, rng)
        _write(args.out, serial.encode_squirrels_ck(ck, params))
    elif args.scheme == "wave":
        ck = wv.wave_ckeygen(params, args.c, rng)
        _write(args.out, serial.encode_wave_ck(ck, params))
    else:
        ell = rw.rw_ckeygen(args.mu, rng)
        _write(args.out, serial.encode_rw_ck(ell))
    return 0


def cmd_vk_gen(args) -> int:
    params = _load_params(args)
    if args.scheme == "squirrels":
        pk = serial.decode_squirrels_pk(_read(args.pk), params)
        ck = serial.decode_squirrels_ck(_read(args.ck), params)
        vk = sq.vkeygen(ck, pk, params)
        _write(args.out, serial.encode_squirrels_vk(vk, params))
    elif args.scheme == "wave":
        pk = serial.decode_wave_pk(_read(args.pk), params)
        ck = serial.decode_wave_ck(_read(args.ck), params, args.c)
        vk = wv.wave_vkeygen(pk, ck, params)
        _write(args.out, serial.encode_wave_vk(vk, params))
    else:
        n = serial.decode_rw_pk(_read(args.pk))
        ell = serial.decode_rw_ck(_read(args.ck))
        vk = rw.rw_vkeygen(ell, n)
        _write(args.out, serial.encode_rw_vk(vk))
    return 0


def cmd_sign_toy(args) -> int:
    rng = Random(args.seed)
    message = _message(args)
    params = _load_params(args)
    if args.scheme == "squirrels":
        secret = serial.decode_squirrels_sk(_read(_require(args.sk, "--sk")), params)
        sig = sq.toy_sign(secret, message, params, rng)
        _write(args.out, serial.encode_squirrels_sig(sig, params))
    elif args.scheme == "wave":
        pk = serial.decode_wave_pk(_read(_require(args.pk, "--pk")), params)
        sig = wv.wave_toy_sign(pk, message, params, rng)
        _write(args.out, serial.encode_wave_sig(sig, params))
    else:
        kp = serial.decode_rw_sk(_read(_require(args.sk, "--sk")))
        sig = rw.rw_sign(kp, message, rng)
        _write(args.out, serial.encode_rw_sig(sig))
    return 0


def _verdict(ok: bool) -> int:
    """Print the verdict; exit code 0 for accept, 1 for reject."""
    print("accept" if ok else "reject")
    return 0 if ok else 1


def cmd_verify(args) -> int:
    message = _message(args)
    params = _load_params(args)
    if args.scheme == "squirrels":
        pk = serial.decode_squirrels_pk(_read(args.pk), params)
        sig = serial.decode_squirrels_sig(_read(args.sig), params)
        ok = sq.verify(sig, message, pk, params)
    elif args.scheme == "wave":
        pk = serial.decode_wave_pk(_read(args.pk), params)
        sig = serial.decode_wave_sig(_read(args.sig), params)
        ok = wv.wave_verify(sig, message, pk, params)
    else:
        n = serial.decode_rw_pk(_read(args.pk))
        sig = serial.decode_rw_sig(_read(args.sig))
        ok = rw.rw_verify(sig, message, n)
    return _verdict(ok)


def cmd_cverify(args) -> int:
    message = _message(args)
    params = _load_params(args)
    if args.scheme == "squirrels":
        vk = serial.decode_squirrels_vk(_read(args.vk), params)
        sig = serial.decode_squirrels_sig(_read(args.sig), params)
        ok = sq.cverify(sig, message, vk, params)
    elif args.scheme == "wave":
        vk = serial.decode_wave_vk(_read(args.vk), params, args.c)
        sig = serial.decode_wave_sig(_read(args.sig), params)
        ok = wv.wave_cverify(sig, message, vk, params)
    else:
        vk = serial.decode_rw_vk(_read(args.vk))
        sig = serial.decode_rw_sig(_read(args.sig))
        ok = rw.rw_cverify(sig, message, vk)
    return _verdict(ok)


def cmd_bench_ops(args) -> int:
    if args.scheme == "squirrels":
        params = sq.named_params(args.instance)
        t = sq.choose_t(params.classical_bits)[0] if args.t is None else args.t
        v_muls, v_reds = sq.verify_cost(params)
        c_muls, c_reds = sq.cverify_cost(params, t)
        threshold = params.s / (t + 1)
        label = f"s/(t+1) = {params.s}/{t + 1}"
    else:
        params = wv.named_params(args.instance)
        c = wv.wave_choose_c(params.classical_bits)[0] if args.c is None else args.c
        v_muls, v_reds = wv.verify_cost(params)
        c_muls, c_reds = wv.cverify_cost(params, c)
        threshold = params.redundancy / (2 * c)
        label = f"(n-k)/(2c) = {params.redundancy}/{2 * c}"
    ratio = v_muls / c_muls
    print(f"scheme={args.scheme} instance={args.instance}")
    print(f"verify   word-muls={v_muls:>12}  reductions={v_reds}")
    print(f"cverify  word-muls={c_muls:>12}  reductions={c_reds}")
    print(f"speedup  {ratio:.2f}x  (required >= {label} = {threshold:.2f})")
    return 0 if ratio >= threshold else 1


def cmd_simulate_forgery(args) -> int:
    if args.strategy not in security.STRATEGIES:
        raise CvkError(
            f"--strategy: {args.strategy!r} is not one of {', '.join(security.STRATEGIES)}"
        )
    rng = Random(args.seed)
    if args.scheme == "wave":
        instance = security.wave_segp_instance(args.nk, args.c)
    else:
        instance = security.squirrels_segp_instance(args.width, args.query_bound)
    report = security.simulate_segp_game(
        instance, args.strategy, args.trials, args.queries, rng
    )
    sigma = math.sqrt(
        max(report.cumulative_bound * (1 - report.cumulative_bound), 1e-12)
        / report.trials
    )
    print(f"instance          {report.instance}")
    print(f"keyspace, kappa   {instance.s_size}, {instance.kappa}")
    print(f"strategy          {report.strategy}")
    print(f"trials x queries  {report.trials} x {report.queries_per_trial}")
    print(f"success rate      {report.success_rate:.6f}  ({report.successes} hits)")
    print(f"per-query bound   {report.per_query_bound:.6f}")
    print(f"cumulative bound  {report.cumulative_bound:.6f} (3-sigma {3 * sigma:.6f})")
    within = report.success_rate <= report.cumulative_bound + 3 * sigma
    print("within bound" if within else "EXCEEDS BOUND")
    return 0 if within else 1


# ── argument wiring ──────────────────────────────────────────────────────


def _shared(*names: str, **options) -> argparse.ArgumentParser:
    """A parent parser for a flag that several commands take."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **options)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cvk",
        description="Compressed verification for GPV-style signatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    named = _shared("--scheme", required=True, choices=["squirrels", "wave"])
    keyed = _shared("--scheme", required=True, choices=["squirrels", "wave", "rw"])
    seed = _shared("--seed", type=int)
    sidecar = _shared("--params")
    out = _shared("--out", required=True)
    sig = _shared("--sig", required=True)
    message = argparse.ArgumentParser(add_help=False)
    one_message = message.add_mutually_exclusive_group(required=True)
    one_message.add_argument("--message")
    one_message.add_argument("--message-file")
    # One default, so that ck-gen, vk-gen and cverify agree on the Wave c.
    wave_c = _shared("--c", type=int, default=4)

    p = sub.add_parser("params", parents=[named], help="print parameter tables")
    p.add_argument("--instance")
    p.set_defaults(run=cmd_params)

    p = sub.add_parser("keygen", parents=[keyed, seed], help="toy key generation")
    p.add_argument("--out-pk", required=True)
    p.add_argument("--out-sk")
    p.add_argument("--out-params")
    # Valid for Wave at n = 12: k < n, w <= n, and ck-gen's c <= n - k.
    p.add_argument("--n", type=int, default=12)
    p.add_argument("--k", type=int, default=6)
    p.add_argument("--w", type=int, default=8)
    p.add_argument("--q", type=int, default=16)
    p.add_argument("--entry-bound", type=int, default=3)
    p.add_argument("--bits", type=int, default=128)
    p.set_defaults(run=cmd_keygen)

    p = sub.add_parser(
        "ck-gen", parents=[keyed, seed, sidecar, wave_c, out], help="sample a compression key"
    )
    p.add_argument("--t", type=int, default=2)
    p.add_argument("--mu", type=int, default=31)
    p.set_defaults(run=cmd_ck_gen)

    p = sub.add_parser(
        "vk-gen", parents=[keyed, sidecar, wave_c, out], help="compress a public key"
    )
    p.add_argument("--pk", required=True)
    p.add_argument("--ck", required=True)
    p.set_defaults(run=cmd_vk_gen)

    p = sub.add_parser(
        "sign-toy", parents=[keyed, seed, sidecar, message, out],
        help="sign with the desk-scale signer",
    )
    p.add_argument("--sk")
    p.add_argument("--pk")
    p.set_defaults(run=cmd_sign_toy)

    p = sub.add_parser("verify", parents=[keyed, sidecar, sig, message], help="full verification")
    p.add_argument("--pk", required=True)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser(
        "cverify", parents=[keyed, sidecar, sig, wave_c, message], help="compressed verification"
    )
    p.add_argument("--vk", required=True)
    p.set_defaults(run=cmd_cverify)

    p = sub.add_parser("bench-ops", parents=[named], help="operation-count comparison")
    p.add_argument("--instance", required=True)
    p.add_argument("--t", type=int)
    p.add_argument("--c", type=int)
    p.set_defaults(run=cmd_bench_ops)

    p = sub.add_parser(
        "simulate-forgery", parents=[named, seed], help="membership-oracle forgery game"
    )
    p.add_argument("--strategy", default="random")
    p.add_argument("--trials", type=int, default=2000)
    p.add_argument("--queries", type=int, default=3)
    p.add_argument("--nk", type=int, default=4)
    p.add_argument("--c", type=int, default=2)
    p.add_argument("--width", type=int, default=8)
    p.add_argument("--query-bound", type=int, default=1 << 20)
    p.set_defaults(run=cmd_simulate_forgery)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except (CvkError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
