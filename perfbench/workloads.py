"""The four benchmark workloads and the metrics they report.

Load comes from one closed-loop caller: the next request is sent only
after both verifiers have answered the previous one.  Every verdict is
checked against the planted oracle (``Request.expect``); a wrong verdict,
an unexpected exception or a wrong CLI exit code counts as a failure.

sq1-stream      Squirrels I, one install then a long request stream: the
                verifier hot path (hash, gate, fold/window).
sq5-rotate      Squirrels V, a fresh install before each short burst:
                ``ckeygen``/``vkeygen`` and the ``ecrt`` transfer.
wave822-stream  Wave 822, one install then a stream with full ``verify``
                sampled every VERIFY_EVERY_WAVE requests: ``f3``/``wave``.
cli-oneshot     ``cvk`` processes on files for Squirrels I and Wave 822:
                import, params load, ``serial`` decode and ``f3`` unpack.

Per-layer timings come from spans: the metric ``<span>_<unit>`` is the
median duration of the spans named ``<span>``, recorded around calls the
benchmark makes into that layer's public functions.
"""

import json
import os
import resource
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from random import Random

import planted
import quality
from spans import Tracer, median, percentile, perf

from cvk import ecrt, modmath, serial
from cvk import squirrels as sq
from cvk import wave as wv
from cvk.f3 import TernaryMatrix, pack_trits, unpack_trits
from cvk.opcount import OpCounter

PLANTED_SIGS = 32  # distinct honest signatures per planted key
MIN_INSTALLS = 3  # setup_s is the median over this many installs
ROTATE_BURST = 250  # requests after each install in sq5-rotate
# Wave verify is ~50x slower than cverify; 5 is coprime to the mix
# cycle, so the sampled verifies see the same mix.
VERIFY_EVERY_WAVE = 5
WAVE_C = 80  # wave_choose_c(128) at Wave 822
CLI_SIGS = 8  # honest signature files per scheme, half as many of each reject kind
CLI_TIMEOUT_S = 120
PROBE_REPEATS = 3
CALIBRATION_REQUESTS = 16
CALIBRATION_S = 2.0

# The end-to-end metrics BENCHMARK.json bounds.  On a host whose speed
# drifts between a fast and a slow state over seconds, medians and means
# of the pure-Python Squirrels verifiers move with the share of time
# spent in each state (30-40% run-to-run), while the p90 tail and the
# ratio of the two verifiers' p90s stay within about 10%.  Wave verify
# (~180 ms) fits only ~70 samples into a run, too few for a steady p95.
# Medians, p95s and rates are reported beside them but not bounded.
END_TO_END = (
    ("setup_s", "s"),
    ("cverify_p90_ms", "ms"),
    ("verify_p90_ms", "ms"),
    ("cverify_speedup", "x"),
    ("vk_bytes", "B"),
    ("peak_rss_mb", "MB"),
)
ALSO_REPORTED = (
    ("cverify_p50_ms", "ms"),
    ("cverify_p95_ms", "ms"),
    ("verify_p50_ms", "ms"),
    ("verify_p95_ms", "ms"),
    ("cverify_per_s", "1/s"),
    ("verify_per_s", "1/s"),
)

PER_LAYER = (
    ("squirrels.hash_to_point_us", "us"),
    ("squirrels.gate_reject_us", "us"),
    ("squirrels.verify_us", "us"),
    ("squirrels.cverify_us", "us"),
    ("squirrels.fold_window_us", "us"),
    ("squirrels.ckeygen_s", "s"),
    ("squirrels.vkeygen_s", "s"),
    ("squirrels.verify_word_muls", "count"),
    ("squirrels.cverify_word_muls", "count"),
    ("squirrels.opcount_ratio", "x"),
    ("ecrt.q_coefficients_ms", "ms"),
    ("ecrt.mod_ecrt_setup_ms", "ms"),
    ("ecrt.mod_ecrt_us", "us"),
    ("ecrt.rows_per_install", "count"),
    ("modmath.sample_prime_us", "us"),
    ("wave.hash_to_trits_us", "us"),
    ("wave.weight_us", "us"),
    ("wave.signature_init_us", "us"),
    ("wave.cverify_us", "us"),
    ("wave.verify_ms", "ms"),
    ("wave.fold_us", "us"),
    ("wave.ckeygen_s", "s"),
    ("wave.vkeygen_s", "s"),
    ("wave.verify_word_muls", "count"),
    ("wave.cverify_word_muls", "count"),
    ("wave.opcount_ratio", "x"),
    ("f3.matmul_s", "s"),
    ("f3.from_array_ms", "ms"),
    ("f3.matrix_init_ms", "ms"),
    ("f3.vk_to_array_ms", "ms"),
    ("f3.pk_to_array_ms", "ms"),
    ("f3.unpack_trits_us", "us"),
    ("f3.pack_trits_us", "us"),
    ("serial.sq_decode_pk_ms", "ms"),
    ("serial.sq_decode_vk_ms", "ms"),
    ("serial.sq_decode_ck_ms", "ms"),
    ("serial.sq_decode_sig_ms", "ms"),
    ("serial.wave_decode_pk_ms", "ms"),
    ("serial.wave_decode_vk_ms", "ms"),
    ("serial.wave_decode_ck_ms", "ms"),
    ("serial.wave_decode_sig_ms", "ms"),
    ("serial.sq_encode_vk_ms", "ms"),
    ("serial.wave_encode_vk_ms", "ms"),
    ("serial.sq_pk_bytes", "B"),
    ("serial.sq_ck_bytes", "B"),
    ("serial.sq_vk_bytes", "B"),
    ("serial.wave_pk_bytes", "B"),
    ("serial.wave_ck_bytes", "B"),
    ("serial.wave_vk_bytes", "B"),
    ("cli.import_s", "s"),
    ("cli.sq_cverify_s", "s"),
    ("cli.sq_verify_s", "s"),
    ("cli.wave_cverify_s", "s"),
    ("cli.wave_verify_s", "s"),
    ("cli.sq_vk_gen_s", "s"),
    ("cli.wave_vk_gen_s", "s"),
    ("quality.wave_fa_empirical", "ratio"),
    ("quality.wave_fa_predicted", "ratio"),
    ("quality.squirrels_fa_empirical", "ratio"),
    ("quality.squirrels_fa_predicted", "ratio"),
    ("trace.overhead_pct", "%"),
)

# Self-times derived from measured medians: the whole call minus the
# parts the benchmark timed on their own.
DERIVED = {
    "squirrels.fold_window_us": (
        "squirrels.cverify_us", ("squirrels.hash_to_point_us", "squirrels.gate_reject_us")),
    "wave.fold_us": (
        "wave.cverify_us", ("wave.hash_to_trits_us", "wave.weight_us", "f3.unpack_trits_us")),
}

_SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


class Run:
    """Timings, verdict checks and layer metrics of one benchmark run.

    Latency samples are grouped (one group per scheme); percentiles are
    taken per group and averaged, so a workload that mixes a fast and a
    slow scheme reports a stable figure instead of one that jumps
    between the two clusters.
    """

    def __init__(self, seed: int, seconds: float, trace: bool, src: Path, out_dir: Path):
        self.seed = seed
        self.seconds = seconds
        self.tracer = Tracer(trace)
        self.src = src  # the package source the CLI children import
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.cverify = {}
        self.verify = {}
        self.setup = []
        self.vk_bytes = 0
        self.peak_rss_mb = 0.0
        self.layer = {}
        self.info = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def verdict(self, span: str, fn, args, expect: bool, sink: list) -> None:
        """Call one verifier, time it, and check its verdict."""
        self.attempted += 1
        try:
            with self.tracer.span(span):
                t0 = perf()
                got = fn(*args)
                elapsed = perf() - t0
        except Exception:  # counted as a failure; the stream keeps running
            self.fail(f"{span}: {traceback.format_exc(limit=3)}")
            return
        if got is not expect:
            self.fail(f"{span}: got {got}, expected {expect}")
        else:
            sink.append(elapsed)

    def probe(self, span: str, fn, *args, repeats: int = PROBE_REPEATS):
        """Direct calls into a layer function, each inside a span."""
        for _ in range(repeats):
            with self.tracer.span(span):
                result = fn(*args)
        return result

    def end_to_end(self) -> dict:
        def group_stat(groups, pct):
            stat = median if pct == 50 else (lambda g: percentile(g, pct))
            return sum(stat(g) for g in groups.values()) / len(groups)

        def rate(groups):
            return sum(len(g) for g in groups.values()) / sum(sum(g) for g in groups.values())

        cv90 = group_stat(self.cverify, 90) * 1e3
        v90 = group_stat(self.verify, 90) * 1e3
        return {
            "setup_s": median(self.setup),
            "cverify_p90_ms": cv90,
            "verify_p90_ms": v90,
            "cverify_speedup": v90 / cv90,
            "vk_bytes": float(self.vk_bytes),
            "peak_rss_mb": self.peak_rss_mb,
            "cverify_p50_ms": group_stat(self.cverify, 50) * 1e3,
            "cverify_p95_ms": group_stat(self.cverify, 95) * 1e3,
            "verify_p50_ms": group_stat(self.verify, 50) * 1e3,
            "verify_p95_ms": group_stat(self.verify, 95) * 1e3,
            "cverify_per_s": rate(self.cverify),
            "verify_per_s": rate(self.verify),
        }

    def per_layer(self) -> dict:
        """Every per-layer metric; 0 for a layer this workload never calls
        (it then has no entry in ``info['layer_samples']``)."""
        by_span = {}
        for name, start, end, _, _ in self.tracer.spans:
            by_span.setdefault(name, []).append(end - start)
        counts = self.info.setdefault("layer_samples", {})
        for name, unit in PER_LAYER:
            durations = by_span.get(name[: -len(unit) - 1]) if unit in _SCALE else None
            if durations:
                self.layer[name] = median(durations) * _SCALE[unit]
                counts[name] = len(durations)
        for name, (whole, parts) in DERIVED.items():
            if all(m in counts for m in (whole, *parts)):
                self.layer[name] = self.layer[whole] - sum(self.layer[m] for m in parts)
                self.info.setdefault("derived", {})[name] = f"{whole} - " + " - ".join(parts)
        return {name: float(self.layer.get(name, 0.0)) for name, _ in PER_LAYER}

    def latency_table(self) -> dict:
        """Percentiles (ms) and counts of every latency group."""
        return {
            kind: {group: {"n": len(g), **{f"p{p}": percentile(g, p) * 1e3
                                             for p in (5, 25, 50, 75, 90, 95, 99)}}
                   for group, g in groups.items()}
            for kind, groups in (("cverify", self.cverify), ("verify", self.verify))
        }

    def samples(self) -> dict:
        return {
            "setup": len(self.setup),
            "cverify": {k: len(v) for k, v in self.cverify.items()},
            "verify": {k: len(v) for k, v in self.verify.items()},
        }


def _self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _opcounts(run: Run, prefix: str, verify, cverify, req, pk, vk, params) -> None:
    """Exact OpCounter tallies of one honest verification each."""
    v_count, c_count = OpCounter(), OpCounter()
    verify(req.sig, req.message, pk, params, v_count)
    cverify(req.sig, req.message, vk, params, c_count)
    run.layer[f"{prefix}.verify_word_muls"] = v_count.word_muls
    run.layer[f"{prefix}.cverify_word_muls"] = c_count.word_muls
    run.layer[f"{prefix}.opcount_ratio"] = v_count.word_muls / c_count.word_muls


def _calibrate(run: Run, requests, cverify, vk, params) -> None:
    """Tracing overhead: the same ``cverify`` calls with spans off and on,
    alternating batches for CALIBRATION_S seconds."""
    batch = [next(requests) for _ in range(CALIBRATION_REQUESTS)]
    tracer, walls = run.tracer, {False: [], True: []}
    deadline = perf() + CALIBRATION_S
    while perf() < deadline or len(walls[True]) < 3:
        for enabled in (False, True):
            tracer.enabled = enabled
            t0 = perf()
            for req in batch:
                with tracer.span("calibration.cverify"):
                    cverify(req.sig, req.message, vk, params)
            walls[enabled].append(perf() - t0)
    tracer.enabled = True
    run.layer["trace.overhead_pct"] = 100 * (median(walls[True]) / median(walls[False]) - 1)


# ── Squirrels ────────────────────────────────────────────────────────────


def _sq_install(run: Run, inst, t: int, rng: Random):
    span = run.tracer.span
    t0 = perf()
    with span("install"):
        with span("squirrels.ckeygen"):
            ck = sq.ckeygen(inst.params, t, rng)
        with span("squirrels.vkeygen"):
            vk = sq.vkeygen(ck, inst.pk, inst.params)
    run.setup.append(perf() - t0)
    return ck, vk


def _sq_request(run: Run, inst, vk, req) -> None:
    run.tracer.request = run.attempted
    gate = req.kind == planted.GATE
    run.verdict("squirrels.gate_reject" if gate else "squirrels.cverify", sq.cverify,
                (req.sig, req.message, vk, inst.params), req.expect,
                run.cverify.setdefault("squirrels", []))
    run.verdict("squirrels.verify_gate" if gate else "squirrels.verify", sq.verify,
                (req.sig, req.message, inst.pk, inst.params), req.expect,
                run.verify.setdefault("squirrels", []))
    if run.tracer.enabled and not gate:
        run.probe("squirrels.hash_to_point", sq.hash_to_point, req.message, req.sig.salt,
                  inst.params.q, inst.params.n, repeats=1)


def _warmup(run: Run, inst, verify, cverify, pk, vk) -> None:
    """One untimed request of each kind, so lazy caches are filled."""
    for pool in (inst.honest, inst.tampered, inst.gate):
        req = pool[0]
        run.check("warmup cverify", cverify(req.sig, req.message, vk, inst.params) is req.expect)
        run.check("warmup verify", verify(req.sig, req.message, pk, inst.params) is req.expect)


def _sq_layers(run: Run, inst, ck, rng: Random) -> None:
    """Direct calls into the ecrt/modmath functions that an install runs."""
    basis = inst.params.public_basis
    qc = run.probe("ecrt.q_coefficients", ecrt.q_coefficients, basis)
    run.probe("ecrt.mod_ecrt_setup", ecrt.mod_ecrt_setup, basis, ck.secret_basis)
    rows = inst.pk.residues
    for i in range(0, rows.shape[0], max(1, rows.shape[0] // 200)):
        x = ecrt.RnsResidues(basis, tuple(map(int, rows[i])))
        run.probe("ecrt.mod_ecrt", ecrt.mod_ecrt, ck.precomp, qc, x, repeats=1)
    run.probe("modmath.sample_prime", modmath.sample_prime, 31, rng, basis.primes, repeats=50)


def _sq_finish(run: Run, inst, ck, vk, rng: Random) -> None:
    run.vk_bytes = len(serial.encode_squirrels_vk(vk, inst.params)) - serial.HEADER.size
    run.peak_rss_mb = _self_rss_mb()
    if run.tracer.enabled:
        _sq_layers(run, inst, ck, rng)
        _calibrate(run, planted.request_stream(inst, rng), sq.cverify, vk, inst.params)
        run.layer["ecrt.rows_per_install"] = vk.rows.shape[1] - 1
        run.layer["serial.sq_vk_bytes"] = run.vk_bytes
        _opcounts(run, "squirrels", sq.verify, sq.cverify, inst.honest[0], inst.pk, vk, inst.params)


def sq1_stream(run: Run) -> None:
    rng = Random(run.seed)
    inst = planted.plant_squirrels(sq.named_params("I"), PLANTED_SIGS, run.seed)
    t, _ = sq.choose_t(inst.params.classical_bits)
    for _ in range(MIN_INSTALLS):
        ck, vk = _sq_install(run, inst, t, rng)
    _warmup(run, inst, sq.verify, sq.cverify, inst.pk, vk)
    requests = planted.request_stream(inst, rng)
    deadline = perf() + run.seconds
    while perf() < deadline:
        _sq_request(run, inst, vk, next(requests))
    _sq_finish(run, inst, ck, vk, rng)


def sq5_rotate(run: Run) -> None:
    rng = Random(run.seed)
    inst = planted.plant_squirrels(sq.named_params("V"), PLANTED_SIGS, run.seed)
    t, _ = sq.choose_t(inst.params.classical_bits)
    requests = planted.request_stream(inst, rng)
    deadline = perf() + run.seconds
    while len(run.setup) < MIN_INSTALLS or perf() < deadline:
        ck, vk = _sq_install(run, inst, t, rng)
        if len(run.setup) == 1:
            _warmup(run, inst, sq.verify, sq.cverify, inst.pk, vk)
        for _ in range(ROTATE_BURST):
            _sq_request(run, inst, vk, next(requests))
    _sq_finish(run, inst, ck, vk, rng)


# ── Wave ─────────────────────────────────────────────────────────────────


def _wave_install(run: Run, inst, rng: Random):
    pk = inst.pk_matrix()  # decoding is the CLI's cost, not the install's
    span = run.tracer.span
    t0 = perf()
    with span("install"):
        with span("wave.ckeygen"):
            ck = wv.wave_ckeygen(inst.params, WAVE_C, rng)
        with span("wave.vkeygen"):
            vk = wv.wave_vkeygen(pk, ck, inst.params)
    run.setup.append(perf() - t0)
    return pk, ck, vk


def _wave_request(run: Run, inst, pk, vk, req, do_verify: bool) -> None:
    run.tracer.request = run.attempted
    gate = req.kind == planted.GATE
    run.verdict("wave.gate_reject" if gate else "wave.cverify", wv.wave_cverify,
                (req.sig, req.message, vk, inst.params), req.expect,
                run.cverify.setdefault("wave", []))
    if do_verify:
        run.verdict("wave.verify_gate" if gate else "wave.verify", wv.wave_verify,
                    (req.sig, req.message, pk, inst.params), req.expect,
                    run.verify.setdefault("wave", []))
    if run.tracer.enabled and not gate:
        sig = req.sig
        run.probe("wave.hash_to_trits", wv.hash_to_trits, req.message, sig.salt,
                  inst.params.redundancy, repeats=1)
        run.probe("wave.weight", sig.weight, repeats=1)
        run.probe("wave.signature_init", wv.WaveSignature, sig.salt, sig.s_packed, sig.n,
                  repeats=1)
        _trit_probes(run, sig)


def _trit_probes(run: Run, sig) -> None:
    trits = run.probe("f3.unpack_trits", unpack_trits, sig.s_packed, sig.n, repeats=1)
    run.probe("f3.pack_trits", pack_trits, trits, repeats=1)


def wave822_stream(run: Run) -> None:
    rng = Random(run.seed)
    inst = planted.plant_wave(wv.named_params("822"), PLANTED_SIGS, run.seed)
    for _ in range(MIN_INSTALLS):
        pk, ck, vk = _wave_install(run, inst, rng)
    _warmup(run, inst, wv.wave_verify, wv.wave_cverify, pk, vk)
    requests = planted.request_stream(inst, rng)
    deadline = perf() + run.seconds
    i = 0
    while perf() < deadline:
        _wave_request(run, inst, pk, vk, next(requests), i % VERIFY_EVERY_WAVE == 0)
        i += 1
    run.vk_bytes = len(serial.encode_wave_vk(vk, inst.params)) - serial.HEADER.size
    run.peak_rss_mb = _self_rss_mb()
    if run.tracer.enabled:
        run.probe("f3.matmul", wv.f3_matmul, pk, ck, repeats=1)
        run.probe("f3.from_array", TernaryMatrix.from_array, vk.vk_bottom.to_array())
        _calibrate(run, requests, wv.wave_cverify, vk, inst.params)
        run.layer["serial.wave_vk_bytes"] = run.vk_bytes
        _opcounts(run, "wave", wv.wave_verify, wv.wave_cverify, inst.honest[0], pk, vk, inst.params)


# ── CLI ──────────────────────────────────────────────────────────────────


class Cli:
    """``python -m cvk.cli`` processes, one at a time, in a work directory."""

    def __init__(self, run: Run, src: Path, workdir: Path):
        self.run = run
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))

    def call(self, args, span: str):
        """Run one process; returns (exit code, stdout, seconds)."""
        cmd = [sys.executable, "-m", "cvk.cli", *map(str, args)]
        with self.run.tracer.span(span):
            t0 = perf()
            proc = subprocess.run(cmd, cwd=self.workdir, env=self.env,
                                  capture_output=True, timeout=CLI_TIMEOUT_S)
            elapsed = perf() - t0
        if proc.returncode == 2:
            self.run.errors.append(proc.stderr.decode(errors="replace")[-400:])
        return proc.returncode, proc.stdout.decode().strip(), elapsed

    def step(self, args, span: str) -> float:
        code, _, elapsed = self.call(args, span)
        self.run.check(f"{span} exit {code}", code == 0)
        return elapsed

    def verdict(self, args, span: str, expect: bool, sink: list) -> None:
        code, out, elapsed = self.call(args, span)
        ok = (code, out) == ((0, "accept") if expect else (1, "reject"))
        self.run.check(f"{span}: exit {code} {out!r}, expected {expect}", ok)
        if ok:
            sink.append(elapsed)


def _write_cli_files(workdir: Path, sq_inst, wave_inst) -> dict:
    """Params sidecars, PKs, signatures and messages, as the CLI reads them."""
    p = sq_inst.params
    (workdir / "sq.json").write_text(json.dumps({
        "scheme": "squirrels", "tag": p.tag, "n": p.n, "q": p.q,
        "beta_sq": p.beta_sq, "primes": list(p.public_basis.primes)}))
    w = wave_inst.params
    (workdir / "wave.json").write_text(json.dumps(
        {"scheme": "wave", "tag": w.tag, "n": w.n, "k": w.k, "w": w.w}))
    (workdir / "sq_pk.cvk").write_bytes(serial.encode_squirrels_pk(sq_inst.pk, p))
    (workdir / "wave_pk.cvk").write_bytes(serial.encode_wave_pk(wave_inst.pk_matrix(), w))
    files = {}
    for scheme, inst, encode in (
        ("sq", sq_inst, serial.encode_squirrels_sig),
        ("wave", wave_inst, serial.encode_wave_sig),
    ):
        # Fixed order (honest, tampered, honest, gate), so that every run
        # checks the same mix however few processes fit into it: a gate
        # reject skips the key unpack and costs half a full check.
        order = []
        for j in range(CLI_SIGS // 2):
            order += [inst.honest[2 * j], inst.tampered[j], inst.honest[2 * j + 1], inst.gate[j]]
        entries = []
        for i, req in enumerate(order):
            (workdir / f"{scheme}_sig{i}.cvk").write_bytes(encode(req.sig, inst.params))
            (workdir / f"{scheme}_msg{i}.bin").write_bytes(req.message)
            entries.append((f"{scheme}_sig{i}.cvk", f"{scheme}_msg{i}.bin", req.expect))
        files[scheme] = entries
    return files


def cli_oneshot(run: Run) -> None:
    sq_inst = planted.plant_squirrels(sq.named_params("I"), CLI_SIGS, run.seed)
    wave_inst = planted.plant_wave(wv.named_params("822"), CLI_SIGS, run.seed)
    workdir = run.out_dir / f"cli-{run.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        _cli_body(run, Cli(run, run.src, workdir), sq_inst, wave_inst)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _cli_body(run: Run, cli: Cli, sq_inst, wave_inst) -> None:
    rng = Random(run.seed)
    files = _write_cli_files(cli.workdir, sq_inst, wave_inst)
    t, _ = sq.choose_t(sq_inst.params.classical_bits)
    sq_common = ["--scheme", "squirrels", "--params", "sq.json"]
    wave_common = ["--scheme", "wave", "--params", "wave.json"]
    for _ in range(MIN_INSTALLS):
        seed = rng.getrandbits(32)
        run.setup.append(
            cli.step(["ck-gen", *sq_common, "--t", t, "--seed", seed, "--out", "sq_ck.cvk"],
                     "cli.sq_ck_gen")
            + cli.step(["vk-gen", *sq_common, "--pk", "sq_pk.cvk", "--ck", "sq_ck.cvk",
                        "--out", "sq_vk.cvk"], "cli.sq_vk_gen")
            + cli.step(["ck-gen", *wave_common, "--c", WAVE_C, "--seed", seed,
                        "--out", "wave_ck.cvk"], "cli.wave_ck_gen")
            + cli.step(["vk-gen", *wave_common, "--pk", "wave_pk.cvk", "--ck", "wave_ck.cvk",
                        "--c", WAVE_C, "--out", "wave_vk.cvk"], "cli.wave_vk_gen"))

    verifiers = (
        ("sq", "cverify", [*sq_common, "--vk", "sq_vk.cvk"]),
        ("sq", "verify", [*sq_common, "--pk", "sq_pk.cvk"]),
        ("wave", "cverify", [*wave_common, "--vk", "wave_vk.cvk", "--c", WAVE_C]),
        ("wave", "verify", [*wave_common, "--pk", "wave_pk.cvk"]),
    )
    deadline = perf() + run.seconds
    rounds = 0
    while perf() < deadline:
        for scheme, command, args in verifiers:
            sig, msg, expect = files[scheme][rounds % len(files[scheme])]
            run.tracer.request = run.attempted
            sink = (run.cverify if command == "cverify" else run.verify).setdefault(scheme, [])
            cli.verdict([command, *args, "--sig", sig, "--message-file", msg],
                        f"cli.{scheme}_{command}", expect, sink)
        rounds += 1

    sizes = {name: (cli.workdir / f"{name}.cvk").stat().st_size - serial.HEADER.size
             for name in ("sq_pk", "sq_ck", "sq_vk", "wave_pk", "wave_ck", "wave_vk")}
    run.vk_bytes = sizes["sq_vk"] + sizes["wave_vk"]
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    if run.tracer.enabled:
        for name, size in sizes.items():
            run.layer[f"serial.{name}_bytes"] = size
        _cli_layers(run, cli, sq_inst, wave_inst)


def _cli_layers(run: Run, cli: Cli, sq_inst, wave_inst) -> None:
    """Cold-start costs of a CLI process, measured one layer at a time."""
    run.probe("cli.import", lambda: subprocess.run(
        [sys.executable, "-c", "import cvk.cli"], cwd=cli.workdir, env=cli.env,
        check=True, timeout=CLI_TIMEOUT_S))

    def blob(name):
        return (cli.workdir / name).read_bytes()

    sp, wp = sq_inst.params, wave_inst.params
    pk = run.probe("serial.sq_decode_pk", serial.decode_squirrels_pk, blob("sq_pk.cvk"), sp)
    vk = run.probe("serial.sq_decode_vk", serial.decode_squirrels_vk, blob("sq_vk.cvk"), sp)
    run.probe("serial.sq_decode_ck", serial.decode_squirrels_ck, blob("sq_ck.cvk"), sp)
    run.probe("serial.sq_decode_sig", serial.decode_squirrels_sig, blob("sq_sig0.cvk"), sp)
    run.probe("serial.sq_encode_vk", serial.encode_squirrels_vk, vk, sp)
    _opcounts(run, "squirrels", sq.verify, sq.cverify, sq_inst.honest[0], pk, vk, sp)
    _calibrate(run, planted.request_stream(sq_inst, Random(run.seed)), sq.cverify, vk, sp)

    wave_pk = run.probe("serial.wave_decode_pk", serial.decode_wave_pk, blob("wave_pk.cvk"), wp)
    wave_vk = run.probe("serial.wave_decode_vk", serial.decode_wave_vk,
                        blob("wave_vk.cvk"), wp, WAVE_C)
    run.probe("serial.wave_decode_ck", serial.decode_wave_ck, blob("wave_ck.cvk"), wp, WAVE_C)
    sig = run.probe("serial.wave_decode_sig", serial.decode_wave_sig, blob("wave_sig0.cvk"), wp)
    run.probe("serial.wave_encode_vk", serial.encode_wave_vk, wave_vk, wp)
    vk_payload = blob("wave_vk.cvk")[serial.HEADER.size:]
    for _ in range(PROBE_REPEATS):  # first to_array on a fresh matrix: the CLI's cost
        m = run.probe("f3.matrix_init", TernaryMatrix, wp.n - WAVE_C, WAVE_C, vk_payload,
                      repeats=1)
        run.probe("f3.vk_to_array", m.to_array, repeats=1)
        run.probe("f3.pk_to_array", wave_inst.pk_matrix().to_array, repeats=1)
    for _ in range(PROBE_REPEATS * 10):
        _trit_probes(run, sig)
    _opcounts(run, "wave", wv.wave_verify, wv.wave_cverify, wave_inst.honest[0],
              wave_pk, wave_vk, wp)


WORKLOADS = {
    "sq1-stream": sq1_stream,
    "sq5-rotate": sq5_rotate,
    "wave822-stream": wave822_stream,
    "cli-oneshot": cli_oneshot,
}


def traced_extras(run: Run) -> None:
    """Quality figures every traced run reports, from a fixed seed."""
    run.layer.update(quality.false_accept_metrics())
    run.info["span_summary"] = run.tracer.summary()
