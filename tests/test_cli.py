import argparse
import json
import os
import stat
import subprocess
import sys
import time
from pathlib import Path
from random import Random

import pytest
import sympy
from hypothesis import given
from hypothesis import strategies as st

import cvk
from cvk import rw, security, serial
from cvk.cli import _load_params, build_parser, main, squirrels_table_row, wave_table_row


def run(*argv):
    return main([str(a) for a in argv])


def read_out(capsys):
    return capsys.readouterr().out


@pytest.fixture
def sq_files(tmp_path):
    return _make_sq_files(tmp_path)


def _make_sq_files(tmp_path):
    paths = {
        "pk": tmp_path / "pk.cvk",
        "sk": tmp_path / "sk.cvk",
        "params": tmp_path / "params.json",
        "ck": tmp_path / "ck.cvk",
        "vk": tmp_path / "vk.cvk",
        "sig": tmp_path / "sig.cvk",
    }
    assert run(
        "keygen", "--scheme", "squirrels", "--seed", 7, "--n", 10, "--entry-bound", 3,
        "--out-pk", paths["pk"], "--out-sk", paths["sk"], "--out-params", paths["params"],
    ) == 0
    assert run(
        "ck-gen", "--scheme", "squirrels", "--params", paths["params"],
        "--t", 2, "--seed", 8, "--out", paths["ck"],
    ) == 0
    assert run(
        "vk-gen", "--scheme", "squirrels", "--params", paths["params"],
        "--pk", paths["pk"], "--ck", paths["ck"], "--out", paths["vk"],
    ) == 0
    assert run(
        "sign-toy", "--scheme", "squirrels", "--params", paths["params"],
        "--sk", paths["sk"], "--message", "hello", "--seed", 9, "--out", paths["sig"],
    ) == 0
    return paths


def test_params_table_squirrels_level1_row():
    row = squirrels_table_row("I")
    assert row["n"] == 1034
    assert row["s"] == 165
    assert row["t"] == 5
    assert row["mu"] == pytest.approx(121.1, abs=0.05)
    assert row["pk_bytes"] == 681780
    assert row["ck_bytes"] == 3360
    assert row["vk_bytes"] == 20700
    assert f"{row['ratio']:.2f}" == "32.94"


def test_params_table_wave_mu_column():
    assert wave_table_row("822")["mu"] == pytest.approx(126.8, abs=0.05)
    assert wave_table_row("1249")["mu"] == pytest.approx(190.2, abs=0.05)
    assert wave_table_row("1644")["mu"] == pytest.approx(253.6, abs=0.05)


def test_params_command_prints_rows(capsys):
    assert run("params", "--scheme", "squirrels") == 0
    out = read_out(capsys)
    assert "681780" in out and "20700" in out and "32.94" in out
    rows = {line.split()[0]: line.split() for line in out.splitlines()[1:]}
    assert rows["I"][-2:] == ["-91554", "8551824"]
    assert rows["V"][-2:] == ["-210152", "17040602"]
    assert run("params", "--scheme", "wave", "--instance", "1644") == 0
    out = read_out(capsys)
    assert "253.6" in out
    assert "ratio (|PK| at 4 trits per byte)" in out.splitlines()[0]


PARAMS_TABLES = {
    "squirrels": """\
instance  lambda     n    s   t     mu       |PK|     |CK|    |VK|  ratio     k_min     k_max
       I     128  1034  165   5  121.1     681780     3360   20700  32.94    -91554   8551824
      II     128  1164  188   5  121.1     874576     3820   23300  37.54   -106640   9631610
     III     192  1556  262   8  189.5    1629640     8480   49824  32.71   -167584  12903034
      IV     192  1718  275   8  189.5    1888700     8896   55008  34.34   -158579  14220809
       V     256  2056  339  11  256.3    2786580    15048   90508  30.79   -210152  17040602
""",
    "wave": """\
instance  lambda      n     k    c     mu      |PK|     |CK|    |VK|  ratio (|PK| at 4 trits per byte)
     822     128   8576  4288   80  126.8   4596736    85760  169920  27.05
    1249     192  12544  6272  120  190.2   9834496   188160  372720  26.39
    1644     256  16512  8256  160  253.6  17040384   330240  654080  26.05
""",
}


@pytest.mark.parametrize("scheme", PARAMS_TABLES)
def test_params_command_prints_the_whole_table(capsys, scheme):
    assert run("params", "--scheme", scheme) == 0
    assert read_out(capsys) == PARAMS_TABLES[scheme]


def test_params_unknown_instance_errors(capsys):
    assert run("params", "--scheme", "squirrels", "--instance", "VII") == 2


def test_squirrels_pipeline_accepts(sq_files, capsys):
    code = run(
        "verify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--pk", sq_files["pk"], "--sig", sq_files["sig"], "--message", "hello",
    )
    assert code == 0
    code = run(
        "cverify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--vk", sq_files["vk"], "--sig", sq_files["sig"], "--message", "hello",
    )
    assert code == 0


def test_squirrels_pipeline_rejects_wrong_message(sq_files):
    assert run(
        "verify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--pk", sq_files["pk"], "--sig", sq_files["sig"], "--message", "tampered",
    ) == 1
    assert run(
        "cverify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--vk", sq_files["vk"], "--sig", sq_files["sig"], "--message", "tampered",
    ) == 1


def test_squirrels_truncated_file_is_exit_2(sq_files, tmp_path, capsys):
    broken = tmp_path / "broken.sig"
    broken.write_bytes(sq_files["sig"].read_bytes()[:10])
    assert run(
        "verify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--pk", sq_files["pk"], "--sig", broken, "--message", "hello",
    ) == 2


def test_tampered_signature_bytes_reject_or_malform(sq_files, tmp_path):
    blob = bytearray(sq_files["sig"].read_bytes())
    blob[-1] ^= 0x01
    bad = tmp_path / "bad.sig"
    bad.write_bytes(bytes(blob))
    code = run(
        "verify", "--scheme", "squirrels", "--params", sq_files["params"],
        "--pk", sq_files["pk"], "--sig", bad, "--message", "hello",
    )
    assert code == 1


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda doc: {**doc, "n": str(doc["n"])},
        lambda doc: [doc],
        lambda doc: {**doc, "primes": [float(doc["primes"][0]), *doc["primes"][1:]]},
        lambda doc: {k: v for k, v in doc.items() if k != "beta_sq"},
        lambda doc: {**doc, "n": -3},
        lambda doc: {**doc, "n": 1},
        lambda doc: {**doc, "beta_sq": -1},
        lambda doc: {**doc, "primes": [sympy.prevprime(1 << 40), *doc["primes"][1:]]},
    ],
    ids=[
        "string-field", "top-level-list", "float-prime", "missing-field",
        "negative-n", "n-one", "negative-beta-sq", "40-bit-prime",
    ],
)
def test_malformed_params_sidecar_is_exit_2(sq_files, tmp_path, capsys, corrupt):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(corrupt(json.loads(sq_files["params"].read_text()))))
    assert run(
        "verify", "--scheme", "squirrels", "--params", bad,
        "--pk", sq_files["pk"], "--sig", sq_files["sig"], "--message", "hello",
    ) == 2
    assert run(
        "cverify", "--scheme", "squirrels", "--params", bad,
        "--vk", sq_files["vk"], "--sig", sq_files["sig"], "--message", "hello",
    ) == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_private_key_files_are_owner_only(sq_files):
    for name in ("ck", "vk", "sk"):
        mode = stat.S_IMODE(os.stat(sq_files[name]).st_mode)
        assert mode == 0o600, f"{name} written with mode {oct(mode)}"


# keygen, ck-gen and vk-gen write a private file (CK, VK or toy SK); the
# other commands here write a public one (PK, signature or sidecar).
_PRIVATE_WRITERS = ("keygen", "ck-gen", "vk-gen")


# The files keygen writes for each scheme besides the PK.
_KEYGEN_WRITES = {"squirrels": ("sk", "params"), "wave": ("params",), "rw": ("sk",)}


def _keygen_outputs(scheme, paths):
    """The keygen output flags, besides ``--out-pk``, that the scheme
    writes, each with its path from ``paths``."""
    return tuple(
        token for name in _KEYGEN_WRITES[scheme] for token in (f"--out-{name}", paths[name])
    )


def _argv_writing(command, scheme, files, tmp_path, out):
    """A call that writes ``out`` for the scheme: the SK, PK or sidecar
    for keygen, keygen-pk or keygen-params, else the command's ``--out``."""
    if command.startswith("keygen"):
        size = ("--bits", 96) if scheme == "rw" else ("--n", 10)
        outs = {"keygen": "sk", "keygen-pk": "pk", "keygen-params": "params"}
        paths = {name: tmp_path / f"{name}.out" for name in outs.values()} | {outs[command]: out}
        return (
            "keygen", "--scheme", scheme, "--seed", 1, *size, "--out-pk", paths["pk"],
            *_keygen_outputs(scheme, paths),
        )
    sidecar = () if scheme == "rw" else ("--params", files["params"])
    if command == "sign-toy":
        signer = ("--pk", files["pk"]) if scheme == "wave" else ("--sk", files["sk"])
        return ("sign-toy", "--scheme", scheme, *sidecar, *signer, "--seed", 1,
                "--message", "m", "--out", out)
    if command == "ck-gen":
        extra = {
            "squirrels": ("--t", 2), "wave": ("--c", 4), "rw": ("--mu", 20),
        }
        return ("ck-gen", "--scheme", scheme, *sidecar, "--seed", 1, *extra[scheme], "--out", out)
    extra = ("--c", 4) if scheme == "wave" else ()
    return (
        "vk-gen", "--scheme", scheme, *sidecar, "--pk", files["pk"], "--ck", files["ck"],
        *extra, "--out", out,
    )


_ALL_SCHEMES = ("squirrels", "wave", "rw")


@pytest.mark.parametrize(
    "command, scheme",
    [("keygen", "squirrels"), ("keygen", "rw")]
    + [(cmd, scheme) for cmd in ("ck-gen", "vk-gen") for scheme in _ALL_SCHEMES]
    + [(cmd, scheme) for cmd in ("keygen-pk", "sign-toy") for scheme in _ALL_SCHEMES]
    + [("keygen-params", "squirrels"), ("keygen-params", "wave")],
)
def test_private_write_over_a_loose_file_or_a_symlink(request, tmp_path, command, scheme):
    # A private file must not keep the 0644 mode of a file at the path, and
    # a symlink must not be written through: the path ends up an owner-only
    # file, or exit 2.  A public file written over a 0644 file keeps 0644.
    files = request.getfixturevalue(f"{'sq' if scheme == 'squirrels' else scheme}_files")
    out = tmp_path / "out.cvk"
    out.write_bytes(b"old")
    out.chmod(0o644)
    assert run(*_argv_writing(command, scheme, files, tmp_path, out)) == 0
    private = command in _PRIVATE_WRITERS
    assert stat.S_IMODE(out.lstat().st_mode) == (0o600 if private else 0o644)
    written = out.read_bytes()
    assert written != b"old"
    if not private:
        return
    out.unlink()
    target = tmp_path / "shared.cvk"
    target.write_bytes(b"public")
    target.chmod(0o644)
    out.symlink_to(target)
    code = run(*_argv_writing(command, scheme, files, tmp_path, out))
    assert target.read_bytes() == b"public"
    assert stat.S_IMODE(target.stat().st_mode) == 0o644
    if code == 0:
        assert not out.is_symlink() and stat.S_IMODE(out.lstat().st_mode) == 0o600
        assert out.read_bytes() == written
    else:
        assert code == 2


def _default_pipeline(scheme, tmp_path):
    """The six pipeline commands for the scheme, with no size flags, on
    files in ``tmp_path``."""
    pk, sk, ck, vk, sig = (tmp_path / f"{name}.cvk" for name in ("pk", "sk", "ck", "vk", "sig"))
    params = tmp_path / "params.json"
    sidecar = () if scheme == "rw" else ("--params", params)
    signer = ("--pk", pk) if scheme == "wave" else ("--sk", sk)
    argvs = [
        ("keygen", "--scheme", scheme, "--seed", 1, "--out-pk", pk,
         *_keygen_outputs(scheme, {"sk": sk, "params": params})),
        ("ck-gen", "--scheme", scheme, *sidecar, "--seed", 2, "--out", ck),
        ("vk-gen", "--scheme", scheme, *sidecar, "--pk", pk, "--ck", ck, "--out", vk),
        ("sign-toy", "--scheme", scheme, *sidecar, *signer, "--seed", 3,
         "--message", "hello", "--out", sig),
        ("verify", "--scheme", scheme, *sidecar, "--pk", pk, "--sig", sig, "--message", "hello"),
        ("cverify", "--scheme", scheme, *sidecar, "--vk", vk, "--sig", sig, "--message", "hello"),
    ]
    return [[str(a) for a in argv] for argv in argvs]


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_pipeline_at_default_sizes_accepts(tmp_path, capsys, scheme):
    # No size flags: keygen's sizes and the c or t of ck-gen, vk-gen and
    # cverify must fit together, for both verifiers.
    for argv in _default_pipeline(scheme, tmp_path):
        assert main(argv) == 0, argv
    assert read_out(capsys).split() == ["accept", "accept"]


_SRC = Path(__file__).resolve().parent.parent / "src"


def _fresh_python(script, *args):
    """Run ``script`` in a new interpreter on the source tree; its last
    stdout line, read as JSON."""
    env = os.environ | {"PYTHONPATH": str(_SRC)}
    done = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


_LOADED = 'sorted(m for m in sys.modules if m.split(".")[0] == "cvk")'

_PIPELINE_SCRIPT = f"""
import json, sys
from cvk.cli import main
codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, {_LOADED}, "logging" in sys.modules]))
"""

# The modules a process runs for each scheme's commands, besides the
# package, its errors, the CLI and serial.  The toy signers' module is
# there because keygen and sign-toy run in the same process.
_SCHEME_MODULES = {
    "squirrels": {"cvk.squirrels", "cvk.ecrt", "cvk.modmath", "cvk.toy"},
    "wave": {"cvk.wave", "cvk.f3", "cvk.toy"},
    "rw": {"cvk.rw", "cvk.modmath"},
}


@pytest.mark.parametrize("scheme", _ALL_SCHEMES)
def test_a_process_runs_only_its_schemes_modules(tmp_path, scheme):
    # A Wave process never runs Squirrels, ECRT, RW or security code, a
    # Squirrels process never runs Wave, F3, RW or security code, and an
    # RW process runs neither lattice nor code scheme.  None of them runs
    # the operation counter or loads ``logging``.
    argvs = _default_pipeline(scheme, tmp_path)
    codes, loaded, logging_loaded = _fresh_python(_PIPELINE_SCRIPT, json.dumps(argvs))
    assert codes == [0] * 6
    base = {"cvk", "cvk.errors", "cvk.cli", "cvk.serial"}
    assert set(loaded) == base | _SCHEME_MODULES[scheme]
    assert not logging_loaded


@pytest.mark.parametrize("scheme", ["squirrels", "wave"])
def test_only_keygen_and_sign_toy_load_the_toy_signers(tmp_path, scheme):
    # Each group runs in a fresh process: keygen, then sign-toy, then
    # every command of the verifier's side.
    keygen, ck_gen, vk_gen, sign_toy, verify, cverify = _default_pipeline(scheme, tmp_path)
    for argvs, loads_toy in (
        ([keygen], True), ([sign_toy], True), ([ck_gen, vk_gen, verify, cverify], False)
    ):
        codes, loaded, _ = _fresh_python(_PIPELINE_SCRIPT, json.dumps(argvs))
        assert codes == [0] * len(argvs)
        assert ("cvk.toy" in loaded) == loads_toy, [argv[0] for argv in argvs]


def test_importing_a_scheme_loads_no_toy_code():
    # The benchmark's alias cvk.squirrels.toy_keygen resolves on first
    # access, to the toy module's own functions.
    script = f"""
import json, sys
import cvk.squirrels, cvk.wave
loaded = {_LOADED}
sq = cvk.squirrels
alias = sq.toy_keygen is cvk.toy.toy_keygen and sq.toy_sign is cvk.toy.toy_sign
print(json.dumps([loaded, alias]))
"""
    loaded, alias = _fresh_python(script)
    assert "cvk.squirrels" in loaded and "cvk.wave" in loaded
    assert "cvk.toy" not in loaded
    assert alias


def test_importing_the_package_runs_no_scheme():
    script = f"import json, sys, cvk\nprint(json.dumps([{_LOADED}, 'numpy' in sys.modules]))"
    assert _fresh_python(script) == [["cvk", "cvk.errors"], False]


def test_the_package_still_hands_out_every_submodule():
    script = f"""
import json, sys, cvk
first = cvk.squirrels.SQUIRRELS_TAGS
from cvk import *
print(json.dumps([list(first), {_LOADED}, serial.MAGIC.decode(), wave.SALT_BYTES > 0]))
"""
    tags, loaded, magic, wave_ok = _fresh_python(script)
    assert tags == ["I", "II", "III", "IV", "V"]
    assert set(loaded) >= {f"cvk.{name}" for name in cvk._SUBMODULES}
    assert magic == "CVK1" and wave_ok


_RACE_SCRIPT = """
import json, sys, threading, types
from cvk import serial
assert "cvk.wave" not in sys.modules
blob = open(sys.argv[1], "rb").read()
params = types.SimpleNamespace(n=int(sys.argv[2]), redundancy=int(sys.argv[3]))
barrier = threading.Barrier(8)
keys, errors = [], []

def first_decode():
    barrier.wait(timeout=60)
    try:
        keys.append(serial.decode_wave_vk(blob, params, 4))
    except Exception as exc:
        errors.append(repr(exc))

sys.setswitchinterval(1e-6)
threads = [threading.Thread(target=first_decode) for _ in range(8)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(timeout=60)
print(json.dumps([
    errors,
    [thread.is_alive() for thread in threads],
    [(type(key).__name__, key.vk_bottom.data.hex()) for key in keys],
]))
"""


def test_threads_racing_to_load_wave_all_get_the_key(wave_files):
    # Eight threads make the process's first Wave call together: one runs
    # the module, the others wait for it, and none sees it half-run.
    errors, alive, keys = _fresh_python(_RACE_SCRIPT, wave_files["vk"], 24, 12)
    assert errors == [] and not any(alive)
    assert len(keys) == 8 and len(set(map(tuple, keys))) == 1
    assert keys[0][0] == "WaveVerificationKey"


@pytest.mark.parametrize("scheme, unwritten", [("wave", "sk"), ("rw", "params")])
def test_keygen_refuses_an_output_flag_its_scheme_does_not_write(
    tmp_path, capsys, scheme, unwritten
):
    # Exit 2 naming the flag, before any file is written: not the asked-for
    # file, not the PK, not the files the scheme does write.
    outs = {name: tmp_path / f"{name}.out" for name in ("pk", "sk", "params")}
    assert run("keygen", "--scheme", scheme, "--seed", 1, "--out-pk", outs["pk"],
               *_keygen_outputs(scheme, outs), f"--out-{unwritten}", outs[unwritten]) == 2
    assert f"--out-{unwritten}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("scheme, missing", [("squirrels", "sk"), ("squirrels", "params"),
                                             ("wave", "params"), ("rw", "sk")])
def test_keygen_missing_an_output_flag_writes_nothing(tmp_path, capsys, scheme, missing):
    # Every output flag is checked before the first write: exit 2 naming
    # the missing flag leaves the directory empty.
    outs = {name: tmp_path / f"{name}.out" for name in ("pk", "sk", "params")}
    argv = _keygen_outputs(scheme, outs)
    i = argv.index(f"--out-{missing}")
    argv = argv[:i] + argv[i + 2 :]
    assert run("keygen", "--scheme", scheme, "--seed", 1, "--out-pk", outs["pk"], *argv) == 2
    assert f"--out-{missing}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("given", ["both", "neither"])
@pytest.mark.parametrize("command", ["sign-toy", "verify", "cverify"])
def test_message_flags_are_one_of_two(rw_files, tmp_path, capsys, command, given):
    # --message and --message-file: exactly one, or argparse exits 2
    # before the command runs.
    message_file = tmp_path / "m.bin"
    message_file.write_bytes(b"rw")
    flags = {
        "both": ("--message", "rw", "--message-file", message_file),
        "neither": (),
    }[given]
    files = {
        "sign-toy": ("--sk", rw_files["sk"], "--seed", 3, "--out", tmp_path / "sig.out"),
        "verify": ("--pk", rw_files["pk"], "--sig", rw_files["sig"]),
        "cverify": ("--vk", rw_files["vk"], "--sig", rw_files["sig"]),
    }[command]
    with pytest.raises(SystemExit) as exc:
        run(command, "--scheme", "rw", *files, *flags)
    assert exc.value.code == 2
    assert "--message" in capsys.readouterr().err
    assert not (tmp_path / "sig.out").exists()


def test_cli_compression_key_primes_are_31_bits(sq_files):
    # ck-gen offers no narrower primes: each one lies in (2^30, 2^31), as
    # the keyspace of ``cvk params`` and the budget's quotient assume.
    params = _load_params(argparse.Namespace(scheme="squirrels", params=sq_files["params"]))
    for seed in range(4):
        assert run("ck-gen", "--scheme", "squirrels", "--params", sq_files["params"],
                   "--t", 5, "--seed", seed, "--out", sq_files["ck"]) == 0
        ck = serial.decode_squirrels_ck(sq_files["ck"].read_bytes(), params)
        assert len(ck.secret_basis.primes) == 5
        assert all(1 << 30 < r < 1 << 31 for r in ck.secret_basis.primes)


def test_ck_gen_has_no_secret_width_flag(sq_files, capsys):
    with pytest.raises(SystemExit) as exc:
        run("ck-gen", "--scheme", "squirrels", "--params", sq_files["params"],
            "--t", 5, "--secret-width", 25, "--out", sq_files["ck"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --secret-width" in capsys.readouterr().err


def test_pipeline_is_deterministic_under_seeds(tmp_path, sq_files):
    again = tmp_path / "again"
    again.mkdir()
    paths = {k: again / f"{k}.bin" for k in ("pk", "sk", "params", "ck", "vk", "sig")}
    run(
        "keygen", "--scheme", "squirrels", "--seed", 7, "--n", 10, "--entry-bound", 3,
        "--out-pk", paths["pk"], "--out-sk", paths["sk"], "--out-params", paths["params"],
    )
    run(
        "ck-gen", "--scheme", "squirrels", "--params", paths["params"],
        "--t", 2, "--seed", 8, "--out", paths["ck"],
    )
    run(
        "vk-gen", "--scheme", "squirrels", "--params", paths["params"],
        "--pk", paths["pk"], "--ck", paths["ck"], "--out", paths["vk"],
    )
    run(
        "sign-toy", "--scheme", "squirrels", "--params", paths["params"],
        "--sk", paths["sk"], "--message", "hello", "--seed", 9, "--out", paths["sig"],
    )
    for k in ("pk", "ck", "vk", "sig"):
        assert paths[k].read_bytes() == sq_files[k].read_bytes()
    assert json.loads(paths["params"].read_text()) == json.loads(
        sq_files["params"].read_text()
    )


@pytest.fixture
def wave_files(tmp_path):
    return _make_wave_files(tmp_path)


def _make_wave_files(tmp_path):
    paths = {k: tmp_path / f"wave_{k}.cvk" for k in ("pk", "ck", "vk", "sig")}
    paths["params"] = tmp_path / "wave_params.json"
    assert run(
        "keygen", "--scheme", "wave", "--seed", 3, "--n", 24, "--k", 12, "--w", 16,
        "--out-pk", paths["pk"], "--out-params", paths["params"],
    ) == 0
    assert run(
        "ck-gen", "--scheme", "wave", "--params", paths["params"], "--c", 4, "--seed", 4,
        "--out", paths["ck"],
    ) == 0
    assert run(
        "vk-gen", "--scheme", "wave", "--params", paths["params"], "--pk", paths["pk"],
        "--ck", paths["ck"], "--c", 4, "--out", paths["vk"],
    ) == 0
    assert run(
        "sign-toy", "--scheme", "wave", "--params", paths["params"], "--pk", paths["pk"],
        "--message", "surf", "--seed", 5, "--out", paths["sig"],
    ) == 0
    return paths


def test_wave_pipeline(wave_files):
    params, pk, vk, sig = (wave_files[k] for k in ("params", "pk", "vk", "sig"))
    assert run(
        "verify", "--scheme", "wave", "--params", params, "--pk", pk, "--sig", sig,
        "--message", "surf",
    ) == 0
    assert run(
        "cverify", "--scheme", "wave", "--params", params, "--vk", vk, "--sig", sig,
        "--c", 4, "--message", "surf",
    ) == 0
    assert run(
        "cverify", "--scheme", "wave", "--params", params, "--vk", vk, "--sig", sig,
        "--c", 4, "--message", "other",
    ) == 1


@pytest.mark.parametrize("scheme", ["squirrels", "wave"])
def test_params_sidecar_for_the_other_scheme_is_exit_2(
    sq_files, wave_files, tmp_path, capsys, scheme
):
    own, other = (sq_files, wave_files) if scheme == "squirrels" else (wave_files, sq_files)
    signer = ("--sk", own["sk"]) if scheme == "squirrels" else ("--pk", own["pk"])
    commands = [
        ("ck-gen", "--out", tmp_path / "ck.out"),
        ("vk-gen", "--pk", own["pk"], "--ck", own["ck"], "--out", tmp_path / "vk.out"),
        ("sign-toy", *signer, "--message", "hello", "--out", tmp_path / "sig.out"),
        ("verify", "--pk", own["pk"], "--sig", own["sig"], "--message", "hello"),
        ("cverify", "--vk", own["vk"], "--sig", own["sig"], "--message", "hello"),
    ]
    for command, *rest in commands:
        assert run(command, "--scheme", scheme, "--params", other["params"], *rest) == 2, command
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "expected" in err, command


def test_rw_pipeline(tmp_path):
    pk, sk = tmp_path / "pk.cvk", tmp_path / "sk.cvk"
    ck, vk, sig = tmp_path / "ck.cvk", tmp_path / "vk.cvk", tmp_path / "sig.cvk"
    assert run(
        "keygen", "--scheme", "rw", "--seed", 1, "--bits", 96,
        "--out-pk", pk, "--out-sk", sk,
    ) == 0
    assert run("ck-gen", "--scheme", "rw", "--mu", 20, "--seed", 2, "--out", ck) == 0
    assert run("vk-gen", "--scheme", "rw", "--pk", pk, "--ck", ck, "--out", vk) == 0
    assert run(
        "sign-toy", "--scheme", "rw", "--sk", sk, "--message", "rw", "--seed", 3,
        "--out", sig,
    ) == 0
    assert run("verify", "--scheme", "rw", "--pk", pk, "--sig", sig, "--message", "rw") == 0
    assert run("cverify", "--scheme", "rw", "--vk", vk, "--sig", sig, "--message", "rw") == 0
    assert run("verify", "--scheme", "rw", "--pk", pk, "--sig", sig, "--message", "x") == 1


def test_bench_ops_squirrels(capsys):
    assert run("bench-ops", "--scheme", "squirrels", "--instance", "I") == 0
    out = read_out(capsys)
    assert "170445" in out  # (n-1)s = 1033*165
    assert "5175" in out  # (n+1)t = 1035*5
    assert "32.94x" in out


def test_bench_ops_wave(capsys):
    assert run("bench-ops", "--scheme", "wave", "--instance", "822") == 0
    out = read_out(capsys)
    assert "18386944" in out and "679680" in out


@pytest.mark.parametrize(
    "scheme, instance",
    [("squirrels", tag) for tag in ("I", "II", "III", "IV", "V")]
    + [("wave", tag) for tag in ("822", "1249", "1644")],
)
def test_bench_ops_meets_the_paper_threshold(scheme, instance, capsys):
    # Exit 0 means the op-count ratio at the default t or c reaches
    # s/(t+1) or (n-k)/(2c); a ratio below it exits 1.
    assert run("bench-ops", "--scheme", scheme, "--instance", instance) == 0
    assert "speedup" in read_out(capsys)


def test_bench_ops_deterministic(capsys):
    run("bench-ops", "--scheme", "squirrels", "--instance", "III")
    first = read_out(capsys)
    run("bench-ops", "--scheme", "squirrels", "--instance", "III")
    assert read_out(capsys) == first


@pytest.mark.parametrize(
    "argv",
    [
        ("bench-ops", "--scheme", "squirrels", "--instance", "I", "--t", -1),
        ("bench-ops", "--scheme", "squirrels", "--instance", "I", "--t", 0),
        ("bench-ops", "--scheme", "wave", "--instance", "822", "--c", -8),
        ("bench-ops", "--scheme", "wave", "--instance", "822", "--c", 0),
        ("bench-ops", "--scheme", "wave", "--instance", "822", "--c", 4289),
        ("simulate-forgery", "--scheme", "squirrels", "--width", 1),
        ("simulate-forgery", "--scheme", "wave", "--trials", -3),
        ("simulate-forgery", "--scheme", "squirrels", "--trials", 0),
        ("simulate-forgery", "--scheme", "wave", "--queries", -1),
    ],
    ids=[
        "t=-1", "t=0", "c=-8", "c=0", "c=n-k+1",
        "width=1", "trials=-3", "trials=0", "queries=-1",
    ],
)
def test_numbers_outside_the_library_rules_are_exit_2(argv, capsys):
    # t >= 1 as in ckeygen, 0 < c <= n-k as in wave_ckeygen, a prime width
    # of at least 2, at least one trial and no negative query count.
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_simulate_forgery_command(capsys):
    assert run(
        "simulate-forgery", "--scheme", "wave", "--nk", 4, "--c", 2,
        "--trials", 500, "--queries", 3, "--seed", 5,
    ) == 0
    out = read_out(capsys)
    assert "within bound" in out
    assert "keyspace, kappa   130, 13" in out.splitlines()


def test_simulate_forgery_against_the_full_verifier(capsys):
    # c = nk: the kernel is {0}, so kappa, the hits and the bound are 0.
    assert run("simulate-forgery", "--scheme", "wave", "--nk", 3, "--c", 3, "--seed", 5) == 0
    out = read_out(capsys).splitlines()
    for line in ("keyspace, kappa   1, 0", "success rate      0.000000  (0 hits)",
                 "per-query bound   0.000000", "within bound"):
        assert line in out


@pytest.mark.parametrize("scheme", ["squirrels", "wave"])
def test_simulate_forgery_unknown_strategy_is_exit_2(capsys, scheme):
    assert run("simulate-forgery", "--scheme", scheme, "--strategy", "bogus") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: --strategy: 'bogus' is not one of {', '.join(security.STRATEGIES)}\n"
    )


@pytest.mark.parametrize("bound", [0, -1, -(1 << 63)])
def test_simulate_forgery_query_bound_below_one_is_exit_2(capsys, bound):
    argv = ("simulate-forgery", "--scheme", "squirrels", "--query-bound", bound)
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: query bound must be at least 1, got {bound}\n"


@pytest.mark.parametrize(
    "nk, c, message",
    [
        (4, 0, "compression dimension c = 0 outside [1, n-k = 4]"),
        (4, 5, "compression dimension c = 5 outside [1, n-k = 4]"),
        (8, 3, "wave(nk=8, c=3) holds at least 3^20 * 8 trits, above the cap of 10000000"),
        (10**9, 1, "above the cap of 10000000"),
        (10**9, 10**9, "above the cap of 10000000"),
        (10**400, 1, "above the cap of 10000000"),
        # One kernel, {0}, within the instance cap, but each query draws
        # 10^7 trits: the game's size rule refuses 2000 x 3 of them.
        (10**7, 10**7, "draw 60000000000 trits, above the cap of 10000000"),
    ],
)
def test_simulate_forgery_wave_instance_outside_the_rules_is_exit_2(capsys, nk, c, message):
    # The c rule and the size rules refuse before any enumeration.
    start = time.perf_counter()
    assert run("simulate-forgery", "--scheme", "wave", "--nk", nk, "--c", c) == 2
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert message in captured.err


def test_missing_file_is_exit_2(tmp_path, capsys):
    assert run(
        "verify", "--scheme", "rw", "--pk", tmp_path / "nope.cvk",
        "--sig", tmp_path / "nope.sig", "--message", "m",
    ) == 2


@pytest.mark.parametrize("ell", [0, 1])
def test_rw_key_with_ell_that_is_not_a_compression_key_is_exit_2(tmp_path, capsys, ell):
    # With ell = 1 every signature would pass the compressed check.
    pk, sk, sig = tmp_path / "pk.cvk", tmp_path / "sk.cvk", tmp_path / "sig.cvk"
    ck, vk = tmp_path / "ck.cvk", tmp_path / "vk.cvk"
    assert run("keygen", "--scheme", "rw", "--seed", 1, "--bits", 96,
               "--out-pk", pk, "--out-sk", sk) == 0
    assert run("sign-toy", "--scheme", "rw", "--sk", sk, "--message", "rw", "--seed", 3,
               "--out", sig) == 0
    n = serial.decode_rw_pk(pk.read_bytes())
    ck.write_bytes(serial.encode_rw_ck(ell))
    vk.write_bytes(serial.encode_rw_vk(rw.RwVerificationKey(ell, 0, n.bit_length())))
    assert run("vk-gen", "--scheme", "rw", "--pk", pk, "--ck", ck,
               "--out", tmp_path / "vk.out") == 2
    assert run("cverify", "--scheme", "rw", "--vk", vk, "--sig", sig, "--message", "other") == 2
    assert capsys.readouterr().err.count("error:") == 2


def _wave_header_only(path, kind):
    path.write_bytes(serial.wrap(serial.SCHEME_WAVE, kind, 0, b""))
    return path


def test_wave_c_zero_is_exit_2(wave_files, tmp_path, capsys):
    # With c = 0 the compressed check has no rows and would accept anything.
    params, pk, sig = wave_files["params"], wave_files["pk"], wave_files["sig"]
    vk = _wave_header_only(tmp_path / "vk0.cvk", serial.KIND_VK)
    ck = _wave_header_only(tmp_path / "ck0.cvk", serial.KIND_CK)
    assert run(
        "cverify", "--scheme", "wave", "--params", params, "--vk", vk, "--sig", sig,
        "--c", 0, "--message", "other",
    ) == 2
    assert run(
        "vk-gen", "--scheme", "wave", "--params", params, "--pk", pk, "--ck", ck,
        "--c", 0, "--out", tmp_path / "vk.out",
    ) == 2
    assert not (tmp_path / "vk.out").exists()
    assert capsys.readouterr().err.count("error:") == 2


def test_wave_c_above_redundancy_is_exit_2(wave_files, tmp_path):
    params, sig = wave_files["params"], wave_files["sig"]
    assert run(
        "cverify", "--scheme", "wave", "--params", params, "--vk", wave_files["vk"],
        "--sig", sig, "--c", 13, "--message", "surf",
    ) == 2


def _short_wave_sig(wave_files, tmp_path):
    """The toy Wave signature one byte short, under a header that matches."""
    payload = wave_files["sig"].read_bytes()[serial.HEADER.size : -1]
    path = tmp_path / "short.sig"
    path.write_bytes(serial.wrap(serial.SCHEME_WAVE, serial.KIND_SIG, 0, payload))
    return path


def _wave_c_argv(command, c):
    def argv(sq_files, wave_files, tmp_path):
        out = ("--out", tmp_path / "out.cvk")
        rest = {
            "ck-gen": out,
            "vk-gen": ("--pk", wave_files["pk"], "--ck", wave_files["ck"], *out),
            "cverify": ("--vk", wave_files["vk"], "--sig", wave_files["sig"], "--message", "surf"),
        }[command]
        return (command, "--scheme", "wave", "--params", wave_files["params"], "--c", c, *rest)
    return argv


def _short_sig_argv(command):
    def argv(sq_files, wave_files, tmp_path):
        key = ("--pk", wave_files["pk"]) if command == "verify" else ("--vk", wave_files["vk"])
        return (
            command, "--scheme", "wave", "--params", wave_files["params"], *key,
            "--sig", _short_wave_sig(wave_files, tmp_path), "--message", "surf",
        )
    return argv


def _sq_q3_sidecar(sq_files, tmp_path):
    path = tmp_path / "q3.json"
    path.write_text(json.dumps({**json.loads(sq_files["params"].read_text()), "q": 3}))
    return path


# A value just outside a rule that wave.check_c, squirrels.check_t,
# squirrels.check_q or WaveSignature owns, at each CLI entry that reads it.
# bench-ops is in test_numbers_outside_the_library_rules_are_exit_2.
_RULE_CASES = {
    **{
        f"{command} c={label}": _wave_c_argv(command, c)
        for command in ("ck-gen", "vk-gen", "cverify")
        for label, c in (("0", 0), ("n-k+1", 13))
    },
    "ck-gen t=0": lambda sq_files, wave_files, tmp_path: (
        "ck-gen", "--scheme", "squirrels", "--params", sq_files["params"], "--t", 0,
        "--out", tmp_path / "out.cvk",
    ),
    "keygen q=3": lambda sq_files, wave_files, tmp_path: (
        "keygen", "--scheme", "squirrels", "--seed", 7, "--n", 10, "--q", 3,
        "--out-pk", tmp_path / "pk", "--out-sk", tmp_path / "out.cvk",
        "--out-params", tmp_path / "params.json",
    ),
    "ck-gen q=3": lambda sq_files, wave_files, tmp_path: (
        "ck-gen", "--scheme", "squirrels", "--params", _sq_q3_sidecar(sq_files, tmp_path),
        "--out", tmp_path / "out.cvk",
    ),
    "cverify short signature": _short_sig_argv("cverify"),
    "verify short signature": _short_sig_argv("verify"),
}


@pytest.mark.parametrize("case", _RULE_CASES)
def test_values_just_outside_an_owned_rule_are_exit_2(sq_files, wave_files, tmp_path, capsys, case):
    capsys.readouterr()
    assert run(*_RULE_CASES[case](sq_files, wave_files, tmp_path)) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert not (tmp_path / "out.cvk").exists()


@pytest.fixture
def rw_files(tmp_path):
    return _make_rw_files(tmp_path)


def _make_rw_files(tmp_path):
    paths = {k: tmp_path / f"rw_{k}.cvk" for k in ("pk", "sk", "ck", "vk", "sig")}
    assert run("keygen", "--scheme", "rw", "--seed", 1, "--bits", 96,
               "--out-pk", paths["pk"], "--out-sk", paths["sk"]) == 0
    assert run("ck-gen", "--scheme", "rw", "--mu", 20, "--seed", 2, "--out", paths["ck"]) == 0
    assert run("vk-gen", "--scheme", "rw", "--pk", paths["pk"], "--ck", paths["ck"],
               "--out", paths["vk"]) == 0
    assert run("sign-toy", "--scheme", "rw", "--sk", paths["sk"], "--message", "rw",
               "--seed", 3, "--out", paths["sig"]) == 0
    return paths


@pytest.mark.parametrize(
    "n", [3, 1 << 100, (1 << 69_999) + 5], ids=["three", "power-of-two", "70000-bit"]
)
def test_rw_pk_that_rw_keygen_cannot_make_is_exit_2(rw_files, tmp_path, capsys, n):
    pk = tmp_path / "bad_pk.cvk"
    pk.write_bytes(serial.encode_rw_pk(n))
    assert run("vk-gen", "--scheme", "rw", "--pk", pk, "--ck", rw_files["ck"],
               "--out", tmp_path / "vk.out") == 2
    assert run("verify", "--scheme", "rw", "--pk", pk, "--sig", rw_files["sig"],
               "--message", "rw") == 2
    assert capsys.readouterr().err.count("error:") == 2


def test_rw_vk_with_out_of_range_width_is_exit_2(rw_files, tmp_path):
    vk = serial.decode_rw_vk(rw_files["vk"].read_bytes())
    for n_bits in (0, 63, 513, 0xFFFF):
        bad = tmp_path / f"vk{n_bits}.cvk"
        bad.write_bytes(serial.encode_rw_vk(rw.RwVerificationKey(vk.ell, vk.n_ell, n_bits)))
        assert run("cverify", "--scheme", "rw", "--vk", bad, "--sig", rw_files["sig"],
                   "--message", "rw") == 2, n_bits


def test_rw_sk_with_composite_factor_is_exit_2(rw_files, tmp_path, capsys):
    kp = serial.decode_rw_sk(rw_files["sk"].read_bytes())
    q = kp.q + 8
    while sympy.isprime(q):
        q += 8
    sk = tmp_path / "bad_sk.cvk"
    sk.write_bytes(serial.encode_rw_sk(rw.RwKeypair(kp.p, q)))
    assert run("sign-toy", "--scheme", "rw", "--sk", sk, "--message", "rw", "--seed", 3,
               "--out", tmp_path / "sig.out") == 2
    assert "prime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "scheme, tag",
    [(scheme, tag) for scheme in ("squirrels", "wave") for tag in (5, ["x"], None)]
    + [("wave", "99999")],
    ids=["squirrels-int", "squirrels-list", "squirrels-null",
         "wave-int", "wave-list", "wave-null", "wave-overflow"],
)
def test_sidecar_tag_that_cannot_be_written_is_exit_2(
    sq_files, wave_files, tmp_path, capsys, scheme, tag
):
    files = sq_files if scheme == "squirrels" else wave_files
    doc = {**json.loads(files["params"].read_text()), "tag": tag}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("ck-gen", "--scheme", scheme, "--params", bad, "--seed", 1,
               "--out", tmp_path / "ck.out") == 2
    assert capsys.readouterr().err.count("error:") == 1


def test_squirrels_q_above_two_to_the_16_is_exit_2(sq_files, tmp_path, capsys):
    assert run(
        "keygen", "--scheme", "squirrels", "--seed", 7, "--n", 10, "--q", 1 << 17,
        "--out-pk", tmp_path / "pk", "--out-sk", tmp_path / "sk",
        "--out-params", tmp_path / "params.json",
    ) == 2
    doc = {**json.loads(sq_files["params"].read_text()), "q": 1 << 17}
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert run("ck-gen", "--scheme", "squirrels", "--params", bad, "--seed", 1,
               "--out", tmp_path / "ck.out") == 2
    assert run("vk-gen", "--scheme", "squirrels", "--params", bad, "--pk", sq_files["pk"],
               "--ck", sq_files["ck"], "--out", tmp_path / "vk.out") == 2
    assert capsys.readouterr().err.count("error:") == 3


_JSON_VALUES = (
    0, -1, 1, 2, 3, 16, 1 << 16, 1 << 17, 1 << 31, 1 << 63, 1 << 80, -(1 << 70),
    1.5, True, None, "", "x", "5", "99999", "I", [], ["x"], [3, 5], {}, {"n": 1},
)


def _corrupt_sidecar(text: str, rng: Random) -> str:
    doc = json.loads(text)
    roll = rng.randrange(10)
    if roll == 0:
        return text[: rng.randrange(len(text))]
    if roll == 1:
        return json.dumps(rng.choice(_JSON_VALUES))
    if roll == 2 and "primes" in doc:
        primes = doc["primes"]
        primes[rng.randrange(len(primes))] = rng.choice(_JSON_VALUES)
        return json.dumps(doc)
    key = rng.choice([*doc, "tag"])
    if rng.randrange(4):
        doc[key] = rng.choice(_JSON_VALUES)
    else:
        doc.pop(key, None)
    return json.dumps(doc)


def _corrupt_file(blob: bytes, rng: Random) -> bytes:
    blob = bytearray(blob)
    roll = rng.randrange(5)
    if roll == 0:
        return bytes(blob[: rng.randrange(len(blob))])
    if roll == 1:
        return bytes(blob) + rng.randbytes(rng.randrange(1, 16))
    # Mostly inside the payload, where the header still matches.
    start = serial.HEADER.size if len(blob) > serial.HEADER.size and rng.randrange(4) else 0
    for _ in range(rng.randrange(1, 4)):
        i = rng.randrange(start, len(blob))
        if roll == 2:
            blob[i] ^= 1 << rng.randrange(8)
        else:
            blob[i] = rng.randrange(256)
    return bytes(blob)


_FUZZ_PIPELINES = {
    "squirrels": [
        ("ck-gen", ("params",), ("--seed", "1", "--t", "2")),
        ("vk-gen", ("params", "pk", "ck"), ()),
        ("sign-toy", ("params", "sk"), ("--seed", "2", "--message", "hello")),
        ("verify", ("params", "pk", "sig"), ("--message", "hello")),
        ("cverify", ("params", "vk", "sig"), ("--message", "hello")),
    ],
    "wave": [
        ("ck-gen", ("params",), ("--seed", "1", "--c", "4")),
        ("vk-gen", ("params", "pk", "ck"), ("--c", "4")),
        ("sign-toy", ("params", "pk"), ("--seed", "2", "--message", "surf")),
        ("verify", ("params", "pk", "sig"), ("--message", "surf")),
        ("cverify", ("params", "vk", "sig"), ("--c", "4", "--message", "surf")),
    ],
    "rw": [
        ("vk-gen", ("pk", "ck"), ()),
        ("sign-toy", ("sk",), ("--seed", "2", "--message", "rw")),
        ("verify", ("pk", "sig"), ("--message", "rw")),
        ("cverify", ("vk", "sig"), ("--message", "rw")),
    ],
}


def test_cli_survives_corrupted_inputs(sq_files, wave_files, rw_files, tmp_path, capsys):
    # Every subcommand that reads a file, for every scheme, with one input
    # corrupted per call: each call ends in an exit code, never an exception.
    files = {"squirrels": sq_files, "wave": wave_files, "rw": rw_files}
    bad = tmp_path / "bad"
    rng = Random(13)
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(30):
        for scheme, commands in _FUZZ_PIPELINES.items():
            for command, inputs, extra in commands:
                victim = rng.choice(inputs)
                original = files[scheme][victim].read_bytes()
                if victim == "params":
                    bad.write_text(_corrupt_sidecar(original.decode(), rng))
                else:
                    bad.write_bytes(_corrupt_file(original, rng))
                argv = [command, "--scheme", scheme, *extra]
                for name in inputs:
                    argv += [f"--{name}", str(bad if name == victim else files[scheme][name])]
                if command in ("ck-gen", "vk-gen", "sign-toy"):
                    argv += ["--out", str(tmp_path / "out")]
                code = main(argv)
                assert code in codes, (argv, code)
                codes[code] += 1
    capsys.readouterr()
    assert codes[2] > 0 and codes[0] + codes[1] > 0, codes


# ── flag fuzz ────────────────────────────────────────────────────────────

_SUBPARSERS = next(
    action for action in build_parser()._actions
    if isinstance(action, argparse._SubParsersAction)
).choices

_EDGE_INTS = (0, -1, 1 << 16, 1 << 31, 1 << 63)

# Flags that set how much work a command does, and their largest drawn
# value.  They are always passed, so no larger default applies.
_COST_CAPS = {
    ("simulate-forgery", "--trials"): 200,
    ("simulate-forgery", "--queries"): 8,
    ("simulate-forgery", "--nk"): 5,
    ("simulate-forgery", "--c"): 5,
    ("keygen", "--n"): 12,
    ("keygen", "--bits"): 128,
}

# A large --nk or --c is refused by a size rule before any work.
_REFUSED_BEFORE_WORK = {("simulate-forgery", "--nk"), ("simulate-forgery", "--c")}

_INPUT_FLAGS = {"--params", "--pk", "--sk", "--ck", "--vk", "--sig", "--message-file"}
_OUTPUT_FLAGS = {"--out", "--out-pk", "--out-sk", "--out-params"}
_NON_NUMBERS = ("x", "1.5", "", "0x10")


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    """The valid toy files of each scheme by flag, a pool of inputs (those
    files, a corrupted copy of each, a missing path and a directory), and
    a pool of outputs (a fresh file, a directory, a file in a missing
    directory)."""
    root = tmp_path_factory.mktemp("flags")
    rng = Random(17)
    files = {}
    inputs = [root / "missing.cvk", root]
    for scheme, build in (("squirrels", _make_sq_files), ("wave", _make_wave_files),
                          ("rw", _make_rw_files)):
        files[scheme] = {}
        for name, path in build(root).items():
            bad = path.with_name(f"bad_{path.name}")
            if name == "params":
                bad.write_text(_corrupt_sidecar(path.read_text(), rng))
            else:
                bad.write_bytes(_corrupt_file(path.read_bytes(), rng))
            files[scheme][f"--{name}"] = str(path)
            inputs += [path, bad]
    (root / "out").mkdir()
    outputs = [root / "out" / "file.cvk", root, root / "missing" / "file.cvk"]
    return files, [str(p) for p in inputs], [str(p) for p in outputs]


def _flag_values(command, action, own, inputs, outputs):
    """Values for one flag; ``own`` maps input flags to the valid file of
    the drawn scheme, drawn as often as the whole input pool."""
    flag = action.option_strings[0]
    if action.choices:
        return st.sampled_from([*action.choices, "bogus"])
    if flag == "--strategy":
        return st.sampled_from([*security.STRATEGIES, "bogus"])
    if flag in _OUTPUT_FLAGS:
        return st.sampled_from(outputs)
    if flag in _INPUT_FLAGS:
        pool = st.sampled_from(inputs)
        return st.one_of(st.just(own[flag]), pool) if flag in own else pool
    if action.type is not int:
        return st.sampled_from(["hello", "surf", "rw", "", "I", "822"])
    cap = _COST_CAPS.get((command, flag), 32)
    edges = [e for e in _EDGE_INTS if e <= cap or (command, flag) in _REFUSED_BEFORE_WORK]
    return st.one_of(st.integers(1, cap), st.sampled_from([*edges, *_NON_NUMBERS])).map(str)


@pytest.mark.parametrize("command", sorted(_SUBPARSERS))
@given(data=st.data())
def test_cli_flags_end_in_an_exit_code(fuzz_paths, command, data):
    # Any subset of a command's flags, with valid, edge, non-numeric and
    # path values: main returns 0, 1 or 2, or argparse exits with 2.
    files, inputs, outputs = fuzz_paths
    actions = [a for a in _SUBPARSERS[command]._actions if a.dest != "help"]
    scheme = data.draw(st.sampled_from([*files, "bogus"]))
    required, optional = {"--scheme": st.just(scheme)}, {}
    for action in actions:
        flag = action.option_strings[0]
        if flag != "--scheme":
            values = _flag_values(command, action, files.get(scheme, {}), inputs, outputs)
            always = action.required or (command, flag) in _COST_CAPS
            (required if always else optional)[flag] = values
    flags = data.draw(st.fixed_dictionaries(required, optional=optional))
    argv = [command, *(token for flag, value in flags.items() for token in (flag, value))]
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), argv
