"""Tests for the benchmark itself: the planted generator and its oracle,
and the agreement between BENCHMARK.json and what the runner prints.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import planted  # noqa: E402
import workloads  # noqa: E402
from cvk import squirrels as sq  # noqa: E402
from cvk import wave as wv  # noqa: E402

SQ_TOY = sq.SquirrelsParams(n=16, q=16, beta_sq=2000, s=4, tag="toy")
WAVE_TOY = wv.WaveParams(n=24, k=12, w=16, tag="toy")


def _requests(inst):
    return inst.honest + inst.tampered + inst.gate


def _check_squirrels(inst):
    t, _ = sq.choose_t(128)
    vk = sq.vkeygen(sq.ckeygen(inst.params, t, Random(7)), inst.pk, inst.params)
    for req in _requests(inst):
        assert sq.verify(req.sig, req.message, inst.pk, inst.params) is req.expect, req.kind
        assert sq.cverify(req.sig, req.message, vk, inst.params) is req.expect, req.kind


def _check_wave(inst, c, requests):
    pk = inst.pk_matrix()
    vk = wv.wave_vkeygen(pk, wv.wave_ckeygen(inst.params, c, Random(7)), inst.params)
    for req in requests:
        assert wv.wave_verify(req.sig, req.message, pk, inst.params) is req.expect, req.kind
        assert wv.wave_cverify(req.sig, req.message, vk, inst.params) is req.expect, req.kind


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_squirrels_toy(seed):
    inst = planted.plant_squirrels(SQ_TOY, 6, seed)
    _check_squirrels(inst)
    for req in inst.gate:
        assert sum(x * x for x in req.sig.s_vec) > SQ_TOY.beta_sq
    for req in inst.tampered:
        assert sum(x * x for x in req.sig.s_vec) <= SQ_TOY.beta_sq


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_planted_wave_toy(seed):
    inst = planted.plant_wave(WAVE_TOY, 6, seed)
    _check_wave(inst, 4, _requests(inst))
    for req in inst.tampered:
        assert req.sig.weight() == WAVE_TOY.w
    for req in inst.gate:
        assert req.sig.weight() != WAVE_TOY.w


def test_planted_squirrels_level_one():
    _check_squirrels(planted.plant_squirrels(sq.named_params("I"), 4, 5))


def test_planted_wave_822():
    inst = planted.plant_wave(wv.named_params("822"), 4, 5)
    _check_wave(inst, workloads.WAVE_C, [inst.honest[0], inst.tampered[0], inst.gate[0]])


def test_request_stream_mix_is_fixed():
    inst = planted.plant_squirrels(SQ_TOY, 6, 1)
    stream = planted.request_stream(inst, Random(4))
    kinds = [next(stream).kind for _ in range(400)]
    assert kinds.count(planted.HONEST) == 200
    assert kinds.count(planted.TAMPERED) == kinds.count(planted.GATE) == 100


def test_benchmark_json_matches_runner_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(workloads.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(workloads.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in spec["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
def test_runner_prints_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = subprocess.run(
        [sys.executable, *spec["command"][1:], "--workload", "sq1-stream", "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == wanted
    for name in wanted:
        assert name in proc.stdout.split("\n{")[0]


def test_runner_fails_without_package_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sq1-stream", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout.strip() == ""
