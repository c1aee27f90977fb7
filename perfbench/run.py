#!/usr/bin/env python3
"""Layered wall-clock benchmark for compressed verification at the
published sizes (Squirrels I and V, Wave 822).

Run from the repository root:

    python3 perfbench/run.py --workload sq1-stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is a separate run that records spans and reports the per-layer
metrics, the tracing overhead and the toy false-accept rates.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the full result (environment,
sample counts, span summary, operation-count table) is written to
``perfbench/out/``.  The exit code is 1 if any verdict, exception or CLI
exit code was wrong, and 2 if the package source is missing.

The package is imported from ``src/`` of the checkout holding this file,
never from an installed copy.  BLAS/OpenMP pools are capped at the
number of CPUs this process may use.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("sq1-stream", "sq5-rotate", "wave822-stream", "cli-oneshot")


def _cap_threads() -> str:
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = threads
    return threads


def _environment(args, threads: str) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": int(threads),
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _print_metrics(values: dict, units: dict, info: dict, unbounded: set) -> None:
    counts, derived = info.get("layer_samples", {}), info.get("derived", {})
    for name, value in values.items():
        note = f"n={counts[name]}" if name in counts else ""
        if name in derived:
            note = f"derived: {derived[name]}"
        elif name in unbounded:
            note = "not bounded in BENCHMARK.json"
        elif value == 0:
            note = "not exercised by this workload"
        print(f"  {name:<34} {value:>14.6g} {units[name]:<6} {note}".rstrip())


def _print_opcounts(table: list, speedup: float | None) -> None:
    """The paper's metric (word-mul ratio) beside the measured speedup."""
    print("  op counts (word-muls)      verify      cverify   ratio")
    for row in table:
        print(f"    {row['scheme']:<9} {row['instance']:>5} {row['verify_word_muls']:>12} "
              f"{row['cverify_word_muls']:>12} {row['ratio']:>7.2f}x")
    if speedup is not None:
        print(f"  measured cverify_speedup {speedup:.4g}x (verify_p90 / cverify_p90)")


def run_one(args, threads: str) -> int:
    import cvk
    import quality
    import workloads as wl

    if not Path(cvk.__file__).resolve().is_relative_to(SRC):
        print(f"error: cvk imported from {cvk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = wl.Run(args.seed, args.seconds, bool(args.trace), SRC, OUT)
    wl.WORKLOADS[args.workload](run)
    run.info["opcount_table"] = quality.opcount_table()
    if args.trace:
        wl.traced_extras(run)
        values, table, extra = run.per_layer(), wl.PER_LAYER, ()
    else:
        values, table, extra = run.end_to_end(), wl.END_TO_END, wl.ALSO_REPORTED
    units = dict(table + extra)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in table}
    correct = run.failed == 0 and run.attempted > 0
    result = {
        "environment": _environment(args, threads),
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "error_rate": run.failed / max(run.attempted, 1),
        "errors": run.errors,
        "samples": run.samples(),
        "latency_ms": run.latency_table(),
        "metrics": metrics,
        "also_reported": {name: {"value": values[name], "unit": unit} for name, unit in extra},
        "info": run.info,
    }
    if args.trace:
        result["spans"] = run.tracer.dump()
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(result, indent=1))

    env = result["environment"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"  nproc {env['nproc']}  blas threads {env['blas_threads']} ({env['blas']})  "
          f"python {env['python']}  numpy {env['numpy']}")
    print(f"  samples {json.dumps(result['samples'])}")
    _print_metrics(values, units, run.info, {name for name, _ in extra})
    _print_opcounts(run.info["opcount_table"], values.get("cverify_speedup"))
    print(f"  error_rate {result['error_rate']:.6g} ({run.failed}/{run.attempted})")
    for err in run.errors:
        print(f"  error: {err}")
    print(f"  full result: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process, so memory peaks stay separate."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 2
        last = json.loads(lines[-1])
        results[name] = json.loads((OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").read_text())
        results[name].pop("spans", None)
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = entry
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(results, indent=1))
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cvk" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'cvk'} not found", file=sys.stderr)
        return 2
    threads = _cap_threads()
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_one(args, threads)


if __name__ == "__main__":
    sys.exit(main())
