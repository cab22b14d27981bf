#!/usr/bin/env python3
"""Record the benchmark's figures for one tree in one file, BENCH_<n>.json.

    python3 bench/record.py --out BENCH_31.json
    python3 bench/record.py --out /tmp/bench.json --tiny --seconds 0

Run from anywhere; the tree is the one this file sits in.  Each workload of
BENCHMARK.json runs at seed 0 in its own fresh process, once untraced
(--trace 0: the end-to-end metrics) and once traced (--trace 1: the
per-layer metrics), through perfbench/run.py's ``measure`` and
``host_info``, loaded by file path so that nothing under perfbench/ is
edited or imported as a package.  Each child gets its own scratch directory
for perfbench's work and trace files, so perfbench/_out is not touched.

The file holds the host (CPU, numpy, BLAS, ``src_lines``), and per workload
the end-to-end metrics with units, the named rate with its quartiles, the
failed ratio, the per-layer metrics, the names perfbench reports missing and
the reference-digest status of each run.  Timings read on a shared host
drift; compare two trees with paired, alternated runs, not two such files.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0


def load_perfbench_run():
    """perfbench/run.py as a module, loaded by path with perfbench/ importable beside it."""
    sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def child(name: str, seconds: float, trace: bool, tiny: bool) -> dict:
    """One perfbench measurement in this process; its result line and its detail record."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # as perfbench/run.py does, before numpy loads
    sys.path.insert(0, str(ROOT / "src"))
    bench = load_perfbench_run()
    with tempfile.TemporaryDirectory(prefix="bench-record-") as work:
        bench.OUT = Path(work)
        line, detail = bench.measure(SPEC, name, SEED, seconds, trace, tiny)
    detail.pop("ops")  # one entry per operation: too long for the record
    return {"result": line, "detail": detail, "host": bench.host_info()}


def measure_in_child(name: str, seconds: float, trace: bool, tiny: bool) -> dict:
    argv = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if tiny:
        argv.append("--tiny")
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=1800)
    if proc.returncode != 0:
        raise SystemExit(
            f"error: {name} --trace {int(trace)} exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.splitlines()[-1])


def record(seconds: float, tiny: bool) -> dict:
    workloads, host = {}, None
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name in (w["name"] for w in SPEC["workloads"]):
        plain = measure_in_child(name, seconds, False, tiny)
        traced = measure_in_child(name, seconds, True, tiny)
        host = host or plain["host"]
        workloads[name] = {
            "end_to_end": {
                key: {"value": plain["detail"]["end_to_end"][key], "unit": unit}
                for key, unit in units.items()
            },
            "rate": plain["detail"]["rate"],
            "failed_ratio": plain["detail"]["failed_ratio"],
            "attempted": {
                "trace0": plain["result"]["attempted"],
                "trace1": traced["result"]["attempted"],
            },
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "per_layer": traced["result"]["metrics"],
            "missing": traced["detail"]["missing"],
            "reference_digests": {
                "trace0": plain["detail"]["reference_digests"],
                "trace1": traced["detail"]["reference_digests"],
            },
            "digests": plain["detail"]["digests"],
        }
    return {
        "command": ["python3", "bench/record.py", *sys.argv[1:]],
        "seed": SEED,
        "seconds": seconds,
        "tiny": tiny,
        "host": host,
        "src_lines": host["src_lines"],
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="the JSON file to write")
    parser.add_argument("--seconds", type=float, help="per run (default: BENCHMARK.json's)")
    parser.add_argument("--tiny", action="store_true", help="perfbench's tiny workload sizes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help=argparse.SUPPRESS)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    seconds = float(SPEC["run_seconds"]) if args.seconds is None else args.seconds
    if args.child:
        print(json.dumps(child(args.child, seconds, bool(args.trace), args.tiny)))
        return 0
    if not args.out:
        parser.error("--out is required")
    data = record(seconds, args.tiny)
    Path(args.out).write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    for name, entry in data["workloads"].items():
        rate = entry["rate"]
        print(
            f"{name}: {rate['name']} {rate['median']:.6g} (q1 {rate['q1']:.6g}, q3 "
            f"{rate['q3']:.6g}, n {rate['n']}), reference_digests "
            f"{entry['reference_digests']['trace0']}/{entry['reference_digests']['trace1']}, "
            f"missing {entry['missing']}"
        )
    return 0 if all(entry["correct"] for entry in data["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
