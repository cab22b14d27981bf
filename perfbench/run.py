#!/usr/bin/env python3
"""signalfolio benchmark: one CLI workload timed end to end, or traced by layer.

    python3 perfbench/run.py --workload sweep-oracle --seed 3 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seconds 12

Run from the repository root.  A run imports the package from ``src/``,
sets up ``SETUP_REPS`` times (config, inputs and one discarded warm-up
operation each), then repeats the workload's operation as a closed loop for
``--seconds``.  Every operation is checked: exit codes, the workload's own
output checks, and sha256 digests of its artifacts, which must agree across
the run and, for the default seed, with ``reference_digests.json``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` operations alternate untraced and
traced, and it carries the per-layer metrics.  Human-readable lines (host,
named rates with quartiles, failed_ratio, missing layers) come before it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
DEFAULT_SEED = 0
SETUP_REPS = 3
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# One BLAS thread (no more than nproc): the matrices are small, and a second
# thread on a shared 2-core box only adds run-to-run noise.
BLAS_THREADS = "1"


@dataclass
class Op:
    kind: str
    wall_s: float
    units: int
    digests: dict[str, str]
    problem: str | None


@dataclass
class Run:
    workload: workloads.Workload
    seed: int
    tiny: bool
    work: Path
    ops: list[Op] = field(default_factory=list)

    def op(self, kind: str, config: Path, cfg: dict) -> None:
        from signalfolio.cli import main as cli_main

        out = self.work / f"op{len(self.ops)}"
        out.mkdir()
        start = perf_counter()
        codes = [
            cli_main([command, "--config", str(config), "--out", str(out)])
            for command in self.workload.commands
        ]
        wall = perf_counter() - start
        units, problem = 0, None
        for command, code in zip(self.workload.commands, codes):
            if code != 0:
                problem = problem or f"{command} exited {code}"
        digests = workloads.hash_artifacts(out, self.workload.artifacts)
        if problem is None:
            try:
                units, problem = self.workload.check(out, cfg)
            except (OSError, ValueError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
        shutil.rmtree(out)
        self.ops.append(Op(kind, wall, units, digests, problem))


def _median_quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return value, value, value
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def host_info() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "src_lines": src_lines,
    }


def check_digests(run: Run, host: dict) -> str:
    """Mark ops whose digests disagree; return the reference status."""
    good = [op for op in run.ops if op.problem is None]
    if good:
        first = good[0].digests
        for op in good[1:]:
            if op.digests != first:
                op.problem = "artifact digests differ from the run's first operation"
    reference = json.loads((HERE / "reference_digests.json").read_text())
    if run.tiny or run.seed != reference["seed"]:
        return "no reference for this seed"
    if (reference["numpy"], reference["cpu_model"]) != (host["numpy"], host["cpu_model"]):
        return "unverified (numpy version or CPU model differs from the reference host)"
    expected = reference["digests"][run.workload.name]
    status = "verified"
    for op in run.ops:
        if op.problem is None and op.digests != expected:
            op.problem = "artifact digests differ from reference_digests.json"
            status = "mismatch"
    return status


def measure(spec: dict, name: str, seed: int, seconds: float, trace: bool, tiny: bool):
    """Run one workload; return (result line, detail record)."""
    workload = workloads.WORKLOADS[name]
    start = perf_counter()
    import signalfolio.cli  # timed: the package import is part of set-up

    import_s = perf_counter() - start
    package = Path(signalfolio.cli.__file__).resolve().parent
    if package != (ROOT / "src" / "signalfolio").resolve():
        raise SystemExit(f"error: imported signalfolio from {package}, not from src/")
    host = host_info()
    OUT.mkdir(exist_ok=True)
    run = Run(workload, seed, tiny, OUT / f"work-{name}-{seed}-{os.getpid()}")
    if run.work.exists():
        shutil.rmtree(run.work)
    run.work.mkdir()
    tracer = tracing.Tracer()
    try:
        setups = []
        for rep in range(SETUP_REPS):
            begin = perf_counter()
            config, cfg = workloads.prepare(workload, seed, tiny, run.work / f"setup{rep}")
            run.op("warmup", config, cfg)
            setups.append(perf_counter() - begin)
        deadline = perf_counter() + seconds
        while True:
            traced = trace and run.ops[-1].kind == "plain"
            if traced:
                tracer.install(op=len(run.ops))
            try:
                run.op("traced" if traced else "plain", config, cfg)
            finally:
                tracer.uninstall()
            kinds = {op.kind for op in run.ops}
            if perf_counter() >= deadline and (not trace or "traced" in kinds):
                break
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    status = check_digests(run, host)
    failed = sum(op.problem is not None for op in run.ops)
    attempted = len(run.ops)
    plain = [op for op in run.ops if op.kind == "plain"]
    rates = [op.units / op.wall_s for op in plain if op.problem is None]
    rate, q1, q3 = _median_quartiles(rates)
    end_to_end = {
        "work_per_s": rate,
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_ratio": 1.0 - failed / attempted,
    }
    detail = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host,
        "rate": {"name": workload.rate_name, "median": rate, "q1": q1, "q3": q3, "n": len(rates)},
        "failed_ratio": failed / attempted,
        "import_s": import_s,
        "setup_reps_s": setups,
        "ops": [
            {"kind": op.kind, "wall_s": op.wall_s, "units": op.units, "problem": op.problem}
            for op in run.ops
        ],
        "digests": run.ops[0].digests,
        "reference_digests": status,
    }
    if trace:
        metrics, missing = layer_metrics(spec, tracer, run)
        detail["missing"] = missing
        detail["missing_targets"] = tracer.missing()
        origin = min((s.start for s in tracer.spans), default=0.0)
        tracer.write(OUT / f"trace-{name}-seed{seed}.jsonl", origin)
    else:
        metrics = end_to_end
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    detail["end_to_end"] = end_to_end
    line = {
        "correct": failed == 0 and status != "mismatch",
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }
    return line, detail


def layer_metrics(spec: dict, tracer: tracing.Tracer, run: Run):
    """Per-layer metrics per traced operation (means), plus missing names."""
    traced = [op for op in run.ops if op.kind == "traced"]
    plain = [op for op in run.ops if op.kind == "plain"]
    totals = tracing.layer_totals(tracer.spans)
    n = len(traced)
    gone = tracer.missing_layers()
    metrics, missing = {}, []
    for entry in spec["per_layer"]:
        key = entry["name"]
        if tracing.source_layer(key) in gone:
            missing.append(key)
        metrics[key] = totals.get(key, 0.0) / n
    metrics["sweep.cell_success_ratio"] = totals["sweep.cell_success_ratio"]
    traced_wall = statistics.median(op.wall_s for op in traced)
    metrics["trace.op_wall_s"] = sum(op.wall_s for op in traced) / n
    metrics["trace.overhead_s"] = traced_wall - statistics.median(op.wall_s for op in plain)
    return metrics, missing


def report(spec: dict, line: dict, detail: dict) -> None:
    print("host " + json.dumps(detail["host"], sort_keys=True))
    rate = detail["rate"]
    print(
        f"metric {rate['name']} {rate['median']:.6g} 1/s "
        f"(median of {rate['n']} ops, q1 {rate['q1']:.6g}, q3 {rate['q3']:.6g})"
    )
    for entry in spec["end_to_end"]:
        print(f"metric {entry['name']} {detail['end_to_end'][entry['name']]:.6g} {entry['unit']}")
    print(f"metric failed_ratio {detail['failed_ratio']:.6g} ratio")
    print(f"reference_digests {detail['reference_digests']}")
    for op in detail["ops"]:
        if op["problem"]:
            print(f"failed {op['kind']} op: {op['problem']}")
    if detail["trace"]:
        print("missing " + json.dumps(detail["missing"]))
    print(json.dumps(line))


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    worst = 0
    for name in workloads.WORKLOADS:
        argv = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        print(f"== {name} (exit {proc.returncode})")
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None, tiny: bool = False) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src"
    if not (src / "signalfolio" / "__init__.py").is_file():
        print(f"error: no signalfolio sources under {src}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if "numpy" not in sys.modules:
        for var in BLAS_THREAD_VARS:
            os.environ[var] = BLAS_THREADS
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    line, detail = measure(spec, args.workload, args.seed, args.seconds, bool(args.trace), tiny)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**detail, "result": line}, indent=1, sort_keys=True)
    )
    report(spec, line, detail)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
