"""Artifacts depend on the config alone.

Each variant runs, in a fresh interpreter, every benchmark workload at
perfbench's tiny size and a sweep in which one cell fails, and reports the
sha256 of each artifact.  The variants change what must not matter: the
path of the source tree, the BLAS thread count and the sweep's worker
count.  The runs are compared with each other, not with stored digests, so
the check holds on any host, also where tests/test_reference.py skips.

Run as a script, this module is the variant's driver:
``python tests/test_determinism.py OUT JOBS all|sweeps``.
"""

from __future__ import annotations

import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Simple costs at 60% and a huge learning rate: one of the six cells
# drives its turnover past what the cost model allows, and fails.
FAILING_SWEEP = (
    "market.synthetic.n_steps=300",
    "split.boundary=250",
    "window=8",
    "agent.hidden=8",
    "agent.epochs=5",
    "agent.batch_window=16",
    "cost.mode=simple",
    "cost.buy=0.6",
    "cost.sell=0.6",
    "market.synthetic.vol=0.05",
    "agent.learning_rate=100",
    "sweep.accuracies=1.0",
    "seeds=0,1,2",
)


def _sets(pairs) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


def run_variant(out: Path, jobs: int, sweeps_only: bool) -> dict:
    """Run the workloads into out; return the package path and the digests."""
    import signalfolio
    from signalfolio.cli import main

    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    runs = {"failing-sweep": (("sweep",), ("sweep.csv", "summary.json"), _sets(FAILING_SWEEP))}
    for name, workload in workloads.WORKLOADS.items():
        if "sweep" in workload.commands or not sweeps_only:
            config, _ = workloads.prepare(workload, 0, True, out / name / "setup")
            runs[name] = (workload.commands, workload.artifacts, ["--config", str(config)])
    digests = {}
    for name, (commands, artifacts, args) in runs.items():
        for command in commands:
            code = main([command, *args, *_sets([f"jobs={jobs}"]), "--out", str(out / name)])
            if code != 0:
                raise SystemExit(f"{name}: {command} exited {code}")
        digests[name] = workloads.hash_artifacts(out / name, artifacts)
    return {"package": signalfolio.__file__, "digests": digests}


def test_artifacts_depend_on_the_config_alone(tmp_path):
    moved = tmp_path / "elsewhere" / "src"
    shutil.copytree(ROOT / "src", moved, ignore=shutil.ignore_patterns("__pycache__"))
    variants = {  # source tree, BLAS threads, jobs, which workloads
        "tree": (ROOT / "src", 1, 1, "all"),
        "moved": (moved, 1, 1, "all"),
        "blas-2": (ROOT / "src", 2, 1, "all"),
        "jobs-2": (ROOT / "src", 1, 2, "sweeps"),
    }
    procs = {}
    for name, (src, threads, jobs, which) in variants.items():
        env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": str(threads)}
        procs[name] = subprocess.Popen(
            [sys.executable, __file__, str(tmp_path / name), str(jobs), which],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
    reports = {}
    for name, proc in procs.items():
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, f"{name}: {stderr}"
        reports[name] = json.loads(stdout)
    assert reports["moved"]["package"].startswith(str(moved))
    summary = json.loads((tmp_path / "tree" / "failing-sweep" / "summary.json").read_text())
    assert summary["cells_failed"] == 1
    base = reports["tree"]["digests"]
    assert set(base) == {"sweep-oracle", "train-internal", "backtest-all", "failing-sweep"}
    for name, report in reports.items():
        for workload, digests in report["digests"].items():
            assert digests == base[workload], f"{name} differs on {workload}"


if __name__ == "__main__":
    target, n_jobs, selection = sys.argv[1:]
    print(json.dumps(run_variant(Path(target), int(n_jobs), selection == "sweeps")))
