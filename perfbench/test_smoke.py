"""Smoke test of the benchmark at tiny sizes.

Every metric named in BENCHMARK.json must be printed with its unit, a
corrupted artifact digest must show up as a failed operation, and a wrapped
function the package no longer has must be reported as missing.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def bench(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(HERE))
    spec = importlib.util.spec_from_file_location("perfbench_run", HERE / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "OUT", tmp_path)
    return module


def run_tiny(bench, capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    code = bench.main(argv, tiny=True)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(bench, capsys, workload, trace):
    code, lines, result = run_tiny(bench, capsys, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    rate = bench.workloads.WORKLOADS[workload].rate_name
    assert any(line.startswith(f"metric {rate} ") for line in lines)
    assert "metric failed_ratio 0 ratio" in lines
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        assert "missing []" in lines
        assert metrics["trace.self_sum_s"] == pytest.approx(metrics["trace.op_wall_s"], rel=0.05)
        assert metrics["cli.command.self_s"] > 0.0


def test_corrupted_digest_raises_failed_ratio(bench, capsys, monkeypatch):
    real = bench.workloads.hash_artifacts
    calls = []

    def corrupt_after_first(out, patterns):
        digests = real(out, patterns)
        calls.append(out)
        if len(calls) > 1:
            name = sorted(digests)[0]
            digests[name] = "0" * 64
        return digests

    monkeypatch.setattr(bench.workloads, "hash_artifacts", corrupt_after_first)
    code, lines, result = run_tiny(bench, capsys, "train-internal", 0)
    assert code == 1
    assert not result["correct"]
    assert result["failed"] == result["attempted"] - 1
    assert result["metrics"]["success_ratio"]["value"] < 1.0
    failed_ratio = next(line for line in lines if line.startswith("metric failed_ratio"))
    assert float(failed_ratio.split()[2]) > 0.0


def test_vanished_function_reported_missing(bench, capsys, monkeypatch):
    import signalfolio.signals

    monkeypatch.delattr(signalfolio.signals, "predictor_labels")
    code, lines, result = run_tiny(bench, capsys, "backtest-all", 1)
    assert code == 0
    missing = json.loads(next(line for line in lines if line.startswith("missing "))[8:])
    assert "signals.predictor_labels.busy_s" in missing
    assert result["metrics"]["signals.predictor_labels.busy_s"]["value"] == 0.0
