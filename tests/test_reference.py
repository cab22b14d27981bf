"""The benchmark's reference bytes: one seed-0 operation of each workload.

perfbench/reference_digests.json pins the sha256 of every artifact that one
operation of each benchmark workload writes at seed 0.  Byte identity is
the invariant that a refactor or speed-up must keep, so Tier-1 checks it
here too, not only a hand-run benchmark.  Like the benchmark, the check
skips where the numpy version or CPU model differs from the host that made
the digests, since other floating-point libraries may round differently.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import pkgutil
import sys
from pathlib import Path

import pytest

import signalfolio
from signalfolio.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((PERFBENCH / "reference_digests.json").read_text())


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(REFERENCE["digests"]))
def test_seed_zero_operation_writes_the_reference_bytes(bench, tmp_path, name):
    host = bench.host_info()
    here, there = (host["numpy"], host["cpu_model"]), (REFERENCE["numpy"], REFERENCE["cpu_model"])
    if here != there:
        pytest.skip(f"numpy and CPU {here}, but the digests were made on {there}")
    workload = bench.workloads.WORKLOADS[name]
    config, _ = bench.workloads.prepare(workload, REFERENCE["seed"], False, tmp_path / "setup")
    out = tmp_path / "out"
    for command in workload.commands:
        assert main([command, "--config", str(config), "--out", str(out)]) == 0
    digests = bench.workloads.hash_artifacts(out, workload.artifacts)
    assert digests == REFERENCE["digests"][name]


def test_every_traced_layer_exists(monkeypatch):
    # A traced function that is renamed or removed shows in a hand-run
    # benchmark only as "missing"; here it fails Tier-1 instead.
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)
    spec.loader.exec_module(tracer)
    for module in pkgutil.iter_modules(signalfolio.__path__):
        importlib.import_module(f"signalfolio.{module.name}")
    assert tracer.Tracer().missing() == []
