"""Smoke test of bench/record.py at perfbench's tiny sizes.

One run writes a BENCH file for all three workloads; it must hold the host
and src_lines, every metric BENCHMARK.json names with its unit, no missing
layer, and a digest status for both the untraced and the traced run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_tiny_record_holds_every_metric(tmp_path):
    out = tmp_path / "BENCH_tiny.json"
    argv = [sys.executable, str(ROOT / "bench" / "record.py"), "--out", str(out), "--tiny"]
    proc = subprocess.run(
        [*argv, "--seconds", "0"], capture_output=True, text=True, timeout=300, cwd=tmp_path
    )
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    src_lines = sum(len(p.read_text().splitlines()) for p in (ROOT / "src").rglob("*.py"))
    assert data["src_lines"] == data["host"]["src_lines"] == src_lines
    assert {"python", "numpy", "blas", "cpu_model", "nproc"} <= set(data["host"])
    assert data["tiny"] is True and data["seconds"] == 0.0
    assert set(data["workloads"]) == {w["name"] for w in SPEC["workloads"]}
    for name, entry in data["workloads"].items():
        assert entry["correct"], name
        assert {k: v["unit"] for k, v in entry["end_to_end"].items()} == {
            m["name"]: m["unit"] for m in SPEC["end_to_end"]
        }
        assert {k: v["unit"] for k, v in entry["per_layer"].items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]
        }
        assert entry["end_to_end"]["success_ratio"]["value"] == 1.0
        assert entry["rate"]["median"] > 0.0
        assert entry["missing"] == []
        # tiny sizes have no reference bytes, so both runs say so
        assert set(entry["reference_digests"].values()) == {"no reference for this seed"}
        assert entry["digests"]
