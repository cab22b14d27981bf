"""Accuracy/density grid sweeps over the signal-augmented agent.

Each cell trains the agent on labels of one (accuracy, density) setting and
backtests it on the held-out split; one no-signal control per seed uses the
identical architecture with a zero signal.  Cell seeds are derived by
hashing the master seed with the cell's values (not grid positions), so
extending a grid never changes existing cells, and rows merge in sorted
order so results are identical however the cells were scheduled.
"""

from __future__ import annotations

import csv
import hashlib
import json
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .evaluation import UndefinedSharpeError, sharpe_ratio

CONTROL = "control"


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell; accuracy/density of None marks the no-signal control."""

    accuracy: float | None
    density: float | None
    seed: int

    @property
    def is_control(self) -> bool:
        return self.accuracy is None


def cell_seed(master_seed: int, cell: CellSpec) -> int:
    """Mixing hash of master seed and cell values, stable across platforms."""
    if cell.is_control:
        tag = f"{master_seed}|{CONTROL}|{cell.seed}"
    else:
        tag = f"{master_seed}|{cell.accuracy!r}|{cell.density!r}|{cell.seed}"
    digest = hashlib.sha256(tag.encode()).digest()
    return int.from_bytes(digest[:8], "big")


def build_cells(cfg: dict[str, object]) -> list[CellSpec]:
    accuracies = cfgmod._as_tuple(cfg["sweep.accuracies"])
    densities = cfgmod._as_tuple(cfg["sweep.densities"])
    seeds = cfgmod.seed_list(cfg)
    for key, values in (("sweep.accuracies", accuracies), ("sweep.densities", densities)):
        if not values:
            raise cfgmod.ConfigError(f"{key}: need at least one value")
        for v in values:
            if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                raise cfgmod.ConfigError(f"{key}: bad value {v!r}")
    cells = [
        CellSpec(float(a), float(d), int(s))
        for a in accuracies
        for d in densities
        for s in seeds
    ]
    cells += [CellSpec(None, None, int(s)) for s in seeds]
    return cells


def run_cell(cfg: dict[str, object], cell: CellSpec) -> dict:
    """Train and evaluate one cell; returns a plain row dict."""
    train_prices, test_prices = cfgmod.build_segments(cfg)
    if cell.is_control:
        cell_cfg = {**cfg, "signal.mode": "none"}
    else:
        cell_cfg = {
            **cfg,
            "signal.mode": "oracle",
            "signal.accuracy": cell.accuracy,
            "signal.density": cell.density,
        }
    root = cell_seed(cfgmod.get_int(cfg, "seed"), cell)
    seeds = tuple(int(s) for s in np.random.SeedSequence(root).generate_state(4))
    params, _, test_signals = cfgmod.setup_agent(cell_cfg, train_prices, test_prices, seeds)
    result = cfgmod.backtest_agent(cfg, test_prices, params, test_signals)
    try:
        sharpe = sharpe_ratio(result, result.n_steps, cfgmod.get_number(cfg, "rfree"))
    except UndefinedSharpeError:
        sharpe = float("nan")
    return {
        "accuracy": cell.accuracy,
        "density": cell.density,
        "seed": cell.seed,
        "final_pv": result.final_pv,
        "sharpe": sharpe,
    }


def _cell_task(payload):
    cfg, cell = payload
    try:
        return run_cell(cfg, cell), None
    except Exception:
        return None, {
            "accuracy": cell.accuracy,
            "density": cell.density,
            "seed": cell.seed,
            "error": traceback.format_exc(limit=3),
        }


def _row_order(row: dict):
    control = row["accuracy"] is None
    return (
        control,
        -1.0 if control else row["accuracy"],
        -1.0 if control else row["density"],
        row["seed"],
    )


def run_sweep(cfg: dict[str, object], jobs: int = 1) -> tuple[list[dict], list[dict]]:
    """Run every cell, tolerating per-cell failures.  Rows come back sorted."""
    cells = build_cells(cfg)
    payloads = [(cfg, cell) for cell in cells]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_cell_task, payloads))
    else:
        outcomes = [_cell_task(p) for p in payloads]
    rows = [row for row, _ in outcomes if row is not None]
    failures = [err for _, err in outcomes if err is not None]
    rows.sort(key=_row_order)
    failures.sort(key=_row_order)
    return rows, failures


def _cell_text(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["accuracy", "density", "seed", "final_pv", "sharpe"])
        for row in rows:
            writer.writerow(
                [
                    _cell_text(row["accuracy"]),
                    _cell_text(row["density"]),
                    str(row["seed"]),
                    repr(float(row["final_pv"])),
                    repr(float(row["sharpe"])),
                ]
            )


def write_summary(rows: list[dict], failures: list[dict], path: str | Path) -> None:
    payload = {
        "cells_completed": len(rows),
        "cells_failed": len(failures),
        "failed": failures,
    }
    Path(path).write_text(json.dumps(payload, sort_keys=True))


def read_sweep_csv(path: str | Path) -> list[dict]:
    rows = []
    with Path(path).open(newline="") as fh:
        for record in csv.DictReader(fh):
            rows.append(
                {
                    "accuracy": float(record["accuracy"]) if record["accuracy"] else None,
                    "density": float(record["density"]) if record["density"] else None,
                    "seed": int(record["seed"]),
                    "final_pv": float(record["final_pv"]),
                    "sharpe": float(record["sharpe"]),
                }
            )
    return rows
