"""Accuracy/density grid sweeps over the signal-augmented agent.

Each cell trains the agent on labels of one (accuracy, density) setting and
backtests it on the held-out split; one no-signal control per seed uses the
identical architecture with a zero signal.  The cells of one worker train
in lockstep, one stacked gradient step for all of them, and each cell's
numbers are bit-identical to training it alone.  Cell seeds are derived by
hashing the master seed with the cell's values (not grid positions), so
extending a grid never changes existing cells, and rows merge in sorted
order so results are identical however the cells were grouped.  The
segments, the cost model and the training settings are built once, before
any cell runs, so a bad market, split or window fails the whole run with a
ConfigError.
"""

from __future__ import annotations

import csv
import hashlib
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .agent import TrainConfig, train
from .engine import CostModel
from .evaluation import sharpe_ratio, write_table
from .market import PriceSeries, write_json

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
    """The grid's cells, then one control per seed."""
    seeds = cfg["seeds"]
    cells = [
        CellSpec(a, d, s)
        for a in cfg["sweep.accuracies"]
        for d in cfg["sweep.densities"]
        for s in seeds
    ]
    cells += [CellSpec(None, None, s) for s in seeds]
    return cells


def _prepare_cell(cfg: dict[str, object], cell: CellSpec, train_p, test_p):
    """Seeds, initial policy and train/test labels of one cell."""
    if cell.is_control:
        cell_cfg = {**cfg, "signal.mode": "none"}
    else:
        cell_cfg = {
            **cfg,
            "signal.mode": "oracle",
            "signal.accuracy": cell.accuracy,
            "signal.density": cell.density,
        }
    root = cell_seed(cfg["seed"], cell)
    seeds = tuple(int(s) for s in np.random.SeedSequence(root).generate_state(4))
    return seeds, *cfgmod.prepare_agent(cell_cfg, train_p, test_p, seeds)


def _cell_row(cfg: dict[str, object], cell: CellSpec, test_p, params, test_signals, cm) -> dict:
    result = cfgmod.backtest_agent(cfg, test_p, params, test_signals, cm)
    return {
        "accuracy": cell.accuracy,
        "density": cell.density,
        "seed": cell.seed,
        "final_pv": result.final_pv,
        "sharpe": sharpe_ratio(result, result.n_steps, cfg["rfree"]),
    }


def _failure_row(cell: CellSpec, exc: Exception) -> dict:
    return {
        "accuracy": cell.accuracy,
        "density": cell.density,
        "seed": cell.seed,
        "error": "".join(traceback.format_exception(exc, limit=3)),
    }


def run_group(
    cfg: dict[str, object],
    train_prices: PriceSeries,
    test_prices: PriceSeries,
    cm: CostModel,
    train_cfg: TrainConfig,
    cells: list[CellSpec],
) -> list[dict]:
    """Set up every cell, train them in lockstep on train_prices, backtest each.

    Returns one row dict per cell; a cell that fails in setup, training or
    its backtest fails alone, as a row whose "error" holds the traceback.
    """
    outcomes: list = [None] * len(cells)
    ready = []
    for index, cell in enumerate(cells):
        try:
            ready.append((index, *_prepare_cell(cfg, cell, train_prices, test_prices)))
        except Exception as exc:
            outcomes[index] = exc
    if ready:
        indices, seeds, params, train_signals, test_signals = zip(*ready)
        try:
            train_seeds = [train_seed for _, train_seed, _, _ in seeds]
            trained = train(params, train_prices, train_signals, cm, train_cfg, train_seeds)
        except Exception as exc:
            trained = [exc] * len(ready)
        for index, outcome, signals in zip(indices, trained, test_signals):
            if isinstance(outcome, Exception):
                outcomes[index] = outcome
                continue
            try:
                outcomes[index] = _cell_row(
                    cfg, cells[index], test_prices, outcome[0], signals, cm
                )
            except Exception as exc:
                outcomes[index] = exc
    return [
        _failure_row(cell, outcome) if isinstance(outcome, Exception) else outcome
        for cell, outcome in zip(cells, outcomes)
    ]


def _row_order(row: dict):
    control = row["accuracy"] is None
    return (
        control,
        -1.0 if control else row["accuracy"],
        -1.0 if control else row["density"],
        row["seed"],
    )


def run_sweep(cfg: dict[str, object], jobs: int = 1) -> tuple[list[dict], list[dict]]:
    """Run every cell, tolerating per-cell failures.  Rows come back sorted.

    The segments, cost model and training settings are built once, so a bad
    one raises ConfigError before any cell runs.  The cells are split into
    min(jobs, cells) groups, and each group trains in lockstep (run_group)
    in its own worker process, or in this process when there is one group.
    Output does not depend on the grouping.
    """
    if jobs < 1:
        raise cfgmod.ConfigError(f"jobs: need at least 1 worker, got {jobs}")
    cells = build_cells(cfg)
    train_prices, test_prices = cfgmod.build_segments(cfg)
    run = partial(
        run_group, cfg, train_prices, test_prices, cfgmod.build_cost(cfg),
        cfgmod.build_train_config(cfg, train_prices),
    )
    n_groups = min(jobs, len(cells))
    groups = [cells[i::n_groups] for i in range(n_groups)]
    if n_groups > 1:
        with ProcessPoolExecutor(max_workers=n_groups) as pool:
            done = list(pool.map(run, groups))
    else:
        done = [run(cells)]
    outcomes = [outcome for group in done for outcome in group]
    rows = sorted((r for r in outcomes if "error" not in r), key=_row_order)
    failures = sorted((r for r in outcomes if "error" in r), key=_row_order)
    return rows, failures


def write_sweep_csv(rows: list[dict], path: str | Path) -> None:
    header = ["accuracy", "density", "seed", "final_pv", "sharpe"]
    write_table(path, header, ([row[key] for key in header] for row in rows))


def write_summary(rows: list[dict], failures: list[dict], path: str | Path) -> None:
    write_json(
        path, {"cells_completed": len(rows), "cells_failed": len(failures), "failed": failures}
    )


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
