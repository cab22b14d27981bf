"""Accuracy/density grid sweeps over the signal-augmented agent.

Each cell trains the agent on labels of one (accuracy, density) setting and
backtests it on the held-out split; one no-signal control per seed uses the
identical architecture with a zero signal.  The cells of one worker train
in lockstep, one stacked gradient step for all of them, and each cell's
numbers are bit-identical to training it alone.  Cell seeds are derived by
hashing the master seed with the cell's values (not grid positions), so
extending a grid never changes existing cells, and rows keep the sorted
cell order so results are identical however the cells were grouped.  The
segments and the cost model are built once, and the training settings
checked once, before any cell runs, so a bad market, split, window or batch
window fails the whole run with a ConfigError.
"""

from __future__ import annotations

import csv
import hashlib
import sys
import traceback
from dataclasses import asdict, dataclass
from functools import partial
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .agent import policy_forward
from .engine import CostModel, run_backtest
from .evaluation import sharpe_ratio, write_table
from .market import PriceSeries, write_json
from .signals import build_states

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
    """The grid's cells in sorted order, then one control per seed."""
    seeds = sorted(cfg["seeds"])
    cells = [
        CellSpec(a, d, s)
        for a in sorted(cfg["sweep.accuracies"])
        for d in sorted(cfg["sweep.densities"])
        for s in seeds
    ]
    cells += [CellSpec(None, None, s) for s in seeds]
    return cells


def _cell_agent(cfg: dict[str, object], cell: CellSpec, train_p) -> tuple:
    """The cell's agent for config.train_agents: its label function, hashed seeds, no params."""
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
    return cfgmod.labeller(cell_cfg, train_p), seeds, None


def _cell_row(cfg: dict[str, object], cell: CellSpec, test_p, params, test_signals, cm) -> dict:
    states = build_states(test_p, test_signals, cfg["window"])
    result = run_backtest(test_p, states, partial(policy_forward, params), cm)
    sharpe = sharpe_ratio(result, result.n_steps, cfg["rfree"])
    return {**asdict(cell), "final_pv": result.final_pv, "sharpe": sharpe}


def _failure_row(cell: CellSpec, exc: Exception) -> dict:
    """The cell's row; its "error" holds "Type: message" of the exception and each cause."""
    print(f"sweep: {cell} failed", file=sys.stderr)
    traceback.print_exception(exc)  # paths and line numbers go here, not into the row
    causes = []
    while exc is not None:
        causes.append(f"{type(exc).__name__}: {exc}")
        exc = exc.__cause__
    return {**asdict(cell), "error": "\n".join(causes)}


def run_group(
    cfg: dict[str, object],
    train_prices: PriceSeries,
    test_prices: PriceSeries,
    cm: CostModel,
    cells: list[CellSpec],
) -> list[dict]:
    """Set up and train the cells in lockstep on train_prices (config.train_agents), backtest each.

    Returns one row dict per cell; a cell that fails in setup, training or
    its backtest fails alone, as a row whose "error" names the exception.
    """
    agents = [_cell_agent(cfg, cell, train_prices) for cell in cells]
    outcomes = cfgmod.train_agents(cfg, train_prices, test_prices, cm, agents)
    rows = []
    for cell, outcome in zip(cells, outcomes):
        if not isinstance(outcome, Exception):
            params, _, test_signals = outcome
            try:
                outcome = _cell_row(cfg, cell, test_prices, params, test_signals, cm)
            except Exception as exc:
                outcome = exc
        rows.append(_failure_row(cell, outcome) if isinstance(outcome, Exception) else outcome)
    return rows


def run_sweep(cfg: dict[str, object]) -> tuple[list[dict], list[dict]]:
    """Run every cell, tolerating per-cell failures.  Rows come back in cell order.

    The segments and cost model are built once and the training settings
    checked once, so a bad one raises ConfigError before any cell runs.  The
    cells are split into min(cfg["jobs"], cells) groups, and each group
    trains in lockstep (run_group) in its own worker process, or in this
    process when there is one group.  Output does not depend on the grouping.
    """
    cells = build_cells(cfg)
    train_prices, test_prices = cfgmod.build_segments(cfg)
    cfgmod.train_settings(cfg, train_prices)  # raises before any cell runs
    run = partial(run_group, cfg, train_prices, test_prices, cfgmod.build_cost(cfg))
    n_groups = min(cfg["jobs"], len(cells))
    groups = [cells[i::n_groups] for i in range(n_groups)]
    if n_groups > 1:
        # imported here, so a run with one group never loads multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=n_groups) as pool:
            done = list(pool.map(run, groups))
    else:
        done = [run(cells)]
    outcomes: list = [None] * len(cells)
    for i, group in enumerate(done):
        outcomes[i::n_groups] = group
    return [r for r in outcomes if "error" not in r], [r for r in outcomes if "error" in r]


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
