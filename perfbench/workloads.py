"""The benchmark's workloads: generated inputs, one operation, output checks.

Each workload drives signalfolio subcommands in-process through
``signalfolio.cli.main``, one call after another from a single client.  The
workload seed sets ``market.synthetic.seed`` and the master ``seed`` of the
generated config file; the program sees nothing else.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BASELINES = ("ew", "crp", "olmar", "wmamr", "hold_cash")


@dataclass(frozen=True)
class Workload:
    name: str
    rate_name: str
    commands: tuple[str, ...]
    artifacts: tuple[str, ...]
    config: Callable[[int, bool], dict]
    check: Callable[[Path, dict], tuple[int, str | None]]


def _sweep_config(seed: int, tiny: bool) -> dict:
    # The acceptance-test shape: about 2,480 gradient steps per cell.
    cfg = {
        "market.synthetic.n_assets": 3,
        "market.synthetic.n_steps": 2400,
        "market.synthetic.vol": 0.02,
        "market.synthetic.seed": seed,
        "split.boundary": 2000,
        "window": 10,
        "cost.mode": "simple",
        "agent.hidden": 32,
        "agent.learning_rate": 3.0,
        "agent.epochs": 80,
        "agent.batch_window": 64,
        "signal.mode": "oracle",
        "sweep.accuracies": (0.6, 1.0),
        "sweep.densities": (1.0,),
        "seeds": (0,),
        "seed": seed,
        "jobs": 1,
    }
    if tiny:
        cfg.update({
            "market.synthetic.n_steps": 150,
            "split.boundary": 110,
            "window": 8,
            "agent.hidden": 8,
            "agent.epochs": 2,
            "agent.batch_window": 16,
            "sweep.accuracies": (1.0,),
            "sweep.densities": (1.0,),
        })
    return cfg


def _train_config(seed: int, tiny: bool) -> dict:
    # Default shape (window 30, hidden 64); steps per epoch is pinned so the
    # benchmark knows how many gradient steps one call makes.
    cfg = {
        "market.synthetic.seed": seed,
        "seed": seed,
        "signal.mode": "internal",
        "cost.mode": "fixed_point",
        "agent.epochs": 50,
        "agent.steps_per_epoch": 32,
        "jobs": 1,
    }
    if tiny:
        cfg.update({
            "market.synthetic.n_steps": 200,
            "window": 8,
            "agent.hidden": 8,
            "agent.epochs": 2,
            "agent.batch_window": 16,
            "agent.steps_per_epoch": 2,
            "signal.fit_epochs": 5,
        })
    return cfg


def _backtest_config(seed: int, tiny: bool) -> dict:
    # 2,600 - 570 test steps leave 2,000 decisions at window 30.
    cfg = {
        "market.synthetic.n_assets": 8,
        "market.synthetic.n_steps": 2600,
        "market.synthetic.seed": seed,
        "split.boundary": 570,
        "window": 30,
        "cost.mode": "fixed_point",
        "signal.mode": "oracle",
        "agent.enabled": True,
        "agent.hidden": 64,
        "baselines": BASELINES,
        "seed": seed,
        "jobs": 1,
    }
    if tiny:
        cfg.update({
            "market.synthetic.n_assets": 3,
            "market.synthetic.n_steps": 200,
            "split.boundary": 60,
            "window": 8,
            "agent.hidden": 8,
        })
    return cfg


def _finite_positive(values) -> bool:
    return bool(values) and all(math.isfinite(v) and v > 0.0 for v in values)


def _check_sweep(out: Path, cfg: dict) -> tuple[int, str | None]:
    summary = json.loads((out / "summary.json").read_text())
    with (out / "sweep.csv").open(newline="") as fh:
        pvs = [float(row["final_pv"]) for row in csv.DictReader(fh)]
    expected = (
        len(cfg["sweep.accuracies"]) * len(cfg["sweep.densities"]) + 1
    ) * len(cfg["seeds"])
    if summary["cells_failed"] != 0:
        return 0, f"{summary['cells_failed']} sweep cells failed"
    if summary["cells_completed"] != expected or len(pvs) != expected:
        return 0, f"{len(pvs)} sweep rows, expected {expected}"
    if not _finite_positive(pvs):
        return 0, "sweep final_pv not finite and positive"
    return summary["cells_completed"], None


def _check_train(out: Path, cfg: dict) -> tuple[int, str | None]:
    json.loads((out / "checkpoint.json").read_text())
    with (out / "learning_curve.csv").open(newline="") as fh:
        curve = [float(row["J_T"]) for row in csv.DictReader(fh)]
    if len(curve) != cfg["agent.epochs"]:
        return 0, f"{len(curve)} learning-curve rows, expected {cfg['agent.epochs']}"
    # J_T is the mean log reward, so the training-episode PV exp(T * J_T)
    # is finite and positive exactly when J_T is finite.
    if not all(math.isfinite(v) for v in curve):
        return 0, "learning curve not finite"
    return len(curve) * cfg["agent.steps_per_epoch"], None


def _check_backtest(out: Path, cfg: dict) -> tuple[int, str | None]:
    metrics = json.loads((out / "metrics.json").read_text())
    expected = sorted((*cfg["baselines"], "agent"))
    if sorted(metrics) != expected:
        return 0, f"metrics for {sorted(metrics)}, expected {expected}"
    if not _finite_positive([metrics[name]["final_pv"] for name in expected]):
        return 0, "backtest final_pv not finite and positive"
    with (out / "pv_curves.csv").open(newline="") as fh:
        rows = list(csv.reader(fh))
    decisions = len(rows) - 2  # header, and the initial value before step 0
    if rows[0][1:] != expected or decisions < 1:
        return 0, "pv_curves.csv has the wrong strategies or no steps"
    return len(expected) * decisions, None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sweep-oracle",
            rate_name="cells_per_s",
            commands=("sweep",),
            artifacts=("sweep.csv", "summary.json"),
            config=_sweep_config,
            check=_check_sweep,
        ),
        Workload(
            name="train-internal",
            rate_name="grad_steps_per_s",
            commands=("train",),
            artifacts=("checkpoint.json", "learning_curve.csv"),
            config=_train_config,
            check=_check_train,
        ),
        Workload(
            name="backtest-all",
            rate_name="decisions_per_s",
            commands=("backtest", "metrics"),
            artifacts=("result_*.json", "pv_curves.csv", "metrics.*"),
            config=_backtest_config,
            check=_check_backtest,
        ),
    )
}


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def prepare(workload: Workload, seed: int, tiny: bool, directory: Path) -> tuple[Path, dict]:
    """Write the workload's config file (and checkpoint); return its path.

    The config is resolved through the package so an unknown key fails here,
    before any operation runs.
    """
    from signalfolio import config as cfgmod

    directory.mkdir(parents=True)
    cfg = workload.config(seed, tiny)
    if workload.name == "backtest-all":
        cfg["agent.checkpoint"] = str(_write_untrained_checkpoint(cfg, directory))
    path = directory / "run.cfg"
    path.write_text("".join(f"{key} = {_format(value)}\n" for key, value in cfg.items()))
    cfgmod.resolve(cfgmod.parse_config_file(path))
    return path, cfg


def _write_untrained_checkpoint(cfg: dict, directory: Path) -> Path:
    from signalfolio.agent import init_policy, save_checkpoint

    n, window = cfg["market.synthetic.n_assets"], cfg["window"]
    params = init_policy(
        input_dim=n * window + n,
        n_actions=n + 1,
        hidden=(cfg["agent.hidden"],),
        seed=cfg["seed"],
    )
    path = directory / "checkpoint.json"
    save_checkpoint(params, path)
    return path


def hash_artifacts(out: Path, patterns: tuple[str, ...]) -> dict[str, str]:
    """sha256 of every artifact file, by file name."""
    files = sorted({p for pattern in patterns for p in out.glob(pattern)})
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
