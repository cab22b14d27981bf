"""Command-line entry points: backtest, train, sweep, metrics.

Every run writes into --out: an echo of the fully resolved config, the
result artifacts of the subcommand, and nothing dependent on wall-clock
time, so reruns with identical configuration are byte-identical.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .agent import save_checkpoint
from .config import ConfigError
from .engine import BacktestResult, run_backtest
from .evaluation import horizon_table, write_metrics_csv, write_metrics_json, write_table
from .signals import decision_indices
from .sweep import run_sweep, write_summary, write_sweep_csv


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signalfolio",
        description="Backtesting and training for signal-augmented portfolio policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("backtest", "run configured strategies on the test split"),
        ("train", "train the agent and write a checkpoint"),
        ("sweep", "train/evaluate over an accuracy x density grid"),
        ("metrics", "recompute metric tables from stored results"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="flat key = value config file")
        cmd.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            dest="overrides",
            help="override one config key (repeatable)",
        )
        cmd.add_argument("--out", required=True, help="output directory")
    return parser


def _load_config(args) -> dict[str, object]:
    cfg = cfgmod.parse_config_file(args.config) if args.config else {}
    return cfgmod.resolve(cfgmod.apply_overrides(cfg, args.overrides))


def _write_echo(cfg: dict[str, object], out: Path) -> None:
    (out / "config_echo.txt").write_text(cfgmod.echo_config(cfg))


def _agent_seeds(cfg) -> tuple[int, int, int, int]:
    """Init, training, train-label and test-label seeds of a CLI run."""
    agent_seed = cfg["agent.seed"]
    labels = np.random.SeedSequence(cfg["signal.seed"]).generate_state(2)
    return (agent_seed, agent_seed, *(int(s) for s in labels))


def cmd_backtest(cfg, out: Path) -> int:
    train_p, test_p = cfgmod.build_segments(cfg)
    baselines = cfgmod.build_baselines(cfg, test_p.n_assets + 1)
    if not baselines and not cfg["agent.enabled"]:
        raise ConfigError("baselines: nothing to run (no baselines, agent disabled)")
    cfgmod.check_horizons(cfg, len(decision_indices(test_p.n_steps, cfg["window"])))
    cm = cfgmod.build_cost(cfg)
    runs: dict[str, BacktestResult] = {
        name: run_backtest(test_p, policy, None, cm, window=cfg["window"])
        for name, policy in baselines.items()
    }
    if cfg["agent.enabled"]:
        loaded, _ = cfgmod.load_agent_checkpoint(cfg, train_p.n_assets)
        seeds = _agent_seeds(cfg)
        if loaded is None:
            params, _, test_signals = cfgmod.setup_agent(cfg, train_p, test_p, seeds, cm)
        else:
            params, _, test_signals = cfgmod.prepare_agent(cfg, train_p, test_p, seeds, loaded)
        runs["agent"] = cfgmod.backtest_agent(cfg, test_p, params, test_signals, cm)
    for name, result in runs.items():
        result.save(out / f"result_{name}.json")
    _write_pv_curves(runs, out / "pv_curves.csv")
    _write_metric_tables(cfg, runs, out)
    _write_echo(cfg, out)
    return 0


def _write_pv_curves(runs: dict[str, BacktestResult], path: Path) -> None:
    names = sorted(runs)
    lengths = {runs[n].pv.size for n in names}
    if len(lengths) != 1:
        raise ConfigError("strategies produced different backtest lengths")
    write_table(path, ["step", *names], zip(range(lengths.pop()), *(runs[n].pv for n in names)))


def _write_metric_tables(cfg, runs, out: Path) -> None:
    horizons = cfg["metrics.horizons"]
    try:
        table = horizon_table(
            runs, horizons, steps_per_day=cfg["metrics.steps_per_day"], r_free=cfg["rfree"]
        )
    except ValueError as exc:
        raise ConfigError(f"metrics.horizons: {exc}") from exc
    write_metrics_csv(table, horizons, out / "metrics.csv")
    write_metrics_json(table, out / "metrics.json")


def cmd_train(cfg, out: Path) -> int:
    train_p, _ = cfgmod.build_segments(cfg)
    loaded, meta = cfgmod.load_agent_checkpoint(cfg, train_p.n_assets)
    epochs_done = int(meta.get("epochs_trained", 0))
    params, curve, _ = cfgmod.setup_agent(
        cfg, train_p, None, _agent_seeds(cfg), cfgmod.build_cost(cfg), loaded
    )
    save_checkpoint(
        params,
        out / "checkpoint.json",
        meta={"epochs_trained": epochs_done + len(curve)},
    )
    _append_curve(out / "learning_curve.csv", curve, start_epoch=epochs_done, resumed=loaded is not None)
    _write_echo(cfg, out)
    return 0


def _append_curve(path: Path, curve, start_epoch: int, resumed: bool) -> None:
    rows = enumerate(curve, start=start_epoch + 1)
    write_table(path, ["epoch", "J_T"], rows, append=resumed and path.exists())


def cmd_sweep(cfg, out: Path) -> int:
    rows, failures = run_sweep(cfg, jobs=cfg["jobs"])
    write_sweep_csv(rows, out / "sweep.csv")
    write_summary(rows, failures, out / "summary.json")
    _write_echo(cfg, out)
    return 0


def cmd_metrics(cfg, out: Path) -> int:
    result_files = sorted(out.glob("result_*.json"))
    if not result_files:
        raise ConfigError(f"out: no result_*.json files in {out}")
    runs = {p.stem.removeprefix("result_"): BacktestResult.load(p) for p in result_files}
    _write_metric_tables(cfg, runs, out)
    return 0


_COMMANDS = {
    "backtest": cmd_backtest,
    "train": cmd_train,
    "sweep": cmd_sweep,
    "metrics": cmd_metrics,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](cfg, out)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
