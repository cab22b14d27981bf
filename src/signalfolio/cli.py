"""Command-line entry points: backtest, train, sweep, metrics.

Every run writes into --out: an echo of the fully resolved config, the
result artifacts of the subcommand, and nothing dependent on wall-clock
time, so reruns with identical configuration are byte-identical.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .agent import load_checkpoint, save_checkpoint
from .baselines import (
    CRPPolicy,
    OLMARPolicy,
    WMAMRPolicy,
    ew_policy,
    hold_cash_policy,
)
from .config import ConfigError
from .engine import BacktestResult, run_backtest
from .evaluation import horizon_table, write_metrics_csv, write_metrics_json
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
        cmd.add_argument("--seed", type=int, help="override the master seed")
        cmd.add_argument("--rfree", type=float, help="override the risk-free rate")
        cmd.add_argument("--jobs", type=int, help="parallel sweep workers")
    return parser


def _load_config(args) -> dict[str, object]:
    cfg = cfgmod.parse_config_file(args.config) if args.config else {}
    cfg = cfgmod.apply_overrides(cfg, args.overrides)
    cfg = cfgmod.resolve(cfg)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.rfree is not None:
        cfg["rfree"] = args.rfree
    if args.jobs is not None:
        cfg["jobs"] = args.jobs
    return cfg


def _write_echo(cfg: dict[str, object], out: Path) -> None:
    (out / "config_echo.txt").write_text(cfgmod.echo_config(cfg))


def _agent_seeds(cfg) -> tuple[int, int, int, int]:
    """Init, training, train-label and test-label seeds of a CLI run."""
    agent_seed = cfgmod.get_int(cfg, "agent.seed")
    labels = np.random.SeedSequence(cfgmod.get_int(cfg, "signal.seed")).generate_state(2)
    return (agent_seed, agent_seed, *(int(s) for s in labels))


def _make_baseline(name: str, cfg, m: int):
    epsilon = cfg["baseline.epsilon"]
    window = cfgmod.get_int(cfg, "baseline.window")
    if name == "ew":
        return ew_policy(m)
    if name == "hold_cash":
        return hold_cash_policy(m)
    if name == "crp":
        target = cfgmod._as_tuple(cfg["baseline.target_weights"])
        if target:
            if len(target) != m:
                raise ConfigError(
                    f"baseline.target_weights: got {len(target)} weights, need {m}"
                )
            return CRPPolicy(np.asarray(target, dtype=float))
        return ew_policy(m)
    if name == "olmar":
        return OLMARPolicy(10.0 if epsilon is None else float(epsilon), window)
    if name == "wmamr":
        return WMAMRPolicy(1.0 if epsilon is None else float(epsilon), window)
    raise ConfigError(f"baseline.name: unknown strategy {name!r}")


def cmd_backtest(cfg, out: Path) -> int:
    train_p, test_p = cfgmod.build_segments(cfg)
    window = cfgmod.get_int(cfg, "window")
    cm = cfgmod.build_cost(cfg)
    m = test_p.n_assets + 1
    names = cfgmod.baseline_names(cfg)
    runs: dict[str, BacktestResult] = {}
    for name in names:
        policy = _make_baseline(name, cfg, m)
        runs[name] = run_backtest(test_p, policy, None, cm, window=window)
    if cfgmod.get_bool(cfg, "agent.enabled"):
        checkpoint = cfgmod.get_str(cfg, "agent.checkpoint")
        loaded = load_checkpoint(checkpoint)[0] if checkpoint else None
        params, _, test_signals = cfgmod.setup_agent(
            cfg, train_p, test_p, _agent_seeds(cfg), loaded, fit=loaded is None
        )
        runs["agent"] = cfgmod.backtest_agent(cfg, test_p, params, test_signals)
    if not runs:
        raise ConfigError("baselines: nothing to run (no baselines, agent disabled)")
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
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", *names])
        for step in range(lengths.pop()):
            writer.writerow(
                [str(step), *(repr(float(runs[n].pv[step])) for n in names)]
            )


def _write_metric_tables(cfg, runs, out: Path) -> None:
    horizons = [str(h) for h in cfgmod._as_tuple(cfg["metrics.horizons"])]
    try:
        table = horizon_table(
            runs,
            horizons,
            steps_per_day=cfgmod.get_int(cfg, "metrics.steps_per_day"),
            r_free=cfgmod.get_number(cfg, "rfree"),
        )
    except ValueError as exc:
        raise ConfigError(f"metrics.horizons: {exc}") from exc
    write_metrics_csv(table, horizons, out / "metrics.csv")
    write_metrics_json(table, out / "metrics.json")


def cmd_train(cfg, out: Path) -> int:
    train_p, _ = cfgmod.build_segments(cfg)
    checkpoint = cfgmod.get_str(cfg, "agent.checkpoint")
    loaded, meta = load_checkpoint(checkpoint) if checkpoint else (None, {})
    epochs_done = int(meta.get("epochs_trained", 0))
    params, curve, _ = cfgmod.setup_agent(cfg, train_p, None, _agent_seeds(cfg), loaded)
    save_checkpoint(
        params,
        out / "checkpoint.json",
        meta={"epochs_trained": epochs_done + len(curve)},
    )
    _append_curve(out / "learning_curve.csv", curve, start_epoch=epochs_done, resumed=bool(checkpoint))
    _write_echo(cfg, out)
    return 0


def _append_curve(path: Path, curve, start_epoch: int, resumed: bool) -> None:
    rows = []
    if resumed and path.exists():
        with path.open(newline="") as fh:
            rows = [r for r in csv.DictReader(fh)]
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "J_T"])
        for row in rows:
            writer.writerow([row["epoch"], row["J_T"]])
        for offset, value in enumerate(curve, start=1):
            writer.writerow([str(start_epoch + offset), repr(float(value))])


def cmd_sweep(cfg, out: Path) -> int:
    rows, failures = run_sweep(cfg, jobs=cfgmod.get_int(cfg, "jobs"))
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
