"""Command-line entry points: backtest, train, sweep, metrics.

Every run writes into --out: an echo of the fully resolved config, the
result artifacts of the subcommand, and nothing dependent on wall-clock
time, so reruns with identical configuration are byte-identical.

Exit codes: 0 success, 1 configuration or validation error, 2 runtime
failure.
"""

from __future__ import annotations

import argparse
import hashlib
import shutil
import sys
from functools import partial
from pathlib import Path

from . import config as cfgmod
from .agent import policy_forward, save_checkpoint
from .config import ConfigError
from .engine import BacktestResult, run_backtest
from .evaluation import horizon_table, write_metrics_csv, write_metrics_json, write_table
from .market import open_whole
from .signals import build_states, decision_indices
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
    with open_whole(out / "config_echo.txt") as fh:
        fh.write(cfgmod.echo_config(cfg))


def cmd_backtest(cfg, out: Path) -> int:
    train_p, test_p = cfgmod.build_segments(cfg)
    baselines = cfgmod.build_baselines(cfg, test_p.n_assets + 1)
    if not baselines and not cfg["agent.enabled"]:
        raise ConfigError("baselines: nothing to run (no baselines, agent disabled)")
    window = cfg["window"]
    cfgmod.check_horizons(cfg, len(decision_indices(test_p.n_steps, window)))
    cm = cfgmod.build_cost(cfg)
    if cfg["agent.enabled"]:  # a checkpoint that does not fit fails before any strategy runs
        loaded, _ = cfgmod.load_agent_checkpoint(cfg, train_p.n_assets)
    states = build_states(test_p, None, window) if baselines else None
    runs = {name: run_backtest(test_p, states, p, cm) for name, p in baselines.items()}
    del states  # one state matrix alive at a time, and none while results are written
    if cfg["agent.enabled"]:
        if loaded is None:
            params, _, test_signals = _train_agent(cfg, train_p, test_p, cm, None)
        else:
            params = loaded
            test_signals = cfgmod.labeller(cfg, train_p)(test_p, cfgmod.run_seeds(cfg)[3])
        policy = partial(policy_forward, params)
        runs["agent"] = run_backtest(test_p, build_states(test_p, test_signals, window), policy, cm)
    _save_results(runs, out)
    _write_pv_curves(runs, out / "pv_curves.csv")
    _write_metric_tables(cfg, runs, out)
    _write_echo(cfg, out)
    return 0


def _train_agent(cfg, train_p, test_p, cm, params):
    """The run's one agent through config.train_agents; raises the error that stops it."""
    agent = (cfgmod.labeller(cfg, train_p), cfgmod.run_seeds(cfg), params)
    [outcome] = cfgmod.train_agents(cfg, train_p, test_p, cm, [agent])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _save_results(runs: dict[str, BacktestResult], out: Path) -> None:
    """Each run as result_<name>.json; a run equal to one already saved copies that file's text."""
    saved: list[tuple[BacktestResult, Path]] = []
    for name, result in runs.items():
        path = out / f"result_{name}.json"
        twin = next((p for r, p in saved if r == result), None)
        if twin is None:
            result.save(path)
            saved.append((result, path))
        else:
            with twin.open() as text, open_whole(path) as fh:
                shutil.copyfileobj(text, fh)


def _write_pv_curves(runs: dict[str, BacktestResult], path: Path) -> None:
    names = sorted(runs)
    steps = range(runs[names[0]].pv.size)  # every run backtests test_p at one window
    write_table(path, ["step", *names], zip(steps, *(runs[n].pv for n in names)))


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
    loaded, epochs_done = cfgmod.load_agent_checkpoint(cfg, train_p.n_assets)
    params, curve, _ = _train_agent(cfg, train_p, None, cfgmod.build_cost(cfg), loaded)
    _write_curve(out / "learning_curve.csv", curve, epochs_done, resumed=loaded is not None)
    save_checkpoint(
        params,
        out / "checkpoint.json",
        meta={"epochs_trained": epochs_done + len(curve)},
    )
    _write_echo(cfg, out)
    return 0


def _write_curve(path: Path, curve, start_epoch: int, resumed: bool) -> None:
    """The learning curve, whole: a resumed run's rows follow the old rows up to start_epoch."""
    old = path.read_text().splitlines()[1:] if resumed and path.exists() else []
    kept = [row for row in (line.split(",") for line in old) if int(row[0]) <= start_epoch]
    rows = [*kept, *enumerate(curve, start=start_epoch + 1)]
    write_table(path, ["epoch", "J_T"], rows)


def cmd_sweep(cfg, out: Path) -> int:
    rows, failures = run_sweep(cfg)
    write_sweep_csv(rows, out / "sweep.csv")
    write_summary(rows, failures, out / "summary.json")
    _write_echo(cfg, out)
    return 0


def cmd_metrics(cfg, out: Path) -> int:
    result_files = sorted(out.glob("result_*.json"))
    if not result_files:
        raise ConfigError(f"out: no result_*.json files in {out}")
    runs, parsed = {}, {}  # parsed: the sha256 of a file's bytes -> its result
    for path in result_files:
        digest = hashlib.sha256(path.read_bytes()).digest()
        if digest not in parsed:
            try:
                parsed[digest] = BacktestResult.load(path)
            except (ValueError, TypeError) as exc:  # bad JSON, a missing or altered field
                raise ConfigError(f"out: {path.name}: {exc}") from exc
        runs[path.stem.removeprefix("result_")] = parsed[digest]
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
