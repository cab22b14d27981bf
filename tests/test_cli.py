from __future__ import annotations

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from signalfolio import cli
from signalfolio import config as cfgmod
from signalfolio.agent import init_policy, load_checkpoint, save_checkpoint
from signalfolio.cli import main
from signalfolio.market import generate_synthetic

FAST_MARKET = [
    "market.synthetic.n_assets=2",
    "market.synthetic.n_steps=150",
    "market.synthetic.vol=0.02",
    "market.synthetic.drift=0.001",
    "market.synthetic.seed=5",
    "split.fraction=0.8",
    "window=8",
]

FAST_AGENT = [
    "agent.hidden=8",
    "agent.epochs=2",
    "agent.batch_window=16",
    "agent.learning_rate=0.5",
]


def run(*args):
    return main(list(args))


def sets(pairs):
    out = []
    for pair in pairs:
        out += ["--set", pair]
    return out


def read_all(out: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.is_file()}


def write_fast_market_csv(path: Path, extra_columns: bool) -> None:
    """FAST_MARKET's closes as a long-format CSV, optionally with unused columns."""
    prices = generate_synthetic(n_assets=2, n_steps=150, vol=0.02, drift=0.001, seed=5)
    lines = ["high,timestamp,asset,low,close,volume" if extra_columns else "timestamp,asset,close"]
    for j, ts in enumerate(prices.timestamps):
        for i, asset in enumerate(prices.assets):
            close = float(prices.close[i + 1, j])
            if extra_columns:
                lines.append(f"{close * 1.01!r},{ts},{asset},{close * 0.99!r},{close!r},{1000 + j}")
            else:
                lines.append(f"{ts},{asset},{close!r}")
    path.write_text("\n".join(lines) + "\n")


# Either command with a checkpoint or a split that does not fit the config.
CHECKPOINT_COMMANDS = {
    "backtest": FAST_AGENT + ["agent.enabled=true", "baselines=ew", "metrics.horizons=1w"],
    "train": FAST_AGENT,
}


# Every command's run of the agent; a later --set of the same key wins.
COMMAND_ARGS = {
    **CHECKPOINT_COMMANDS,
    "sweep": FAST_AGENT + ["sweep.accuracies=0.6", "sweep.densities=1.0", "seeds=0"],
}

ALL_COMMANDS = ["backtest", "train", "sweep"]

# A value that does not fit, the commands that reject it, and the key it is
# reported under.  resolve checks every key's type and bounds, so each
# command rejects those; the rest are checks against the data or other keys.
BAD_VALUES = [
    (["cost.mode=bogus"], ALL_COMMANDS, "cost.mode: unknown value 'bogus'"),
    (["market.source=bogus"], ALL_COMMANDS, "market.source: unknown value 'bogus'"),
    (
        ["market.synthetic.drift=0.1,0.2,0.3"],
        ALL_COMMANDS,
        "market.synthetic.drift: 3 values for 2 assets",
    ),
    (["market.synthetic.vol=0.01,0.02,0.03"], ALL_COMMANDS, "market.synthetic.vol: 3 values"),
    (["market.synthetic.n_assets=0"], ALL_COMMANDS, "market.synthetic.n_assets:"),
    (["market.synthetic.n_steps=1"], ALL_COMMANDS, "market.synthetic.n_steps:"),
    (["market.synthetic.regime_prob=1.5"], ALL_COMMANDS, "market.synthetic.regime_prob:"),
    (["market.synthetic.vol=-0.01"], ALL_COMMANDS, "market.synthetic.vol:"),
    (["market.synthetic.vol=0.01,-0.01"], ALL_COMMANDS, "market.synthetic.vol:"),
    (
        ["split.boundary=100", "split.fraction=1.5"],
        ALL_COMMANDS,
        "split.fraction: 1.5 outside (0, 1)",
    ),
    (["split.fraction=0"], ALL_COMMANDS, "split.fraction: 0.0 outside (0, 1)"),
    (["split.fraction=1"], ALL_COMMANDS, "split.fraction: 1.0 outside (0, 1)"),
    (["split.boundary=0"], ALL_COMMANDS, "split.boundary:"),
    (["cost.buy=1.0"], ALL_COMMANDS, "cost.buy: 1.0 outside [0, 1)"),
    (["cost.sell=-0.001"], ALL_COMMANDS, "cost.sell:"),
    (["agent.learning_rate=-1"], ALL_COMMANDS, "agent.learning_rate:"),
    (["agent.batch_window=0"], ALL_COMMANDS, "agent.batch_window:"),
    (["agent.epochs=-1"], ALL_COMMANDS, "agent.epochs:"),
    (["agent.steps_per_epoch=0"], ALL_COMMANDS, "agent.steps_per_epoch:"),
    (["jobs=0"], ALL_COMMANDS, "jobs:"),
    (
        ["metrics.horizons=1w,1w"],
        ALL_COMMANDS,
        "metrics.horizons: duplicate values in ('1w', '1w')",
    ),
    (["metrics.horizons=1x"], ALL_COMMANDS, "metrics.horizons: unparseable horizon label '1x'"),
    (["metrics.horizons=1d"], ALL_COMMANDS, "metrics.horizons: horizon 1 too short"),
    (["market.synthetic.seed=-1"], ALL_COMMANDS, "market.synthetic.seed:"),
    (["window=0"], ALL_COMMANDS, "window:"),
    (
        ["baselines=crp", "baseline.target_weights=0.5,0.5,0.5"],
        ["backtest"],
        "baseline.target_weights:",
    ),
    (["signal.mode=oracle", "signal.accuracy=1.5"], ALL_COMMANDS, "signal.accuracy:"),
    (["signal.mode=oracle", "signal.density=-0.1"], ALL_COMMANDS, "signal.density:"),
    (["rfree=abc"], ALL_COMMANDS, "rfree:"),
    (["metrics.steps_per_day=0"], ALL_COMMANDS, "metrics.steps_per_day:"),
    (["agent.seed=-1"], ALL_COMMANDS, "agent.seed:"),
    (["signal.mode=oracle", "signal.seed=-1"], ALL_COMMANDS, "signal.seed:"),
    (["signal.mode=internal", "signal.fit_epochs=-1"], ALL_COMMANDS, "signal.fit_epochs:"),
    (["rfree=inf"], ALL_COMMANDS, "rfree: expected a finite number, got inf"),
    (["agent.learning_rate=inf"], ALL_COMMANDS, "agent.learning_rate: expected a finite number"),
    (["seeds=0,0"], ["sweep"], "seeds: duplicate values in (0, 0)"),
    (["sweep.accuracies=1.0,1.0"], ["sweep"], "sweep.accuracies: duplicate values in (1.0, 1.0)"),
    (["sweep.densities=0.5,0.5"], ["sweep"], "sweep.densities: duplicate values in (0.5, 0.5)"),
    # keys that are no longer settings: any value of one is an unknown key
    *(
        (pairs, ALL_COMMANDS, f"unknown config key {pairs[-1].partition('=')[0]!r}")
        for pairs in (
            ["cost.max_iters=0"],
            ["cost.tol=0"],
            ["baselines=olmar", "baseline.epsilon=abc"],
            ["baselines=wmamr", "baseline.window=0"],
            ["baselines=olmar", "baseline.window=-2"],
            ["signal.mode=internal", "signal.lags=0"],
            ["signal.lookback=0"],
            ["agent.init_scale=-1"],
            ["signal.mode=internal", "signal.fit_lr=-1"],
            ["cost.tol=abc"],
        )
    ),
    # FAST_MARKET's 120 training steps leave 112 decisions at window 8
    (
        ["agent.batch_window=500"],
        ["backtest", "train", "sweep"],
        "agent.batch_window: 500 longer than the 112-step training episode",
    ),
    # checked once in the parent process, before any worker starts
    (
        ["agent.batch_window=500", "jobs=2"],
        ["sweep"],
        "agent.batch_window: 500 longer than the 112-step training episode",
    ),
]

# Each key that became a fixed value, set to the default it had as a key.
REMOVED_KEYS = [
    "signal.lookback=1",
    "agent.init_scale=1.0",
    "baseline.epsilon=none",
    "baseline.window=5",
    "cost.max_iters=100",
    "cost.tol=1e-10",
    "signal.lags=5",
    "signal.fit_lr=0.5",
]


class TestArgumentHandling:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            run()

    def test_out_required(self):
        with pytest.raises(SystemExit):
            run("backtest")


class TestBacktestCommand:
    def test_baseline_only_artifacts(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "backtest",
            "--out",
            str(out),
            *sets(FAST_MARKET + ["baselines=ew,hold_cash", "metrics.horizons=1w,2w"]),
        )
        assert code == 0
        names = {p.name for p in out.iterdir()}
        assert names == {
            "result_ew.json",
            "result_hold_cash.json",
            "pv_curves.csv",
            "metrics.csv",
            "metrics.json",
            "config_echo.txt",
        }
        header = (out / "pv_curves.csv").read_text().splitlines()[0]
        assert header == "step,ew,hold_cash"

    def test_rerun_byte_identical(self, tmp_path):
        args = sets(FAST_MARKET + ["baselines=ew,olmar", "metrics.horizons=1w"])
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("backtest", "--out", str(first), *args) == 0
        assert run("backtest", "--out", str(second), *args) == 0
        assert read_all(first) == read_all(second)

    def test_agent_run_writes_result(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "backtest",
            "--out",
            str(out),
            *sets(
                FAST_MARKET
                + FAST_AGENT
                + [
                    "agent.enabled=true",
                    "signal.mode=oracle",
                    "signal.accuracy=0.9",
                    "baselines=ew",
                    "metrics.horizons=1w",
                ]
            ),
        )
        assert code == 0
        assert (out / "result_agent.json").exists()
        payload = json.loads((out / "result_agent.json").read_text())
        assert payload["final_pv"] > 0

    def test_unknown_key_exits_one(self, tmp_path, capsys):
        code = run("backtest", "--out", str(tmp_path / "x"), "--set", "wild.key=1")
        assert code == 1
        assert "wild.key" in capsys.readouterr().err

    def test_unknown_strategy_exits_one(self, tmp_path, capsys):
        code = run(
            "backtest",
            "--out",
            str(tmp_path / "x"),
            *sets(FAST_MARKET + ["baselines=sorcery"]),
        )
        assert code == 1
        assert "sorcery" in capsys.readouterr().err

    def test_nothing_to_run_exits_one(self, tmp_path, capsys):
        code = run("backtest", "--out", str(tmp_path / "x"), *sets(FAST_MARKET))
        assert code == 1
        assert "nothing to run" in capsys.readouterr().err

    def test_horizon_longer_than_split_exits_one(self, tmp_path, capsys):
        code = run(
            "backtest",
            "--out",
            str(tmp_path / "x"),
            *sets(FAST_MARKET + ["baselines=ew", "metrics.horizons=2m"]),
        )
        assert code == 1
        assert "metrics.horizons" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "horizon,message",
        [("1d", "horizon 1 too short"), ("5m", "horizon 105 exceeds backtest length 22")],
        ids=["too-short", "too-long"],
    )
    def test_horizon_checked_before_any_strategy(self, tmp_path, capsys, horizon, message):
        out = tmp_path / "x"
        args = sets(FAST_MARKET + ["baselines=ew", f"metrics.horizons={horizon}"])
        assert run("backtest", "--out", str(out), *args) == 1
        assert capsys.readouterr().err.startswith(f"error: metrics.horizons: {message}")
        assert not list(out.glob("result_*.json"))
        assert not (out / "pv_curves.csv").exists()

    def test_crp_weights_length_checked(self, tmp_path, capsys):
        code = run(
            "backtest",
            "--out",
            str(tmp_path / "x"),
            *sets(FAST_MARKET + ["baselines=crp", "baseline.target_weights=0.5,0.5"]),
        )
        assert code == 1
        assert "target_weights" in capsys.readouterr().err

    def test_states_built_once_for_the_baselines_and_once_for_the_agent(
        self, tmp_path, monkeypatch
    ):
        built = []

        def counted(prices, signals, window):
            built.append("agent" if signals is not None else "baselines")
            return real(prices, signals, window)

        real = cli.build_states
        monkeypatch.setattr(cli, "build_states", counted)
        args = FAST_MARKET + FAST_AGENT + ["agent.enabled=true", "signal.mode=oracle"]
        args += ["baselines=ew,crp,olmar,wmamr,hold_cash", "metrics.horizons=1w"]
        assert run("backtest", "--out", str(tmp_path / "run"), *sets(args)) == 0
        assert built == ["baselines", "agent"]

    def test_no_state_matrix_alive_while_results_are_written(self, tmp_path, monkeypatch):
        built, alive_at_save = [], []

        def tracked(prices, signals, window):
            states = real_build(prices, signals, window)
            built.append(weakref.ref(states))
            return states

        def checked_save(result, path):
            alive_at_save.append(sum(ref() is not None for ref in built))
            return real_save(result, path)

        real_build, real_save = cli.build_states, cli.BacktestResult.save
        monkeypatch.setattr(cli, "build_states", tracked)
        monkeypatch.setattr(cli.BacktestResult, "save", checked_save)
        args = FAST_MARKET + FAST_AGENT + ["agent.enabled=true", "signal.mode=oracle"]
        args += ["baselines=ew,olmar", "metrics.horizons=1w"]
        assert run("backtest", "--out", str(tmp_path / "run"), *sets(args)) == 0
        assert len(built) == 2
        assert alive_at_save == [0, 0, 0]

    def test_checkpoint_run_labels_only_the_test_split(self, tmp_path, monkeypatch):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(init_policy(2 * 8 + 2, 3, hidden=(8,), seed=0), ckpt)
        labelled = []

        def counted(truth, *args):
            labelled.append(truth.shape)
            return real(truth, *args)

        real = cfgmod.oracle_labels
        monkeypatch.setattr(cfgmod, "oracle_labels", counted)
        args = FAST_MARKET + CHECKPOINT_COMMANDS["backtest"]
        args += ["signal.mode=oracle", f"agent.checkpoint={ckpt}"]
        assert run("backtest", "--out", str(tmp_path / "run"), *sets(args)) == 0
        assert labelled == [(2, 30)]  # the 30-step test split; the train split has 120

    def test_corrupt_checkpoint_exits_one(self, tmp_path, capsys):
        # a checkpoint cut off after its first 12 characters, '{"layers": ['
        bad = tmp_path / "bad.json"
        save_checkpoint(init_policy(2 * 8 + 2, 3, hidden=(8,), seed=0), bad)
        bad.write_text(bad.read_text()[:12])
        code = run(
            "backtest",
            "--out",
            str(tmp_path / "x"),
            *sets(
                FAST_MARKET
                + FAST_AGENT
                + ["agent.enabled=true", f"agent.checkpoint={bad}", "metrics.horizons=1w"]
            ),
        )
        assert code == 1
        message = "Expecting value: line 1 column 13 (char 12)"
        assert capsys.readouterr().err == f"error: agent.checkpoint: {bad}: {message}\n"


class TestBadValues:
    """A setting that does not fit exits 1 and names its key, from every command."""

    @pytest.mark.parametrize(
        "command,pairs,key",
        [
            pytest.param(command, pairs, key, id=f"{command}-{pairs[-1]}")
            for pairs, commands, key in BAD_VALUES
            for command in commands
        ],
    )
    def test_exits_one_naming_key(self, tmp_path, capsys, command, pairs, key):
        args = FAST_MARKET + COMMAND_ARGS[command] + pairs
        assert run(command, "--out", str(tmp_path / "x"), *sets(args)) == 1
        assert capsys.readouterr().err.startswith(f"error: {key}")

    @pytest.mark.parametrize("command", [*ALL_COMMANDS, "metrics"])
    @pytest.mark.parametrize("pair", REMOVED_KEYS)
    def test_removed_key_at_its_old_default_is_unknown(self, tmp_path, capsys, command, pair):
        out = tmp_path / "x"
        assert run(command, "--out", str(out), "--set", pair) == 1
        assert capsys.readouterr().err == f"error: unknown config key {pair.partition('=')[0]!r}\n"
        assert not out.exists()


class TestConfigEcho:
    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_echo_replays_the_run(self, tmp_path, command):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run(command, "--out", str(first), *sets(FAST_MARKET + COMMAND_ARGS[command])) == 0
        echo = first / "config_echo.txt"
        assert "signal.mode = none" in echo.read_text().splitlines()
        assert run(command, "--out", str(second), "--config", str(echo)) == 0
        assert read_all(second) == read_all(first)

    def test_key_set_twice_in_the_file_exits_one(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("window = 8\nwindow = 12\n")
        assert run("backtest", "--config", str(path), "--out", str(tmp_path / "x")) == 1
        assert capsys.readouterr().err.startswith("error: window: set twice")

    def test_flags_are_checked(self, tmp_path, capsys):
        assert run("backtest", "--out", str(tmp_path / "x"), "--set", "rfree=nan") == 1
        assert capsys.readouterr().err.startswith("error: rfree:")


class TestCheckpointAndSplitErrors:
    """A checkpoint or split that does not fit the config is a user error (exit 1)."""

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    @pytest.mark.parametrize(
        "window,input_dim,n_actions", [(10, 2 * 8 + 2, 3), (8, 2 * 8 + 2, 4), (8, 2 * 8, 3)]
    )
    def test_mismatched_checkpoint_exits_one(
        self, tmp_path, capsys, command, window, input_dim, n_actions
    ):
        # FAST_MARKET has 2 assets; at window w the policy needs 2w + 2 inputs, 3 outputs
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(init_policy(input_dim, n_actions, hidden=(8,), seed=0), ckpt)
        args = FAST_MARKET + CHECKPOINT_COMMANDS[command]
        args += [f"window={window}", f"agent.checkpoint={ckpt}"]
        assert run(command, "--out", str(tmp_path / "x"), *sets(args)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: agent.checkpoint:")
        assert f"({input_dim}, {n_actions})" in err and f"({2 * window + 2}, 3)" in err

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    def test_checkpoint_without_layers_exits_one(self, tmp_path, capsys, command):
        ckpt = tmp_path / "ckpt.json"
        ckpt.write_text('{"meta": {}}')
        args = FAST_MARKET + CHECKPOINT_COMMANDS[command] + [f"agent.checkpoint={ckpt}"]
        assert run(command, "--out", str(tmp_path / "x"), *sets(args)) == 1
        err = capsys.readouterr().err
        assert err == f"error: agent.checkpoint: {ckpt}: missing key 'layers'\n"

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    @pytest.mark.parametrize(
        "meta",
        [[], {"epochs_trained": "two"}, {"epochs_trained": -3}, {"epochs_trained": True}],
        ids=["list", "string", "negative", "bool"],
    )
    def test_bad_checkpoint_meta_exits_one(self, tmp_path, capsys, command, meta):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(init_policy(2 * 8 + 2, 3, hidden=(8,), seed=0), ckpt)
        ckpt.write_text(json.dumps({**json.loads(ckpt.read_text()), "meta": meta}))
        args = FAST_MARKET + CHECKPOINT_COMMANDS[command] + [f"agent.checkpoint={ckpt}"]
        out = tmp_path / "x"
        assert run(command, "--out", str(out), *sets(args)) == 1
        reason = f"meta {meta!r} needs an integer epochs_trained >= 0"
        assert capsys.readouterr().err == f"error: agent.checkpoint: {ckpt}: {reason}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    @pytest.mark.parametrize(
        "field,value", [("weights", np.nan), ("biases", np.inf)], ids=["nan", "inf"]
    )
    def test_non_finite_checkpoint_exits_one(self, tmp_path, capsys, command, field, value):
        ckpt = tmp_path / "ckpt.json"
        save_checkpoint(init_policy(2 * 8 + 2, 3, hidden=(8,), seed=0), ckpt)
        data = json.loads(ckpt.read_text())
        layer = data["layers"][0]
        if field == "weights":
            layer["weights"][0][0] = value
        else:
            layer["biases"][0] = value
        ckpt.write_text(json.dumps(data))
        args = FAST_MARKET + CHECKPOINT_COMMANDS[command] + [f"agent.checkpoint={ckpt}"]
        out = tmp_path / "x"
        assert run(command, "--out", str(out), *sets(args)) == 1
        reason = "policy parameters must be finite"
        assert capsys.readouterr().err == f"error: agent.checkpoint: {ckpt}: {reason}\n"
        assert not any(out.iterdir())

    @pytest.mark.parametrize("command", sorted(CHECKPOINT_COMMANDS))
    def test_missing_checkpoint_exits_one(self, tmp_path, capsys, command):
        args = FAST_MARKET + CHECKPOINT_COMMANDS[command]
        args += [f"agent.checkpoint={tmp_path / 'absent.json'}"]
        assert run(command, "--out", str(tmp_path / "x"), *sets(args)) == 1
        assert capsys.readouterr().err.startswith("error: agent.checkpoint: no such file")

    @pytest.mark.parametrize(
        "checkpoint,message",
        [("absent.json", "no such file"), ("wide.json", "policy (inputs, outputs) (20, 3)")],
        ids=["missing", "misfit"],
    )
    def test_backtest_checks_checkpoint_before_any_strategy(
        self, tmp_path, capsys, monkeypatch, checkpoint, message
    ):
        ckpt = tmp_path / checkpoint
        if checkpoint == "wide.json":
            save_checkpoint(init_policy(20, 3, hidden=(8,), seed=0), ckpt)
        backtests = []

        def counted(*args):
            backtests.append(args)
            return real(*args)

        real = cli.run_backtest
        monkeypatch.setattr(cli, "run_backtest", counted)
        args = FAST_MARKET + CHECKPOINT_COMMANDS["backtest"]
        args += ["baselines=ew,crp,olmar", f"agent.checkpoint={ckpt}"]
        assert run("backtest", "--out", str(tmp_path / "x"), *sets(args)) == 1
        assert capsys.readouterr().err.startswith(f"error: agent.checkpoint: {message}")
        assert backtests == []

    @pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
    def test_split_too_short_for_window_exits_one(self, tmp_path, capsys, command):
        # 5 test steps cannot hold a window of 8 plus two steps
        args = FAST_MARKET + COMMAND_ARGS[command] + ["split.boundary=145"]
        assert run(command, "--out", str(tmp_path / "x"), *sets(args)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: split.boundary:") and "too short" in err
        assert err.rstrip().endswith("at window 8")


class TestUnreadablePaths:
    @pytest.mark.parametrize(
        "key,kind",
        [
            ("config", "dir"),
            ("config", "bytes"),
            ("market.csv.path", "dir"),
            ("market.csv.path", "bytes"),
            ("agent.checkpoint", "dir"),
            ("out", "file"),
            ("out", "result-dir"),
        ],
    )
    def test_path_that_exists_but_cannot_be_read_exits_one(self, tmp_path, capsys, key, kind):
        # a directory, a file with a byte that is not UTF-8, a regular file for the
        # output directory, or a directory where metrics reads a result file
        out = tmp_path / "x"
        path = out / "result_ew.json" if kind == "result-dir" else tmp_path / "unreadable"
        if kind.endswith("dir"):
            path.mkdir(parents=True)
        else:
            path.write_bytes(b"caf\xe9\n")
        argv = ["--out", str(path if kind == "file" else out), *sets(FAST_MARKET + FAST_AGENT)]
        if key == "config":
            argv += ["--config", str(path)]
        elif key == "market.csv.path":
            argv += sets(["market.source=csv", f"market.csv.path={path}"])
        elif key == "agent.checkpoint":
            argv += sets([f"agent.checkpoint={path}"])
        assert run("metrics" if kind == "result-dir" else "train", *argv) == 1
        named = f"config file {path}" if key == "config" else f"{key}: {path}"
        if kind == "result-dir":  # metrics names a result file by its name in --out
            named = f"out: {path.name}"
        assert capsys.readouterr().err.startswith(f"error: {named}: ")


class TestCsvMarket:
    def test_extra_columns_do_not_change_results(self, tmp_path):
        args = ["split.fraction=0.8", "window=8", "baselines=ew", "metrics.horizons=1w"]
        results = {}
        for name, extra in (("plain", False), ("extra", True)):
            path = tmp_path / f"{name}.csv"
            write_fast_market_csv(path, extra_columns=extra)
            csv_args = ["market.source=csv", f"market.csv.path={path}"]
            assert run("backtest", "--out", str(tmp_path / name), *sets(args + csv_args)) == 0
            results[name] = (tmp_path / name / "result_ew.json").read_bytes()
        assert results["extra"] == results["plain"]
        # the file holds the synthetic market's closes exactly
        assert run("backtest", "--out", str(tmp_path / "synthetic"), *sets(FAST_MARKET + args)) == 0
        assert (tmp_path / "synthetic" / "result_ew.json").read_bytes() == results["plain"]

    @staticmethod
    def _runs_and_replays(tmp_path, path) -> None:
        """A backtest on the CSV market at path exits 0, and its echo keeps path and replays it."""
        write_fast_market_csv(Path(path), extra_columns=False)
        args = ["market.source=csv", f"market.csv.path={path}", "split.fraction=0.8", "window=8"]
        args += ["baselines=ew", "metrics.horizons=1w"]
        first, second = tmp_path / "first", tmp_path / "second"
        assert run("backtest", "--out", str(first), *sets(args)) == 0
        echo = first / "config_echo.txt"
        assert f"market.csv.path = {path}" in echo.read_text().splitlines()
        assert run("backtest", "--out", str(second), "--config", str(echo)) == 0
        assert read_all(second) == read_all(first)

    def test_path_with_comma_runs_and_replays(self, tmp_path):
        self._runs_and_replays(tmp_path, tmp_path / "a,b.csv")

    @pytest.mark.parametrize("name", ["2024", "true"])
    def test_path_that_reads_as_a_scalar_runs_and_replays(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)  # so the path is the bare name
        self._runs_and_replays(tmp_path, name)

    def test_bad_close_exits_one_naming_path(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("timestamp,asset,close\n1,A,1.0\n2,A,-1\n")
        args = ["market.source=csv", f"market.csv.path={path}", "baselines=ew"]
        assert run("backtest", "--out", str(tmp_path / "x"), *sets(args)) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: market.csv.path:") and "non-positive price '-1'" in err


class TestTrainCommand:
    def test_zero_epochs_checkpoint_equals_init(self, tmp_path):
        out = tmp_path / "run"
        code = run(
            "train",
            "--out",
            str(out),
            *sets(FAST_MARKET + FAST_AGENT + ["agent.epochs=0", "agent.seed=9"]),
        )
        assert code == 0
        params, meta = load_checkpoint(out / "checkpoint.json")
        fresh = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
        for w0, w1 in zip(params.weights, fresh.weights):
            assert np.array_equal(w0, w1)
        assert meta["epochs_trained"] == 0
        assert (out / "learning_curve.csv").read_bytes() == b"epoch,J_T\r\n"

    def test_curve_rows_numbered_from_one(self, tmp_path):
        out = tmp_path / "run"
        assert run("train", "--out", str(out), *sets(FAST_MARKET + FAST_AGENT)) == 0
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert lines[0] == "epoch,J_T"
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2"]

    def test_resume_extends_curve_and_meta(self, tmp_path):
        out = tmp_path / "run"
        base = FAST_MARKET + FAST_AGENT
        assert run("train", "--out", str(out), *sets(base)) == 0
        first_curve = (out / "learning_curve.csv").read_bytes()
        ckpt = out / "checkpoint.json"
        assert (
            run("train", "--out", str(out), *sets(base + [f"agent.checkpoint={ckpt}"]))
            == 0
        )
        _, meta = load_checkpoint(ckpt)
        assert meta["epochs_trained"] == 4
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]
        assert (out / "learning_curve.csv").read_bytes().startswith(first_curve)

    def test_resume_replaces_curve_rows_past_the_checkpoint(self, tmp_path):
        # two resumes from one 3-epoch checkpoint leave epochs 1 to 6 once each
        out = tmp_path / "run"
        base = FAST_MARKET + FAST_AGENT + ["agent.epochs=3"]
        assert run("train", "--out", str(out), *sets(base)) == 0
        ckpt = tmp_path / "epoch3.json"
        ckpt.write_bytes((out / "checkpoint.json").read_bytes())
        resume = sets(base + [f"agent.checkpoint={ckpt}"])
        assert run("train", "--out", str(out), *resume) == 0
        once = (out / "learning_curve.csv").read_bytes()
        assert run("train", "--out", str(out), *resume) == 0
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4", "5", "6"]
        assert (out / "learning_curve.csv").read_bytes() == once
        assert load_checkpoint(out / "checkpoint.json")[1]["epochs_trained"] == 6

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("steps", ["-3", "0"])
    def test_bad_steps_per_epoch_exits_one(self, tmp_path, capsys, command, steps):
        args = sets(FAST_MARKET + FAST_AGENT + [f"agent.steps_per_epoch={steps}"])
        assert run(command, "--out", str(tmp_path / "x"), *args) == 1
        assert capsys.readouterr().err.startswith("error: agent.steps_per_epoch:")

    def test_train_deterministic(self, tmp_path):
        args = sets(FAST_MARKET + FAST_AGENT)
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("train", "--out", str(first), *args) == 0
        assert run("train", "--out", str(second), *args) == 0
        assert read_all(first) == read_all(second)


class TestSweepCommand:
    ARGS = FAST_MARKET + FAST_AGENT + [
        "sweep.accuracies=0.6,1.0",
        "sweep.densities=1.0",
        "seeds=0",
        "seed=11",
    ]

    def test_artifacts_and_counts(self, tmp_path):
        out = tmp_path / "run"
        assert run("sweep", "--out", str(out), *sets(self.ARGS)) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 1 + 2 + 1
        summary = json.loads((out / "summary.json").read_text())
        assert summary["cells_completed"] == 3
        assert summary["cells_failed"] == 0

    def test_rerun_byte_identical(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--out", str(first), *sets(self.ARGS)) == 0
        assert run("sweep", "--out", str(second), *sets(self.ARGS)) == 0
        assert read_all(first) == read_all(second)

    @pytest.mark.parametrize("how", [["--set", "jobs=0"], ["--set", "jobs=-2"]])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, how):
        assert run("sweep", "--out", str(tmp_path / "x"), *sets(self.ARGS), *how) == 1
        assert "jobs" in capsys.readouterr().err

    def test_missing_csv_exits_one_before_any_cell(self, tmp_path, capsys):
        args = self.ARGS + ["market.source=csv", f"market.csv.path={tmp_path / 'absent.csv'}"]
        out = tmp_path / "x"
        assert run("sweep", "--out", str(out), *sets(args)) == 1
        assert capsys.readouterr().err.startswith("error: market.csv.path: no such file")
        assert not (out / "summary.json").exists()

    def test_seed_flag_changes_cells(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--out", str(first), *sets(self.ARGS)) == 0
        assert run("sweep", "--out", str(second), *sets(self.ARGS + ["seed=99"])) == 0
        assert (first / "sweep.csv").read_text() != (second / "sweep.csv").read_text()
        echo = (second / "config_echo.txt").read_text()
        assert "seed = 99" in echo.splitlines()


def _truncated(text: str) -> str:
    return text[: len(text) // 2]


def _without_pv(text: str) -> str:
    payload = json.loads(text)
    del payload["pv"]
    return json.dumps(payload)


def _with_one_reward_off(text: str) -> str:
    payload = json.loads(text)
    payload["rewards"][3] = float(np.nextafter(payload["rewards"][3], 1.0))
    return json.dumps(payload)


def _with_narrow_weights(text: str) -> str:
    payload = json.loads(text)
    payload["weights"] = [row[:2] for row in payload["weights"]]
    return json.dumps(payload)


def _with_ragged_weights(text: str) -> str:
    payload = json.loads(text)
    payload["weights"][0] = payload["weights"][0][:2]
    return json.dumps(payload)


def _with_betas_as_column(text: str) -> str:
    payload = json.loads(text)
    payload["betas"] = [[beta] for beta in payload["betas"]]
    return json.dumps(payload)


def _with_actions_off_simplex(text: str) -> str:
    # each row still sums to 1, but holds a negative weight
    payload = json.loads(text)
    payload["actions"] = [[2.0, -1.0] + [0.0] * (len(row) - 2) for row in payload["actions"]]
    return json.dumps(payload)


def _with_one_pv_digit_changed(text: str) -> str:
    """pv[1] with its third decimal digit moved by one, so it parses to another float."""
    head, sep, tail = text.partition('"pv": [1.0, ')
    at = tail.index(".") + 3
    return head + sep + tail[:at] + str((int(tail[at]) + 1) % 10) + tail[at + 1 :]


class TestMetricsCommand:
    def test_recomputes_tables_from_results(self, tmp_path):
        out = tmp_path / "run"
        args = sets(FAST_MARKET + ["baselines=ew,wmamr", "metrics.horizons=1w,2w"])
        assert run("backtest", "--out", str(out), *args) == 0
        before_csv = (out / "metrics.csv").read_bytes()
        before_json = (out / "metrics.json").read_bytes()
        (out / "metrics.csv").unlink()
        (out / "metrics.json").unlink()
        assert run("metrics", "--out", str(out), *sets(["metrics.horizons=1w,2w"])) == 0
        assert (out / "metrics.csv").read_bytes() == before_csv
        assert (out / "metrics.json").read_bytes() == before_json

    def test_empty_directory_exits_one(self, tmp_path, capsys):
        code = run("metrics", "--out", str(tmp_path / "empty"))
        assert code == 1
        assert "result_" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "damage, named",
        [
            (_truncated, "delimiter"),
            (_without_pv, "'pv'"),
            (_with_one_reward_off, "'rewards'"),
            (_with_narrow_weights, "'weights'"),
            (_with_ragged_weights, "'weights'"),
            (_with_betas_as_column, "'betas'"),
            (_with_actions_off_simplex, "'actions'"),
        ],
        ids=[
            "truncated",
            "missing-field",
            "tampered-rewards",
            "narrow-weights",
            "ragged-weights",
            "betas-as-column",
            "actions-off-simplex",
        ],
    )
    def test_bad_result_file_exits_one_naming_it(self, tmp_path, capsys, damage, named):
        out = tmp_path / "run"
        horizons = sets(["metrics.horizons=1w,2w"])
        market = sets([*FAST_MARKET, "baselines=ew"])
        assert run("backtest", "--out", str(out), *market, *horizons) == 0
        path = out / "result_ew.json"
        path.write_text(damage(path.read_text()))
        capsys.readouterr()
        assert run("metrics", "--out", str(out), *horizons) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: out: result_ew.json: ")
        assert named in err


class TestEqualResults:
    """crp without target weights is ew bit for bit: backtest writes its file as a copy,
    and metrics parses byte-equal files once but still checks every distinct one."""

    HORIZONS = ["metrics.horizons=1w,2w"]

    def backtest(self, out: Path, *extra: str) -> None:
        args = [*FAST_MARKET, *self.HORIZONS, "baselines=ew,crp", *extra]
        assert run("backtest", "--out", str(out), *sets(args)) == 0

    def test_equal_runs_write_equal_files_and_the_same_tables(self, tmp_path):
        out = tmp_path / "run"
        self.backtest(out)
        assert (out / "result_crp.json").read_bytes() == (out / "result_ew.json").read_bytes()
        before = read_all(out)
        (out / "metrics.csv").unlink()
        (out / "metrics.json").unlink()
        assert run("metrics", "--out", str(out), *sets(self.HORIZONS)) == 0
        assert read_all(out) == before

    def test_target_weights_make_the_files_differ(self, tmp_path):
        out = tmp_path / "run"
        self.backtest(out, "baseline.target_weights=0.2,0.3,0.5")
        assert (out / "result_crp.json").read_bytes() != (out / "result_ew.json").read_bytes()

    @pytest.mark.parametrize("name", ["crp", "ew"])
    def test_one_changed_twin_exits_one_naming_it(self, tmp_path, capsys, name):
        out = tmp_path / "run"
        self.backtest(out)
        path = out / f"result_{name}.json"
        path.write_text(_with_one_pv_digit_changed(path.read_text()))
        capsys.readouterr()
        assert run("metrics", "--out", str(out), *sets(self.HORIZONS)) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: out: result_{name}.json: field 'pv' differs")
