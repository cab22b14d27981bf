from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from signalfolio.agent import init_policy, load_checkpoint
from signalfolio.cli import main

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

    def test_crp_weights_length_checked(self, tmp_path, capsys):
        code = run(
            "backtest",
            "--out",
            str(tmp_path / "x"),
            *sets(FAST_MARKET + ["baselines=crp", "baseline.target_weights=0.5,0.5"]),
        )
        assert code == 1
        assert "target_weights" in capsys.readouterr().err

    def test_corrupt_checkpoint_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
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
        assert code == 2
        assert capsys.readouterr().err.startswith("runtime error")


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
        ckpt = out / "checkpoint.json"
        assert (
            run("train", "--out", str(out), *sets(base + [f"agent.checkpoint={ckpt}"]))
            == 0
        )
        _, meta = load_checkpoint(ckpt)
        assert meta["epochs_trained"] == 4
        lines = (out / "learning_curve.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3", "4"]

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("steps", ["-3", "0"])
    def test_bad_steps_per_epoch_exits_one(self, tmp_path, capsys, command, steps):
        args = sets(FAST_MARKET + FAST_AGENT + [f"agent.steps_per_epoch={steps}"])
        assert run(command, "--out", str(tmp_path / "x"), *args) == 1
        err = capsys.readouterr().err
        assert "agent.*" in err and "steps_per_epoch" in err

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

    @pytest.mark.parametrize("how", [["--jobs", "0"], ["--set", "jobs=-2"]])
    def test_jobs_below_one_exits_one(self, tmp_path, capsys, how):
        assert run("sweep", "--out", str(tmp_path / "x"), *sets(self.ARGS), *how) == 1
        assert "jobs" in capsys.readouterr().err

    def test_seed_flag_changes_cells(self, tmp_path):
        first, second = tmp_path / "a", tmp_path / "b"
        assert run("sweep", "--out", str(first), *sets(self.ARGS)) == 0
        assert run("sweep", "--out", str(second), *sets(self.ARGS), "--seed", "99") == 0
        assert (first / "sweep.csv").read_text() != (second / "sweep.csv").read_text()
        echo = (second / "config_echo.txt").read_text()
        assert "seed = 99" in echo.splitlines()


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
