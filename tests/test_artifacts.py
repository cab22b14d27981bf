"""JSON artifacts: the bytes of json.dumps(payload, sort_keys=True), written whole or not at all.

Each reference payload below is built the way its artifact's writer built
it before the writers shared market.write_json, and the file written today
must equal json.dumps of that payload, byte for byte.  The CSV tables go
through the same whole-or-nothing writer.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from signalfolio.agent import init_policy, save_checkpoint
from signalfolio.baselines import ew_policy, hold_cash_policy
from signalfolio.engine import BacktestResult, CostModel, run_backtest
from signalfolio.evaluation import horizon_table, write_metrics_json, write_table
from signalfolio.market import write_json
from signalfolio.signals import build_states
from signalfolio.sweep import write_summary

SWEEP_ROW = {"accuracy": 0.6, "density": 1.0, "seed": 0, "final_pv": 1.0123, "sharpe": 0.5}
FAILURE_ROW = {
    "accuracy": 1.0,
    "density": None,
    "seed": 7,
    "error": 'Traceback (most recent call last):\n  File "x.py"\nEngineError: bad "β"\n',
}


@pytest.fixture
def result(noisy_market) -> BacktestResult:
    return run_backtest(
        noisy_market, build_states(noisy_market, None, 10), ew_policy(3), CostModel()
    )


class TestSameBytesAsBefore:
    def test_backtest_result(self, tmp_path, result):
        path = tmp_path / "result_ew.json"
        result.save(path)
        arrays = ("actions", "weights", "betas", "factors", "rewards", "pv")
        payload = {name: getattr(result, name).tolist() for name in arrays}
        payload.update(start_index=result.start_index, final_pv=result.final_pv)
        assert path.read_text() == json.dumps(payload, sort_keys=True)
        assert BacktestResult.load(path).final_pv == result.final_pv

    @pytest.mark.parametrize("meta", [None, {"epochs_trained": 12}], ids=["no-meta", "meta"])
    def test_checkpoint(self, tmp_path, meta):
        params = init_policy(14, 4, hidden=(8, 6), seed=3)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(params, path, meta=meta)
        payload = {
            "layers": [
                {"weights": w.tolist(), "biases": b.tolist()}
                for w, b in zip(params.weights, params.biases)
            ],
            "meta": meta or {},
        }
        assert path.read_text() == json.dumps(payload, sort_keys=True)

    def test_table_keeps_csv_line_ends(self, tmp_path):
        path = tmp_path / "learning_curve.csv"
        write_table(path, ["epoch", "J_T"], [(1, np.float64(-0.5)), (2, None)])
        assert path.read_bytes() == b"epoch,J_T\r\n1,-0.5\r\n2,\r\n"

    def test_metrics_with_undefined_sharpe(self, tmp_path, result, noisy_market):
        # holding cash keeps every wealth factor at 1, so its Sharpe is undefined
        flat = run_backtest(
            noisy_market, build_states(noisy_market, None, 10), hold_cash_policy(3), CostModel()
        )
        table = horizon_table({"live": result, "flat": flat}, ["1w", "2w"])
        assert np.isnan(table["flat"]["sharpe_by_horizon"]["1w"])
        path = tmp_path / "metrics.json"
        write_metrics_json(table, path)
        payload = {
            name: {
                "final_pv": row["final_pv"],
                "sharpe_by_horizon": {
                    label: (value if np.isfinite(value) else None)
                    for label, value in row["sharpe_by_horizon"].items()
                },
                "steps_per_day": row["steps_per_day"],
                "r_free": row["r_free"],
            }
            for name, row in sorted(table.items())
        }
        assert path.read_text() == json.dumps(payload, sort_keys=True)
        assert payload["flat"]["sharpe_by_horizon"] == {"1w": None, "2w": None}

    def test_sweep_summary_with_failure(self, tmp_path):
        path = tmp_path / "summary.json"
        write_summary([SWEEP_ROW], [FAILURE_ROW], path)
        payload = {"cells_completed": 1, "cells_failed": 1, "failed": [FAILURE_ROW]}
        assert path.read_text() == json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize(
        "fields",
        [{}, {"b": np.arange(3.0), "a": {"z": [1, None], "y": float("nan")}, "é": "ü"}],
        ids=["empty", "mixed"],
    )
    def test_writer_alone(self, tmp_path, fields):
        path = tmp_path / "out.json"
        write_json(path, fields)
        plain = {key: v.tolist() if isinstance(v, np.ndarray) else v for key, v in fields.items()}
        assert path.read_text() == json.dumps(plain, sort_keys=True)


# Each writer, handed a value json cannot encode (a numpy integer) in a key
# that sorts after its first, so the failure comes part-way through the file.
def _bad_result(path, result):
    replace(result, start_index=np.int64(4)).save(path)


def _bad_checkpoint(path, result):
    save_checkpoint(init_policy(6, 3, hidden=(4,), seed=0), path, meta={"epochs": np.int64(2)})


def _bad_metrics(path, result):
    table = horizon_table({"a": result, "b": result}, ["1w"])
    table["b"]["steps_per_day"] = np.int64(1)
    write_metrics_json(table, path)


def _bad_summary(path, result):
    write_summary([SWEEP_ROW], [{**FAILURE_ROW, "seed": np.int64(7)}], path)


def _bad_table(path, result):
    # write_table writes sweep.csv, pv_curves.csv, metrics.csv and learning_curve.csv
    write_table(path, ["epoch", "J_T"], [(1, -0.5), np.int64(2)])  # a row that is no row


@pytest.mark.parametrize(
    "write_bad",
    [_bad_result, _bad_checkpoint, _bad_metrics, _bad_summary, _bad_table],
    ids=["result", "checkpoint", "metrics", "summary", "table"],
)
def test_failed_write_leaves_file_untouched(tmp_path, result, write_bad):
    path = tmp_path / "artifact.json"
    path.write_text('{"previous": "artifact"}')
    with pytest.raises(TypeError, match="int64"):
        write_bad(path, result)
    assert path.read_text() == '{"previous": "artifact"}'
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact.json"]
