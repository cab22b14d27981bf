from __future__ import annotations

import json

import numpy as np
import pytest

from signalfolio.baselines import ew_policy
from signalfolio.engine import BacktestResult, CostModel, EngineError, run_backtest
from signalfolio.evaluation import (
    horizon_steps,
    horizon_table,
    portfolio_value,
    sharpe_ratio,
    write_metrics_csv,
    write_metrics_json,
)
from signalfolio.market import generate_synthetic
from signalfolio.signals import build_states

SHARPE_TWO_POINT = 19.799999999999994


def fake_result(factors) -> BacktestResult:
    factors = np.asarray(factors, dtype=float)
    uniform = np.full((factors.size, 2), 0.5)
    return BacktestResult(0, uniform, uniform, np.ones(factors.size), factors)


class TestPortfolioValue:
    def test_matches_pv_tail(self):
        result = fake_result([1.05, 0.98, 1.02])
        assert portfolio_value(result) == pytest.approx(result.pv[-1], rel=1e-12)

    def test_reward_order_irrelevant(self):
        a = fake_result([1.05, 0.9, 1.2])
        b = fake_result([1.2, 1.05, 0.9])
        assert portfolio_value(a) == pytest.approx(portfolio_value(b), rel=1e-12)

    def test_doubling(self):
        assert portfolio_value(fake_result([2.0])) == pytest.approx(2.0, rel=1e-12)


class TestSharpe:
    def test_two_point_frozen_value(self):
        result = fake_result([1.1, 0.9])
        assert sharpe_ratio(result, 2) == pytest.approx(SHARPE_TWO_POINT, abs=1e-12)
        assert abs(sharpe_ratio(result, 2) - 19.8) < 1e-10

    def test_matches_direct_recompute(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            factors = np.exp(rng.normal(0, 0.04, int(rng.integers(3, 50))))
            result = fake_result(factors)
            h = int(rng.integers(2, factors.size + 1))
            expected = (factors[:h].sum() - 0.02) / np.std(factors[:h])
            assert sharpe_ratio(result, h) == pytest.approx(expected, abs=1e-10)

    def test_risk_free_shifts_numerator(self):
        result = fake_result([1.1, 0.9])
        zero_rf = sharpe_ratio(result, 2, r_free=0.0)
        assert zero_rf == pytest.approx(2.0 / 0.1, abs=1e-12)

    def test_constant_factors_give_nan(self):
        result = fake_result([1.05, 1.05, 1.05])
        assert np.isnan(sharpe_ratio(result, 3))

    def test_horizon_ignores_later_steps(self):
        short = fake_result([1.1, 0.9, 1.02])
        long = fake_result([1.1, 0.9, 1.02, 1.5, 0.7])
        assert sharpe_ratio(short, 3) == pytest.approx(sharpe_ratio(long, 3), abs=1e-12)

    def test_bad_horizons_raise(self):
        result = fake_result([1.1, 0.9])
        with pytest.raises(EngineError):
            sharpe_ratio(result, 1)
        with pytest.raises(EngineError):
            sharpe_ratio(result, 3)


class TestHorizonSteps:
    def test_daily_trading_spans(self):
        assert horizon_steps("1w") == 5
        assert horizon_steps("2w") == 10
        assert horizon_steps("1m") == 21
        assert horizon_steps("3d") == 3

    def test_intraday_calendar_spans(self):
        assert horizon_steps("1w", steps_per_day=48) == 7 * 48
        assert horizon_steps("1m", steps_per_day=48) == 30 * 48
        assert horizon_steps("2d", steps_per_day=12) == 24

    def test_case_and_whitespace_tolerant(self):
        assert horizon_steps(" 1W ") == 5

    def test_invalid_labels(self):
        for label in ("", "w", "1y", "0w", "-1d", "1.5m"):
            with pytest.raises(EngineError):
                horizon_steps(label)
        with pytest.raises(EngineError):
            horizon_steps("1w", steps_per_day=0)


class TestHorizonTable:
    def _results(self):
        rng = np.random.default_rng(2)
        return {
            "alpha": fake_result(np.exp(rng.normal(0.001, 0.03, 30))),
            "beta": fake_result(np.exp(rng.normal(-0.001, 0.02, 30))),
        }

    def test_reports_cover_all_strategies_and_horizons(self):
        table = horizon_table(self._results(), ["1w", "2w", "1m"])
        assert set(table) == {"alpha", "beta"}
        for row in table.values():
            assert set(row["sharpe_by_horizon"]) == {"1w", "2w", "1m"}
            assert row["r_free"] == 0.02

    def test_table_values_match_scalar_calls(self):
        results = self._results()
        table = horizon_table(results, ["1w", "1m"])
        for name, result in results.items():
            assert table[name]["sharpe_by_horizon"]["1w"] == pytest.approx(
                sharpe_ratio(result, 5), abs=1e-12
            )
            assert table[name]["final_pv"] == pytest.approx(
                portfolio_value(result), rel=1e-12
            )

    def test_empty_inputs_raise(self):
        with pytest.raises(EngineError):
            horizon_table({}, ["1w"])
        with pytest.raises(EngineError):
            horizon_table(self._results(), [])

    def test_constant_strategy_gets_nan_not_error(self, tmp_path):
        results = {"flat": fake_result(np.ones(30)), "live": self._results()["alpha"]}
        table = horizon_table(results, ["1w"])
        assert np.isnan(table["flat"]["sharpe_by_horizon"]["1w"])
        assert np.isfinite(table["live"]["sharpe_by_horizon"]["1w"])
        path = tmp_path / "metrics.json"
        write_metrics_json(table, path)
        assert json.loads(path.read_text())["flat"]["sharpe_by_horizon"]["1w"] is None

    def test_backtest_feeds_table(self):
        prices = generate_synthetic(n_assets=2, n_steps=60, vol=0.02, seed=31)
        result = run_backtest(prices, build_states(prices, None, 10), ew_policy(3), CostModel())
        table = horizon_table({"ew": result}, ["1w", "2w"])
        assert np.isfinite(table["ew"]["sharpe_by_horizon"]["2w"])


def metrics_row(final_pv, sharpes):
    return {"final_pv": final_pv, "sharpe_by_horizon": sharpes, "steps_per_day": 1, "r_free": 0.02}


class TestWriters:
    def _table(self):
        return {
            "b_strategy": metrics_row(1.5, {"1w": 2.0, "1m": 3.0}),
            "a_strategy": metrics_row(1.2, {"1w": -1.0, "1m": 0.5}),
        }

    def test_csv_sorted_and_complete(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(self._table(), ["1w", "1m"], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "strategy,final_pv,1w,1m"
        assert lines[1].startswith("a_strategy,")
        assert lines[2].startswith("b_strategy,")
        assert "2.0" in lines[2]

    def test_json_round_trips(self, tmp_path):
        path = tmp_path / "metrics.json"
        write_metrics_json(self._table(), path)
        loaded = json.loads(path.read_text())
        assert loaded["a_strategy"]["final_pv"] == 1.2
        assert loaded["b_strategy"]["sharpe_by_horizon"]["1m"] == 3.0

    def test_writers_deterministic(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(self._table(), ["1w", "1m"], first)
        write_metrics_csv(self._table(), ["1w", "1m"], second)
        assert first.read_bytes() == second.read_bytes()
