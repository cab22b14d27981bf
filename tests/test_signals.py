from __future__ import annotations

import numpy as np
import pytest

from signalfolio.market import MarketDataError, PriceSeries, SyntheticMarketSpec, generate_synthetic
from signalfolio.signals import (
    SignalConfig,
    SignalError,
    SignalSeries,
    _logits,
    _sigmoid,
    build_states,
    decision_indices,
    fit_internal_predictor,
    oracle_labels,
    predictor_labels,
    state_dim,
    true_movements,
)


def series_from_closes(*rows):
    rows = np.asarray(rows, dtype=float)
    close = np.vstack([np.ones((1, rows.shape[1])), rows])
    return PriceSeries(
        close=close,
        timestamps=tuple(range(rows.shape[1])),
        assets=tuple(f"A{i+1}" for i in range(rows.shape[0])),
    )


def signal_at(series, t, lookback=1):
    """Oracle of one row's signal columns in build_states: labels averaged
    over the last `lookback` steps up to t, truncated at the series start."""
    start = max(0, t - lookback + 1)
    return series.values[:, start : t + 1].mean(axis=1)


def predict_internal(predictor, window):
    """Oracle of one step of predictor_labels: the labels that a window of
    lags + 1 raw or normalized closes per asset gives."""
    log_rel = np.diff(np.log(window), axis=1)[:, -predictor.lags :]
    return np.where(_logits(predictor, log_rel)[:, 0] >= 0.0, 1.0, -1.0)


class TestTrueMovements:
    def test_monotone_increase_all_up(self):
        truth = true_movements(series_from_closes([1.0, 2.0, 3.0, 4.0]))
        assert np.all(truth.values[0, :3] == 1.0)
        assert truth.values[0, 3] == 0.0

    def test_down_then_up(self):
        truth = true_movements(series_from_closes([10.0, 9.0, 11.0]))
        assert list(truth.values[0, :2]) == [-1.0, 1.0]

    def test_tie_counts_up_and_is_flagged(self):
        # a flat step is flagged as a move up: a present +1 label, not an absent 0
        truth = true_movements(series_from_closes([5.0, 5.0, 4.0]))
        assert list(truth.values[0]) == [1.0, -1.0, 0.0]

    def test_cash_excluded(self, tiny_market):
        truth = true_movements(tiny_market)
        assert truth.values.shape == (2, 5)


class TestOracleLabels:
    def test_perfect_channel_equals_truth(self, noisy_market):
        truth = true_movements(noisy_market)
        labels = oracle_labels(truth, SignalConfig(accuracy=1.0, density=1.0, seed=4))
        assert np.array_equal(labels.values, truth.values)

    def test_density_zero_all_absent(self, noisy_market):
        truth = true_movements(noisy_market)
        labels = oracle_labels(truth, SignalConfig(accuracy=0.8, density=0.0, seed=4))
        assert np.all(labels.values == 0.0)

    def test_density_count_exact_per_asset(self):
        rng = np.random.default_rng(8)
        market = generate_synthetic(
            SyntheticMarketSpec(n_assets=3, n_steps=101, vol=0.05, seed=2)
        )
        truth = true_movements(market)
        usable = market.n_steps - 1
        for _ in range(25):
            density = float(rng.uniform(0, 1))
            cfg = SignalConfig(
                accuracy=float(rng.uniform(0, 1)),
                density=density,
                seed=int(rng.integers(0, 10_000)),
            )
            labels = oracle_labels(truth, cfg)
            expected = int(round(density * usable))
            present = np.count_nonzero(labels.values, axis=1)
            assert np.all(present == expected)

    def test_agreement_rate_concentrates(self):
        market = generate_synthetic(
            SyntheticMarketSpec(n_assets=1, n_steps=10_001, vol=0.05, seed=3)
        )
        truth = true_movements(market)
        labels = oracle_labels(truth, SignalConfig(accuracy=0.7, density=1.0, seed=12))
        usable = slice(0, market.n_steps - 1)
        agree = np.mean(labels.values[0, usable] == truth.values[0, usable])
        assert 0.685 <= agree <= 0.715

    def test_deterministic_per_seed(self, noisy_market):
        truth = true_movements(noisy_market)
        cfg = SignalConfig(accuracy=0.6, density=0.5, seed=99)
        a = oracle_labels(truth, cfg)
        b = oracle_labels(truth, cfg)
        assert np.array_equal(a.values, b.values)

    def test_bad_config_rejected(self):
        with pytest.raises(SignalError):
            SignalConfig(accuracy=1.2)
        with pytest.raises(SignalError):
            SignalConfig(density=-0.1)


class TestInternalPredictor:
    def test_uptrend_is_degenerate_and_perfect(self, drift_market):
        predictor = fit_internal_predictor(drift_market, lags=3, epochs=50)
        assert predictor.degenerate[0]
        assert predictor.train_accuracy[0] == 1.0

    def test_noise_only_near_chance(self):
        market = generate_synthetic(
            SyntheticMarketSpec(n_assets=1, n_steps=5002, drift=0.0, vol=0.02, seed=21)
        )
        predictor = fit_internal_predictor(market, lags=5, epochs=100, seed=1)
        assert abs(np.mean(predictor.train_accuracy) - 0.5) <= 0.05

    def test_regime_market_beats_chance_modestly(self):
        market = generate_synthetic(
            SyntheticMarketSpec(
                n_assets=2,
                n_steps=3000,
                drift=0.02,
                vol=0.02,
                regime_switch_prob=0.01,
                seed=5,
            )
        )
        predictor = fit_internal_predictor(market, lags=8, epochs=300, lr=1.0, seed=2)
        assert 0.52 <= np.mean(predictor.train_accuracy) <= 0.95

    def test_too_short_history_rejected(self, tiny_market):
        with pytest.raises(MarketDataError):
            fit_internal_predictor(tiny_market, lags=5)

    def test_predict_labels_binary(self, noisy_market):
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=20)
        labels = predictor_labels(predictor, noisy_market).values[:, 4:-1]
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_window_too_short_rejected(self, noisy_market):
        # a step needs lags log relatives before it: none of 5 steps has 4
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=5)
        assert np.all(predictor_labels(predictor, noisy_market.slice(0, 5)).values == 0.0)
        assert np.all(predictor_labels(predictor, noisy_market.slice(0, 6)).values[:, 4] != 0.0)

    def test_mirrored_window_flips_logit_sign(self):
        from signalfolio.signals import MovementPredictor

        lags = 4
        predictor = MovementPredictor(
            weights=np.ones((1, lags)),
            bias=np.zeros(1),
            lags=lags,
            train_accuracy=np.ones(1),
            degenerate=np.zeros(1, dtype=bool),
        )
        # step 4 of a 6-step series reads the log relatives of closes 0..4
        closes = [1.0, 1.1, 1.25, 1.3, 1.6]
        rising = predictor_labels(predictor, series_from_closes(closes + [1.0]))
        falling = predictor_labels(predictor, series_from_closes(closes[::-1] + [1.0]))
        assert rising.values[0, lags] == 1.0
        assert falling.values[0, lags] == -1.0

    def test_predictor_labels_match_stepwise_predictions(self, noisy_market):
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=30, seed=2)
        series = predictor_labels(predictor, noisy_market)
        closes = noisy_market.close[1:]
        for t in range(4, noisy_market.n_steps - 1):
            expected = predict_internal(predictor, closes[:, t - 4 : t + 1])
            assert np.array_equal(series.values[:, t], expected)

    @pytest.mark.filterwarnings("error")
    def test_sigmoid_bitwise_equals_two_branch_form(self):
        def two_branch(z):
            out = np.empty_like(z)
            pos = z >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
            ez = np.exp(z[~pos])
            out[~pos] = ez / (1.0 + ez)
            return out

        edges = [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 800.0, -800.0, 1e308, -1e308]
        z = np.concatenate(
            [np.random.default_rng(4).normal(0.0, 30.0, 200_000), edges, [np.inf, -np.inf]]
        )
        assert _sigmoid(z).tobytes() == two_branch(z).tobytes()

    def test_predictor_labels_absent_until_history(self, noisy_market):
        predictor = fit_internal_predictor(noisy_market, lags=6, epochs=10)
        series = predictor_labels(predictor, noisy_market)
        assert np.all(series.values[:, :6] == 0.0)
        assert np.all(series.values[:, -1] == 0.0)
        assert np.all(series.values[:, 6] != 0.0)


class TestAugment:
    """Observation rows: each asset's normalized close window, then its signal."""

    def test_last_column_normalized_to_one(self):
        prices = series_from_closes([10.0, 12.0, 8.0, 9.0, 9.5], [5.0, 5.5, 5.0, 6.0, 6.1])
        obs = build_states(prices, window=3)
        assert np.all(obs.windows[:, :, -1] == 1.0)
        assert np.allclose(obs.windows[0, 0], [1.25, 1.5, 1.0])

    def test_absent_signal_zero_filled(self):
        prices = series_from_closes(*np.full((3, 6), 2.0))
        obs = build_states(prices, None, window=4)
        assert np.array_equal(obs.signals, np.zeros((len(obs), 3)))

    def test_standard_dimensions(self):
        closes = np.abs(np.random.default_rng(0).normal(10, 1, size=(9, 32)))
        prices = series_from_closes(*closes)
        obs = build_states(prices, SignalSeries(values=np.ones((9, 32))), window=30)
        assert obs.matrix.shape == (len(obs), 279) == (len(obs), state_dim(9, 30))

    def test_rejects_nonpositive_window(self):
        # prices are validated where they enter, so no observation can see them
        with pytest.raises(MarketDataError):
            series_from_closes([1.0, -2.0, 1.0, 1.0])

    @pytest.mark.parametrize("lookback", [1, 12])
    def test_rows_match_hand_built_state(self, noisy_market, lookback):
        # window 8 and lookback 12 truncate the signal average at the start
        labels = oracle_labels(
            true_movements(noisy_market), SignalConfig(accuracy=0.7, density=0.6, seed=3)
        )
        w = 8
        obs = build_states(noisy_market, labels, window=w, lookback=lookback)
        closes = noisy_market.close[1:]
        assert len(obs) == len(decision_indices(noisy_market.n_steps, w))
        for row, t in zip(obs.matrix, obs.steps):
            window = closes[:, t - w + 1 : t + 1] / closes[:, t : t + 1]
            expected = np.concatenate([window.ravel(), signal_at(labels, t, lookback)])
            assert np.array_equal(row, expected)


class TestStateAssembly:
    def test_decision_indices_range(self):
        assert list(decision_indices(10, 4)) == [3, 4, 5, 6, 7, 8]

    def test_states_align_with_signals(self, noisy_market):
        truth = true_movements(noisy_market)
        obs = build_states(noisy_market, truth, window=8)
        assert obs.steps[0] == 7
        assert obs.steps[-1] == noisy_market.n_steps - 2
        assert np.array_equal(obs.signals[:5], truth.values[:, 7:12].T)

    def test_lookback_averages_recent_labels(self):
        # window 3 makes step 2 the first decision row
        prices = series_from_closes([1.0, 2.0, 3.0, 4.0, 5.0])
        series = SignalSeries(values=np.array([[1.0, -1.0, 1.0, 0.0, 0.0]]))
        assert build_states(prices, series, window=3, lookback=1).signals[0, 0] == 1.0
        third = build_states(prices, series, window=3, lookback=3).signals[0, 0]
        assert third == pytest.approx(1.0 / 3.0)

    def test_too_short_series_rejected(self, tiny_market):
        with pytest.raises(MarketDataError):
            build_states(tiny_market, window=5)

    def test_mismatched_signal_shape_rejected(self, tiny_market):
        bad = SignalSeries(values=np.zeros((1, 5)))
        with pytest.raises(SignalError):
            build_states(tiny_market, bad, window=2)


class TestSignalSeries:
    def test_discrete_values_validated(self):
        with pytest.raises(SignalError):
            SignalSeries(values=np.array([[0.5]]))
