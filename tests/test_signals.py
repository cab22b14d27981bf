from __future__ import annotations

import numpy as np
import pytest

from signalfolio.market import MarketDataError, PriceSeries, generate_synthetic
from signalfolio.signals import (
    SignalError,
    _logits,
    _sigmoid,
    build_states,
    close_windows,
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


def signal_at(series, t):
    """Oracle of one row's signal columns in build_states: the labels at step t."""
    return series[:, t]


def predict_internal(predictor, window):
    """Oracle of one step of predictor_labels: the labels that a window of
    lags + 1 raw or normalized closes per asset gives."""
    log_rel = np.diff(np.log(window), axis=1)[:, -predictor.lags :]
    return np.where(_logits(predictor, log_rel)[:, 0] >= 0.0, 1.0, -1.0)


class TestLabelContract:
    """Each label maker returns a read-only float64 (n_assets, n_steps) array on
    {-1, 0, +1} whose final column, which has no next step, is 0."""

    @staticmethod
    def check(labels, prices):
        assert isinstance(labels, np.ndarray) and labels.dtype == np.float64
        assert not labels.flags.writeable
        assert labels.shape == (prices.n_assets, prices.n_steps)
        assert np.all(np.isin(labels, (-1.0, 0.0, 1.0)))
        assert np.all(labels[:, -1] == 0.0)

    def test_true_movements(self, noisy_market, tiny_market):
        for prices in (noisy_market, tiny_market):
            self.check(true_movements(prices), prices)

    @pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("accuracy", [0.0, 0.5, 0.7, 1.0])
    def test_oracle_labels(self, noisy_market, accuracy, density):
        truth = true_movements(noisy_market)
        for seed in (0, 7, 2024):
            self.check(oracle_labels(truth, accuracy, density, seed), noisy_market)

    @pytest.mark.parametrize("steps", [5, 6, 120], ids=lambda steps: f"{steps}-steps")
    def test_predictor_labels(self, noisy_market, steps):
        # 5 steps leave no step with 4 log relatives before it, 6 leave one
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=20, seed=0)
        prices = noisy_market.slice(0, steps)
        self.check(predictor_labels(predictor, prices), prices)


class TestTrueMovements:
    def test_monotone_increase_all_up(self):
        truth = true_movements(series_from_closes([1.0, 2.0, 3.0, 4.0]))
        assert np.all(truth[0, :3] == 1.0)
        assert truth[0, 3] == 0.0

    def test_down_then_up(self):
        truth = true_movements(series_from_closes([10.0, 9.0, 11.0]))
        assert list(truth[0, :2]) == [-1.0, 1.0]

    def test_tie_counts_up_and_is_flagged(self):
        # a flat step is flagged as a move up: a present +1 label, not an absent 0
        truth = true_movements(series_from_closes([5.0, 5.0, 4.0]))
        assert list(truth[0]) == [1.0, -1.0, 0.0]

    def test_cash_excluded(self, tiny_market):
        truth = true_movements(tiny_market)
        assert truth.shape == (2, 5)


class TestOracleLabels:
    def test_perfect_channel_equals_truth(self, noisy_market):
        truth = true_movements(noisy_market)
        labels = oracle_labels(truth, accuracy=1.0, density=1.0, seed=4)
        assert np.array_equal(labels, truth)

    def test_density_zero_all_absent(self, noisy_market):
        truth = true_movements(noisy_market)
        labels = oracle_labels(truth, accuracy=0.8, density=0.0, seed=4)
        assert np.all(labels == 0.0)

    def test_density_count_exact_per_asset(self):
        rng = np.random.default_rng(8)
        market = generate_synthetic(n_assets=3, n_steps=101, vol=0.05, seed=2)
        truth = true_movements(market)
        usable = market.n_steps - 1
        for _ in range(25):
            density = float(rng.uniform(0, 1))
            labels = oracle_labels(
                truth,
                accuracy=float(rng.uniform(0, 1)),
                density=density,
                seed=int(rng.integers(0, 10_000)),
            )
            expected = int(round(density * usable))
            present = np.count_nonzero(labels, axis=1)
            assert np.all(present == expected)

    def test_agreement_rate_concentrates(self):
        market = generate_synthetic(n_assets=1, n_steps=10_001, vol=0.05, seed=3)
        truth = true_movements(market)
        labels = oracle_labels(truth, accuracy=0.7, density=1.0, seed=12)
        usable = slice(0, market.n_steps - 1)
        agree = np.mean(labels[0, usable] == truth[0, usable])
        assert 0.685 <= agree <= 0.715

    def test_deterministic_per_seed(self, noisy_market):
        truth = true_movements(noisy_market)
        cfg = dict(accuracy=0.6, density=0.5, seed=99)
        a = oracle_labels(truth, **cfg)
        b = oracle_labels(truth, **cfg)
        assert np.array_equal(a, b)

    def test_bad_config_rejected(self, noisy_market):
        truth = true_movements(noisy_market)
        with pytest.raises(SignalError):
            oracle_labels(truth, accuracy=1.2, density=1.0, seed=0)
        with pytest.raises(SignalError):
            oracle_labels(truth, accuracy=1.0, density=-0.1, seed=0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(accuracy=1.2), "accuracy 1.2 outside [0, 1]"),
            (dict(accuracy=-0.1), "accuracy -0.1 outside [0, 1]"),
            (dict(density=-0.1), "density -0.1 outside [0, 1]"),
            (dict(density=1.5), "density 1.5 outside [0, 1]"),
        ],
    )
    def test_bad_config_messages(self, kwargs, message):
        # checked before the series, so a truth too short to label reports them
        kwargs = {"accuracy": 1.0, "density": 1.0, "seed": 0, **kwargs}
        with pytest.raises(SignalError) as err:
            oracle_labels(np.zeros((1, 1)), **kwargs)
        assert str(err.value) == message


class TestInternalPredictor:
    def test_uptrend_is_degenerate_and_perfect(self, drift_market):
        predictor = fit_internal_predictor(drift_market, lags=3, epochs=50, seed=0)
        assert predictor.degenerate[0]
        assert predictor.train_accuracy[0] == 1.0

    def test_noise_only_near_chance(self):
        market = generate_synthetic(n_assets=1, n_steps=5002, drift=0.0, vol=0.02, seed=21)
        predictor = fit_internal_predictor(market, lags=5, epochs=100, seed=1)
        assert abs(np.mean(predictor.train_accuracy) - 0.5) <= 0.05

    def test_regime_market_beats_chance_modestly(self):
        market = generate_synthetic(
                n_assets=2,
                n_steps=3000,
                drift=0.02,
                vol=0.02,
                regime_switch_prob=0.01,
                seed=5,
            )
        predictor = fit_internal_predictor(market, lags=8, epochs=300, lr=1.0, seed=2)
        assert 0.52 <= np.mean(predictor.train_accuracy) <= 0.95

    def test_too_short_history_rejected(self, tiny_market):
        with pytest.raises(MarketDataError):
            fit_internal_predictor(tiny_market, lags=5, epochs=200, seed=0)

    def test_lags_below_one_rejected(self, noisy_market):
        with pytest.raises(SignalError, match="lags must be >= 1"):
            fit_internal_predictor(noisy_market, lags=0, epochs=200, seed=0)

    def test_predict_labels_binary(self, noisy_market):
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=20, seed=0)
        labels = predictor_labels(predictor, noisy_market)[:, 4:-1]
        assert set(np.unique(labels)) <= {-1.0, 1.0}

    def test_window_too_short_rejected(self, noisy_market):
        # a step needs lags log relatives before it: none of 5 steps has 4
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=5, seed=0)
        assert np.all(predictor_labels(predictor, noisy_market.slice(0, 5)) == 0.0)
        assert np.all(predictor_labels(predictor, noisy_market.slice(0, 6))[:, 4] != 0.0)

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
        assert rising[0, lags] == 1.0
        assert falling[0, lags] == -1.0

    def test_predictor_labels_match_stepwise_predictions(self, noisy_market):
        predictor = fit_internal_predictor(noisy_market, lags=4, epochs=30, seed=2)
        series = predictor_labels(predictor, noisy_market)
        closes = noisy_market.close[1:]
        for t in range(4, noisy_market.n_steps - 1):
            expected = predict_internal(predictor, closes[:, t - 4 : t + 1])
            assert np.array_equal(series[:, t], expected)

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
        predictor = fit_internal_predictor(noisy_market, lags=6, epochs=10, seed=0)
        series = predictor_labels(predictor, noisy_market)
        assert np.all(series[:, :6] == 0.0)
        assert np.all(series[:, -1] == 0.0)
        assert np.all(series[:, 6] != 0.0)


class TestAugment:
    """Observation rows: each asset's normalized close window, then its signal."""

    def test_last_column_normalized_to_one(self):
        prices = series_from_closes([10.0, 12.0, 8.0, 9.0, 9.5], [5.0, 5.5, 5.0, 6.0, 6.1])
        obs = build_states(prices, None, window=3)
        assert np.all(close_windows(obs, 2)[:, :, -1] == 1.0)
        assert np.allclose(close_windows(obs, 2)[0, 0], [1.25, 1.5, 1.0])

    def test_absent_signal_zero_filled(self):
        prices = series_from_closes(*np.full((3, 6), 2.0))
        obs = build_states(prices, None, window=4)
        assert np.array_equal(obs[:, -3:], np.zeros((len(obs), 3)))

    def test_standard_dimensions(self):
        closes = np.abs(np.random.default_rng(0).normal(10, 1, size=(9, 32)))
        prices = series_from_closes(*closes)
        obs = build_states(prices, np.ones((9, 32)), window=30)
        assert obs.shape == (len(obs), 279) == (len(obs), state_dim(9, 30))

    def test_rejects_nonpositive_window(self):
        # prices are validated where they enter, so no observation can see them
        with pytest.raises(MarketDataError):
            series_from_closes([1.0, -2.0, 1.0, 1.0])

    def test_rows_match_hand_built_state(self, noisy_market):
        labels = oracle_labels(true_movements(noisy_market), accuracy=0.7, density=0.6, seed=3)
        w = 8
        obs = build_states(noisy_market, labels, window=w)
        closes = noisy_market.close[1:]
        assert len(obs) == len(decision_indices(noisy_market.n_steps, w))
        for row, t in zip(obs, decision_indices(noisy_market.n_steps, w)):
            window = closes[:, t - w + 1 : t + 1] / closes[:, t : t + 1]
            expected = np.concatenate([window.ravel(), signal_at(labels, t)])
            assert np.array_equal(row, expected)

    def test_close_windows_match_hand_built_windows(self, noisy_market):
        w = 8
        windows = close_windows(build_states(noisy_market, None, window=w), 2)
        closes = noisy_market.close[1:]
        assert windows.shape == (noisy_market.n_steps - w, 2, w)
        for got, t in zip(windows, decision_indices(noisy_market.n_steps, w)):
            assert np.array_equal(got, closes[:, t - w + 1 : t + 1] / closes[:, t : t + 1])

    @pytest.mark.parametrize(
        "shape", [(10, 17), (10, 2), (18,), (2, 9, 2)], ids=["odd-width", "no-window", "1-d", "3-d"]
    )
    def test_close_windows_rejects_other_widths(self, shape):
        # 2 assets at window w take 2w + 2 columns: 17 is odd and 2 leaves no window
        with pytest.raises(SignalError):
            close_windows(np.zeros(shape), 2)


class TestStateAssembly:
    def test_decision_indices_range(self):
        assert list(decision_indices(10, 4)) == [3, 4, 5, 6, 7, 8]

    def test_states_align_with_signals(self, noisy_market):
        truth = true_movements(noisy_market)
        obs = build_states(noisy_market, truth, window=8)
        steps = decision_indices(noisy_market.n_steps, 8)
        assert len(obs) == len(steps)
        assert steps[0] == 7
        assert steps[-1] == noisy_market.n_steps - 2
        assert np.array_equal(obs[:5, -2:], truth[:, 7:12].T)

    def test_too_short_series_rejected(self, tiny_market):
        with pytest.raises(MarketDataError):
            build_states(tiny_market, None, window=5)

    def test_mismatched_signal_shape_rejected(self, tiny_market):
        bad = np.zeros((1, 5))
        with pytest.raises(SignalError):
            build_states(tiny_market, bad, window=2)

