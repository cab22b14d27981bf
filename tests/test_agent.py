from __future__ import annotations

import numpy as np
import pytest

from signalfolio.agent import (
    Episode,
    PolicyParams,
    TrainConfig,
    TrainingDivergedError,
    ascent_step,
    gradient,
    init_policy,
    load_checkpoint,
    objective,
    policy_forward,
    save_checkpoint,
    train,
)
from signalfolio.engine import CostModel, run_backtest
from signalfolio.market import PriceSeries, SyntheticMarketSpec, generate_synthetic
from signalfolio.signals import SignalConfig, oracle_labels, true_movements

LN_1_01 = 0.009950330853168092

NO_COST = CostModel(c_buy=0.0, c_sell=0.0)


def _zero_params(input_dim: int, n_actions: int, hidden=(8,)) -> PolicyParams:
    params = init_policy(input_dim, n_actions, hidden=hidden, seed=0)
    for w in params.weights:
        w[:] = 0.0
    for b in params.biases:
        b[:] = 0.0
    return params


class TestPolicyForward:
    def test_zero_params_uniform(self):
        params = _zero_params(12, 3)
        out = policy_forward(params, np.zeros(12))
        assert np.allclose(out, 1.0 / 3.0, atol=1e-15)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(3)
        params = init_policy(20, 4, hidden=(16, 8), seed=7)
        for _ in range(50):
            out = policy_forward(params, rng.normal(0, 2, 20))
            assert np.all(out > 0)
            assert abs(out.sum() - 1.0) < 1e-12

    def test_large_output_bias_saturates(self):
        params = _zero_params(10, 3)
        params.biases[-1][0] = 30.0
        out = policy_forward(params, np.ones(10))
        assert out[0] > 0.99

    @pytest.mark.parametrize(
        "input_dim,hidden", [(248, (64,)), (33, (32,)), (39, (32,)), (20, (16, 8))]
    )
    def test_batch_equals_rows(self, input_dim, hidden):
        rng = np.random.default_rng(input_dim)
        params = init_policy(input_dim, 4, hidden=hidden, seed=3)
        x = rng.normal(0, 1, (90, input_dim))
        rows = np.stack([policy_forward(params, row) for row in x])
        assert np.array_equal(policy_forward(params, x), rows)

    def test_parameter_count(self):
        params = init_policy(10, 3, hidden=(16,), seed=0)
        assert params.n_parameters() == 10 * 16 + 16 + 16 * 3 + 3

    def test_init_deterministic(self):
        a = init_policy(10, 3, hidden=(16,), seed=5)
        b = init_policy(10, 3, hidden=(16,), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


def _drift_prices(n_steps: int = 80, rate: float = 1.01) -> PriceSeries:
    close = np.ones((2, n_steps))
    close[1] = rate ** np.arange(n_steps)
    return PriceSeries(close=close, timestamps=tuple(range(n_steps)), assets=("UP",))


class TestObjective:
    def test_all_in_on_steady_gain(self):
        prices = _drift_prices()
        episode = Episode.from_market(prices, window=10)
        params = _zero_params(episode.states.shape[1], 2)
        params.biases[-1][1] = 40.0
        j = objective(params, episode, NO_COST)
        assert j == pytest.approx(LN_1_01, rel=1e-9)

    def test_matches_backtest_mean_reward(self):
        spec = SyntheticMarketSpec(n_assets=3, n_steps=90, vol=0.02, seed=11)
        prices = generate_synthetic(spec)
        episode = Episode.from_market(prices, window=10)
        params = init_policy(episode.states.shape[1], 4, hidden=(8,), seed=2)
        cm = CostModel()
        j = objective(params, episode, cm)
        result = run_backtest(
            prices, lambda obs: policy_forward(params, obs.matrix), None, cm, window=10
        )
        assert j == pytest.approx(result.rewards.mean(), abs=1e-10)


class TestGradient:
    def test_zero_on_flat_market(self):
        close = np.ones((3, 40))
        close[1] = 4.0
        close[2] = 2.0
        prices = PriceSeries(close=close, timestamps=tuple(range(40)), assets=("A", "B"))
        episode = Episode.from_market(prices, window=6)
        params = init_policy(episode.states.shape[1], 3, hidden=(8,), seed=0)
        gw, gb = gradient(params, episode, NO_COST)
        # every allocation earns log(1) on a flat market, so the landscape
        # is exactly level
        for g in gw + gb:
            assert np.allclose(g, 0.0, atol=1e-14)

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_matches_finite_differences(self, mode):
        from signalfolio.agent import episode_betas

        spec = SyntheticMarketSpec(n_assets=2, n_steps=50, vol=0.03, seed=21)
        prices = generate_synthetic(spec)
        episode = Episode.from_market(prices, window=8)
        params = init_policy(episode.states.shape[1], 3, hidden=(6,), seed=4)
        cm = CostModel(mode=mode)
        gw, gb = gradient(params, episode, cm)
        frozen = episode_betas(params, episode, cm) if mode == "fixed_point" else None
        eps = 1e-5
        rng = np.random.default_rng(0)
        checked = 0
        for layer in range(len(params.weights)):
            flat = params.weights[layer].ravel()
            g_flat = gw[layer].ravel()
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                original = flat[idx]
                flat[idx] = original + eps
                up = objective(params, episode, cm, frozen_betas=frozen)
                flat[idx] = original - eps
                down = objective(params, episode, cm, frozen_betas=frozen)
                flat[idx] = original
                fd = (up - down) / (2 * eps)
                if abs(g_flat[idx]) > 1e-8:
                    assert fd == pytest.approx(g_flat[idx], rel=2e-4)
                    checked += 1
        assert checked >= 6

    def test_ascent_improves_objective(self):
        spec = SyntheticMarketSpec(n_assets=2, n_steps=70, drift=0.004, vol=0.01, seed=3)
        prices = generate_synthetic(spec)
        episode = Episode.from_market(prices, window=8)
        params = init_policy(episode.states.shape[1], 3, hidden=(8,), seed=1)
        cm = CostModel()
        before = objective(params, episode, cm)
        for _ in range(25):
            gw, gb = gradient(params, episode, cm)
            ascent_step(params, (gw, gb), 1.0)
        assert objective(params, episode, cm) > before


class TestTrain:
    def _market(self, seed=17, n_steps=140):
        spec = SyntheticMarketSpec(
            n_assets=2, n_steps=n_steps, drift=0.002, vol=0.015, seed=seed
        )
        return generate_synthetic(spec)

    def _cfg(self, **kw):
        base = dict(
            learning_rate=1.0, batch_window=32, epochs=4, seed=0, window=8
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_zero_learning_rate_freezes_params(self):
        prices = self._market()
        params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
        snapshot = params.copy()
        trained, curve = train(params, prices, None, CostModel(), self._cfg(learning_rate=0.0))
        for w0, w1 in zip(snapshot.weights, trained.weights):
            assert np.array_equal(w0, w1)
        assert len(curve) == 4
        assert len(set(curve)) == 1

    def test_zero_epochs_empty_curve(self):
        prices = self._market()
        params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
        trained, curve = train(params, prices, None, CostModel(), self._cfg(epochs=0))
        assert curve == []
        for w0, w1 in zip(params.weights, trained.weights):
            assert np.array_equal(w0, w1)

    def test_input_params_not_mutated(self):
        prices = self._market()
        params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
        snapshot = params.copy()
        train(params, prices, None, CostModel(), self._cfg())
        for w0, w1 in zip(snapshot.weights, params.weights):
            assert np.array_equal(w0, w1)

    def test_bitwise_deterministic(self):
        prices = self._market()
        runs = []
        for _ in range(2):
            params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
            trained, curve = train(params, prices, None, CostModel(), self._cfg())
            runs.append((trained, curve))
        assert runs[0][1] == runs[1][1]
        for w0, w1 in zip(runs[0][0].weights, runs[1][0].weights):
            assert np.array_equal(w0, w1)

    def test_learns_persistent_winner(self):
        # one asset compounds at a steady 1% against flat cash; the policy
        # should end up nearly all-in and close to the per-step log gain
        prices = _drift_prices(n_steps=160)
        params = init_policy(1 * 8, 2, hidden=(8,), seed=0)
        cfg = TrainConfig(
            learning_rate=2.0, batch_window=40, epochs=120, seed=0, window=8
        )
        trained, curve = train(params, prices, None, NO_COST, cfg)
        episode = Episode.from_market(prices, window=8, signal_dim=0)
        final_actions = np.stack(
            [policy_forward(trained, s) for s in episode.states]
        )
        assert final_actions[:, 1].mean() > 0.95
        assert curve[-1] > 0.95 * LN_1_01

    def test_signal_column_feeds_policy(self):
        # identical prices, but only one run sees a perfect movement signal;
        # the informed run must not do worse on its own training objective
        spec = SyntheticMarketSpec(
            n_assets=2, n_steps=180, vol=0.02, regime_switch_prob=0.05, seed=29
        )
        prices = generate_synthetic(spec)
        labels = oracle_labels(
            true_movements(prices), SignalConfig(accuracy=1.0, density=1.0, seed=0)
        )
        cfg = TrainConfig(learning_rate=2.0, batch_window=40, epochs=60, seed=0, window=8)
        scores = {}
        for name, sig in (("informed", labels), ("blind", None)):
            params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=1)
            _, curve = train(params, prices, sig, NO_COST, cfg)
            scores[name] = curve[-1]
        assert scores["informed"] >= scores["blind"]

    def test_non_finite_params_raise(self):
        prices = self._market()
        params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
        params.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train(params, prices, None, CostModel(), self._cfg())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_policy(14, 4, hidden=(8, 6), seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, meta={"epochs_trained": 12})
        loaded, meta = load_checkpoint(path)
        assert meta["epochs_trained"] == 12
        assert loaded.hidden_sizes == (8, 6)
        for w0, w1 in zip(params.weights, loaded.weights):
            assert np.array_equal(w0, w1)
        for b0, b1 in zip(params.biases, loaded.biases):
            assert np.array_equal(b0, b1)

    def test_resume_equals_continuous_run(self, tmp_path):
        # training 2 then 2 more epochs with a reseeded second leg is the
        # documented resume semantics; verify the halves at least load and
        # keep improving without error
        spec = SyntheticMarketSpec(n_assets=2, n_steps=120, drift=0.002, vol=0.01, seed=5)
        prices = generate_synthetic(spec)
        params = init_policy(2 * 8, 3, hidden=(8,), seed=2)
        cfg = TrainConfig(learning_rate=1.0, batch_window=30, epochs=2, seed=0, window=8)
        first, curve1 = train(params, prices, None, CostModel(), cfg)
        path = tmp_path / "ckpt.json"
        save_checkpoint(first, path, meta={"epochs_trained": 2})
        loaded, meta = load_checkpoint(path)
        second, curve2 = train(loaded, prices, None, CostModel(), cfg)
        assert meta["epochs_trained"] == 2
        assert len(curve1) == len(curve2) == 2
        assert np.isfinite(curve2).all()

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_checkpoint(path)
