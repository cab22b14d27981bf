from __future__ import annotations

import multiprocessing
import os
import threading
import traceback
import tracemalloc
from functools import partial

import numpy as np
import pytest

from scalar import episode, window_gradient
from signalfolio import agent
from signalfolio.agent import (
    PolicyParams,
    TrainingDivergedError,
    _lockstep_grads,
    gradient,
    init_policy,
    load_checkpoint,
    objective,
    policy_forward,
    save_checkpoint,
    train,
)
from signalfolio.engine import CostModel, ConvergenceError, EngineError, all_cash, run_backtest
from signalfolio.market import PriceSeries, chronological_split, generate_synthetic
from signalfolio.signals import (
    SignalError,
    build_states,
    oracle_labels,
    signal_columns,
    state_dim,
    true_movements,
)

LN_1_01 = 0.009950330853168092

NO_COST = CostModel(c_buy=0.0, c_sell=0.0)


def rngs(seeds) -> list[np.random.Generator]:
    """Fresh training samplers, one per seed."""
    return [np.random.default_rng(seed) for seed in seeds]


def settings(**kw) -> dict:
    """agent.train's keyword settings: kw, and one pass per epoch unless kw sets steps_per_epoch."""
    return {"steps_per_epoch": None, **kw}


def train_one(params, prices, signals, cm, cfg, rng=None):
    """Train a group of one cell on rng, or a fresh sampler; raise the error that stopped it."""
    [outcome] = train([params], prices, [signals], cm, [rng or np.random.default_rng(0)], **cfg)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def _copy(params: PolicyParams) -> PolicyParams:
    return PolicyParams(params.theta.copy(), params.shapes)


def ascent_step(params: PolicyParams, grads, lr: float) -> None:
    """One-cell oracle of a training step: in-place ascent on each layer by its gradient."""
    grads_w, grads_b = grads
    for layer in range(len(params.weights)):
        params.weights[layer] += lr * grads_w[layer]
        params.biases[layer] += lr * grads_b[layer]


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

    def test_init_deterministic(self):
        a = init_policy(10, 3, hidden=(16,), seed=5)
        b = init_policy(10, 3, hidden=(16,), seed=5)
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


class TestPolicyParams:
    def test_layer_views_write_theta(self):
        # the finite-difference check perturbs weights[l] entries in place
        params = init_policy(12, 3, hidden=(8,), seed=1)
        x = np.linspace(-1.0, 1.0, 12)
        before, theta = policy_forward(params, x), params.theta.copy()
        params.weights[1][2, 5] += 0.5
        assert np.flatnonzero(params.theta != theta).tolist() == [8 * 12 + 2 * 8 + 5]
        after = policy_forward(params, x)
        assert not np.array_equal(after, before)
        params.biases[0][3] += 0.5
        assert np.flatnonzero(params.theta != theta).tolist() == [
            8 * 12 + 2 * 8 + 5,
            8 * 12 + 3 * 8 + 3,
        ]
        assert not np.array_equal(policy_forward(params, x), after)

    def test_from_layers_copies_its_inputs(self):
        weights = [np.ones((4, 3)), np.ones((2, 4))]
        biases = [np.zeros(4), np.zeros(2)]
        params = PolicyParams.from_layers(weights, biases)
        weights[0][0, 0], biases[1][0] = 5.0, 5.0
        assert params.weights[0][0, 0] == 1.0 and params.biases[1][0] == 0.0
        params.weights[1][0, 0], params.biases[0][1] = 7.0, 7.0
        assert weights[1][0, 0] == 1.0 and biases[0][1] == 0.0

    @pytest.mark.parametrize(
        "weights,biases",
        [
            ([np.ones((4, 3))], []),
            ([np.ones((4, 3))], [np.zeros(3)]),
            ([np.ones((4, 3)), np.ones((2, 5))], [np.zeros(4), np.zeros(2)]),
        ],
        ids=["unpaired", "bias-shape", "unchained"],
    )
    def test_from_layers_checks_layers(self, weights, biases):
        with pytest.raises(EngineError):
            PolicyParams.from_layers(weights, biases)


def _drift_prices(n_steps: int = 80, rate: float = 1.01) -> PriceSeries:
    close = np.ones((2, n_steps))
    close[1] = rate ** np.arange(n_steps)
    return PriceSeries(close=close, timestamps=tuple(range(n_steps)), assets=("UP",))


class TestObjective:
    def test_all_in_on_steady_gain(self):
        prices = _drift_prices()
        states, rel = episode(prices, window=10)
        params = _zero_params(states.shape[1], 2)
        params.biases[-1][1] = 40.0
        j = objective(params, states, rel, NO_COST)
        assert j == pytest.approx(LN_1_01, rel=1e-9)

    def test_matches_backtest_mean_reward(self):
        prices = generate_synthetic(n_assets=3, n_steps=90, vol=0.02, seed=11)
        states, rel = episode(prices, window=10)
        params = init_policy(states.shape[1], 4, hidden=(8,), seed=2)
        cm = CostModel()
        j = objective(params, states, rel, cm)
        result = run_backtest(
            prices, build_states(prices, None, 10), partial(policy_forward, params), cm
        )
        assert j == pytest.approx(result.rewards.mean(), abs=1e-10)

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_frozen_at_realized_betas_is_the_training_objective(self, mode):
        # the finite-difference oracle of the gradient freezes the betas the
        # policy realizes; at those betas it must score what training scores
        import scalar

        cm = CostModel(mode=mode)
        for seed in range(20):
            prices = generate_synthetic(n_assets=3, n_steps=60, vol=0.02, seed=seed)
            states, rel = episode(prices, window=8)
            params = init_policy(states.shape[1], 4, hidden=(16,), seed=seed)
            frozen = scalar.episode_betas(params, states, rel, cm)
            score = scalar.objective(params, states, rel, cm, frozen_betas=frozen)
            assert score == objective(params, states, rel, cm)


class TestGradient:
    def test_zero_on_flat_market(self):
        close = np.ones((3, 40))
        close[1] = 4.0
        close[2] = 2.0
        prices = PriceSeries(close=close, timestamps=tuple(range(40)), assets=("A", "B"))
        states, rel = episode(prices, window=6)
        params = init_policy(states.shape[1], 3, hidden=(8,), seed=0)
        gw, gb = gradient(params, states, rel, NO_COST)
        # every allocation earns log(1) on a flat market, so the landscape
        # is exactly level
        for g in gw + gb:
            assert np.allclose(g, 0.0, atol=1e-14)

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_matches_finite_differences(self, mode):
        from scalar import episode_betas, objective

        prices = generate_synthetic(n_assets=2, n_steps=50, vol=0.03, seed=21)
        states, rel = episode(prices, window=8)
        params = init_policy(states.shape[1], 3, hidden=(6,), seed=4)
        cm = CostModel(mode=mode)
        gw, gb = gradient(params, states, rel, cm)
        frozen = episode_betas(params, states, rel, cm) if mode == "fixed_point" else None
        eps = 1e-5
        rng = np.random.default_rng(0)
        checked = 0
        for layer in range(len(params.weights)):
            flat = params.weights[layer].ravel()
            g_flat = gw[layer].ravel()
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                original = flat[idx]
                flat[idx] = original + eps
                up = objective(params, states, rel, cm, frozen_betas=frozen)
                flat[idx] = original - eps
                down = objective(params, states, rel, cm, frozen_betas=frozen)
                flat[idx] = original
                fd = (up - down) / (2 * eps)
                if abs(g_flat[idx]) > 1e-8:
                    assert fd == pytest.approx(g_flat[idx], rel=2e-4)
                    checked += 1
        assert checked >= 6

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    @pytest.mark.parametrize("hidden", [(32,), (16, 8)])
    def test_group_rows_equal_one_cell_gradients(self, mode, hidden):
        # each cell's window is rows j - 1 ... j + 31, the group computes its
        # own entry row j - 1, and that must be policy_forward's bytes there
        prices = generate_synthetic(n_assets=3, n_steps=120, vol=0.02, seed=13)
        states, rel = episode(prices, window=8)
        cells = [init_policy(states.shape[1], 4, hidden=hidden, seed=s) for s in (1, 2, 3)]
        starts = (5, 40, 71)
        group = PolicyParams(np.stack([p.theta for p in cells]), cells[0].shapes)
        grads = PolicyParams(np.empty_like(group.theta), group.shapes)
        cm = CostModel(mode=mode)
        _lockstep_grads(
            group,
            np.stack([states[j - 1 : j + 32] for j in starts]),
            np.stack([rel[j - 1 : j + 32] for j in starts]),
            np.zeros(3, dtype=bool),
            all_cash(4),
            cm,
            grads,
        )
        for c, (params, j) in enumerate(zip(cells, starts)):
            gw, gb = window_gradient(
                params,
                states[j : j + 32],
                rel[j : j + 32],
                policy_forward(params, states[j - 1]),
                rel[j - 1],
                cm,
            )
            row = grads.cells(c)
            for got, want in zip(row.weights + row.biases, gw + gb):
                assert np.array_equal(got, want)

    def test_ascent_improves_objective(self):
        prices = generate_synthetic(n_assets=2, n_steps=70, drift=0.004, vol=0.01, seed=3)
        states, rel = episode(prices, window=8)
        params = init_policy(states.shape[1], 3, hidden=(8,), seed=1)
        cm = CostModel()
        before = objective(params, states, rel, cm)
        for _ in range(25):
            gw, gb = gradient(params, states, rel, cm)
            ascent_step(params, (gw, gb), 1.0)
        assert objective(params, states, rel, cm) > before


class TestTrain:
    def _market(self, seed=17, n_steps=140):
        return generate_synthetic(n_assets=2, n_steps=n_steps, drift=0.002, vol=0.015, seed=seed)

    def _cfg(self, **kw):
        base = dict(learning_rate=1.0, batch_window=32, epochs=4, window=8)
        return settings(**{**base, **kw})

    def test_zero_learning_rate_freezes_params(self):
        prices = self._market()
        params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
        snapshot = _copy(params)
        trained, curve = train_one(params, prices, None, CostModel(), self._cfg(learning_rate=0.0))
        for w0, w1 in zip(snapshot.weights, trained.weights):
            assert np.array_equal(w0, w1)
        assert len(curve) == 4
        assert len(set(curve)) == 1

    def test_zero_epochs_empty_curve(self):
        prices = self._market()
        params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
        trained, curve = train_one(params, prices, None, CostModel(), self._cfg(epochs=0))
        assert curve == []
        for w0, w1 in zip(params.weights, trained.weights):
            assert np.array_equal(w0, w1)

    def test_input_params_not_mutated(self):
        prices = self._market()
        params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
        snapshot = _copy(params)
        train_one(params, prices, None, CostModel(), self._cfg())
        for w0, w1 in zip(snapshot.weights, params.weights):
            assert np.array_equal(w0, w1)

    def test_bitwise_deterministic(self):
        prices = self._market()
        runs = []
        for _ in range(2):
            params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
            trained, curve = train_one(params, prices, None, CostModel(), self._cfg())
            runs.append((trained, curve))
        assert runs[0][1] == runs[1][1]
        for w0, w1 in zip(runs[0][0].weights, runs[1][0].weights):
            assert np.array_equal(w0, w1)

    def test_learns_persistent_winner(self):
        # one asset compounds at a steady 1% against flat cash; the policy
        # should end up nearly all-in and close to the per-step log gain
        prices = _drift_prices(n_steps=160)
        params = init_policy(1 * 8 + 1, 2, hidden=(8,), seed=0)
        cfg = settings(learning_rate=2.0, batch_window=40, epochs=120, window=8)
        trained, curve = train_one(params, prices, None, NO_COST, cfg)
        states, _ = episode(prices, window=8)
        final_actions = np.stack([policy_forward(trained, s) for s in states])
        assert final_actions[:, 1].mean() > 0.95
        assert curve[-1] > 0.95 * LN_1_01

    def test_signal_column_feeds_policy(self):
        # identical prices, but only one run sees a perfect movement signal;
        # the informed run must not do worse on its own training objective
        prices = generate_synthetic(
            n_assets=2, n_steps=180, vol=0.02, regime_switch_prob=0.05, seed=29
        )
        labels = oracle_labels(true_movements(prices), accuracy=1.0, density=1.0, seed=0)
        cfg = settings(learning_rate=2.0, batch_window=40, epochs=60, window=8)
        scores = {}
        for name, sig in (("informed", labels), ("blind", None)):
            params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=1)
            _, curve = train_one(params, prices, sig, NO_COST, cfg)
            scores[name] = curve[-1]
        assert scores["informed"] >= scores["blind"]

    def test_policy_width_must_match_states(self):
        # 2 assets at window 8 give states of 2 * 8 + 2 columns
        params = init_policy(2 * 8, 3, hidden=(8,), seed=9)
        with pytest.raises(EngineError, match=r"policy input dim 16, .* need 18"):
            train_one(params, self._market(), None, CostModel(), self._cfg())

    def test_non_finite_params_raise(self):
        prices = self._market()
        params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=9)
        params.weights[0][0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train_one(params, prices, None, CostModel(), self._cfg())

    @pytest.mark.parametrize(
        "shape, message",
        [
            ((3, 140), "signal assets do not match"),
            ((2, 139), "signal steps do not match"),
            ((140,), "signal assets do not match"),
            ((2, 140, 1), "signal steps do not match"),
        ],
    )
    def test_mismatched_signals_raise_before_any_step(self, shape, message):
        # the second cell's series is bad; the first cell's sampler stays unused
        prices = self._market()
        params = [init_policy(2 * 8 + 2, 3, hidden=(8,), seed=s) for s in (1, 2)]
        samplers = rngs([0, 1])
        bad = np.ones(shape)
        with pytest.raises(SignalError, match=message):
            train(params, prices, [None, bad], CostModel(), samplers, **self._cfg())
        assert samplers[0].bit_generator.state == np.random.default_rng(0).bit_generator.state

    def test_memory_per_cell_is_its_signal_columns(self):
        # The sweep shape: 3 assets, window 10, 2,400 steps split at 2,000.
        # The group holds the price windows once, so each added cell costs
        # its signal columns and parameters, not a (T, d) observation copy.
        prices = generate_synthetic(n_assets=3, n_steps=2400, vol=0.02, seed=5)
        prices = chronological_split(prices, 2000)[0]
        moves, d = true_movements(prices), state_dim(3, 10)
        cfg = settings(learning_rate=3.0, batch_window=64, epochs=1, window=10, steps_per_epoch=1)

        def peak(cells):
            signals = [
                oracle_labels(moves, accuracy=0.5 + c / 100, density=1.0, seed=c) if c else None
                for c in range(cells)
            ]
            params = [init_policy(d, 4, hidden=(32,), seed=c) for c in range(cells)]
            tracemalloc.start()
            try:
                outcomes = train(params, prices, signals, CostModel(), rngs(range(cells)), **cfg)
                top = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert not any(isinstance(o, Exception) for o in outcomes)
            return top

        t_total = episode(prices, window=10)[0].shape[0]
        per_cell = (peak(35) - peak(1)) / 34
        assert per_cell < 0.5 * t_total * d * 8


def _assert_same_outcome(got, want):
    (got_params, got_curve), (want_params, want_curve) = got, want
    assert got_curve == want_curve
    for a, b in zip(
        got_params.weights + got_params.biases, want_params.weights + want_params.biases
    ):
        assert np.array_equal(a, b)


class TestLockstep:
    """A group trained in lockstep gives each cell its solo result, bit for bit."""

    WINDOW = 8

    def _cells(self, hidden):
        """Four cells: oracle signals of accuracy 0.6, 1.0, 0.8 and a control."""
        prices = generate_synthetic(n_assets=3, n_steps=260, vol=0.02, seed=13)
        moves = true_movements(prices)
        signals = [
            oracle_labels(moves, accuracy=acc, density=1.0, seed=i)
            for i, acc in enumerate((0.6, 1.0, 0.8))
        ]
        signals.insert(1, None)  # the zero-signal control, mixed in
        params = [
            init_policy(3 * self.WINDOW + 3, 4, hidden=hidden, seed=10 + i) for i in range(4)
        ]
        return prices, params, signals, [101, 7, 55, 3]

    def _cfg(self, **kw):
        base = dict(learning_rate=3.0, batch_window=32, epochs=3, window=self.WINDOW)
        return settings(**{**base, **kw})

    def _solo(self, prices, params, signals, seeds, cm, cfg):
        return [
            train([p], prices, [s], cm, rngs([seed]), **cfg)[0]
            for p, s, seed in zip(params, signals, seeds)
        ]

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    @pytest.mark.parametrize("hidden", [(32,), (16, 8)])
    def test_group_equals_solo_runs(self, mode, hidden):
        prices, params, signals, seeds = self._cells(hidden)
        cm, cfg = CostModel(mode=mode), self._cfg()
        solo = self._solo(prices, params, signals, seeds, cm, cfg)
        group = train(params, prices, signals, cm, rngs(seeds), **cfg)
        prefix = train(params[:2], prices, signals[:2], cm, rngs(seeds[:2]), **cfg)
        for got, want in zip(group + prefix, solo + solo[:2]):
            _assert_same_outcome(got, want)

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_equals_step_by_step_replay(self, mode):
        # the documented loop, one window at a time: uniform start j, entry
        # weights from the current policy on row j - 1 (all cash at j = 0)
        prices, params, signals, seeds = self._cells((16,))
        cm, cfg = CostModel(mode=mode), self._cfg(epochs=2)
        [(trained, curve)] = train(params[:1], prices, signals[:1], cm, rngs(seeds[:1]), **cfg)
        states, rel = episode(prices, signals[0], window=self.WINDOW)
        t_total, batch = states.shape[0], cfg["batch_window"]
        replay, rng, replay_curve = _copy(params[0]), np.random.default_rng(seeds[0]), []
        for _ in range(cfg["epochs"]):
            for _ in range(t_total // batch):
                j = int(rng.integers(0, t_total - batch + 1))
                entry_w = policy_forward(replay, states[j - 1]) if j else all_cash(4)
                entry_y = rel[j - 1] if j else np.ones(4)
                grads = window_gradient(
                    replay, states[j : j + batch], rel[j : j + batch], entry_w, entry_y, cm
                )
                ascent_step(replay, grads, cfg["learning_rate"])
            replay_curve.append(objective(replay, states, rel, cm))
        _assert_same_outcome((trained, curve), (replay, replay_curve))

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_continued_samplers_equal_one_run(self, mode):
        # three epochs, then three more from the returned parameters on the
        # same samplers, give each cell its six-epoch run bit for bit
        prices, params, signals, seeds = self._cells((16,))
        params, signals, seeds = params[:3], signals[:3], seeds[:3]
        cm, samplers = CostModel(mode=mode), rngs(seeds)
        first = train(params, prices, signals, cm, samplers, **self._cfg())
        second = train([p for p, _ in first], prices, signals, cm, samplers, **self._cfg())
        whole = train(params, prices, signals, cm, rngs(seeds), **self._cfg(epochs=6))
        for (_, head), (trained, tail), want in zip(first, second, whole):
            _assert_same_outcome((trained, head + tail), want)

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_diverging_cells_fail_alone(self, mode):
        prices, params, signals, seeds = self._cells((16,))
        cm, cfg = CostModel(mode=mode), self._cfg()
        solo = self._solo(prices, params, signals, seeds, cm, cfg)
        nan_init = _copy(params[1])
        nan_init.weights[0][0, 0] = np.nan
        overflowing = _copy(params[2])  # finite, but not after the first step
        overflowing.weights[-1][:] = 1e308
        with np.errstate(over="ignore", invalid="ignore"):
            group = train(
                [params[0], nan_init, overflowing, params[3]], prices, signals, cm, rngs(seeds),
                **cfg,
            )
        for pos in (1, 2):
            assert isinstance(group[pos], TrainingDivergedError)
            assert str(group[pos]) == "policy parameters are no longer finite"
        _assert_same_outcome(group[0], solo[0])
        _assert_same_outcome(group[3], solo[3])

    def _stopped_group(self, mode):
        """The group of test_diverging_cells_fail_alone, with its samplers after 3 epochs."""
        prices, params, signals, seeds = self._cells((16,))
        nan_init = _copy(params[1])
        nan_init.weights[0][0, 0] = np.nan
        overflowing = _copy(params[2])
        overflowing.weights[-1][:] = 1e308
        samplers = rngs(seeds)
        with np.errstate(over="ignore", invalid="ignore"):
            group = train(
                [params[0], nan_init, overflowing, params[3]], prices, signals,
                CostModel(mode=mode), samplers, **self._cfg(),
            )
        assert isinstance(group[1], TrainingDivergedError)
        assert isinstance(group[2], TrainingDivergedError)
        return prices, seeds, samplers

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_cell_stopped_at_the_start_leaves_its_sampler_unused(self, mode):
        _, seeds, samplers = self._stopped_group(mode)
        fresh = np.random.default_rng(seeds[1])
        assert samplers[1].bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_cell_stopped_after_epoch_one_drew_one_epoch(self, mode):
        prices, seeds, samplers = self._stopped_group(mode)
        t_total = episode(prices, window=self.WINDOW)[0].shape[0]
        batch = self._cfg()["batch_window"]
        one_epoch = np.random.default_rng(seeds[2])
        one_epoch.integers(0, t_total - batch + 1, size=t_total // batch)
        assert samplers[2].bit_generator.state == one_epoch.bit_generator.state

    def test_large_group_equals_solo_runs(self):
        # 35 cells, as in the acceptance grid, on a tiny market: one cell
        # starts non-finite and a flipper hits an infeasible rebalance, so
        # the group shrinks twice and must still give every cell its solo run.
        prices = generate_synthetic(n_assets=3, n_steps=140, vol=0.02, seed=5)
        moves = true_movements(prices)
        signals = [
            None if c % 7 == 0 else
            oracle_labels(moves, accuracy=0.5 + 0.1 * (c % 6), density=1.0, seed=c)
            for c in range(35)
        ]
        d = 3 * self.WINDOW + 3
        params = [init_policy(d, 4, hidden=(8,), seed=100 + c) for c in range(35)]
        params[4].weights[0][0, 0] = np.nan
        flipper = _zero_params(d, 4, hidden=(8,))
        flipper.weights[0][0, 3 * self.WINDOW] = 5.0
        flipper.weights[1][1, 0], flipper.weights[1][2, 0] = 40.0, -40.0
        params[20] = flipper
        seeds = [3 * c + 1 for c in range(35)]
        cm = CostModel(c_buy=0.9, c_sell=0.9, mode="simple")
        cfg = self._cfg(learning_rate=0.1, epochs=2, batch_window=16)
        solo = self._solo(prices, params, signals, seeds, cm, cfg)
        group = train(params, prices, signals, cm, rngs(seeds), **cfg)
        assert isinstance(solo[4], TrainingDivergedError)
        assert isinstance(solo[20], EngineError)
        assert sum(isinstance(outcome, Exception) for outcome in solo) == 2
        for got, want in zip(group, solo):
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want)
            else:
                _assert_same_outcome(got, want)

    def test_infeasible_rebalance_fails_alone(self):
        # At a 0.9 blended rate, beta = 1 - 0.9 * turnover <= 0 once a policy
        # swaps one asset for another.  The flipper goes all in on asset 1 or
        # asset 2 by the sign of asset 1's signal; the others stay diversified.
        prices, params, signals, seeds = self._cells((16,))
        cm = CostModel(c_buy=0.9, c_sell=0.9, mode="simple")
        cfg = self._cfg(learning_rate=0.1, epochs=2)
        flipper = _zero_params(3 * self.WINDOW + 3, 4, hidden=(16,))
        flipper.weights[0][0, 3 * self.WINDOW] = 5.0
        flipper.weights[1][1, 0], flipper.weights[1][2, 0] = 40.0, -40.0
        params[2] = flipper
        solo = self._solo(prices, params, signals, seeds, cm, cfg)
        group = train(params, prices, signals, cm, rngs(seeds), **cfg)
        assert isinstance(solo[2], EngineError)
        assert isinstance(group[2], EngineError)
        for pos in (0, 1, 3):
            _assert_same_outcome(group[pos], solo[pos])


# The helper takes a CPU of its own; with only one in the affinity set, train
# judges inline even when _spare_cpu is forced true, and a test of the helper
# would pass without it.
TWO_CPUS = pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="the judge helper needs two CPUs in the affinity set",
)


class TestJudgeHelper:
    """A forked helper judges each epoch but the last while the next trains, and every
    outcome, curve, parameter byte and generator state equals judging inline."""

    WINDOW = 8

    def _group(self, mode):
        """Seven cells: healthy ones, one non-finite at the start (cell 1), a flipper (cell 3),
        one (cell 4) whose objective the patched judge finds NaN at epoch 1, and one (cell 6)
        whose overflowing last layer turns non-finite after its first step.  At these
        rates the flipper's rebalance is infeasible in simple mode, and in fixed-point
        mode cell 5's cost fixed point stops converging."""
        prices = generate_synthetic(n_assets=3, n_steps=200, vol=0.02, seed=21)
        moves = true_movements(prices)
        signals = [oracle_labels(moves, accuracy=0.8, density=1.0, seed=c) for c in range(7)]
        signals[0] = None
        d = 3 * self.WINDOW + 3
        params = [init_policy(d, 4, hidden=(8,), seed=30 + c) for c in range(7)]
        params[1].weights[0][0, 0] = np.nan
        params[6].weights[-1][:] = 1e308
        flipper = _zero_params(d, 4, hidden=(8,))
        flipper.weights[0][0, 3 * self.WINDOW] = 5.0
        flipper.weights[1][1, 0], flipper.weights[1][2, 0] = 40.0, -40.0
        params[3] = flipper
        rate = 0.9 if mode == "simple" else 0.7
        cm = CostModel(c_buy=rate, c_sell=rate, mode=mode)
        cfg = settings(learning_rate=0.1, batch_window=16, epochs=3, window=self.WINDOW)
        return prices, params, signals, cm, cfg

    def _nan_judge(self, monkeypatch, prices, signals, error=None):
        """Patch agent.objective: NaN on cell 4's label columns, or raise error there."""
        marked, real = signal_columns(prices, signals[4], self.WINDOW), agent.objective

        def judged(params, states, rel, cm):
            if np.array_equal(states[:, -3:], marked):
                if error:
                    raise error
                return float("nan")
            return real(params, states, rel, cm)

        monkeypatch.setattr(agent, "objective", judged)

    def _run(self, monkeypatch, spare, prices, params, signals, cm, cfg):
        """train with the helper forced on or off; the outcomes and samplers.  Counts
        the helpers started in self.forks, and in self.judged the objectives this
        process scored: a forked helper's own calls add nothing to it."""
        self.forks, self.judged = 0, 0
        real_fork, real_objective = agent._fork, agent.objective

        def counted_fork(*args):
            started = real_fork(*args)
            self.forks += 1
            return started

        def counted_objective(*args):
            self.judged += 1
            return real_objective(*args)

        samplers = rngs(range(len(params)))
        try:
            with monkeypatch.context() as patch, np.errstate(over="ignore", invalid="ignore"):
                patch.setattr(agent, "_spare_cpu", lambda: spare)
                patch.setattr(agent, "_fork", counted_fork)
                patch.setattr(agent, "objective", counted_objective)
                outcomes = train(params, prices, signals, cm, samplers, **cfg)
        finally:
            assert multiprocessing.active_children() == []
        return outcomes, [g.bit_generator.state for g in samplers]

    @TWO_CPUS
    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_helper_equals_inline(self, monkeypatch, mode):
        prices, params, signals, cm, cfg = self._group(mode)
        self._nan_judge(monkeypatch, prices, signals)
        inline, inline_states = self._run(monkeypatch, False, prices, params, signals, cm, cfg)
        inline_run = (self.forks, self.judged)
        helper, helper_states = self._run(monkeypatch, True, prices, params, signals, cm, cfg)
        # this process judged every epoch inline, and with the helper only the
        # last epoch, whose three cells are the ones left healthy below
        assert inline_run[0] == 0 and inline_run[1] > 3
        assert (self.forks, self.judged) == (1, 3)
        assert isinstance(inline[1], TrainingDivergedError)
        assert str(inline[4]) == "objective became nan during training"
        assert str(inline[6]) == "policy parameters are no longer finite"
        failed = (3, EngineError) if mode == "simple" else (5, ConvergenceError)
        assert isinstance(inline[failed[0]], failed[1])
        assert sum(not isinstance(o, Exception) for o in inline) == 3
        for got, want in zip(helper, inline):
            if isinstance(want, Exception):
                assert (type(got), str(got)) == (type(want), str(want))
            else:
                assert got[1] == want[1] and len(got[1]) == cfg["epochs"]
                assert got[0].theta.tobytes() == want[0].theta.tobytes()
        assert helper_states == inline_states
        # the judge stopped cell 4 before its second draw, in the helper too
        one_epoch = np.random.default_rng(4)
        t_total = episode(prices, window=self.WINDOW)[0].shape[0]
        one_epoch.integers(0, t_total - 16 + 1, size=t_total // 16)
        assert helper_states[4] == one_epoch.bit_generator.state

    @TWO_CPUS
    def test_helper_error_keeps_its_text_and_shows_its_frame(self, monkeypatch):
        prices, params, signals, cm, cfg = self._group("simple")
        self._nan_judge(monkeypatch, prices, signals)
        outcomes, _ = self._run(monkeypatch, True, prices, params, signals, cm, cfg)
        assert self.forks == 1
        stopped = outcomes[4]
        assert str(stopped) == "objective became nan during training"
        shown = "".join(traceback.format_exception(stopped))
        assert "raised in the judge helper" in shown and "in score" in shown

    @TWO_CPUS
    def test_unexpected_helper_error_is_raised(self, monkeypatch):
        prices, params, signals, cm, cfg = self._group("simple")
        self._nan_judge(monkeypatch, prices, signals, error=KeyError("judge broke"))
        for spare in (False, True):
            with pytest.raises(KeyError, match="judge broke") as raised:
                self._run(monkeypatch, spare, prices, params, signals, cm, cfg)
            assert self.forks == spare
            shown = "".join(traceback.format_exception(raised.value))
            assert ("raised in the judge helper" in shown) is spare

    @TWO_CPUS
    def test_step_error_leaves_no_process(self, monkeypatch):
        prices, params, signals, cm, cfg = self._group("simple")
        steps, real_step = [], agent._lockstep_grads

        def failing_step(*args):
            steps.append(1)
            if len(steps) > 15:  # in epoch 2, while the helper judges epoch 1
                raise RuntimeError("step broke")
            return real_step(*args)

        monkeypatch.setattr(agent, "_lockstep_grads", failing_step)
        with pytest.raises(RuntimeError, match="step broke"):
            self._run(monkeypatch, True, prices, params, signals, cm, cfg)
        assert self.forks == 1

    def test_one_epoch_starts_no_process(self, monkeypatch):
        prices, params, signals, cm, cfg = self._group("simple")
        one_epoch = {**cfg, "epochs": 1}
        self._run(monkeypatch, True, prices, params, signals, cm, one_epoch)
        assert self.forks == 0

    def test_helper_that_cannot_start_judges_inline(self, monkeypatch):
        prices, params, signals, cm, cfg = self._group("fixed_point")
        inline, inline_states = self._run(monkeypatch, False, prices, params, signals, cm, cfg)

        def no_process(*args):
            raise OSError("no process")

        monkeypatch.setattr(agent, "_spare_cpu", lambda: True)
        monkeypatch.setattr(agent, "_fork", no_process)
        samplers = rngs(range(len(params)))
        with np.errstate(over="ignore", invalid="ignore"):
            got = train(params, prices, signals, cm, samplers, **cfg)
        assert multiprocessing.active_children() == []
        assert [g.bit_generator.state for g in samplers] == inline_states
        for a, b in zip(got, inline):
            if isinstance(b, Exception):
                assert str(a) == str(b)
            else:
                assert a[1] == b[1] and a[0].theta.tobytes() == b[0].theta.tobytes()

    @pytest.mark.parametrize(
        "case",
        ["spare", "two blas threads", "no openblas", "pool worker", "one cpu", "no fork",
         "threads"],
    )
    def test_spare_cpu_needs_every_condition(self, monkeypatch, case):
        cpus = {0} if case == "one cpu" else {0, 1}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        monkeypatch.setattr(threading, "active_count", lambda: 2 if case == "threads" else 1)
        threads = {"two blas threads": 2, "no openblas": None}.get(case, 1)
        monkeypatch.setattr(agent, "blas_threads", lambda: threads)
        parent = object() if case == "pool worker" else None
        monkeypatch.setattr(multiprocessing, "parent_process", lambda: parent)
        methods = ["spawn"] if case == "no fork" else ["fork", "spawn"]
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
        assert agent._spare_cpu() is (case == "spare")

    def test_blas_threads_without_the_library_sets_nothing(self, monkeypatch):
        monkeypatch.setattr(agent, "_openblas_calls", lambda: None)
        assert agent.blas_threads() is None and agent.blas_threads(1) is None


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        params = init_policy(14, 4, hidden=(8, 6), seed=3)
        path = tmp_path / "ckpt.json"
        save_checkpoint(params, path, meta={"epochs_trained": 12})
        loaded, meta = load_checkpoint(path)
        assert meta["epochs_trained"] == 12
        assert [w.shape for w in loaded.weights] == [(8, 14), (6, 8), (4, 6)]
        for w0, w1 in zip(params.weights, loaded.weights):
            assert np.array_equal(w0, w1)
        for b0, b1 in zip(params.biases, loaded.biases):
            assert np.array_equal(b0, b1)

    def test_resume_equals_continuous_run(self, tmp_path):
        # 2 epochs, a checkpoint round trip, then 2 more on the same sampler
        # give the 4-epoch run bit for bit
        prices = generate_synthetic(n_assets=2, n_steps=120, drift=0.002, vol=0.01, seed=5)
        params = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=2)
        cfg = settings(learning_rate=1.0, batch_window=30, epochs=2, window=8)
        rng = np.random.default_rng(0)
        first, curve1 = train_one(params, prices, None, CostModel(), cfg, rng)
        path = tmp_path / "ckpt.json"
        save_checkpoint(first, path, meta={"epochs_trained": 2})
        loaded, meta = load_checkpoint(path)
        second, curve2 = train_one(loaded, prices, None, CostModel(), cfg, rng)
        assert meta["epochs_trained"] == 2
        whole = train_one(params, prices, None, CostModel(), {**cfg, "epochs": 4})
        _assert_same_outcome((second, curve1 + curve2), whole)

    def test_corrupt_file_raises(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            load_checkpoint(path)
