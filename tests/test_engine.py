from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from conftest import random_simplex
from scalar import cost_factor, cost_fixed_point, drift_weights, step_reward
from signalfolio import engine
from signalfolio.baselines import ew_policy, hold_cash_policy
from signalfolio.engine import (
    BacktestResult,
    ConvergenceError,
    CostModel,
    EngineError,
    accumulate,
    all_cash,
    as_simplex,
    reward_chain,
    run_backtest,
)
from signalfolio.market import MarketDataError, generate_synthetic
from signalfolio.signals import build_states

LN_1_1 = 0.09531017980432493
LN_FIRST_BUY = -0.002503130218118477


def active_set_root(w, a, c_buy: float, c_sell: float) -> float:
    """Exact root of mu (1 - cb a0) = 1 - cb w0 - k sum_i max(wi - mu ai, 0).

    k = cs + cb - cs cb and i runs over the risky assets.  The left side
    rises and the right side falls in mu, so the root is unique.  For an
    active set S (the assets sold, wi > mu ai) the equation is linear in mu;
    the candidate sets are prefixes of the assets sorted by wi / ai,
    descending (ai = 0 first; wi = ai = 0 adds nothing and is left out), and
    the root is the candidate that keeps its own set active.
    Rational arithmetic makes every candidate and comparison exact.
    """
    w = [Fraction(v) for v in w]
    a = [Fraction(v) for v in a]
    cb, cs = Fraction(c_buy), Fraction(c_sell)
    k = cs + cb - cs * cb
    order = sorted(
        (i for i in range(1, len(w)) if w[i] or a[i]),
        key=lambda i: (a[i] == 0, w[i] / a[i] if a[i] else w[i]),
        reverse=True,
    )
    num, den = 1 - cb * w[0], 1 - cb * a[0]
    for size in range(len(order) + 1):
        if size:
            num -= k * w[order[size - 1]]
            den -= k * a[order[size - 1]]
        mu = num / den
        sold_ok = size == 0 or w[order[size - 1]] >= mu * a[order[size - 1]]
        kept_ok = size == len(order) or w[order[size]] <= mu * a[order[size]]
        if sold_ok and kept_ok:
            return float(mu)
    raise AssertionError("no consistent active set")


def sparse_simplex(rng: np.random.Generator, m: int) -> np.ndarray:
    """A random simplex point, with one risky component zeroed a third of the time."""
    v = random_simplex(rng, m)
    if rng.random() < 1 / 3:
        v[rng.integers(1, m)] = 0.0
        v /= v.sum()
    return v


class TestSimplexValidation:
    def test_accepts_simplex(self):
        v = as_simplex([0.2, 0.3, 0.5])
        assert v.sum() == pytest.approx(1.0)

    def test_rejects_negative(self):
        with pytest.raises(EngineError):
            as_simplex([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(EngineError):
            as_simplex([0.6, 0.6])

    def test_accepts_matrix(self):
        rows = np.array([[0.2, 0.8], [1.0, 0.0], [0.5, 0.5]])
        assert np.array_equal(as_simplex(rows), rows)

    @pytest.mark.parametrize(
        "bad_row", [[-0.1, 0.6, 0.5], [np.nan, 0.5, 0.5], [0.2, 0.3, 0.5 + 1e-9]]
    )
    def test_matrix_names_first_bad_row(self, bad_row):
        rows = np.full((6, 3), 1.0 / 3.0)
        rows[2] = bad_row
        rows[4] = [0.9, 0.9, 0.9]
        with pytest.raises(EngineError, match="actions row 2 "):
            as_simplex(rows, "actions")


class TestDriftWeights:
    def test_all_in_single_asset_unchanged(self):
        assert np.allclose(drift_weights([0.0, 1.0], [1.0, 2.0]), [0.0, 1.0])

    def test_mixed_drift(self):
        w = drift_weights([0.5, 0.5], [1.0, 3.0])
        assert np.allclose(w, [0.25, 0.75])

    def test_flat_prices_identity(self):
        a = np.array([0.1, 0.6, 0.3])
        assert np.allclose(drift_weights(a, np.ones(3)), a)

    def test_output_on_simplex(self):
        rng = np.random.default_rng(15)
        for _ in range(200):
            m = int(rng.integers(2, 7))
            a = random_simplex(rng, m)
            y = np.concatenate([[1.0], np.exp(rng.normal(0, 0.3, m - 1))])
            w = drift_weights(a, y)
            assert np.all(w >= 0)
            assert abs(w.sum() - 1.0) < 1e-12

    def test_rejects_bad_cash_relative(self):
        with pytest.raises(EngineError):
            drift_weights([0.5, 0.5], [1.1, 1.0])


class TestCostFactor:
    def test_no_trade_exactly_one(self):
        w = np.array([0.3, 0.7])
        assert cost_factor(w, w, np.ones(2), CostModel()) == 1.0

    def test_zero_rates_exactly_one(self):
        cm = CostModel(c_buy=0.0, c_sell=0.0)
        rng = np.random.default_rng(2)
        w, a = random_simplex(rng, 4), random_simplex(rng, 4)
        assert cost_factor(w, a, np.ones(4), cm) == 1.0

    def test_first_purchase_costs_buy_rate(self):
        beta = cost_factor(
            np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.ones(2), CostModel()
        )
        assert beta == pytest.approx(0.9975, abs=1e-5)

    def test_beta_in_unit_interval(self):
        rng = np.random.default_rng(6)
        cm = CostModel()
        for _ in range(300):
            m = int(rng.integers(2, 6))
            w, a = random_simplex(rng, m), random_simplex(rng, m)
            beta = cost_factor(w, a, np.ones(m), cm)
            assert 0.0 < beta <= 1.0

    def test_turnover_monotone(self):
        # scale the trade along a ray from the held weights: more turnover,
        # never a better factor
        rng = np.random.default_rng(10)
        cm = CostModel()
        for _ in range(100):
            m = int(rng.integers(2, 6))
            w, a = random_simplex(rng, m), random_simplex(rng, m)
            betas = [
                cost_factor(w, w + t * (a - w), np.ones(m), cm)
                for t in (0.0, 0.25, 0.5, 0.75, 1.0)
            ]
            for smaller, larger in zip(betas[1:], betas[:-1]):
                assert smaller <= larger + 1e-12

    def test_positive_rates_and_turnover_shrink(self):
        beta = cost_factor(
            np.array([0.5, 0.5]), np.array([0.2, 0.8]), np.ones(2), CostModel()
        )
        assert beta < 1.0

    def test_fixed_point_converges_quickly(self):
        rng = np.random.default_rng(123)
        for _ in range(500):
            m = int(rng.integers(2, 8))
            w, a = random_simplex(rng, m), random_simplex(rng, m)
            rate = float(rng.uniform(0, 0.05))
            cm = CostModel(c_buy=rate, c_sell=rate)
            beta, iters = cost_fixed_point(w, a, cm)
            assert iters <= 50
            assert 0.0 < beta <= 1.0

    def test_simple_mode_close_to_fixed_point(self):
        rng = np.random.default_rng(44)
        for _ in range(100):
            m = int(rng.integers(2, 6))
            w, a = random_simplex(rng, m), random_simplex(rng, m)
            y = np.concatenate([[1.0], np.exp(rng.normal(0, 0.05, m - 1))])
            fixed = cost_factor(w, a, y, CostModel(mode="fixed_point"))
            simple = cost_factor(w, a, y, CostModel(mode="simple"))
            assert abs(fixed - simple) < 1e-4

    def test_fixed_point_matches_active_set_root(self):
        rng = np.random.default_rng(2718)
        worst = 0.0
        for _ in range(10_000):
            m = int(rng.integers(2, 6))
            w, a = sparse_simplex(rng, m), sparse_simplex(rng, m)
            cb, cs = rng.uniform(0, 0.05, 2)
            cm = CostModel(c_buy=float(cb), c_sell=float(cs))
            beta, iters = cost_fixed_point(w, a, cm)
            assert iters <= 50
            worst = max(worst, abs(beta - active_set_root(w, a, cb, cs)))
        assert worst <= 1e-10

    def test_non_convergence_raises(self, monkeypatch):
        # heavy rates and a partially closed position keep the sell term
        # active, so the iteration contracts slowly and overruns MAX_ITERS
        monkeypatch.setattr(engine, "MAX_ITERS", 2)
        monkeypatch.setattr(engine, "TOL", 1e-14)
        cm = CostModel(c_buy=0.9, c_sell=0.9)
        with pytest.raises(ConvergenceError):
            cost_fixed_point(
                np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.5, 0.5]), cm
            )

    def test_rates_validated(self):
        with pytest.raises(EngineError):
            CostModel(c_buy=1.0)
        with pytest.raises(EngineError):
            CostModel(mode="other")


class TestStepReward:
    def test_flat_no_turnover_zero(self):
        w = np.array([0.0, 1.0])
        r = step_reward(w, w, np.ones(2), np.ones(2), CostModel())
        assert r == 0.0

    def test_pure_gain(self):
        w = np.array([0.0, 1.0])
        r = step_reward(w, w, np.array([1.0, 1.1]), np.ones(2), CostModel())
        assert r == pytest.approx(LN_1_1, abs=1e-12)

    def test_first_purchase_cost(self):
        r = step_reward(
            np.array([1.0, 0.0]),
            np.array([0.0, 1.0]),
            np.ones(2),
            np.ones(2),
            CostModel(),
        )
        assert r == pytest.approx(LN_FIRST_BUY, abs=1e-12)


class TestScalarApiIsOneRowChain:
    @pytest.mark.parametrize("mode", ["fixed_point", "simple"])
    def test_equals_one_row_reward_chain(self, mode):
        rng = np.random.default_rng(404)
        cm = CostModel(mode=mode)
        for _ in range(2_000):
            m = int(rng.integers(2, 6))
            w, a = sparse_simplex(rng, m), sparse_simplex(rng, m)
            y, y_prev = (
                np.concatenate([[1.0], np.exp(rng.normal(0, 0.05, m - 1))]) for _ in range(2)
            )
            chain = reward_chain(a[None], y[None], w, y_prev, cm)
            assert np.array_equal(drift_weights(w, y_prev), chain.weights[0])
            assert cost_factor(w, a, y_prev, cm) == chain.betas[0]
            assert step_reward(w, a, y, y_prev, cm) == chain.rewards[0]

    def test_input_errors(self):
        cm = CostModel()
        w, y = np.array([0.5, 0.5]), np.ones(2)
        with pytest.raises(EngineError):
            step_reward(np.array([0.6, 0.6]), w, y, y, cm)
        with pytest.raises(EngineError):
            step_reward(w, w, y, np.array([1.0, -1.0]), cm)
        swap = CostModel(c_buy=0.9, c_sell=0.9, mode="simple")
        with pytest.raises(EngineError):
            cost_factor(np.array([0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0]), np.ones(3), swap)

    def test_zero_rates_no_iterations(self):
        cm = CostModel(c_buy=0.0, c_sell=0.0)
        assert cost_fixed_point(np.array([1.0, 0.0]), np.array([0.0, 1.0]), cm) == (1.0, 0)


class TestAccumulate:
    def test_zero_rewards_constant(self):
        pv = accumulate(np.zeros(5))
        assert np.all(pv == 1.0)

    def test_two_gains_compound(self):
        pv = accumulate([LN_1_1, LN_1_1])
        assert pv[-1] == pytest.approx(1.21, abs=1e-12)

    def test_single_ln2_doubles(self):
        assert accumulate([np.log(2.0)])[-1] == pytest.approx(2.0, abs=1e-12)

    def test_empty_is_initial_value(self):
        assert list(accumulate([])) == [1.0]

    def test_matches_wealth_recursion(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            rewards = rng.normal(0, 0.05, int(rng.integers(1, 60)))
            pv = accumulate(rewards)
            wealth = 1.0
            for j, r in enumerate(rewards):
                wealth *= np.exp(r)
                assert abs(pv[j + 1] - wealth) <= 1e-10 * max(1.0, wealth)


class TestRewardChain:
    def test_matches_scalar_composition(self):
        rng = np.random.default_rng(31)
        for mode in ("fixed_point", "simple"):
            cm = CostModel(mode=mode)
            for _ in range(20):
                m = int(rng.integers(2, 5))
                t_total = int(rng.integers(1, 15))
                actions = np.stack([random_simplex(rng, m) for _ in range(t_total)])
                rel = np.hstack(
                    [np.ones((t_total, 1)), np.exp(rng.normal(0, 0.05, (t_total, m - 1)))]
                )
                chain = reward_chain(actions, rel, all_cash(m), np.ones(m), cm)
                w_prev, y_prev = all_cash(m), np.ones(m)
                for t in range(t_total):
                    r = step_reward(w_prev, actions[t], rel[t], y_prev, cm)
                    assert abs(r - chain.rewards[t]) < 1e-9
                    w_prev, y_prev = actions[t], rel[t]

    def test_drifted_weights_rows_on_simplex(self):
        rng = np.random.default_rng(5)
        actions = np.stack([random_simplex(rng, 4) for _ in range(30)])
        rel = np.hstack([np.ones((30, 1)), np.exp(rng.normal(0, 0.1, (30, 3)))])
        chain = reward_chain(actions, rel, all_cash(4), np.ones(4), CostModel())
        assert np.all(chain.weights >= 0)
        assert np.allclose(chain.weights.sum(axis=1), 1.0, atol=1e-12)


class TestRunBacktest:
    def test_hold_cash_pv_exactly_one(self, noisy_market):
        cm = CostModel(c_buy=0.01, c_sell=0.02)
        result = run_backtest(
            noisy_market, build_states(noisy_market, None, 10), hold_cash_policy(3), cm
        )
        assert np.all(np.abs(result.pv - 1.0) <= 1e-12)
        assert np.all(result.betas == 1.0)

    def test_single_asset_compounding(self, drift_market):
        def all_in(obs):
            return np.tile([0.0, 1.0], (len(obs), 1))

        cm = CostModel(c_buy=0.0, c_sell=0.0)
        result = run_backtest(drift_market, build_states(drift_market, None, 10), all_in, cm)
        steps = drift_market.n_steps - 10
        assert result.n_steps == steps
        assert result.final_pv == pytest.approx(1.01**steps, rel=1e-10)

    def test_ew_flat_market_pv_one(self):
        close = np.ones((3, 20))
        close[1] = 5.0
        close[2] = 7.0
        from signalfolio.market import PriceSeries

        p = PriceSeries(close=close, timestamps=tuple(range(20)), assets=("A", "B"))
        cm = CostModel(c_buy=0.0, c_sell=0.0)
        result = run_backtest(p, build_states(p, None, 4), ew_policy(3), cm)
        assert np.allclose(result.pv, 1.0, atol=1e-12)

    def test_internal_consistency(self, noisy_market):
        from signalfolio.market import relative_prices

        result = run_backtest(
            noisy_market, build_states(noisy_market, None, 12), ew_policy(3), CostModel()
        )
        assert result.final_pv == pytest.approx(np.exp(result.rewards.sum()), rel=1e-12)
        rel = relative_prices(noisy_market)
        decided = np.arange(result.start_index, result.start_index + result.n_steps)
        gross = (result.actions * rel[:, decided].T).sum(axis=1)
        assert np.allclose(result.factors, result.betas * gross, atol=1e-12)
        assert np.allclose(result.rewards, np.log(result.factors), atol=1e-12)
        assert np.all(result.weights >= 0)
        assert np.allclose(result.weights.sum(axis=1), 1.0, atol=1e-12)
        assert result.start_index == 11

    def test_too_short_series_rejected(self, tiny_market):
        with pytest.raises(MarketDataError):
            run_backtest(tiny_market, build_states(tiny_market, None, 4), ew_policy(3), CostModel())

    @pytest.mark.parametrize(
        "bad_row",
        [
            [-0.1, 0.6, 0.5],
            [np.nan, 0.5, 0.5],
            [np.inf, 0.0, 0.0],
            [0.2, 0.3, 0.5 + 1e-9],
            [0.2, 0.3, 0.5 - 1e-9],
        ],
    )
    def test_bad_middle_action_row_rejected(self, noisy_market, bad_row):
        def policy(obs):
            actions = np.full((len(obs), 3), 1.0 / 3.0)
            actions[len(obs) // 2] = bad_row
            return actions

        with pytest.raises(EngineError):
            run_backtest(noisy_market, build_states(noisy_market, None, 10), policy, CostModel())

    @pytest.mark.parametrize("shape", [lambda t: (t, 2), lambda t: (t - 1, 3), lambda t: (3,)])
    def test_wrong_action_shape_rejected(self, noisy_market, shape):
        def policy(obs):
            out = np.zeros(shape(len(obs)))
            out[..., 0] = 1.0
            return out

        with pytest.raises(EngineError, match="shape"):
            run_backtest(noisy_market, build_states(noisy_market, None, 10), policy, CostModel())

    @pytest.mark.parametrize(
        "states",
        [
            # states built at window 10 on a series two steps longer: the row
            # count says window 8, whose rows are 6 columns narrower
            lambda p: build_states(
                generate_synthetic(n_assets=2, n_steps=p.n_steps + 2), None, 10
            ),
            lambda p: build_states(p, None, 10)[2:],
            lambda p: build_states(p, None, 10)[0],
            lambda p: build_states(p, None, 10)[None],
        ],
        ids=["other-window", "rows-dropped", "one-row", "3-d"],
    )
    def test_states_of_another_shape_rejected(self, noisy_market, states):
        with pytest.raises(EngineError, match="states of shape"):
            run_backtest(noisy_market, states(noisy_market), ew_policy(3), CostModel())

    def test_json_round_trip(self, tmp_path, noisy_market):
        result = run_backtest(
            noisy_market, build_states(noisy_market, None, 10), ew_policy(3), CostModel()
        )
        path = tmp_path / "result.json"
        result.save(path)
        loaded = BacktestResult.load(path)
        assert np.array_equal(loaded.rewards, result.rewards)
        assert np.array_equal(loaded.actions, result.actions)
        assert loaded.final_pv == result.final_pv
        assert loaded.start_index == result.start_index
