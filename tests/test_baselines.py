from __future__ import annotations

import itertools

import numpy as np
import pytest

from conftest import random_simplex
from scalar import olmar_action, wmamr_action
from signalfolio.baselines import (
    CRPPolicy,
    OLMARPolicy,
    WMAMRPolicy,
    ew_policy,
    hold_cash_policy,
    simplex_project,
)
from signalfolio.engine import CostModel, EngineError, run_backtest
from signalfolio.market import PriceSeries, generate_synthetic, relative_prices
from signalfolio.signals import build_states, close_windows


def project_by_support_search(v: np.ndarray) -> np.ndarray:
    """Exact simplex projection by trying every support set."""
    d = v.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            theta = (sum(v[i] for i in support) - 1.0) / r
            x = np.zeros(d)
            for i in support:
                x[i] = v[i] - theta
            if np.any(x[list(support)] < -1e-12):
                continue
            dist = float(((x - v) ** 2).sum())
            if dist < best_dist:
                best, best_dist = x, dist
    return best


class TestSimplexProject:
    def test_feasible_point_unchanged(self):
        v = np.array([0.2, 0.5, 0.3])
        assert np.allclose(simplex_project(v), v, atol=1e-12)

    def test_single_large_coordinate(self):
        assert np.allclose(simplex_project([2.0, 0.0]), [1.0, 0.0], atol=1e-12)

    def test_symmetric_excess_spread_evenly(self):
        out = simplex_project([0.5, 0.5, 0.5])
        assert np.allclose(out, 1.0 / 3.0, atol=1e-12)

    def test_matches_support_search(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            d = int(rng.integers(2, 5))
            v = rng.normal(0, 2, d)
            fast = simplex_project(v)
            exact = project_by_support_search(v)
            assert np.allclose(fast, exact, atol=1e-6)
            assert fast.min() >= 0
            assert abs(fast.sum() - 1.0) < 1e-9

    def test_bitwise_equal_to_vectorised_threshold(self):
        # the threshold in plain floats against the numpy sort-cumsum form,
        # on vectors of 2 to 11 entries, every third rounded to make ties
        def vectorised(v):
            u = np.sort(v)[::-1]
            css = np.cumsum(u) - 1.0
            rho = int(np.nonzero(u > css / np.arange(1, v.size + 1))[0][-1])
            return np.maximum(v - css[rho] / (rho + 1.0), 0.0)

        rng = np.random.default_rng(21)
        for i in range(10_000):
            v = rng.normal(0.0, rng.choice([0.1, 1.0, 10.0]), int(rng.integers(2, 12)))
            if i % 3 == 0:
                v = np.round(v, 1)
            assert vectorised(v).tobytes() == simplex_project(v).tobytes()

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            once = simplex_project(rng.normal(0, 3, 4))
            twice = simplex_project(once)
            assert np.allclose(once, twice, atol=1e-12)

    def test_rejects_matrix_and_nan(self):
        with pytest.raises(EngineError):
            simplex_project(np.ones((2, 2)))
        with pytest.raises(EngineError):
            simplex_project([np.nan, 0.5])


class TestFixedMixPolicies:
    def test_crp_rejects_off_simplex(self):
        with pytest.raises(EngineError):
            CRPPolicy(np.array([0.6, 0.6]))

    def test_ew_is_uniform_crp(self, noisy_market):
        obs = build_states(noisy_market, None, window=10)
        ew = ew_policy(3)
        crp = CRPPolicy(np.full(3, 1.0 / 3.0))
        assert np.array_equal(ew(obs), crp(obs))

    def test_policy_output_is_a_copy(self, noisy_market):
        obs = build_states(noisy_market, None, window=10)
        policy = ew_policy(3)
        out = policy(obs)
        out[0, 0] = 99.0
        assert policy(obs)[0, 0] == pytest.approx(1.0 / 3.0)

    def test_hold_cash_backtest_flat(self, noisy_market):
        cm = CostModel(c_buy=0.005, c_sell=0.005)
        result = run_backtest(
            noisy_market, build_states(noisy_market, None, 10), hold_cash_policy(3), cm
        )
        assert np.all(np.abs(result.pv - 1.0) <= 1e-12)

    def test_crp_matches_wealth_product(self, noisy_market):
        target = np.array([0.2, 0.5, 0.3])
        cm = CostModel(c_buy=0.0, c_sell=0.0)
        result = run_backtest(
            noisy_market, build_states(noisy_market, None, 10), CRPPolicy(target), cm
        )
        rel = relative_prices(noisy_market)
        wealth = 1.0
        for t in range(9, noisy_market.n_steps - 1):
            wealth *= float(target @ rel[:, t])
        assert result.final_pv == pytest.approx(wealth, rel=1e-10)


def olmar_reference(b, hist, epsilon, window):
    """Independent re-derivation used to replay the update rule."""
    b = np.asarray(b, float)
    hist = np.asarray(hist, float)
    if hist.shape[0] < window:
        return b.copy()
    predicted = np.zeros(b.size)
    for k in range(window):
        term = np.ones(b.size)
        for j in range(k + 1):
            term = term / hist[hist.shape[0] - 1 - j]
        predicted += term
    predicted /= window
    if float(b @ predicted) >= epsilon:
        return b.copy()
    centered = predicted - predicted.mean()
    nsq = float(centered @ centered)
    if nsq <= 1e-300:
        return b.copy()
    return project_by_support_search(b + (epsilon - float(b @ predicted)) / nsq * centered)


def wmamr_reference(b, hist, epsilon, window):
    b = np.asarray(b, float)
    hist = np.asarray(hist, float)
    if hist.shape[0] < window:
        return b.copy()
    avg = hist[-window:].mean(axis=0)
    loss = float(b @ avg) - epsilon
    if loss <= 0.0:
        return b.copy()
    centered = avg - avg.mean()
    nsq = float(centered @ centered)
    if nsq <= 1e-300:
        return b.copy()
    return project_by_support_search(b - (loss / nsq) * centered)


def reversion_loop_reference(b, hist, epsilon, window, olmar):
    """One step as a plain per-row loop: row prediction, row dots, checked projection.

    Same arithmetic as the row kernel, so the policies must match it bit for bit.
    """
    if hist.shape[0] < window:
        return b
    if olmar:
        x = np.cumprod(1.0 / hist[-1 : -window - 1 : -1], axis=0).mean(axis=0)
    else:
        x = hist[-window:].mean(axis=0)
    gap = epsilon - float(b @ x)
    if (gap if olmar else -gap) <= 0.0:
        return b
    centered = x - x.mean()
    nsq = float(centered @ centered)
    return b if nsq <= 1e-300 else simplex_project(b + (gap / nsq) * centered)


class TestOlmar:
    def test_insufficient_history_passthrough(self):
        b = np.array([0.3, 0.3, 0.4])
        hist = np.ones((2, 3))
        assert np.array_equal(olmar_action(b, hist, window=5), b)

    def test_flat_history_passthrough(self):
        b = np.array([0.3, 0.3, 0.4])
        assert np.array_equal(olmar_action(b, np.ones((6, 3)), window=5), b)

    def test_satisfied_constraint_passthrough(self):
        b = np.array([0.5, 0.5])
        hist = np.array([[1.0, 0.5], [1.0, 0.5], [1.0, 0.5]])
        # inverse relatives compound fast, so a tiny epsilon is already met
        assert np.array_equal(olmar_action(b, hist, epsilon=1.0, window=3), b)

    def test_small_step_stays_interior(self):
        # pre-projection vector sums to one by construction; with a gentle
        # step it stays nonnegative, so the projection is the identity and
        # the update is pure closed-form arithmetic
        b = np.array([0.25, 0.25, 0.25, 0.25])
        hist = np.array(
            [
                [1.0, 1.01, 0.99, 1.0],
                [1.0, 0.99, 1.02, 1.0],
                [1.0, 1.02, 0.98, 1.01],
            ]
        )
        eps = 1.003
        out = olmar_action(b, hist, epsilon=eps, window=3)
        predicted = np.cumprod(1.0 / hist[::-1], axis=0).mean(axis=0)
        centered = predicted - predicted.mean()
        step = (eps - float(b @ predicted)) / float(centered @ centered)
        expected = b + step * centered
        assert expected.min() >= 0
        assert np.allclose(out, expected, atol=1e-12)
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_replay_matches_reference(self):
        rng = np.random.default_rng(77)
        b = np.full(4, 0.25)
        b_ref = b.copy()
        hist = np.hstack([np.ones((40, 1)), np.exp(rng.normal(0, 0.05, (40, 3)))])
        for t in range(5, 40):
            b = olmar_action(b, hist[:t], epsilon=10.0, window=5)
            b_ref = olmar_reference(b_ref, hist[:t], 10.0, 5)
            assert np.allclose(b, b_ref, atol=1e-10)

    def test_bad_inputs(self):
        b = np.array([0.5, 0.5])
        with pytest.raises(EngineError):
            olmar_action(b, np.ones((4, 3)))
        with pytest.raises(EngineError):
            olmar_action(b, np.ones((4, 2)), window=0)


class TestWmamr:
    def test_insufficient_history_passthrough(self):
        b = np.array([0.5, 0.5])
        assert np.array_equal(wmamr_action(b, np.ones((3, 2)), window=5), b)

    def test_flat_history_passthrough(self):
        # every average relative is one, so the loss is exactly epsilon - 1
        b = np.array([0.2, 0.8])
        assert np.array_equal(wmamr_action(b, np.ones((6, 2)), epsilon=1.0), b)

    def test_recent_winner_gets_trimmed(self):
        b = np.array([0.5, 0.5])
        hist = np.tile([1.0, 1.1], (5, 1))
        out = wmamr_action(b, hist, epsilon=1.0, window=5)
        assert out[1] < 0.5
        assert out.sum() == pytest.approx(1.0, abs=1e-12)

    def test_window_one_uses_latest_row(self):
        b = np.array([0.5, 0.5])
        hist = np.array([[1.0, 0.5], [1.0, 1.3]])
        out = wmamr_action(b, hist, epsilon=1.0, window=1)
        expected = wmamr_reference(b, hist[-1:], 1.0, 1)
        assert np.allclose(out, expected, atol=1e-10)

    def test_replay_matches_reference(self):
        rng = np.random.default_rng(13)
        b = np.full(3, 1.0 / 3.0)
        b_ref = b.copy()
        hist = np.hstack([np.ones((30, 1)), np.exp(rng.normal(0.01, 0.08, (30, 2)))])
        for t in range(5, 30):
            b = wmamr_action(b, hist[:t], epsilon=1.0, window=5)
            b_ref = wmamr_reference(b_ref, hist[:t], 1.0, 5)
            assert np.allclose(b, b_ref, atol=1e-10)


class TestReversionPolicies:
    def _obs(self, *rows, window):
        close = np.vstack([np.ones(len(rows[0])), np.asarray(rows, float)])
        prices = PriceSeries(
            close=close,
            timestamps=tuple(range(close.shape[1])),
            assets=tuple(f"A{i}" for i in range(len(rows))),
        )
        return build_states(prices, None, window=window)

    def test_history_extraction(self):
        # the first window is [[1, 2, 4], [3, 3, 1.5]], so the history the
        # update sees is the ratio of consecutive closes with cash at 1
        obs = self._obs([1.0, 2.0, 4.0, 3.0, 5.0], [3.0, 3.0, 1.5, 2.0, 2.0], window=3)
        hist = np.array([[1.0, 2.0, 1.0], [1.0, 2.0, 0.5]])
        uniform = np.full(3, 1.0 / 3.0)
        out = WMAMRPolicy(3, epsilon=1.0, window=2)(obs)
        assert np.allclose(out[0], wmamr_action(uniform, hist, 1.0, 2), atol=1e-12)

    def test_first_call_from_uniform(self):
        policy = OLMARPolicy(3, window=50)
        out = policy(self._obs(np.arange(1.0, 9.0), np.arange(8.0, 0.0, -1.0), window=6))
        # too little history for the window, so the uniform start passes
        # straight through
        assert np.allclose(out[0], 1.0 / 3.0, atol=1e-12)

    def test_repeated_calls_identical(self):
        rng = np.random.default_rng(4)
        prices = np.cumprod(1 + rng.normal(0, 0.05, (2, 20)), axis=1)
        obs = self._obs(*prices, window=12)
        policy = WMAMRPolicy(3, window=3)
        first = policy(obs)
        policy(self._obs(*prices[:, ::-1], window=12))
        assert np.array_equal(first, policy(obs))

    @pytest.mark.parametrize(
        "cls,action,n_assets,window",
        [
            pytest.param(
                cls, action, n, w,
                id=cls.__name__ + ("" if (n, w) == (3, 5) else f"-m{n + 1}-window{w}"),
            )
            for n, w in [(3, 5), (8, 5), (12, 5), (8, 15)]
            for cls, action in [(OLMARPolicy, olmar_action), (WMAMRPolicy, wmamr_action)]
        ],
    )
    def test_matches_full_window_replay(self, cls, action, n_assets, window):
        # references: each step sees the ratios of its whole normalized window,
        # through the public one-step action and through the per-row loop.
        # 9 and 13 components cross numpy's 8-element pairwise-summation
        # boundary; a policy window of 15 is longer than the 11 ratios.
        prices = generate_synthetic(n_assets=n_assets, n_steps=80, vol=0.03, seed=6)
        obs = build_states(prices, None, window=12)
        policy = cls(n_assets + 1, window=window)
        b = looped = np.full(n_assets + 1, 1.0 / (n_assets + 1))
        expected, loop_expected = [], []
        for w in close_windows(obs, n_assets):
            hist = np.hstack([np.ones((11, 1)), (w[:, 1:] / w[:, :-1]).T])
            b = action(b, hist, policy.epsilon, policy.window)
            looped = reversion_loop_reference(
                looped, hist, policy.epsilon, policy.window, cls is OLMARPolicy
            )
            expected.append(b)
            loop_expected.append(looped)
        actions = policy(obs)
        assert np.array_equal(actions, np.stack(expected))
        assert np.array_equal(actions, np.stack(loop_expected))

    @pytest.mark.parametrize("m", [3, 4, 9, 13])
    def test_vectorised_predictions_equal_rows(self, m):
        hist = np.exp(np.random.default_rng(m).normal(0, 0.05, (40, 7, m)))
        for window in (1, 5, 7):
            olmar, wmamr = OLMARPolicy.predict(hist, window), WMAMRPolicy.predict(hist, window)
            for j, h in enumerate(hist):
                row = np.cumprod(1.0 / h[-1 : -window - 1 : -1], axis=0).mean(axis=0)
                assert np.array_equal(olmar[j], row)
                assert np.array_equal(wmamr[j], h[-window:].mean(axis=0))

    @pytest.mark.parametrize("cls", [OLMARPolicy, WMAMRPolicy])
    def test_window_below_one_rejected_at_construction(self, cls):
        with pytest.raises(EngineError):
            cls(3, window=0)

    @pytest.mark.parametrize("cls", [OLMARPolicy, WMAMRPolicy])
    def test_backtest_outputs_valid(self, cls):
        prices = generate_synthetic(n_assets=3, n_steps=80, vol=0.03, seed=6)
        result = run_backtest(prices, build_states(prices, None, 12), cls(4), CostModel())
        assert np.all(result.actions >= 0)
        assert np.allclose(result.actions.sum(axis=1), 1.0, atol=1e-9)
        assert np.isfinite(result.final_pv)
