"""One-step scalar calls of the kernels that training and backtests run.

No command runs this module: the package's cost, reward, objective and
reversion code works on whole (T, m) chains and batches of cells.  The
tests check one step at a time, so each function here is a thin, checked
call of the private kernel the commands use (engine._drift, _betas,
_fixed_point_batch and reward_chain; agent._forward_batch and
_lockstep_grads; baselines' _reversion_path with each policy's predict).
What they verify is therefore the code the commands run.
"""

from __future__ import annotations

import numpy as np

from signalfolio import agent
from signalfolio.agent import PolicyParams, _forward_batch, _lockstep_grads
from signalfolio.baselines import OLMARPolicy, WMAMRPolicy, _reversion_path
from signalfolio.engine import (
    SIMPLEX_TOL,
    CostModel,
    EngineError,
    _betas,
    _drift,
    _fixed_point_batch,
    _row_sum,
    all_cash,
    as_simplex,
    reward_chain,
)
from signalfolio.market import PriceSeries, relative_prices
from signalfolio.signals import build_states, decision_indices


def _check_rel(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise EngineError(f"relative prices have shape {y.shape}, want ({m},)")
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise EngineError("relative prices must be finite and strictly positive")
    if abs(float(y[0]) - 1.0) > SIMPLEX_TOL:
        raise EngineError("cash relative price must be 1")
    return y


def drift_weights(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Weights after prices move: (y * a) / sum(y * a)."""
    a = as_simplex(a, "action")
    y = _check_rel(y, a.size)
    return _drift(a[None], y[None])[0]


def cost_fixed_point(w_drift: np.ndarray, a: np.ndarray, cm: CostModel) -> tuple[float, int]:
    """Shrink factor mu of the rebalance from w_drift to a, and the iterations used."""
    mu, iters = _fixed_point_batch(w_drift[None], a[None], cm)
    return float(mu[0]), iters


def cost_factor(w_prev: np.ndarray, a: np.ndarray, y_prev: np.ndarray, cm: CostModel) -> float:
    """Wealth fraction surviving the rebalance from drifted w_prev to a."""
    a = as_simplex(a, "action")
    w_drift = drift_weights(w_prev, y_prev)
    return float(_betas(w_drift[None], a[None], cm)[0])


def step_reward(
    w_prev: np.ndarray,
    a: np.ndarray,
    y: np.ndarray,
    y_prev: np.ndarray,
    cm: CostModel,
) -> float:
    """Transaction-cost-adjusted log return of one step."""
    a = as_simplex(a, "action")
    y = _check_rel(y, a.size)
    w_prev = as_simplex(w_prev, "action")
    y_prev = _check_rel(y_prev, w_prev.size)
    return float(reward_chain(a[None], y[None], w_prev, y_prev, cm).rewards[0])


def episode(
    prices: PriceSeries, signals: np.ndarray | None = None, window: int = 30
) -> tuple[np.ndarray, np.ndarray]:
    """The (T, d) state matrix of prices and the (T, m) moves that follow its rows."""
    rel = relative_prices(prices)[:, decision_indices(prices.n_steps, window)].T
    return build_states(prices, signals, window), rel


def window_gradient(params: PolicyParams, states, rel, entry_weights, entry_rel, cm: CostModel):
    """agent.gradient for a window that enters holding entry_weights, moved by entry_rel.

    A one-cell call of the training step kernel, whose row 0 is a zero
    state with entry_weights as its action and entry_rel as its move.
    """
    grads = PolicyParams(np.empty((1, params.theta.size)), params.shapes)
    x = np.vstack([np.zeros(params.input_dim), states])[None]
    rel = np.vstack([entry_rel, rel])[None]
    one = PolicyParams(params.theta[None], params.shapes)
    _lockstep_grads(one, x, rel, np.array([True]), entry_weights, cm, grads)
    return [g[0] for g in grads.weights], [g[0] for g in grads.biases]


def objective(
    params: PolicyParams,
    states: np.ndarray,
    rel: np.ndarray,
    cm: CostModel,
    frozen_betas: np.ndarray | None = None,
) -> float:
    """agent.objective, or with frozen_betas the mean log reward at those shrink factors.

    Freezing the betas respects the fixed-point mode's stop-gradient
    convention, which the finite-difference oracle of the gradient needs.
    """
    if frozen_betas is None:
        return agent.objective(params, states, rel, cm)
    actions = _forward_batch(params, states)[0]
    gross = _row_sum(actions * rel)
    return float(np.mean(np.log(frozen_betas * gross)))


def episode_betas(params: PolicyParams, states, rel, cm: CostModel) -> np.ndarray:
    """Shrink factors the policy realizes on states and rel from all cash (for freezing)."""
    m = rel.shape[1]
    actions = _forward_batch(params, states)[0]
    return reward_chain(actions, rel, all_cash(m), np.ones(m), cm).betas


def _reversion_step(policy, b, y_history) -> np.ndarray:
    """One checked update of b from a (steps, m) history: a one-row kernel call."""
    b = as_simplex(b, "weights")
    hist = np.asarray(y_history, dtype=float)
    if hist.ndim != 2 or hist.shape[1] != b.size:
        raise EngineError("y_history must be (steps, assets) matching weights")
    if hist.shape[0] < policy.window:
        return b.copy()
    predicted = policy.predict(hist[None], policy.window)
    return _reversion_path(b, predicted, policy.epsilon, policy.sign)[0]


def olmar_action(
    b: np.ndarray, y_history: np.ndarray, epsilon: float = 10.0, window: int = 5
) -> np.ndarray:
    """Moving-average reversion step.

    Predicts the next relative price as the mean of cumulative inverse
    relatives over the window, then takes a passive-aggressive step toward
    satisfying b . x >= epsilon and projects back onto the simplex.  With
    too little history, a satisfied constraint or a flat prediction the
    weights pass through unchanged.
    """
    return _reversion_step(OLMARPolicy(np.size(b), epsilon, window), b, y_history)


def wmamr_action(
    b: np.ndarray, y_history: np.ndarray, epsilon: float = 1.0, window: int = 5
) -> np.ndarray:
    """Passive-aggressive mean reversion on the windowed average move.

    When the recent average relative return exceeds epsilon the weights
    step against it (recent winners get trimmed) and reproject; otherwise
    they pass through unchanged.
    """
    return _reversion_step(WMAMRPolicy(np.size(b), epsilon, window), b, y_history)
