"""Portfolio dynamics: weight drift, rebalancing cost, log rewards, backtests.

Weight vectors live on the probability simplex over cash + n risky assets,
with cash at index 0.  One step: prices move by y, held weights drift, the
policy picks a target allocation, and the rebalance shrinks wealth by a
factor beta solved from a fixed point of the commission structure.  The
step reward is ln(beta * (a . y)), so portfolio value is the exponential
of the reward sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .market import PriceSeries, _frozen, relative_prices, write_json
from .signals import SignalSeries, build_states

SIMPLEX_TOL = 1e-12


class ConvergenceError(RuntimeError):
    """Cost fixed point failed to converge."""


class EngineError(ValueError):
    """Invalid portfolio-engine input."""


def as_simplex(v, name: str = "weights") -> np.ndarray:
    """Validate and return a simplex vector, or a (T, m) matrix of simplex rows.

    The error names the first bad row of a matrix.
    """
    arr = np.asarray(v, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] < 2:
        raise EngineError(f"{name} must be a vector over cash + assets")
    rows = arr.reshape(-1, arr.shape[-1])
    bad = ~np.isfinite(rows).all(axis=1) | (rows < 0.0).any(axis=1)
    bad |= np.abs(rows.sum(axis=1) - 1.0) > SIMPLEX_TOL
    if np.any(bad):
        where = f"{name} row {np.argmax(bad)}" if arr.ndim == 2 else name
        raise EngineError(f"{where} must be finite, non-negative and sum to 1")
    return arr


def all_cash(m: int) -> np.ndarray:
    w = np.zeros(m)
    w[0] = 1.0
    return w


def _check_rel(y, m: int) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    if y.shape != (m,):
        raise EngineError(f"relative prices have shape {y.shape}, want ({m},)")
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise EngineError("relative prices must be finite and strictly positive")
    if abs(float(y[0]) - 1.0) > SIMPLEX_TOL:
        raise EngineError("cash relative price must be 1")
    return y


@dataclass(frozen=True)
class CostModel:
    """Commission rates and the fixed-point solver settings.

    mode "fixed_point" solves the exact wealth-shrink factor; "simple"
    charges a blended one-way rate on turnover and exists as a
    differentiable cross-check.
    """

    c_buy: float = 0.0025
    c_sell: float = 0.0025
    max_iters: int = 100
    tol: float = 1e-10
    mode: str = "fixed_point"

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_buy < 1.0 or not 0.0 <= self.c_sell < 1.0:
            raise EngineError("commission rates must lie in [0, 1)")
        if self.max_iters < 1 or self.tol <= 0.0:
            raise EngineError("bad solver settings")
        if self.mode not in ("fixed_point", "simple"):
            raise EngineError(f"unknown cost mode {self.mode!r}")

    @property
    def blended_rate(self) -> float:
        return 0.5 * (self.c_buy + self.c_sell)


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


def accumulate(rewards) -> np.ndarray:
    """Portfolio value trajectory p_t = exp(cumulative reward), from p_0 = 1."""
    rewards = np.asarray(rewards, dtype=float)
    return np.concatenate([[1.0], np.exp(np.cumsum(rewards))])


@dataclass(frozen=True)
class ChainResult:
    """Vectorized per-step quantities of one reward chain."""

    drifted: np.ndarray
    betas: np.ndarray
    factors: np.ndarray
    rewards: np.ndarray


def _drift(prev_a: np.ndarray, prev_y: np.ndarray) -> np.ndarray:
    """Drifted weights of every row; rows lie along the last axis, any leading axes."""
    num = prev_y * prev_a
    return num / num.sum(axis=-1, keepdims=True)


def _fixed_point_batch(
    w_drift: np.ndarray, a: np.ndarray, cm: CostModel
) -> tuple[np.ndarray, int]:
    """Shrink factor of every row and the iterations the slowest row needed.

    Iterates mu <- [1 - cb*w0 - (cs + cb - cs*cb) * sum_i max(wi - mu*ai, 0)]
    / (1 - cb*a0) from mu = 1 until successive values differ by less than
    the tolerance in every row.  Zero rates give mu = 1 in zero iterations.
    """
    t_total = a.shape[0]
    cb, cs = cm.c_buy, cm.c_sell
    if cb == 0.0 and cs == 0.0:
        return np.ones(t_total), 0
    k = cs + cb - cs * cb
    denom = 1.0 - cb * a[:, 0]
    mu = np.ones(t_total)
    for i in range(cm.max_iters):
        sold = np.maximum(w_drift[:, 1:] - mu[:, None] * a[:, 1:], 0.0).sum(axis=1)
        nxt = (1.0 - cb * w_drift[:, 0] - k * sold) / denom
        done = np.all(np.abs(nxt - mu) < cm.tol)
        mu = nxt
        if done:
            return mu, i + 1
    raise ConvergenceError(f"cost fixed point did not converge in {cm.max_iters} iterations")


def _betas(drifted: np.ndarray, actions: np.ndarray, cm: CostModel) -> np.ndarray:
    """Shrink factor of every rebalance from a drifted row to its action row.

    Simple mode takes any leading axes, such as the cells of a training
    step; the fixed point takes (T, m).
    """
    if cm.mode == "simple":
        turnover = np.abs(actions[..., 1:] - drifted[..., 1:]).sum(axis=-1)
        betas = 1.0 - cm.blended_rate * turnover
        if np.any(betas <= 0.0):
            raise EngineError("cost rate too large for turnover in simple mode")
        return betas
    return _fixed_point_batch(drifted, actions, cm)[0]


def reward_chain(
    actions: np.ndarray,
    rel: np.ndarray,
    entry_weights: np.ndarray,
    entry_rel: np.ndarray,
    cm: CostModel,
) -> ChainResult:
    """Thread the weight/cost recursion over a whole action sequence.

    actions and rel are (T, m) row-per-step matrices; entry_weights and
    entry_rel describe the holdings and price move immediately before the
    first step.  Returns drifted pre-trade weights, shrink factors, wealth
    factors beta * (a . y) and log rewards.
    """
    actions = np.asarray(actions, dtype=float)
    rel = np.asarray(rel, dtype=float)
    if actions.ndim != 2 or actions.shape != rel.shape:
        raise EngineError("actions and relative prices must be matching (T, m) matrices")
    prev_a = np.vstack([entry_weights, actions[:-1]])
    prev_y = np.vstack([entry_rel, rel[:-1]])
    drifted = _drift(prev_a, prev_y)
    betas = _betas(drifted, actions, cm)
    gross = (actions * rel).sum(axis=1)
    factors = betas * gross
    return ChainResult(
        drifted=drifted,
        betas=betas,
        factors=factors,
        rewards=np.log(factors),
    )


_RESULT_ARRAYS = ("actions", "weights", "betas", "factors", "rewards", "pv")


@dataclass(frozen=True)
class BacktestResult:
    """Everything recorded over one backtest run."""

    start_index: int
    actions: np.ndarray
    weights: np.ndarray
    betas: np.ndarray
    factors: np.ndarray
    rewards: np.ndarray
    pv: np.ndarray

    def __post_init__(self) -> None:
        for name in _RESULT_ARRAYS:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        t_total = self.rewards.size
        if self.pv.size != t_total + 1 or self.actions.shape[0] != t_total:
            raise EngineError("inconsistent backtest arrays")

    @property
    def n_steps(self) -> int:
        return self.rewards.size

    @property
    def final_pv(self) -> float:
        return float(self.pv[-1])

    def save(self, path: str | Path) -> None:
        fields = {name: getattr(self, name) for name in _RESULT_ARRAYS}
        write_json(path, {**fields, "start_index": self.start_index, "final_pv": self.final_pv})

    @classmethod
    def load(cls, path: str | Path) -> "BacktestResult":
        data = json.loads(Path(path).read_text())
        arrays = {name: np.asarray(data[name], dtype=float) for name in _RESULT_ARRAYS}
        return cls(start_index=int(data["start_index"]), **arrays)


def run_backtest(
    prices: PriceSeries,
    policy,
    signals: SignalSeries | None = None,
    cm: CostModel | None = None,
    window: int = 30,
    lookback: int = 1,
) -> BacktestResult:
    """Run a policy over a price series, starting from all cash.

    The policy is called once with the episode's Observations and must
    return a (T, n + 1) matrix whose rows are simplex allocations, one per
    decision step.  The first window - 1 steps only feed history; the final
    step has no observable move, so a series of n steps yields n - window
    decisions.
    """
    cm = cm or CostModel()
    obs = build_states(prices, signals, window=window, lookback=lookback)
    m = prices.n_assets + 1
    actions = np.asarray(policy(obs), dtype=float)
    if actions.shape != (len(obs), m):
        raise EngineError(f"actions have shape {actions.shape}, want {(len(obs), m)}")
    as_simplex(actions, "actions")
    rel_rows = relative_prices(prices)[:, obs.steps].T
    chain = reward_chain(actions, rel_rows, all_cash(m), np.ones(m), cm)
    return BacktestResult(
        start_index=obs.steps.start,
        actions=actions,
        weights=chain.drifted,
        betas=chain.betas,
        factors=chain.factors,
        rewards=chain.rewards,
        pv=accumulate(chain.rewards),
    )
