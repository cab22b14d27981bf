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
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path

import numpy as np

from .market import PriceSeries, _frozen, relative_prices, write_json
from .signals import decision_indices, state_dim

SIMPLEX_TOL = 1e-12
MAX_ITERS, TOL = 100, 1e-10  # the cost fixed point's iteration cap and tolerance


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


@dataclass(frozen=True)
class CostModel:
    """Commission rates and the cost mode.

    mode "fixed_point" solves the exact wealth-shrink factor; "simple"
    charges a blended one-way rate on turnover and exists as a
    differentiable cross-check.
    """

    c_buy: float = 0.0025
    c_sell: float = 0.0025
    mode: str = "fixed_point"

    def __post_init__(self) -> None:
        if not 0.0 <= self.c_buy < 1.0 or not 0.0 <= self.c_sell < 1.0:
            raise EngineError("commission rates must lie in [0, 1)")
        if self.mode not in ("fixed_point", "simple"):
            raise EngineError(f"unknown cost mode {self.mode!r}")

    @property
    def blended_rate(self) -> float:
        return 0.5 * (self.c_buy + self.c_sell)


def accumulate(rewards) -> np.ndarray:
    """Portfolio value trajectory p_t = exp(cumulative reward), from p_0 = 1."""
    rewards = np.asarray(rewards, dtype=float)
    return np.concatenate([[1.0], np.exp(np.cumsum(rewards))])


def _row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1) bit for bit, without numpy's slow reduction over a short axis.

    numpy adds up to 7 entries left to right, as the column-by-column adds
    do; from 8 it sums pairwise and rounds differently, so there it stays.
    """
    if not 2 <= a.shape[-1] <= 7:
        return a.sum(axis=-1)
    total = a[..., 0] + a[..., 1]
    for j in range(2, a.shape[-1]):
        total += a[..., j]
    return total


def _drift(prev_a: np.ndarray, prev_y: np.ndarray) -> np.ndarray:
    """Drifted weights of every row; rows lie along the last axis, any leading axes."""
    num = prev_y * prev_a
    return num / _row_sum(num)[..., None]


def _fixed_point_batch(
    w_drift: np.ndarray, a: np.ndarray, cm: CostModel
) -> tuple[np.ndarray, int]:
    """Shrink factor of every row and the iterations the slowest row needed.

    Iterates mu <- [1 - cb*w0 - (cs + cb - cs*cb) * sum_i max(wi - mu*ai, 0)]
    / (1 - cb*a0) from mu = 1 until successive values differ by less than
    TOL in every row.  Zero rates give mu = 1 in zero iterations.
    """
    t_total = a.shape[0]
    cb, cs = cm.c_buy, cm.c_sell
    if cb == 0.0 and cs == 0.0:
        return np.ones(t_total), 0
    k = cs + cb - cs * cb
    num0, denom = 1.0 - cb * w_drift[:, 0], 1.0 - cb * a[:, 0]
    w_rest, a_rest = w_drift[:, 1:], a[:, 1:]
    mu = np.ones(t_total)
    for i in range(MAX_ITERS):
        sold = _row_sum(np.maximum(w_rest - mu[:, None] * a_rest, 0.0))
        nxt = (num0 - k * sold) / denom
        done = np.all(np.abs(nxt - mu) < TOL)
        mu = nxt
        if done:
            return mu, i + 1
    raise ConvergenceError(f"cost fixed point did not converge in {MAX_ITERS} iterations")


def _betas(drifted: np.ndarray, actions: np.ndarray, cm: CostModel) -> np.ndarray:
    """Shrink factor of every rebalance from a drifted row to its action row.

    Simple mode takes any leading axes, such as the cells of a training
    step; the fixed point takes (T, m).
    """
    if cm.mode == "simple":
        moved = actions[..., 1:] - drifted[..., 1:]
        betas = 1.0 - cm.blended_rate * _row_sum(np.abs(moved, out=moved))
        if (betas <= 0.0).any():
            raise EngineError("cost rate too large for turnover in simple mode")
        return betas
    return _fixed_point_batch(drifted, actions, cm)[0]


def reward_chain(
    actions: np.ndarray,
    rel: np.ndarray,
    entry_weights: np.ndarray,
    entry_rel: np.ndarray,
    cm: CostModel,
) -> BacktestResult:
    """Thread the weight/cost recursion over a whole action sequence.

    actions and rel are (T, m) row-per-step matrices; entry_weights and
    entry_rel describe the holdings and price move immediately before the
    first step.  Returns the chain as a result starting at index 0: the
    drifted pre-trade weights, shrink factors and wealth factors
    beta * (a . y), from which the log rewards derive.
    """
    actions = np.asarray(actions, dtype=float)
    rel = np.asarray(rel, dtype=float)
    if actions.ndim != 2 or actions.shape != rel.shape:
        raise EngineError("actions and relative prices must be matching (T, m) matrices")
    held = actions * rel  # rows 1... drift from the products that give gross
    gross = _row_sum(held)
    drifted = np.vstack([_drift(entry_weights, entry_rel), held[:-1] / gross[:-1, None]])
    betas = _betas(drifted, actions, cm)
    return BacktestResult(0, actions, drifted, betas, betas * gross)


_STORED = ("actions", "weights", "betas", "factors")
_DERIVED = ("rewards", "pv", "final_pv")
_FIELDS = ("start_index", *_STORED, *_DERIVED)  # the keys of a saved result


@dataclass(frozen=True)
class BacktestResult:
    """One reward chain: per step, the action, the drifted pre-trade weights, beta and factor.

    These cannot be rebuilt; rewards = ln(factors), pv = accumulate(rewards)
    and final_pv = pv[-1] derive from them once, on first read.
    """

    start_index: int
    actions: np.ndarray
    weights: np.ndarray
    betas: np.ndarray
    factors: np.ndarray

    def __post_init__(self) -> None:
        for name in _STORED:
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        if len({getattr(self, name).shape[:1] for name in _STORED}) != 1:
            raise EngineError("inconsistent backtest arrays")

    @property
    def n_steps(self) -> int:
        return self.factors.size

    @cached_property
    def rewards(self) -> np.ndarray:
        return _frozen(np.log(self.factors))

    @cached_property
    def pv(self) -> np.ndarray:
        return _frozen(accumulate(self.rewards))

    @cached_property
    def final_pv(self) -> float:
        return float(self.pv[-1])

    def save(self, path: str | Path) -> None:
        write_json(path, {name: getattr(self, name) for name in _FIELDS})

    @classmethod
    def load(cls, path: str | Path) -> BacktestResult:
        """Read a saved result; rewards, pv and final_pv must equal their rebuilt values."""
        data = json.loads(Path(path).read_text())
        for name in _FIELDS:
            if not isinstance(data, dict) or name not in data:
                raise EngineError(f"field {name!r} is missing")
        arrays = (np.asarray(data[name], dtype=float) for name in _STORED)
        result = cls(int(data["start_index"]), *arrays)
        for name in _DERIVED:
            if not np.array_equal(data[name], getattr(result, name)):
                raise EngineError(f"field {name!r} differs from its value rebuilt from the factors")
        return result


def run_backtest(prices: PriceSeries, states: np.ndarray, policy, cm: CostModel) -> BacktestResult:
    """Run a policy over a price series, starting from all cash.

    states is the series' state matrix, build_states(prices, signals,
    window), one row per decision step; its length fixes the window.  The
    policy is called once with it and must return a (T, n + 1) matrix whose
    rows are simplex allocations, one per decision step.  The first
    window - 1 steps only feed history; the final step has no observable
    move, so a series of n steps yields n - window decisions.
    """
    n, states = prices.n_assets, np.asarray(states)
    window = prices.n_steps - len(states) if states.ndim == 2 else 0
    if window < 1 or states.shape[1] != state_dim(n, window):
        raise EngineError(f"states of shape {states.shape} do not fit {n} assets' prices")
    steps, m = decision_indices(prices.n_steps, window), n + 1
    actions = np.asarray(policy(states), dtype=float)
    if actions.shape != (len(states), m):
        raise EngineError(f"actions have shape {actions.shape}, want {(len(states), m)}")
    as_simplex(actions, "actions")
    rel_rows = relative_prices(prices)[:, steps].T
    chain = reward_chain(actions, rel_rows, all_cash(m), np.ones(m), cm)
    return replace(chain, start_index=steps.start)
