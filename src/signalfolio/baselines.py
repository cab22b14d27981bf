"""Classical rebalancing strategies run through the same backtest engine.

All strategies decide over the full cash + assets simplex and see only the
price history embedded in each observation window, so comparisons against
the learned policy are like for like (same cost model, same information).
"""

from __future__ import annotations

import numpy as np

from .engine import EngineError, all_cash, as_simplex
from .signals import close_windows


def _project(v: np.ndarray) -> np.ndarray:
    """Euclidean projection of a finite vector onto the simplex (sort-threshold)."""
    # Plain floats: on vectors this short numpy's per-call cost outweighs the sums.
    total, theta = 0.0, 0.0
    for k, u in enumerate(sorted(v.tolist(), reverse=True)):
        total += u
        if u > (total - 1.0) / (k + 1):
            theta = (total - 1.0) / (k + 1.0)
    return np.maximum(v - theta, 0.0)


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise EngineError("can only project a vector")
    if not np.all(np.isfinite(v)):
        raise EngineError("cannot project non-finite values")
    return _project(v)


def _reversion_path(b, predicted: np.ndarray, epsilon: float, sign: float) -> np.ndarray:
    """(T, m) weights from b after a passive-aggressive step per predicted row x.

    A row steps along the centered x toward b . x = epsilon and projects back
    onto the simplex when sign * (epsilon - b . x) > 0 and x is not flat.
    """
    centered = predicted - predicted.mean(axis=1, keepdims=True)
    path = np.empty_like(predicted)
    for j, (x, c) in enumerate(zip(predicted, centered)):
        gap = epsilon - float(b @ x)
        if sign * gap > 0.0:
            norm_sq = float(c @ c)  # per row: a batched reduction changes bits
            if norm_sq > 1e-300:
                b = _project(b + (gap / norm_sq) * c)
        path[j] = b
    return path


class CRPPolicy:
    """Fixed-mix policy; the uniform target is the equal-weight baseline."""

    def __init__(self, target) -> None:
        self.target = as_simplex(target, "target")

    def __call__(self, states: np.ndarray) -> np.ndarray:
        return np.tile(self.target, (len(states), 1))


def ew_policy(n_components: int) -> CRPPolicy:
    return CRPPolicy(np.full(n_components, 1.0 / n_components))


def hold_cash_policy(n_components: int) -> CRPPolicy:
    return CRPPolicy(all_cash(n_components))


class _ReversionPolicy:
    def __init__(self, m: int, epsilon: float, window: int) -> None:
        if window < 1:
            raise EngineError(f"window must be >= 1, got {window}")
        self.m = m
        self.epsilon = epsilon
        self.window = window

    def __call__(self, states: np.ndarray) -> np.ndarray:
        """Update from a uniform start through every decision step in turn.

        The history of a step is the ratio of consecutive normalized closes
        in its window (cash relative 1).  Only the last `window` ratios are
        formed; a shorter history makes every update pass through.
        """
        t_total, m = len(states), self.m
        windows = close_windows(states, m - 1)
        uniform = np.full(m, 1.0 / m)
        if windows.shape[2] - 1 < self.window:
            return np.tile(uniform, (t_total, 1))
        w = windows[:, :, -self.window - 1 :]
        hist = np.ones((t_total, self.window, m))
        hist[:, :, 1:] = (w[:, :, 1:] / w[:, :, :-1]).transpose(0, 2, 1)
        return _reversion_path(uniform, self.predict(hist, self.window), self.epsilon, self.sign)


class OLMARPolicy(_ReversionPolicy):
    sign = 1.0

    def __init__(self, m: int, epsilon: float = 10.0, window: int = 5) -> None:
        super().__init__(m, epsilon, window)

    @staticmethod
    def predict(hist: np.ndarray, window: int) -> np.ndarray:
        """Mean cumulative inverse relative over the last window of each history."""
        return np.cumprod(1.0 / hist[:, ::-1][:, :window], axis=1).mean(axis=1)


class WMAMRPolicy(_ReversionPolicy):
    sign = -1.0

    def __init__(self, m: int, epsilon: float = 1.0, window: int = 5) -> None:
        super().__init__(m, epsilon, window)

    @staticmethod
    def predict(hist: np.ndarray, window: int) -> np.ndarray:
        """Mean relative over the last window of each history."""
        return hist[:, -window:].mean(axis=1)
