"""Classical rebalancing strategies run through the same backtest engine.

All strategies decide over the full cash + assets simplex and see only the
price history embedded in each observation window, so comparisons against
the learned policy are like for like (same cost model, same information).
"""

from __future__ import annotations

import numpy as np

from .engine import EngineError, as_simplex
from .signals import Observations


def simplex_project(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex (sort-threshold)."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise EngineError("can only project a vector")
    if not np.all(np.isfinite(v)):
        raise EngineError("cannot project non-finite values")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u > css / idx)[0][-1])
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def crp_action(target: np.ndarray) -> np.ndarray:
    """Constantly rebalanced portfolio: always the fixed target mix."""
    return as_simplex(target, "target").copy()


def _reversion_inputs(b, y_history, window: int) -> tuple[np.ndarray, np.ndarray]:
    b = as_simplex(b, "weights")
    hist = np.asarray(y_history, dtype=float)
    if hist.ndim != 2 or hist.shape[1] != b.size:
        raise EngineError("y_history must be (steps, assets) matching weights")
    if window < 1:
        raise EngineError("window must be >= 1")
    return b, hist


def _reversion_step(b: np.ndarray, x: np.ndarray, epsilon: float, sign: float) -> np.ndarray:
    """Passive-aggressive step of b along the centered x toward b . x = epsilon.

    Taken only when sign * (epsilon - b . x) > 0 and x is not flat; the
    stepped weights are projected back onto the simplex.
    """
    gap = epsilon - float(b @ x)
    if sign * gap <= 0.0:
        return b.copy()
    centered = x - x.mean()
    norm_sq = float(centered @ centered)
    if norm_sq <= 1e-300:
        return b.copy()
    return simplex_project(b + (gap / norm_sq) * centered)


def olmar_action(
    b: np.ndarray,
    y_history: np.ndarray,
    epsilon: float = 10.0,
    window: int = 5,
) -> np.ndarray:
    """Moving-average reversion step.

    Predicts the next relative price as the mean of cumulative inverse
    relatives over the window, then takes a passive-aggressive step toward
    satisfying b . x >= epsilon and projects back onto the simplex.  With
    too little history, a satisfied constraint or a flat prediction the
    weights pass through unchanged.
    """
    b, hist = _reversion_inputs(b, y_history, window)
    if hist.shape[0] < window:
        return b.copy()
    predicted = np.cumprod(1.0 / hist[-1 : -window - 1 : -1], axis=0).mean(axis=0)
    return _reversion_step(b, predicted, epsilon, 1.0)


def wmamr_action(
    b: np.ndarray,
    y_history: np.ndarray,
    epsilon: float = 1.0,
    window: int = 5,
) -> np.ndarray:
    """Passive-aggressive mean reversion on the windowed average move.

    When the recent average relative return exceeds epsilon the weights
    step against it (recent winners get trimmed) and reproject; otherwise
    they pass through unchanged.
    """
    b, hist = _reversion_inputs(b, y_history, window)
    if hist.shape[0] < window:
        return b.copy()
    return _reversion_step(b, hist[-window:].mean(axis=0), epsilon, -1.0)


class CRPPolicy:
    """Fixed-mix policy; the uniform target is the equal-weight baseline."""

    def __init__(self, target) -> None:
        self.target = as_simplex(target, "target")

    def __call__(self, obs: Observations) -> np.ndarray:
        return np.tile(self.target, (len(obs), 1))


def ew_policy(n_components: int) -> CRPPolicy:
    return CRPPolicy(np.full(n_components, 1.0 / n_components))


def hold_cash_policy(n_components: int) -> CRPPolicy:
    target = np.zeros(n_components)
    target[0] = 1.0
    return CRPPolicy(target)


class _ReversionPolicy:
    decide = None

    def __init__(self, epsilon: float, window: int) -> None:
        self.epsilon = epsilon
        self.window = window

    def __call__(self, obs: Observations) -> np.ndarray:
        """Update from a uniform start through every decision step in turn.

        The history of a step is the ratio of consecutive normalized closes
        in its window (cash relative 1).  Only the last `window` ratios are
        formed; a shorter history makes every update pass through.
        """
        t_total, m = len(obs), obs.n_assets + 1
        k = min(self.window, obs.window - 1)
        w = obs.windows[:, :, obs.window - k - 1 :]
        hist = np.ones((t_total, k, m))
        hist[:, :, 1:] = (w[:, :, 1:] / w[:, :, :-1]).transpose(0, 2, 1)
        actions = np.empty((t_total, m))
        b = np.full(m, 1.0 / m)
        for j in range(t_total):
            b = type(self).decide(b, hist[j], self.epsilon, self.window)
            actions[j] = b
        return actions


class OLMARPolicy(_ReversionPolicy):
    decide = staticmethod(olmar_action)

    def __init__(self, epsilon: float = 10.0, window: int = 5) -> None:
        super().__init__(epsilon, window)


class WMAMRPolicy(_ReversionPolicy):
    decide = staticmethod(wmamr_action)

    def __init__(self, epsilon: float = 1.0, window: int = 5) -> None:
        super().__init__(epsilon, window)
