"""Movement labels, simulated prediction channels and state assembly.

Labels live on {-1, 0, +1}: +1 predicts the next close is higher, -1 lower,
0 means no signal at that step.  A label at time t refers to the move from
t to t+1, so it is information a real predictor could emit at decision time.
Each maker returns a read-only (n_assets, n_steps) float array of them, one
row per risky asset, whose final column is 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market import MarketDataError, PriceSeries, _frozen


class SignalError(ValueError):
    """Bad signal configuration or malformed signal data."""


def true_movements(prices: PriceSeries) -> np.ndarray:
    """Realized next-step movement labels for every risky asset.

    Flat steps count as up so labels stay binary.  The final column has no
    next step and is left absent (0).
    """
    if prices.n_steps < 2:
        raise MarketDataError("need at least two steps for movements")
    closes = prices.close[1:]
    diff = closes[:, 1:] - closes[:, :-1]
    labels = np.where(diff >= 0.0, 1.0, -1.0)
    n = prices.n_assets
    return _frozen(np.concatenate([labels, np.zeros((n, 1))], axis=1))


def oracle_labels(truth: np.ndarray, accuracy: float, density: float, seed: int) -> np.ndarray:
    """Corrupt true movements into a channel of controlled quality.

    density is the fraction of usable steps that carry a label, derandomized:
    each asset keeps exactly round(density * usable) labels, where usable
    excludes the undefined final column.  Each kept label agrees with truth
    with probability accuracy, otherwise it flips.
    """
    if not 0.0 <= accuracy <= 1.0:
        raise SignalError(f"accuracy {accuracy} outside [0, 1]")
    if not 0.0 <= density <= 1.0:
        raise SignalError(f"density {density} outside [0, 1]")
    rng = np.random.default_rng(seed)
    usable = truth.shape[1] - 1
    if usable < 1:
        raise SignalError("truth series too short")
    keep = int(round(density * usable))
    out = np.zeros_like(truth)
    for i in range(len(truth)):
        kept = rng.permutation(usable)[:keep]
        flip = rng.random(usable) < (1.0 - accuracy)
        column = truth[i, :usable].copy()
        column[flip] = -column[flip]
        out[i, kept] = column[kept]
    return _frozen(out)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


@dataclass(frozen=True)
class MovementPredictor:
    """Per-asset logistic model over lagged log relative prices."""

    weights: np.ndarray
    bias: np.ndarray
    lags: int
    train_accuracy: np.ndarray = field(default=None)
    degenerate: np.ndarray = field(default=None)


def fit_internal_predictor(
    train: PriceSeries, *, epochs: int, seed: int, lags: int = 5, lr: float = 0.5
) -> MovementPredictor:
    """Fit one logistic movement classifier per risky asset.

    Features at step t are the last `lags` log relative prices, the target
    is the realized movement at t.  Full-batch gradient descent on the
    cross-entropy; an asset whose training targets are single-class gets a
    constant predictor and a degenerate flag instead.
    """
    if lags < 1:
        raise SignalError("lags must be >= 1")
    if train.n_steps < lags + 2:
        raise MarketDataError(f"need at least {lags + 2} steps to fit {lags} lags")
    rng = np.random.default_rng(seed)
    closes = train.close[1:]
    log_rel = np.diff(np.log(closes), axis=1)
    n, t_rel = log_rel.shape
    n_samples = t_rel - lags
    weights = np.zeros((n, lags))
    bias = np.zeros(n)
    accuracy = np.zeros(n)
    degenerate = np.zeros(n, dtype=bool)
    for i in range(n):
        x = np.ascontiguousarray(sliding_window_view(log_rel[i], lags)[:n_samples])
        up = (log_rel[i, lags:] >= 0.0).astype(float)
        if np.all(up == up[0]):
            degenerate[i] = True
            bias[i] = 1.0 if up[0] else -1.0
            accuracy[i] = 1.0
            continue
        w = rng.normal(0.0, 1e-3, size=lags)
        b = 0.0
        for _ in range(epochs):
            p = _sigmoid(x @ w + b)
            err = p - up
            w -= lr * (x.T @ err) / n_samples
            b -= lr * float(err.mean())
        weights[i] = w
        bias[i] = b
        accuracy[i] = float(np.mean(((x @ w + b) >= 0.0) == (up > 0.5)))
    return MovementPredictor(
        weights=_frozen(weights),
        bias=_frozen(bias),
        lags=lags,
        train_accuracy=_frozen(accuracy),
        degenerate=degenerate,
    )


def _logits(predictor: MovementPredictor, log_rel: np.ndarray) -> np.ndarray:
    """Logits of every run of lags log relatives; column j reads log_rel[:, j : j + lags]."""
    lagged = sliding_window_view(log_rel, predictor.lags, axis=1)
    return np.einsum("ik,ijk->ij", predictor.weights, lagged) + predictor.bias[:, None]


def predictor_labels(predictor: MovementPredictor, prices: PriceSeries) -> np.ndarray:
    """Run the predictor over a whole series, absent where history is short."""
    if prices.n_assets != predictor.weights.shape[0]:
        raise SignalError("price series assets do not match predictor")
    values = np.zeros((prices.n_assets, prices.n_steps))
    # Steps lags .. n_steps - 2 each see the lags log relatives before them.
    log_rel = np.diff(np.log(prices.close[1:]), axis=1)[:, :-1]
    if log_rel.shape[1] >= predictor.lags:
        logits = _logits(predictor, log_rel)
        values[:, predictor.lags : prices.n_steps - 1] = np.where(logits >= 0.0, 1.0, -1.0)
    return _frozen(values)


def decision_indices(n_steps: int, window: int) -> range:
    """Steps with a full look-back window and an observable next move."""
    if window < 1:
        raise SignalError("window must be >= 1")
    return range(window - 1, n_steps - 1)


def state_dim(n_assets: int, window: int) -> int:
    """Width of an observation row: each asset's close window, then one signal per asset."""
    return n_assets * window + n_assets


def close_windows(states: np.ndarray, n_assets: int) -> np.ndarray:
    """(T, n_assets, window) view of the normalized close windows of a state matrix.

    A state row is each asset's close window divided by its last close,
    asset by asset (n_assets * window columns), then one signal column per
    asset; this module is the only place that knows the layout, save that
    agent.train takes the signal columns to come last.  The window is read
    off the width, state_dim(n_assets, window).
    """
    window = states.shape[1] // n_assets - 1 if states.ndim == 2 else 0
    if window < 1 or states.shape[1] != state_dim(n_assets, window):
        raise SignalError(f"states of shape {states.shape} are not {n_assets} assets' states")
    return states[:, : n_assets * window].reshape(len(states), n_assets, window)


def signal_columns(prices: PriceSeries, signals: np.ndarray, window: int) -> np.ndarray:
    """The signal columns of every decision step's state, (T, n_assets): its labels.

    signals must be a label array of prices, (n_assets, n_steps) like every
    label maker returns; any other shape raises SignalError.
    """
    if signals.shape[:1] != (prices.n_assets,):
        raise SignalError("signal assets do not match price series")
    if signals.shape[1:] != (prices.n_steps,):
        raise SignalError("signal steps do not match price series")
    steps = decision_indices(prices.n_steps, window)
    return signals[:, steps.start : steps.stop].T


def build_states(prices: PriceSeries, signals: np.ndarray | None, window: int) -> np.ndarray:
    """The read-only (T, state_dim) matrix of every decision step's state, one row per step.

    The signal columns hold each asset's label at the decision step; an
    absent signal leaves them zero.
    """
    if prices.n_steps < window + 2:
        raise MarketDataError(f"series of {prices.n_steps} steps too short for window {window}")
    n = prices.n_assets
    t_total = len(decision_indices(prices.n_steps, window))
    states = np.zeros((t_total, state_dim(n, window)))
    # raw[i, j] is the close window of asset i ending at decision step j.
    raw = sliding_window_view(prices.close[1:], window, axis=1)[:, :t_total]
    np.divide(raw, raw[:, :, -1:], out=close_windows(states, n).transpose(1, 0, 2))
    if signals is not None:
        states[:, n * window :] = signal_columns(prices, signals, window)
    states.setflags(write=False)
    return states
