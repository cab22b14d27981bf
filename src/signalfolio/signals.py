"""Movement labels, simulated prediction channels and state assembly.

Labels live on {-1, 0, +1}: +1 predicts the next close is higher, -1 lower,
0 means no signal at that step.  A label at time t refers to the move from
t to t+1, so it is information a real predictor could emit at decision time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .market import MarketDataError, PriceSeries, _frozen


class SignalError(ValueError):
    """Bad signal configuration or malformed signal data."""


@dataclass(frozen=True)
class SignalConfig:
    """Controls the simulated prediction channel.

    accuracy is the probability a present label agrees with the realized
    movement; density is the fraction of usable steps that carry a label.
    """

    accuracy: float = 1.0
    density: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise SignalError(f"accuracy {self.accuracy} outside [0, 1]")
        if not 0.0 <= self.density <= 1.0:
            raise SignalError(f"density {self.density} outside [0, 1]")


@dataclass(frozen=True)
class SignalSeries:
    """Per-asset signal matrix, one row per risky asset, one column per step."""

    values: np.ndarray

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise SignalError("signal values must be a 2-D matrix")
        if not np.all(np.isfinite(values)):
            raise SignalError("signal values must be finite")
        if not np.all(np.isin(values, (-1.0, 0.0, 1.0))):
            raise SignalError("signal values must lie in {-1, 0, +1}")
        object.__setattr__(self, "values", _frozen(values))

    @property
    def n_assets(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


def true_movements(prices: PriceSeries) -> SignalSeries:
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
    values = np.concatenate([labels, np.zeros((n, 1))], axis=1)
    return SignalSeries(values=values)


def oracle_labels(truth: SignalSeries, cfg: SignalConfig) -> SignalSeries:
    """Corrupt true movements into a channel of controlled quality.

    Density is derandomized: each asset keeps exactly round(density * usable)
    labels, where usable excludes the undefined final column.  Each kept
    label agrees with truth with probability accuracy, otherwise it flips.
    """
    rng = np.random.default_rng(cfg.seed)
    usable = truth.n_steps - 1
    if usable < 1:
        raise SignalError("truth series too short")
    keep = int(round(cfg.density * usable))
    out = np.zeros_like(truth.values)
    for i in range(truth.n_assets):
        kept = rng.permutation(usable)[:keep]
        flip = rng.random(usable) < (1.0 - cfg.accuracy)
        column = truth.values[i, :usable].copy()
        column[flip] = -column[flip]
        out[i, kept] = column[kept]
    return SignalSeries(values=out)


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
    train: PriceSeries,
    lags: int = 5,
    epochs: int = 200,
    lr: float = 0.5,
    seed: int = 0,
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


def predictor_labels(predictor: MovementPredictor, prices: PriceSeries) -> SignalSeries:
    """Run the predictor over a whole series, absent where history is short."""
    if prices.n_assets != predictor.weights.shape[0]:
        raise SignalError("price series assets do not match predictor")
    values = np.zeros((prices.n_assets, prices.n_steps))
    # Steps lags .. n_steps - 2 each see the lags log relatives before them.
    log_rel = np.diff(np.log(prices.close[1:]), axis=1)[:, :-1]
    if log_rel.shape[1] >= predictor.lags:
        logits = _logits(predictor, log_rel)
        values[:, predictor.lags : prices.n_steps - 1] = np.where(logits >= 0.0, 1.0, -1.0)
    return SignalSeries(values=values)


def decision_indices(n_steps: int, window: int) -> range:
    """Steps with a full look-back window and an observable next move."""
    if window < 1:
        raise SignalError("window must be >= 1")
    return range(window - 1, n_steps - 1)


def state_dim(n_assets: int, window: int) -> int:
    """Width of an observation row: each asset's close window, then one signal per asset."""
    return n_assets * window + n_assets


@dataclass(frozen=True)
class Observations:
    """Observation matrix of one episode, one row per decision step.

    Row j is the state at step steps[j]: each asset's close window divided
    by its last close, asset by asset (n_assets * window columns), followed
    by the signal columns.  This is the only place that knows the layout.
    """

    matrix: np.ndarray
    n_assets: int
    window: int
    steps: range

    def __len__(self) -> int:
        return self.matrix.shape[0]

    @property
    def windows(self) -> np.ndarray:
        """(T, n_assets, window) view of the normalized close windows."""
        return self.matrix[:, : self.n_assets * self.window].reshape(
            len(self), self.n_assets, self.window
        )

    @property
    def signals(self) -> np.ndarray:
        return self.matrix[:, self.n_assets * self.window :]


def build_states(
    prices: PriceSeries,
    signals: SignalSeries | None = None,
    window: int = 30,
    lookback: int = 1,
) -> Observations:
    """Assemble the observations of every decision step in one matrix.

    An absent signal becomes n_assets zero columns.
    """
    if prices.n_steps < window + 2:
        raise MarketDataError(
            f"series of {prices.n_steps} steps too short for window {window}"
        )
    n = prices.n_assets
    if signals is not None:
        if signals.n_assets != n:
            raise SignalError("signal assets do not match price series")
        if signals.n_steps != prices.n_steps:
            raise SignalError("signal steps do not match price series")
        if lookback < 1:
            raise SignalError("lookback must be >= 1")
    steps = decision_indices(prices.n_steps, window)
    t_total = len(steps)
    matrix = np.zeros((t_total, state_dim(n, window)))
    obs = Observations(matrix=matrix, n_assets=n, window=window, steps=steps)
    # raw[i, j] is the close window of asset i ending at step steps[j].
    raw = sliding_window_view(prices.close[1:], window, axis=1)[:, :t_total]
    np.divide(raw, raw[:, :, -1:], out=obs.windows.transpose(1, 0, 2))
    if signals is not None:
        # Averages over the last `lookback` steps, truncated at the series start.
        padded = np.pad(signals.values, ((0, 0), (lookback - 1, 0)))
        sums = sliding_window_view(padded, lookback, axis=1)[:, steps.start : steps.stop]
        counts = np.minimum(np.arange(steps.start, steps.stop) + 1, lookback)
        obs.signals[:] = (sums.sum(axis=2) / counts).T
    matrix.setflags(write=False)
    return obs

