"""Softmax allocation policy trained by gradient ascent on mean log reward.

The policy is a small feed-forward network: flattened price window plus
signal in, tanh hidden layers, softmax allocation out.  Gradients are
computed by hand in reverse mode.  In "fixed_point" cost mode the shrink
factor beta is treated as a constant of the gradient (stop-gradient); in
"simple" mode the cost term is differentiated end to end, including the
dependence of each step's drifted weights on the previous action.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import CostModel, EngineError, all_cash, reward_chain
from .market import PriceSeries, relative_prices
from .signals import SignalSeries, build_states


class TrainingDivergedError(RuntimeError):
    """Objective became non-finite during training."""


@dataclass
class PolicyParams:
    """Layer weight matrices (out, in) and bias vectors of the policy net."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def __post_init__(self) -> None:
        if len(self.weights) != len(self.biases) or not self.weights:
            raise EngineError("weights and biases must pair up")
        self.weights = [np.asarray(w, dtype=float) for w in self.weights]
        self.biases = [np.asarray(b, dtype=float) for b in self.biases]
        for w, b in zip(self.weights, self.biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise EngineError("layer shapes inconsistent")
        for prev, nxt in zip(self.weights, self.weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise EngineError("layer sizes do not chain")

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def n_actions(self) -> int:
        return self.weights[-1].shape[0]

    @property
    def hidden_sizes(self) -> tuple[int, ...]:
        return tuple(w.shape[0] for w in self.weights[:-1])

    def copy(self) -> "PolicyParams":
        return PolicyParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )

    def n_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)


def init_policy(
    input_dim: int,
    n_actions: int,
    hidden: tuple[int, ...] = (64,),
    seed: int = 0,
    init_scale: float = 1.0,
) -> PolicyParams:
    """Zero-mean uniform weights scaled by 1/sqrt(fan-in), zero biases."""
    if input_dim < 1 or n_actions < 2:
        raise EngineError("policy needs an input and at least two outputs")
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, n_actions]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = init_scale / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return PolicyParams(weights=weights, biases=biases)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(params: PolicyParams, x: np.ndarray):
    hs = []
    a_in = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a_in = np.tanh(a_in @ w.T + b)
        hs.append(a_in)
    logits = a_in @ params.weights[-1].T + params.biases[-1]
    return _softmax_rows(logits), hs


def policy_forward(params: PolicyParams, x) -> np.ndarray:
    """Allocation for one feature vector (d,), or one per row of a (T, d) matrix.

    Rows go through the net as a stack of (1, d) products, so each row's
    allocation is bit-identical to a call on that row alone.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != params.input_dim:
        raise EngineError(f"state has dim {x.shape}, policy expects {params.input_dim}")
    probs, _ = _forward_batch(params, x.reshape(-1, 1, params.input_dim))
    return probs[:, 0] if x.ndim == 2 else probs[0, 0]


@dataclass(frozen=True)
class Episode:
    """A contiguous run of decision states with aligned next-step moves."""

    states: np.ndarray
    rel: np.ndarray
    entry_weights: np.ndarray
    entry_rel: np.ndarray

    def __post_init__(self) -> None:
        if self.states.ndim != 2 or self.rel.ndim != 2:
            raise EngineError("episode arrays must be 2-D")
        if self.states.shape[0] != self.rel.shape[0] or self.states.shape[0] < 1:
            raise EngineError("episode states and moves must align")

    @property
    def n_steps(self) -> int:
        return self.states.shape[0]

    @property
    def n_actions(self) -> int:
        return self.rel.shape[1]

    @classmethod
    def from_market(
        cls,
        prices: PriceSeries,
        signals: SignalSeries | None = None,
        window: int = 30,
        signal_dim: int | None = None,
        lookback: int = 1,
    ) -> "Episode":
        obs = build_states(
            prices, signals, window=window, signal_dim=signal_dim, lookback=lookback
        )
        m = prices.n_assets + 1
        return cls(
            states=obs.matrix,
            rel=relative_prices(prices).y[:, obs.steps].T,
            entry_weights=all_cash(m),
            entry_rel=np.ones(m),
        )

    def window(self, start: int, stop: int, entry_weights, entry_rel) -> "Episode":
        return Episode(
            states=self.states[start:stop],
            rel=self.rel[start:stop],
            entry_weights=np.asarray(entry_weights, float),
            entry_rel=np.asarray(entry_rel, float),
        )


def objective(
    params: PolicyParams,
    episode: Episode,
    cm: CostModel,
    frozen_betas: np.ndarray | None = None,
) -> float:
    """Mean per-step log reward of the policy over the episode.

    frozen_betas substitutes precomputed shrink factors; the finite-
    difference oracle uses this to respect the stop-gradient convention.
    """
    actions, _ = _forward_batch(params, episode.states)
    if frozen_betas is not None:
        gross = (actions * episode.rel).sum(axis=1)
        return float(np.mean(np.log(frozen_betas * gross)))
    chain = reward_chain(actions, episode.rel, episode.entry_weights, episode.entry_rel, cm)
    return float(chain.rewards.mean())


def episode_betas(params: PolicyParams, episode: Episode, cm: CostModel) -> np.ndarray:
    """Shrink factors the policy realizes on the episode (for freezing)."""
    actions, _ = _forward_batch(params, episode.states)
    chain = reward_chain(actions, episode.rel, episode.entry_weights, episode.entry_rel, cm)
    return chain.betas


def _backprop(params: PolicyParams, x: np.ndarray, actions: np.ndarray, hs, d_actions):
    d_logits = actions * (d_actions - (d_actions * actions).sum(axis=1, keepdims=True))
    grads_w = [None] * len(params.weights)
    grads_b = [None] * len(params.biases)
    layer_inputs = [x, *hs]
    d_out = d_logits
    for layer in range(len(params.weights) - 1, -1, -1):
        grads_w[layer] = d_out.T @ layer_inputs[layer]
        grads_b[layer] = d_out.sum(axis=0)
        if layer > 0:
            h = hs[layer - 1]
            d_out = (d_out @ params.weights[layer]) * (1.0 - h * h)
    return grads_w, grads_b


def gradient(params: PolicyParams, episode: Episode, cm: CostModel):
    """Exact reverse-mode gradient of the episode objective.

    Returns (d_weights, d_biases) matching the parameter layout.  With the
    fixed-point cost mode the betas are stop-gradiented, so only the gross
    return term contributes; with the simple mode the turnover penalty is
    differentiated through both the current action and, via weight drift,
    the action of the step before.
    """
    x, rel = episode.states, episode.rel
    t_total = episode.n_steps
    actions, hs = _forward_batch(params, x)
    gross = (actions * rel).sum(axis=1)
    d_actions = rel / gross[:, None] / t_total
    if cm.mode == "simple":
        chain = reward_chain(actions, rel, episode.entry_weights, episode.entry_rel, cm)
        sign = np.sign(actions - chain.drifted)
        sign[:, 0] = 0.0
        c = cm.blended_rate
        scaled = (c / t_total) * sign / chain.betas[:, None]
        d_actions -= scaled
        if t_total > 1:
            g = scaled[1:]
            drift_next = chain.drifted[1:]
            correction = g - (g * drift_next).sum(axis=1, keepdims=True)
            d_actions[:-1] += rel[:-1] / gross[:-1, None] * correction
    return _backprop(params, x, actions, hs, d_actions)


def ascent_step(params: PolicyParams, grads, lr: float) -> None:
    grads_w, grads_b = grads
    for layer in range(len(params.weights)):
        params.weights[layer] += lr * grads_w[layer]
        params.biases[layer] += lr * grads_b[layer]


@dataclass(frozen=True)
class TrainConfig:
    """Plain gradient-ascent settings for episode mini-batch training."""

    learning_rate: float = 3.0
    batch_window: int = 64
    epochs: int = 100
    seed: int = 0
    window: int = 30
    steps_per_epoch: int | None = None
    lookback: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0 or self.batch_window < 1 or self.epochs < 0:
            raise EngineError("bad training settings")
        if self.window < 1 or self.lookback < 1:
            raise EngineError("bad training settings")


def train(
    params: PolicyParams,
    train_prices: PriceSeries,
    signals: SignalSeries | None,
    cm: CostModel,
    cfg: TrainConfig,
) -> tuple[PolicyParams, list[float]]:
    """Train by ascent on mean log reward over sampled contiguous windows.

    Each gradient step draws a uniform window start; the window enters with
    the drifted weights the current policy produced on the preceding step,
    or all cash at the episode start.  Returns the trained parameters and
    the per-epoch objective on the full training episode.
    """
    n = train_prices.n_assets
    signal_dim = params.input_dim - n * cfg.window
    if signal_dim < 0:
        raise EngineError(
            f"policy input dim {params.input_dim} below price window {n}x{cfg.window}"
        )
    episode = Episode.from_market(
        train_prices, signals, window=cfg.window, signal_dim=signal_dim, lookback=cfg.lookback
    )
    t_total = episode.n_steps
    if t_total < cfg.batch_window:
        raise EngineError(
            f"training episode of {t_total} steps shorter than batch window {cfg.batch_window}"
        )
    params = params.copy()
    _check_finite(params)
    rng = np.random.default_rng(cfg.seed)
    steps = cfg.steps_per_epoch or max(1, t_total // cfg.batch_window)
    m = episode.n_actions
    curve: list[float] = []
    for _ in range(cfg.epochs):
        for _ in range(steps):
            j = int(rng.integers(0, t_total - cfg.batch_window + 1))
            if j == 0:
                entry_w, entry_y = all_cash(m), np.ones(m)
            else:
                entry_w = policy_forward(params, episode.states[j - 1])
                entry_y = episode.rel[j - 1]
            batch = episode.window(j, j + cfg.batch_window, entry_w, entry_y)
            grads = gradient(params, batch, cm)
            ascent_step(params, grads, cfg.learning_rate)
            _check_finite(params)
        score = objective(params, episode, cm)
        if not np.isfinite(score):
            raise TrainingDivergedError(f"objective became {score} during training")
        curve.append(score)
    return params, curve


def _check_finite(params: PolicyParams) -> None:
    for arr in (*params.weights, *params.biases):
        if not np.all(np.isfinite(arr)):
            raise TrainingDivergedError("policy parameters are no longer finite")


def save_checkpoint(params: PolicyParams, path: str | Path, meta: dict | None = None) -> None:
    """Atomic JSON checkpoint write (temp file + rename)."""
    payload = {
        "layers": [
            {"weights": w.tolist(), "biases": b.tolist()}
            for w, b in zip(params.weights, params.biases)
        ],
        "meta": meta or {},
    }
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(json.dumps(payload, sort_keys=True))
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, dict]:
    data = json.loads(Path(path).read_text())
    layers = data["layers"]
    params = PolicyParams(
        weights=[np.asarray(layer["weights"], dtype=float) for layer in layers],
        biases=[np.asarray(layer["biases"], dtype=float) for layer in layers],
    )
    return params, data.get("meta", {})
