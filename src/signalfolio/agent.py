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
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .engine import (
    ConvergenceError,
    CostModel,
    EngineError,
    _betas,
    _drift,
    all_cash,
    reward_chain,
)
from .market import PriceSeries, relative_prices, write_json
from .signals import SignalSeries, build_states, state_dim


class TrainingDivergedError(RuntimeError):
    """Objective became non-finite during training."""


class PolicyParams:
    """Parameters of the policy net in one flat theta.

    theta is (P,) for one policy or (C, P) for a group of C cells that train
    in lockstep, row c being cell c.  weights[l] (out, in) and biases[l]
    (out,) are views into theta, all weights first, then all biases; a
    group's views carry the leading cell axis, (C, out, in) and (C, out).
    So writing a view writes theta, and one operation on theta updates or
    checks every layer of every cell.
    """

    def __init__(self, theta: np.ndarray, shapes) -> None:
        """Views over an existing theta with layer weight shapes (out, in); no copy."""
        self.theta, self.shapes = theta, tuple(shapes)
        sizes = [*self.shapes, *((out,) for out, _ in self.shapes)]
        cuts = np.cumsum([math.prod(size) for size in sizes])[:-1]
        views = [
            part.reshape(*theta.shape[:-1], *size)
            for part, size in zip(np.split(theta, cuts, axis=-1), sizes)
        ]
        self.weights, self.biases = views[: len(self.shapes)], views[len(self.shapes) :]

    @classmethod
    def from_layers(cls, weights, biases) -> "PolicyParams":
        """One policy from per-layer (out, in) weights and (out,) biases, copied."""
        if len(weights) != len(biases) or not weights:
            raise EngineError("weights and biases must pair up")
        weights = [np.asarray(w, dtype=float) for w in weights]
        biases = [np.asarray(b, dtype=float) for b in biases]
        for w, b in zip(weights, biases):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise EngineError("layer shapes inconsistent")
        for prev, nxt in zip(weights, weights[1:]):
            if nxt.shape[1] != prev.shape[0]:
                raise EngineError("layer sizes do not chain")
        theta = np.concatenate([a.ravel() for a in (*weights, *biases)])
        return cls(theta, [w.shape for w in weights])

    @property
    def input_dim(self) -> int:
        return self.shapes[0][1]

    @property
    def n_actions(self) -> int:
        return self.shapes[-1][0]

    def cells(self, index) -> "PolicyParams":
        """The cells of a group at index (a row, a slice or an index array)."""
        return PolicyParams(self.theta[index], self.shapes)


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
    return PolicyParams.from_layers(weights, biases)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(params, x: np.ndarray):
    """Softmax allocations and hidden activations for the rows of x.

    params is one policy, or a group of cells for x of shape (C, rows, in).
    A group takes one matmul per layer, and each cell's slice of it is
    bit-identical to running that cell alone.
    """
    hs = []
    a_in = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a_in = np.tanh(a_in @ w.swapaxes(-1, -2) + b[..., None, :])
        hs.append(a_in)
    logits = a_in @ params.weights[-1].swapaxes(-1, -2) + params.biases[-1][..., None, :]
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

    @classmethod
    def from_market(
        cls,
        prices: PriceSeries,
        signals: SignalSeries | None = None,
        window: int = 30,
        lookback: int = 1,
    ) -> "Episode":
        obs = build_states(prices, signals, window=window, lookback=lookback)
        m = prices.n_assets + 1
        return cls(
            states=obs.matrix,
            rel=relative_prices(prices)[:, obs.steps].T,
            entry_weights=all_cash(m),
            entry_rel=np.ones(m),
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


def _grads(params: PolicyParams, x, rel, entry_w, entry_y, cm: CostModel, out: PolicyParams):
    """Gradient of each cell's mean log reward over its window: the step kernel.

    For a group of C cells: x (C, T, d) and rel (C, T, m) hold each cell's
    window, and entry_w and entry_y (C, 1, m) the weights it held and the
    price move just before the window (read in simple cost mode only).
    Writes the gradient into out, a group of the same layout.
    """
    t_total = x.shape[1]
    actions, hs = _forward_batch(params, x)
    gross = (actions * rel).sum(axis=-1)
    d_actions = rel / gross[..., None] / t_total
    if cm.mode == "simple":
        drifted = _drift(
            np.concatenate([entry_w, actions[:, :-1]], axis=1),
            np.concatenate([entry_y, rel[:, :-1]], axis=1),
        )
        sign = np.sign(actions - drifted)
        sign[..., 0] = 0.0
        scaled = (cm.blended_rate / t_total) * sign / _betas(drifted, actions, cm)[..., None]
        d_actions -= scaled
        if t_total > 1:
            g = scaled[:, 1:]
            correction = g - (g * drifted[:, 1:]).sum(axis=-1, keepdims=True)
            d_actions[:, :-1] += rel[:, :-1] / gross[:, :-1, None] * correction
    d_out = actions * (d_actions - (d_actions * actions).sum(axis=-1, keepdims=True))
    layer_inputs = [x, *hs]
    for layer in range(len(params.weights) - 1, -1, -1):
        np.matmul(d_out.swapaxes(1, 2), layer_inputs[layer], out=out.weights[layer])
        d_out.sum(axis=1, out=out.biases[layer])
        if layer > 0:
            h = hs[layer - 1]
            d_out = (d_out @ params.weights[layer]) * (1.0 - h * h)


def gradient(params: PolicyParams, episode: Episode, cm: CostModel):
    """Exact reverse-mode gradient of the episode objective.

    Returns (d_weights, d_biases) matching the parameter layout.  With the
    fixed-point cost mode the betas are stop-gradiented, so only the gross
    return term contributes; with the simple mode the turnover penalty is
    differentiated through both the current action and, via weight drift,
    the action of the step before.  This is a one-cell call of the kernel
    that every training step runs.
    """
    grads = PolicyParams(np.empty((1, params.theta.size)), params.shapes)
    _grads(
        PolicyParams(params.theta[None], params.shapes),
        episode.states[None],
        episode.rel[None],
        episode.entry_weights[None, None],
        episode.entry_rel[None, None],
        cm,
        grads,
    )
    return [g[0] for g in grads.weights], [g[0] for g in grads.biases]


@dataclass(frozen=True)
class TrainConfig:
    """Plain gradient-ascent settings for episode mini-batch training.

    steps_per_epoch None means one pass: episode steps // batch_window.
    """

    learning_rate: float = 3.0
    batch_window: int = 64
    epochs: int = 100
    window: int = 30
    steps_per_epoch: int | None = None
    lookback: int = 1

    def __post_init__(self) -> None:
        if self.learning_rate < 0.0 or self.batch_window < 1 or self.epochs < 0:
            raise EngineError("bad training settings")
        if self.window < 1 or self.lookback < 1:
            raise EngineError("bad training settings")
        if self.steps_per_epoch is not None and self.steps_per_epoch < 1:
            raise EngineError(f"steps_per_epoch must be at least 1, got {self.steps_per_epoch}")


def _lockstep_grads(group: PolicyParams, x, rel, at_start, cm: CostModel, out: PolicyParams):
    """Step gradients, into out, from (C, B + 1, .) windows whose row 0 precedes the batch.

    In simple cost mode the entry weights are each cell's policy on row 0, a
    separate (1, d) forward so they match a call on that row alone, or all
    cash for a window at the episode start; fixed-point mode never reads them.
    """
    entry_w = None
    if cm.mode == "simple":
        entry_w, _ = _forward_batch(group, x[:, :1])
        entry_w[at_start] = all_cash(rel.shape[-1])
    _grads(group, x[:, 1:], rel[:, 1:], entry_w, rel[:, :1], cm, out)


def train(
    params: list[PolicyParams],
    train_prices: PriceSeries,
    signals: list[SignalSeries | None],
    cm: CostModel,
    cfg: TrainConfig,
    seeds: list[int],
) -> list[tuple[PolicyParams, list[float]] | Exception]:
    """Train a group of cells in lockstep by ascent on mean log reward.

    Cell c starts from params[c], sees signals[c] (None: zero signal
    columns) and draws its window starts from default_rng(seeds[c]); the
    cells share the prices, the architecture, whose input width must be
    state_dim(n_assets, cfg.window), the cost model and cfg.  Each
    gradient step draws a uniform window start per cell; the window enters
    with the drifted weights the cell's current policy produced on the
    preceding step, or all cash at the episode start.  All cells take the
    step in one stacked forward and backward pass, and each cell's result is
    bit-identical to training it alone.  Returns per cell the trained
    parameters and the per-epoch objective on the full training episode, or
    the error that stopped it: non-finite parameters or objective, or an
    infeasible rebalance.  A stopped cell leaves the group; the rest go on.
    Parameters that turn non-finite stop their cell at the end of the epoch.
    """
    cells = len(params)
    if not cells or len(signals) != cells or len(seeds) != cells:
        raise EngineError("train needs one signal series and one seed per policy")
    if len({p.shapes for p in params}) != 1:
        raise EngineError("policies trained together must share one architecture")
    n, d = train_prices.n_assets, params[0].input_dim
    if d != state_dim(n, cfg.window):
        raise EngineError(
            f"policy input dim {d}, but {n} assets at window {cfg.window} "
            f"need {state_dim(n, cfg.window)}"
        )
    # One stacked observation array.  Row 0 of each cell, like row 0 of
    # moves below, stands before the episode's first step, so every window
    # gathers its entry row too; a window at the start enters all cash.
    obs = None
    for c, cell_signals in enumerate(signals):
        cell_obs = build_states(
            train_prices, cell_signals, window=cfg.window, lookback=cfg.lookback
        )
        if obs is None:
            obs = np.zeros((cells, len(cell_obs) + 1, d))
            rel = relative_prices(train_prices)[:, cell_obs.steps].T
        obs[c, 1:] = cell_obs.matrix
    t_total, batch = rel.shape[0], cfg.batch_window
    if t_total < batch:
        raise EngineError(
            f"training episode of {t_total} steps shorter than batch window {batch}"
        )
    m = n + 1
    moves = np.vstack([np.ones(m), rel])
    offsets = np.arange(batch + 1)
    steps = cfg.steps_per_epoch or max(1, t_total // batch)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    curves: list[list[float]] = [[] for _ in range(cells)]
    outcomes: list = [None] * cells
    shapes = params[0].shapes
    group = PolicyParams(np.stack([p.theta for p in params]), shapes)
    grads = PolicyParams(np.empty_like(group.theta), shapes)
    live = np.arange(cells)  # the cell of each row of the group

    def stop_failed(check=None) -> None:
        """Stop the live rows whose parameters are not finite or whose check(row, cell) raises."""
        nonlocal group, grads, live
        kept = []
        for row, cell in enumerate(live):
            try:
                if not np.isfinite(group.theta[row]).all():
                    raise TrainingDivergedError("policy parameters are no longer finite")
                if check:
                    check(row, cell)
                kept.append(row)
            except (EngineError, ConvergenceError, TrainingDivergedError) as exc:
                outcomes[cell] = exc
        if len(kept) < live.size:
            group, grads, live = group.cells(kept), grads.cells(kept), live[kept]

    def retry(row, cell) -> None:
        """One row's step alone; a row that passes keeps the gradient it wrote."""
        one = slice(row, row + 1)
        _lockstep_grads(group.cells(one), x[one], y[one], at_start[one], cm, grads.cells(one))

    def judge(row, cell) -> None:
        """The objective a cell scores at the end of an epoch, which must be finite."""
        episode = Episode(obs[cell, 1:], rel, all_cash(m), np.ones(m))
        score = objective(group.cells(row), episode, cm)
        if not np.isfinite(score):
            raise TrainingDivergedError(f"objective became {score} during training")
        curves[cell].append(score)

    # Rows never mix, so a cell that turns non-finite mid-epoch changes no other
    # cell before the end of the epoch stops it.  Finiteness is checked before
    # judge, whose fixed-point objective would raise ConvergenceError on NaN.
    stop_failed()
    for _ in range(cfg.epochs):
        starts = np.array([rng.integers(0, t_total - batch + 1, size=steps) for rng in rngs])
        for step in range(steps):
            if not live.size:
                break
            at_start = starts[live, step] == 0
            rows = starts[live, step, None] + offsets
            x, y = obs[live[:, None], rows], moves[rows]
            try:
                _lockstep_grads(group, x, y, at_start, cm, grads)
            except EngineError:  # an infeasible rebalance stops only the cells that hit it
                stop_failed(retry)
            group.theta += cfg.learning_rate * grads.theta
        stop_failed(judge)
    for row, cell in enumerate(live):
        outcomes[cell] = (group.cells(row), curves[cell])
    return outcomes


def save_checkpoint(params: PolicyParams, path: str | Path, meta: dict | None = None) -> None:
    """JSON checkpoint, written whole or not at all."""
    layers = [
        {"weights": w.tolist(), "biases": b.tolist()} for w, b in zip(params.weights, params.biases)
    ]
    write_json(path, {"layers": layers, "meta": meta or {}})


def load_checkpoint(path: str | Path) -> tuple[PolicyParams, dict]:
    data = json.loads(Path(path).read_text())
    layers = data["layers"]
    params = PolicyParams.from_layers(
        [layer["weights"] for layer in layers], [layer["biases"] for layer in layers]
    )
    return params, data.get("meta", {})
