"""Softmax allocation policy trained by gradient ascent on mean log reward.

The policy is a small feed-forward network: flattened price window plus
signal in, tanh hidden layers, softmax allocation out.  Gradients are
computed by hand in reverse mode.  In "fixed_point" cost mode the shrink
factor beta is treated as a constant of the gradient (stop-gradient); in
"simple" mode the cost term is differentiated end to end, including the
dependence of each step's drifted weights on the previous action.
"""

from __future__ import annotations

import ctypes
import functools
import json
import math
import os
import signal
import threading
import traceback
from pathlib import Path

import numpy as np

from .engine import (
    ConvergenceError,
    CostModel,
    EngineError,
    _betas,
    _row_sum,
    all_cash,
    reward_chain,
)
from .market import PriceSeries, relative_prices, write_json
from .signals import build_states, decision_indices, signal_columns, state_dim


class TrainingDivergedError(RuntimeError):
    """Objective became non-finite during training."""


_CELL_ERRORS = (EngineError, ConvergenceError, TrainingDivergedError)  # each stops one cell


@functools.cache
def _openblas_calls():
    """The get and set thread-count calls of numpy's bundled OpenBLAS, or None without it."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*.so")):
        try:  # numpy has loaded the library already, so this maps nothing new
            lib = ctypes.CDLL(str(path))
            get = lib.scipy_openblas_get_num_threads64_
            set_count = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_count.argtypes, set_count.restype = [ctypes.c_int], None
        return get, set_count
    return None


def blas_threads(count: int | None = None) -> int | None:
    """numpy's OpenBLAS thread count, set to count first if given; None where numpy bundles
    no such library, and then nothing is set.  numpy has no call for it, so it goes through
    ctypes.  The count never changes a byte of output, only the speed."""
    calls = _openblas_calls()
    if calls is None:
        return None
    get, set_count = calls
    if count is not None:
        set_count(count)
    return get()


def _spare_cpu() -> bool:
    """Whether a forked helper may judge epochs while training goes on, on a CPU nothing else uses.

    That needs the fork start method, a process that is no pool worker (its
    siblings hold the other CPUs), more than one CPU in the affinity set, and
    numpy's OpenBLAS at one thread, so that BLAS holds no second core.  It
    also needs this to be the only Python thread: a fork copies no other
    thread, and a lock one of them held would stay held in the helper.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is None or len(affinity(0)) < 2 or blas_threads() != 1:
        return False
    if threading.active_count() > 1:
        return False
    import multiprocessing  # here: importing the package loads no process machinery

    return (
        "fork" in multiprocessing.get_all_start_methods()
        and multiprocessing.parent_process() is None
    )


def _fork(target, cpus):
    """Fork a daemon process running target(its end, this end) of a new pipe, move this
    thread onto all of cpus but the last, which the process is to take, and return the
    process and this end.  Unpinned, the kernel runs a process that a pipe wakes on its
    waker's core, and the two take turns there while the other core idles."""
    import multiprocessing

    context = multiprocessing.get_context("fork")
    here, there = context.Pipe()
    process = context.Process(target=target, args=(there, here), daemon=True)
    try:
        os.sched_setaffinity(0, cpus[:-1])
        process.start()
    except OSError:
        here.close()
        os.sched_setaffinity(0, cpus)
        raise
    finally:
        there.close()
    return process, here


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
        views, start = [], 0
        for size in [*self.shapes, *((out,) for out, _ in self.shapes)]:
            stop = start + math.prod(size)
            views.append(theta[..., start:stop].reshape(*theta.shape[:-1], *size))
            start = stop
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
) -> PolicyParams:
    """Zero-mean uniform weights scaled by 1/sqrt(fan-in), zero biases."""
    if input_dim < 1 or n_actions < 2:
        raise EngineError("policy needs an input and at least two outputs")
    rng = np.random.default_rng(seed)
    sizes = [input_dim, *hidden, n_actions]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return PolicyParams.from_layers(weights, biases)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    """Softmax along the last axis, in place in z; a max is exact column by column."""
    top = np.maximum(z[..., 0], z[..., -1])
    for j in range(1, z.shape[-1] - 1):
        np.maximum(top, z[..., j], out=top)
    z -= top[..., None]
    np.exp(z, out=z)
    z /= _row_sum(z)[..., None]
    return z


def _forward_batch(params, x: np.ndarray, lead: int = 0):
    """Softmax allocations and hidden activations for the rows of x.

    params is one policy, or a group of cells for x of shape (C, rows, in).
    A group takes one matmul per layer, and each cell's slice of it is
    bit-identical to running that cell alone, as are the first lead rows
    (a step window's entry row), which take matmuls of their own.
    """
    parts = (slice(0, lead), slice(lead, None)) if lead else (slice(None),)
    hs = [x]
    for w, b in zip(params.weights, params.biases):
        z = np.empty((*x.shape[:-1], w.shape[-2]))
        for rows in parts:
            np.matmul(hs[-1][..., rows, :], w.swapaxes(-1, -2), out=z[..., rows, :])
        z += b[..., None, :]
        hs.append(z)
        if len(hs) <= len(params.weights):
            np.tanh(z, out=z)
    return _softmax_rows(hs.pop()), hs[1:]


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


def objective(params: PolicyParams, states: np.ndarray, rel: np.ndarray, cm: CostModel) -> float:
    """Mean log reward of the policy on (T, d) states and their (T, m) moves, from all cash."""
    m = rel.shape[1]
    actions = _forward_batch(params, states)[0]
    return float(reward_chain(actions, rel, all_cash(m), np.ones(m), cm).rewards.mean())


def gradient(params: PolicyParams, states: np.ndarray, rel: np.ndarray, cm: CostModel):
    """Exact reverse-mode gradient of the objective on states and rel, from all cash.

    Returns (d_weights, d_biases) matching the parameter layout.  With the
    fixed-point cost mode the betas are stop-gradiented, so only the gross
    return term contributes; with the simple mode the turnover penalty is
    differentiated through both the current action and, via weight drift,
    the action of the step before.  This is a one-cell call of the training
    step kernel, whose row 0 is a zero state with all cash as its action
    and no move.
    """
    m = rel.shape[1]
    grads = PolicyParams(np.empty((1, params.theta.size)), params.shapes)
    x = np.vstack([np.zeros(params.input_dim), states])[None]
    rel = np.vstack([np.ones(m), rel])[None]
    one = PolicyParams(params.theta[None], params.shapes)
    _lockstep_grads(one, x, rel, np.array([True]), all_cash(m), cm, grads)
    return [g[0] for g in grads.weights], [g[0] for g in grads.biases]


def _lockstep_grads(group: PolicyParams, x, rel, at_start, entry, cm: CostModel, out):
    """The step kernel: each cell's gradient of its mean log reward over its window, into out.

    x (C, B + 1, d) and rel (C, B + 1, m) hold each cell's B-step window
    after a row 0 that precedes it: the state and the move of the step before.
    In simple cost mode the window enters with the cell's action on row 0,
    drifted by row 0's move; where at_start (C,) is true, that action is
    entry, (m,) or one row per such cell.  Fixed-point mode skips row 0.
    Every sum over the action columns is _row_sum's: the bytes of .sum(axis=-1).
    """
    lead = int(cm.mode == "simple")
    probs, hs = _forward_batch(group, x[:, 1 - lead :], lead)
    if lead:
        probs[at_start, 0] = entry
    x, moves, hs = x[:, 1:], rel[:, 1 - lead :], [h[:, lead:] for h in hs]
    actions, rel, t_total = probs[:, lead:], rel[:, 1:], x.shape[1]
    held = probs * moves  # in simple mode row t, normalised, drifts into step t
    sums = _row_sum(held)
    ratio = rel / sums[:, lead:, None]
    d_actions = ratio / t_total
    if lead:
        drifted = held[:, :-1] / sums[:, :-1, None]
        scaled = np.sign(actions - drifted)
        scaled[..., 0] = 0.0
        scaled *= cm.blended_rate / t_total
        scaled /= _betas(drifted, actions, cm)[..., None]
        d_actions -= scaled
        g = scaled[:, 1:]
        correction = g * drifted[:, 1:]
        np.subtract(g, _row_sum(correction)[..., None], out=correction)
        correction *= ratio[:, :-1]
        d_actions[:, :-1] += correction
    d_actions -= _row_sum(np.multiply(d_actions, actions, out=held[:, lead:]))[..., None]
    d_out = np.multiply(d_actions, actions, out=d_actions)
    for layer in range(len(group.weights) - 1, -1, -1):
        np.matmul(d_out.swapaxes(1, 2), hs[layer - 1] if layer else x, out=out.weights[layer])
        d_out.sum(axis=1, out=out.biases[layer])
        if layer > 0:
            h = hs[layer - 1]  # spent: 1 - h * h replaces it
            d_out = np.matmul(d_out, group.weights[layer])
            d_out *= np.subtract(1.0, np.multiply(h, h, out=h), out=h)


def train(
    params: list[PolicyParams],
    train_prices: PriceSeries,
    signals: list[np.ndarray | None],
    cm: CostModel,
    rngs: list[np.random.Generator],
    *,
    window: int,
    batch_window: int,
    learning_rate: float,
    epochs: int,
    steps_per_epoch: int | None,
) -> list[tuple[PolicyParams, list[float]] | Exception]:
    """Train a group of cells in lockstep by ascent on mean log reward.

    Cell c starts from params[c], sees signals[c], the read-only (n_assets,
    n_steps) label array of train_prices from signals.py (None: zero signal
    columns), whose shape signal_columns checks before any step, and draws
    its window starts from rngs[c], a generator the caller builds
    (config.train_agents, from each agent's sampler seed): training on from
    the returned parameters with it reproduces one longer run bit for bit.
    The cells share the prices, the architecture, whose input width must be
    state_dim(n_assets, window), the cost model and the keyword settings
    (config.train_settings): epochs epochs of steps_per_epoch steps (None:
    one pass, episode steps // batch_window), each an ascent step of size
    learning_rate on a window of batch_window steps.  Each step draws a
    uniform window start per cell; the window enters with the drifted
    weights the cell's current policy produced on the preceding step, or all
    cash at the episode start.  All cells take the step in one stacked
    forward and backward pass, and each cell's result is bit-identical to
    training it alone.  The group holds the price windows once; each cell
    keeps only its signal columns.  Returns per cell the trained parameters
    and the per-epoch objective on the full training episode, or the error
    that stopped it: parameters non-finite at the start or an epoch's end, a
    non-finite objective, or an infeasible rebalance.  Every stop, at the
    start, a step's retry or an epoch's judge, is one verdicts call that
    settle applies: a stopped cell leaves the group; the rest go on.  Where a
    CPU is spare (_spare_cpu), a forked helper computes each epoch's
    objectives but the last while the next epoch trains, with the same
    outcomes, curves, parameters and generator states as judging inline.
    """
    if learning_rate < 0.0 or batch_window < 1 or epochs < 0 or window < 1:
        raise EngineError("bad training settings")
    if steps_per_epoch is not None and steps_per_epoch < 1:
        raise EngineError(f"steps_per_epoch must be at least 1, got {steps_per_epoch}")
    cells = len(params)
    if not cells or len(signals) != cells or len(rngs) != cells:
        raise EngineError("train needs one signal series and one generator per policy")
    if len({p.shapes for p in params}) != 1:
        raise EngineError("policies trained together must share one architecture")
    n, d = train_prices.n_assets, params[0].input_dim
    if d != state_dim(n, window):
        raise EngineError(
            f"policy input dim {d}, but {n} assets at window {window} "
            f"need {state_dim(n, window)}"
        )
    # The price windows are held once, in obs, and each cell's signal
    # columns in labels.  Row 0 of both, like row 0 of moves, stands before
    # the episode's first step, so every window gathers its entry row too; a
    # window at the start enters with all cash.  score judges obs[1:] and rel.
    obs = np.vstack([np.zeros(d), build_states(train_prices, None, window)])
    rel = relative_prices(train_prices)[:, decision_indices(train_prices.n_steps, window)].T
    t_total, batch = len(obs) - 1, batch_window
    labels = np.zeros((cells, t_total + 1, n))
    for cell, cell_signals in enumerate(signals):
        if cell_signals is not None:
            labels[cell, 1:] = signal_columns(train_prices, cell_signals, window)
    if t_total < batch:
        raise EngineError(
            f"training episode of {t_total} steps shorter than batch window {batch}"
        )
    flat_labels, columns = labels.reshape(-1, n), slice(d - n, d)
    entry = all_cash(n + 1)
    moves = np.vstack([np.ones(n + 1), rel])
    offsets = np.arange(batch + 1)
    steps = steps_per_epoch or max(1, t_total // batch)
    curves: list[list[float]] = [[] for _ in range(cells)]
    outcomes: list = [None] * cells
    shapes = params[0].shapes
    group = PolicyParams(np.stack([p.theta for p in params]), shapes)
    grads = PolicyParams(np.empty_like(group.theta), shapes)
    live = np.arange(cells)  # the cell of each row of the group

    def verdicts(judged, theta, check=None) -> list:
        """Per cell of judged, with its row of theta: the error that stops it, parameters
        that are not finite first, or else what check(row, cell, its row of theta) returns."""
        found = []
        for row, (cell, cell_theta) in enumerate(zip(judged, theta)):
            try:
                if not np.isfinite(cell_theta).all():
                    raise TrainingDivergedError("policy parameters are no longer finite")
                found.append(check(row, cell, cell_theta) if check else None)
            except _CELL_ERRORS as exc:
                found.append(exc)
        return found

    def settle(judged, found, undrawn=()) -> None:
        """Where a verdict takes effect: a cell error stops its cell, whose generator goes
        back to its state in undrawn (by cell) where given; a score joins the cell's curve;
        any other error is raised.  Then the rows of the stopped cells leave the group."""
        nonlocal group, grads, live
        for cell, verdict in zip(judged, found):
            if isinstance(verdict, _CELL_ERRORS):
                outcomes[cell] = verdict
                if cell in undrawn:
                    rngs[cell].bit_generator.state = undrawn[cell]
            elif isinstance(verdict, BaseException):
                raise verdict
            elif verdict is not None:
                curves[cell].append(verdict)
        kept = [row for row, cell in enumerate(live) if outcomes[cell] is None]
        if len(kept) < live.size:
            group, grads, live = group.cells(kept), grads.cells(kept), live[kept]

    def retry(row, cell, theta) -> None:
        """One row's step alone; a row that passes keeps the gradient it wrote."""
        one = slice(row, row + 1)
        _lockstep_grads(
            group.cells(one), x[one], y[one], at_start[one], entry, cm, grads.cells(one)
        )

    def score(row, cell, theta) -> float:
        """The objective a cell scores at the end of an epoch, which must be finite."""
        obs[:, columns] = labels[cell]
        value = objective(PolicyParams(theta, shapes), obs[1:], rel, cm)
        if not np.isfinite(value):
            raise TrainingDivergedError(f"objective became {value} during training")
        return value

    def serve(connection, other) -> None:
        """The helper's loop: per pair of messages, the live cells and their rows of theta,
        send their verdicts, or the first unexpected error as the one item; stop at EOF."""
        other.close()  # so the parent closing its end is this end's EOF
        os.sched_setaffinity(0, cpus[-1:])
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt is the parent's to handle
        while True:
            try:
                judged = np.frombuffer(connection.recv_bytes(), dtype=live.dtype)
                theta = np.frombuffer(connection.recv_bytes()).reshape(judged.size, -1)
            except EOFError:
                return
            try:
                found = verdicts(judged, theta, score)
            except Exception as exc:
                found = [exc]
            for verdict in found:  # the frames stay here, so their text travels as a note
                if isinstance(verdict, Exception):
                    frames = "".join(traceback.format_tb(verdict.__traceback__))
                    verdict.add_note(f"raised in the judge helper:\n{frames.rstrip()}")
            try:
                connection.send(found)
            except OSError:  # the parent stopped waiting
                return

    # Rows never mix, so a cell that turns non-finite mid-epoch changes no other
    # cell before the end of the epoch stops it.  Finiteness is checked before
    # score, whose fixed-point objective would raise ConvergenceError on NaN.
    # With a spare CPU, a forked helper judges each epoch but the last while
    # the next one trains; a cell the judge stops has then trained one epoch
    # too many, which changes no other cell, and settle undoes its draw.
    settle(live, verdicts(live, group.theta))
    helper = None  # (process, connection) of the judge helper
    if epochs > 1 and live.size and _spare_cpu():
        cpus = sorted(os.sched_getaffinity(0))
        try:
            helper = _fork(serve, cpus)
        except OSError:  # no process to be had: the judge runs here
            pass
    pending = live[:0]  # the cells whose verdict on the last epoch the helper is computing
    starts = np.zeros((cells, steps), dtype=np.int64)  # window starts, by cell
    try:
        for epoch in range(epochs):
            undrawn = {cell: rngs[cell].bit_generator.state for cell in pending}
            for cell in live:  # a stopped cell's generator is left as it stopped
                starts[cell] = rngs[cell].integers(0, t_total - batch + 1, size=steps)
            for step in range(steps):
                if not live.size:
                    break
                first = starts[live, step]
                at_start, rows = first == 0, first[:, None] + offsets
                x, y = obs.take(rows, axis=0), moves.take(rows, axis=0)
                x[..., columns] = flat_labels.take(live[:, None] * (t_total + 1) + rows, axis=0)
                try:
                    _lockstep_grads(group, x, y, at_start, entry, cm, grads)
                except EngineError:  # an infeasible rebalance stops only the cells that hit it
                    settle(live, verdicts(live, group.theta, retry))
                grads.theta *= learning_rate
                group.theta += grads.theta
            if pending.size:
                try:
                    found = helper[1].recv()
                except EOFError:
                    raise RuntimeError("the judge helper exited without a verdict") from None
                settle(pending, found, undrawn)
            if helper and epoch < epochs - 1:
                settle(live, verdicts(live, group.theta))
                pending = live
                if live.size:
                    helper[1].send_bytes(live)
                    helper[1].send_bytes(group.theta)
            else:
                settle(live, verdicts(live, group.theta, score))
    finally:
        if helper:
            helper[1].close()
            helper[0].join()
            os.sched_setaffinity(0, cpus)
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
    if not np.isfinite(params.theta).all():
        raise EngineError("policy parameters must be finite")
    return params, data.get("meta", {})
