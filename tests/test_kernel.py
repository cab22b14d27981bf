"""The step kernel against a plain-numpy oracle, byte for byte.

The oracle below is the kernel as first written: every sum over the action
columns is a numpy reduction along axis=-1, every drifted row comes from
concatenated previous actions and moves, and every step allocates fresh
arrays.  The kernel in signalfolio sums short rows column by column and
works in place; these tests hold it to the oracle's exact bytes for action
widths on both sides of numpy's switch to pairwise summation at 8 columns.
"""

from __future__ import annotations

import numpy as np
import pytest

from signalfolio.agent import (
    PolicyParams,
    _lockstep_grads,
    init_policy,
    objective,
)
from signalfolio.engine import (
    MAX_ITERS,
    TOL,
    BacktestResult,
    ConvergenceError,
    CostModel,
    EngineError,
    _row_sum,
    all_cash,
    reward_chain,
)

# ---- the oracle --------------------------------------------------------------


def oracle_softmax_rows(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def oracle_forward_batch(params, x):
    hs = []
    a_in = x
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        a_in = np.tanh(a_in @ w.swapaxes(-1, -2) + b[..., None, :])
        hs.append(a_in)
    logits = a_in @ params.weights[-1].swapaxes(-1, -2) + params.biases[-1][..., None, :]
    return oracle_softmax_rows(logits), hs


def oracle_drift(prev_a, prev_y):
    num = prev_y * prev_a
    return num / num.sum(axis=-1, keepdims=True)


def oracle_fixed_point_batch(w_drift, a, cm):
    t_total = a.shape[0]
    cb, cs = cm.c_buy, cm.c_sell
    if cb == 0.0 and cs == 0.0:
        return np.ones(t_total), 0
    k = cs + cb - cs * cb
    denom = 1.0 - cb * a[:, 0]
    mu = np.ones(t_total)
    for i in range(MAX_ITERS):
        sold = np.maximum(w_drift[:, 1:] - mu[:, None] * a[:, 1:], 0.0).sum(axis=1)
        nxt = (1.0 - cb * w_drift[:, 0] - k * sold) / denom
        done = np.all(np.abs(nxt - mu) < TOL)
        mu = nxt
        if done:
            return mu, i + 1
    raise ConvergenceError("cost fixed point did not converge")


def oracle_betas(drifted, actions, cm):
    if cm.mode == "simple":
        turnover = np.abs(actions[..., 1:] - drifted[..., 1:]).sum(axis=-1)
        betas = 1.0 - cm.blended_rate * turnover
        if np.any(betas <= 0.0):
            raise EngineError("cost rate too large for turnover in simple mode")
        return betas
    return oracle_fixed_point_batch(drifted, actions, cm)[0]


def oracle_reward_chain(actions, rel, entry_weights, entry_rel, cm):
    prev_a = np.vstack([entry_weights, actions[:-1]])
    prev_y = np.vstack([entry_rel, rel[:-1]])
    drifted = oracle_drift(prev_a, prev_y)
    betas = oracle_betas(drifted, actions, cm)
    gross = (actions * rel).sum(axis=1)
    factors = betas * gross
    return BacktestResult(0, actions, drifted, betas, factors)


def oracle_grads(params, x, rel, entry_w, entry_y, cm, out):
    t_total = x.shape[1]
    actions, hs = oracle_forward_batch(params, x)
    gross = (actions * rel).sum(axis=-1)
    d_actions = rel / gross[..., None] / t_total
    if cm.mode == "simple":
        drifted = oracle_drift(
            np.concatenate([entry_w, actions[:, :-1]], axis=1),
            np.concatenate([entry_y, rel[:, :-1]], axis=1),
        )
        sign = np.sign(actions - drifted)
        sign[..., 0] = 0.0
        scaled = (cm.blended_rate / t_total) * sign / oracle_betas(drifted, actions, cm)[..., None]
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


def oracle_lockstep_grads(group, x, rel, at_start, entry, cm, out):
    entry_w = None
    if cm.mode == "simple":
        entry_w, _ = oracle_forward_batch(group, x[:, :1])
        entry_w[at_start, 0] = entry
    oracle_grads(group, x[:, 1:], rel[:, 1:], entry_w, rel[:, :1], cm, out)


def oracle_objective(params, states, rel, cm):
    m = rel.shape[1]
    actions, _ = oracle_forward_batch(params, states)
    chain = oracle_reward_chain(actions, rel, all_cash(m), np.ones(m), cm)
    return float(chain.rewards.mean())


# ---- inputs ------------------------------------------------------------------

WIDTHS = (2, 4, 7, 8, 9)  # action columns m; numpy sums pairwise from 8 on
MODES = ("fixed_point", "simple")
HIDDEN = ((32,), (16, 8))
D = 12


def moves(rng, shape):
    """Price relatives with the cash column at 1."""
    rel = np.exp(rng.normal(0.0, 0.03, size=shape))
    rel[..., 0] = 1.0
    return rel


def group_of(cells, m, hidden):
    """Distinct cells whose allocations are far from uniform, so costs bite."""
    policies = [init_policy(D, m, hidden=hidden, seed=c) for c in range(cells)]
    return PolicyParams(3.0 * np.stack([p.theta for p in policies]), policies[0].shapes)


def assert_same_bytes(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


# ---- tests -------------------------------------------------------------------


class TestRowSum:
    @pytest.mark.parametrize("m", range(1, 13))
    def test_equals_the_reduction(self, m):
        rng = np.random.default_rng(m)
        for shape in ((500, m), (3, 64, m), (m,)):
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)
            assert_same_bytes(_row_sum(a), a.sum(axis=-1))
            strided = rng.normal(size=(*shape[:-1], 2 * m))[..., ::2]
            assert_same_bytes(_row_sum(strided), strided.sum(axis=-1))
            transposed = rng.normal(size=shape[::-1]).T
            assert_same_bytes(_row_sum(transposed), transposed.sum(axis=-1))


class TestStepKernel:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hidden", HIDDEN)
    @pytest.mark.parametrize("cells", (1, 3, 35))
    @pytest.mark.parametrize("m", WIDTHS)
    def test_lockstep_grads_equal_the_oracle(self, m, cells, hidden, mode):
        rng = np.random.default_rng(1000 * m + cells)
        group = group_of(cells, m, hidden)
        x = rng.normal(size=(cells, 33, D))
        y = moves(rng, (cells, 33, m))
        at_start = np.arange(cells) % 3 == 1  # some windows open the episode
        cm = CostModel(mode=mode)
        got = PolicyParams(np.empty_like(group.theta), group.shapes)
        want = PolicyParams(np.empty_like(group.theta), group.shapes)
        entry = all_cash(m)
        _lockstep_grads(group, x, y, at_start, entry, cm, got)
        oracle_lockstep_grads(group, x, y, at_start, entry, cm, want)
        assert_same_bytes(got.theta, want.theta)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m", WIDTHS)
    @pytest.mark.parametrize("steps", (1, 20))
    def test_grads_with_given_entry_equal_the_oracle(self, steps, m, mode):
        rng = np.random.default_rng(m)
        group = group_of(3, m, (16, 8))
        x = rng.normal(size=(3, steps, D))
        rel = moves(rng, (3, steps, m))
        entry_w = rng.dirichlet(np.ones(m), size=(3, 1))
        entry_y = moves(rng, (3, 1, m))
        cm = CostModel(mode=mode)
        got = PolicyParams(np.empty_like(group.theta), group.shapes)
        want = PolicyParams(np.empty_like(group.theta), group.shapes)
        # a zero row 0 carries the entry move, and every window is at the start
        _lockstep_grads(
            group,
            np.concatenate([np.zeros((3, 1, D)), x], axis=1),
            np.concatenate([entry_y, rel], axis=1),
            np.ones(3, dtype=bool),
            entry_w[:, 0],
            cm,
            got,
        )
        oracle_grads(group, x, rel, entry_w, entry_y, cm, want)
        assert_same_bytes(got.theta, want.theta)


class TestObjectiveAndChain:
    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("hidden", HIDDEN)
    @pytest.mark.parametrize("m", WIDTHS)
    def test_objective_equals_the_oracle(self, m, hidden, mode):
        rng = np.random.default_rng(m)
        params = group_of(1, m, hidden).cells(0)
        states, rel = rng.normal(size=(300, D)), moves(rng, (300, m))
        cm = CostModel(mode=mode)
        got, want = objective(params, states, rel, cm), oracle_objective(params, states, rel, cm)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("m", WIDTHS)
    @pytest.mark.parametrize("steps", (1, 2, 500))
    def test_reward_chain_equals_the_oracle(self, steps, m, mode):
        rng = np.random.default_rng(steps + m)
        actions = rng.dirichlet(np.full(m, 0.5), size=steps)
        rel = moves(rng, (steps, m))
        entry_w, entry_y = rng.dirichlet(np.ones(m)), moves(rng, (m,))
        cm = CostModel(c_buy=0.003, c_sell=0.002, mode=mode)
        got = reward_chain(actions, rel, entry_w, entry_y, cm)
        want = oracle_reward_chain(actions, rel, entry_w, entry_y, cm)
        for field in ("actions", "weights", "betas", "factors", "rewards", "pv"):
            assert_same_bytes(getattr(got, field), getattr(want, field))
