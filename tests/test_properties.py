"""Invariants of the reward chain, its stored result, the simplex projection and
lockstep training, over generated inputs.

Runs only where hypothesis is importable; the package never needs it.
Examples are derived from the test's name, not drawn afresh, so every run
checks the same cases, and no example database is written.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from scalar import cost_factor, drift_weights  # noqa: E402
from signalfolio.agent import init_policy, train  # noqa: E402
from signalfolio.baselines import simplex_project  # noqa: E402
from signalfolio.engine import BacktestResult, CostModel, reward_chain  # noqa: E402
from signalfolio.market import generate_synthetic  # noqa: E402
from signalfolio.signals import oracle_labels, state_dim, true_movements  # noqa: E402

SETTINGS = hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)
MODES = st.sampled_from(["fixed_point", "simple"])


@st.composite
def simplex(draw, m: int) -> np.ndarray:
    v = np.asarray(draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    hypothesis.assume(v.sum() > 1e-6)
    return v / v.sum()


@st.composite
def moves(draw, shape: tuple[int, ...]) -> np.ndarray:
    """Relative prices: 1 for cash, a positive move for each asset."""
    size = int(np.prod(shape))
    y = np.exp(draw(st.lists(st.floats(-0.3, 0.3), min_size=size, max_size=size))).reshape(shape)
    y[..., 0] = 1.0
    return y


def costs(draw, top: float) -> CostModel:
    rates = st.floats(0.0, top)
    return CostModel(c_buy=draw(rates), c_sell=draw(rates), mode=draw(MODES))


@st.composite
def rebalances(draw):
    """Holdings, a price move and a target; rates low enough that simple mode stays positive."""
    m = draw(st.integers(2, 6))
    cm = costs(draw, 0.4)
    return draw(simplex(m)), draw(moves((m,))), draw(simplex(m)), cm


@SETTINGS
@hypothesis.given(rebalances())
def test_beta_lies_in_zero_one(case):
    w_prev, y_prev, a, cm = case
    assert 0.0 < cost_factor(w_prev, a, y_prev, cm) <= 1.0


@SETTINGS
@hypothesis.given(rebalances())
def test_beta_is_one_at_zero_turnover(case):
    w_prev, y_prev, _, cm = case
    assert cost_factor(w_prev, drift_weights(w_prev, y_prev), y_prev, cm) == 1.0


@st.composite
def chains(draw):
    m, steps = draw(st.integers(2, 5)), draw(st.integers(1, 12))
    actions = np.stack([draw(simplex(m)) for _ in range(steps)])
    cm = costs(draw, 0.05)
    return actions, draw(moves((steps, m))), draw(simplex(m)), draw(moves((m,))), cm


@SETTINGS
@hypothesis.given(chains())
def test_reward_sum_is_the_log_of_the_factor_product(case):
    result = reward_chain(*case)
    want = np.log(np.prod(result.factors))
    assert np.sum(result.rewards) == pytest.approx(want, rel=1e-9, abs=1e-12)


@st.composite
def results(draw):
    """A result that load accepts: simplex action rows; any finite weights and betas."""
    steps, m = draw(st.integers(1, 20)), draw(st.integers(2, 4))
    floats = st.floats(allow_nan=False, allow_infinity=False)
    positive = st.floats(min_value=0.0, max_value=1e15, exclude_min=True)  # pv stays finite

    def array(elements, shape):
        size = int(np.prod(shape))
        return np.reshape(draw(st.lists(elements, min_size=size, max_size=size)), shape)

    return BacktestResult(
        start_index=draw(st.integers(0, 10_000)),
        actions=np.stack([draw(simplex(m)) for _ in range(steps)]),
        weights=array(floats, (steps, m)),
        betas=array(floats, (steps,)),
        factors=array(positive, (steps,)),
    )


@SETTINGS
@hypothesis.given(results())
def test_save_and_load_rebuild_the_derived_fields_bit_for_bit(result):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "result.json"
        result.save(path)
        loaded = BacktestResult.load(path)
    for name in ("actions", "weights", "betas", "factors", "rewards", "pv"):
        assert getattr(loaded, name).tobytes() == getattr(result, name).tobytes()
    assert np.float64(loaded.final_pv).tobytes() == np.float64(result.final_pv).tobytes()
    assert loaded.start_index == result.start_index


@st.composite
def projections(draw):
    """A finite vector and three points of the simplex of its size."""
    m = draw(st.integers(1, 8))
    v = np.asarray(draw(st.lists(st.floats(-100.0, 100.0), min_size=m, max_size=m)))
    return v, [draw(simplex(m)) for _ in range(3)]


def sort_threshold(v: np.ndarray) -> float:
    """θ of the sort-threshold rule (Duchi et al., ICML 2008): with u sorted descending,
    the last k with u_k > (u_1 + ... + u_k - 1) / k sets θ to that ratio."""
    u = np.sort(v)[::-1]
    ratios = (np.cumsum(u) - 1.0) / np.arange(1, v.size + 1)
    return float(ratios[np.nonzero(u > ratios)[0][-1]])


@SETTINGS
@hypothesis.given(projections())
def test_simplex_projection_is_the_nearest_simplex_point(case):
    v, others = case
    p = simplex_project(v)
    assert np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9
    np.testing.assert_allclose(p, np.maximum(v - sort_threshold(v), 0.0), rtol=0.0, atol=1e-9)
    for q in others:
        assert np.linalg.norm(p - v) <= np.linalg.norm(q - v) + 1e-9


SEEDS = st.integers(0, 2**32 - 1)


@st.composite
def groups(draw):
    """A tiny market and 1 to 4 cells, each with its parameters, oracle labels
    or none, and sampler seed, under one cost mode and training config."""
    n, window, cells = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    prices = generate_synthetic(n, window + draw(st.integers(6, 30)), vol=0.03, seed=draw(SEEDS))
    episode = prices.n_steps - window
    cfg = dict(
        learning_rate=draw(st.floats(0.0, 5.0)),
        batch_window=draw(st.integers(1, episode)),
        epochs=draw(st.integers(1, 3)),
        window=window,
        steps_per_epoch=draw(st.none() | st.integers(1, 3)),
    )
    hidden = draw(st.sampled_from([(), (3,), (4, 2)]))
    moves = true_movements(prices)
    params, signals = [], []
    for _ in range(cells):
        params.append(init_policy(state_dim(n, window), n + 1, hidden=hidden, seed=draw(SEEDS)))
        accuracy, density = draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))
        labelled = draw(st.booleans())
        signals.append(oracle_labels(moves, accuracy, density, draw(SEEDS)) if labelled else None)
    cm = costs(draw, 0.05)
    return prices, params, signals, [draw(SEEDS) for _ in range(cells)], cm, cfg


def same_outcome(got, want) -> bool:
    if isinstance(want, Exception):
        return type(got) is type(want) and str(got) == str(want)
    (got_params, got_curve), (want_params, want_curve) = got, want
    return got_params.theta.tobytes() == want_params.theta.tobytes() and (
        np.array(got_curve).tobytes() == np.array(want_curve).tobytes()
    )


@SETTINGS
@hypothesis.given(groups())
def test_group_training_equals_one_cell_runs_bit_for_bit(case):
    prices, params, signals, seeds, cm, cfg = case
    samplers = [np.random.default_rng(seed) for seed in seeds]
    group = train(params, prices, signals, cm, samplers, **cfg)
    for got, p, s, seed in zip(group, params, signals, seeds):
        [want] = train([p], prices, [s], cm, [np.random.default_rng(seed)], **cfg)
        assert same_outcome(got, want)
