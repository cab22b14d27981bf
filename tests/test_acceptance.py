"""End-to-end acceptance checks.

Each test prints one `[criterion N] PASS/FAIL (...)` line; run with -s to
see them as they complete.  The two training sweeps are module-scoped so
the accuracy ladder, the density ladder and the noise-equivalence check
share their rows.
"""

from __future__ import annotations

import hashlib
import itertools
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import random_simplex
from scalar import (
    cost_factor,
    cost_fixed_point,
    episode,
    episode_betas,
    objective,
    olmar_action,
    step_reward,
    wmamr_action,
)
from signalfolio.agent import gradient, init_policy
from signalfolio.baselines import (
    CRPPolicy,
    OLMARPolicy,
    WMAMRPolicy,
    ew_policy,
    hold_cash_policy,
    simplex_project,
)
from signalfolio.cli import main as cli_main
from signalfolio.config import resolve
from signalfolio.engine import (
    BacktestResult,
    CostModel,
    accumulate,
    all_cash,
    run_backtest,
)
from signalfolio.evaluation import portfolio_value, sharpe_ratio
from signalfolio.market import generate_synthetic
from signalfolio.signals import build_states
from signalfolio.sweep import run_sweep

SWEEP_BASE = {
    "market.synthetic.n_assets": 3,
    "market.synthetic.n_steps": 2400,
    "market.synthetic.vol": 0.02,
    "market.synthetic.drift": 0.0,
    "market.synthetic.regime_prob": 0.0,
    "market.synthetic.seed": 7,
    "split.boundary": 2000,
    "window": 10,
    "cost.mode": "simple",
    "agent.hidden": 32,
    "agent.learning_rate": 3.0,
    "agent.epochs": 80,
    "agent.batch_window": 64,
    "seeds": (0, 1, 2, 3, 4),
    "seed": 2026,
    "jobs": 2,
}

ACCURACY_LADDER = (0.5, 0.6, 0.7, 0.8, 0.9, 1.0)
DENSITY_LADDER = (0.2, 0.5, 0.8, 1.0)


def verdict(number: int, ok: bool, details: str) -> None:
    print(f"[criterion {number}] {'PASS' if ok else 'FAIL'} ({details})")
    assert ok, f"criterion {number}: {details}"


def mean_pv(rows, accuracy, density):
    pvs = [
        r["final_pv"]
        for r in rows
        if r["accuracy"] == accuracy and r["density"] == density
    ]
    assert len(pvs) == len(SWEEP_BASE["seeds"])
    return float(np.mean(pvs))


def by_seed(rows, accuracy, density):
    return {
        r["seed"]: r["final_pv"]
        for r in rows
        if r["accuracy"] == accuracy and r["density"] == density
    }


@pytest.fixture(scope="module")
def accuracy_sweep():
    cfg = resolve(
        {**SWEEP_BASE, "sweep.accuracies": ACCURACY_LADDER, "sweep.densities": (1.0,)}
    )
    start = time.monotonic()
    rows, failures = run_sweep(cfg)
    assert failures == []
    return rows, time.monotonic() - start


@pytest.fixture(scope="module")
def density_sweep():
    cfg = resolve(
        {**SWEEP_BASE, "sweep.accuracies": (0.7,), "sweep.densities": DENSITY_LADDER}
    )
    start = time.monotonic()
    rows, failures = run_sweep(cfg)
    assert failures == []
    return rows, time.monotonic() - start


def test_criterion_1_policy_gradient_matches_finite_differences():
    start = time.monotonic()
    eps = 1e-5
    checked, worst = 0, 0.0
    for mode, market_seed, net_seed in (("fixed_point", 21, 4), ("simple", 22, 5)):
        prices = generate_synthetic(n_assets=2, n_steps=60, vol=0.03, seed=market_seed)
        states, rel = episode(prices, window=8)
        params = init_policy(states.shape[1], 3, hidden=(6,), seed=net_seed)
        cm = CostModel(mode=mode)
        grads_w, grads_b = gradient(params, states, rel, cm)
        frozen = episode_betas(params, states, rel, cm) if mode == "fixed_point" else None
        rng = np.random.default_rng(0)
        for arrays, grads in ((params.weights, grads_w), (params.biases, grads_b)):
            for layer, grad in zip(arrays, grads):
                flat, g_flat = layer.ravel(), grad.ravel()
                picks = rng.choice(flat.size, size=min(5, flat.size), replace=False)
                for idx in picks:
                    saved = flat[idx]
                    flat[idx] = saved + eps
                    up = objective(params, states, rel, cm, frozen_betas=frozen)
                    flat[idx] = saved - eps
                    down = objective(params, states, rel, cm, frozen_betas=frozen)
                    flat[idx] = saved
                    fd = (up - down) / (2 * eps)
                    if abs(g_flat[idx]) > 1e-6:
                        worst = max(worst, abs(fd - g_flat[idx]) / abs(g_flat[idx]))
                        checked += 1
    elapsed = time.monotonic() - start
    ok = checked >= 20 and worst <= 1e-4 and elapsed < 60.0
    verdict(
        1,
        ok,
        f"{checked} coordinates, worst relative error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_cost_fixed_point_converges():
    rng = np.random.default_rng(1404)
    max_iters_seen, lo, hi = 0, np.inf, -np.inf
    for _ in range(10_000):
        m = int(rng.integers(2, 6))
        w_drift = random_simplex(rng, m)
        a = random_simplex(rng, m)
        cm = CostModel(
            c_buy=float(rng.uniform(0, 0.05)),
            c_sell=float(rng.uniform(0, 0.05)),
        )
        beta, iters = cost_fixed_point(w_drift, a, cm)
        max_iters_seen = max(max_iters_seen, iters)
        lo, hi = min(lo, beta), max(hi, beta)
    clean = True
    for _ in range(100):
        m = int(rng.integers(2, 6))
        w = random_simplex(rng, m)
        cm = CostModel(
            c_buy=float(rng.uniform(0.001, 0.05)),
            c_sell=float(rng.uniform(0.001, 0.05)),
        )
        beta, _ = cost_fixed_point(w, w, cm)
        clean = clean and beta == 1.0
    ok = max_iters_seen <= 50 and 0.0 < lo and hi <= 1.0 and clean
    verdict(
        2,
        ok,
        f"10000 pairs, max {max_iters_seen} iterations, beta in "
        f"[{lo:.6f}, {hi:.6f}], zero-turnover beta exactly 1: {clean}",
    )


def test_criterion_3_reward_accumulation_equals_wealth_recursion():
    rng = np.random.default_rng(77)
    episodes, worst = 0, 0.0
    for _ in range(1000):
        m = int(rng.integers(2, 6))
        t_total = int(rng.integers(1, 25))
        cm = CostModel(
            c_buy=float(rng.uniform(0, 0.01)), c_sell=float(rng.uniform(0, 0.01))
        )
        w_prev, y_prev = all_cash(m), np.ones(m)
        rewards, wealth = [], 1.0
        for _ in range(t_total):
            a = random_simplex(rng, m)
            y = np.concatenate([[1.0], np.exp(rng.normal(0, 0.05, m - 1))])
            rewards.append(step_reward(w_prev, a, y, y_prev, cm))
            beta = cost_factor(w_prev, a, y_prev, cm)
            wealth *= beta * float(a @ y)
            w_prev, y_prev = a, y
        pv = accumulate(np.array(rewards))
        worst = max(worst, abs(pv[-1] - wealth) / wealth)
        episodes += 1
    ok = episodes == 1000 and worst <= 1e-10
    verdict(3, ok, f"{episodes} episodes, worst relative gap {worst:.2e}")


def test_criterion_4_portfolio_value_rises_with_signal_accuracy(accuracy_sweep):
    rows, elapsed = accuracy_sweep
    means = [mean_pv(rows, a, 1.0) for a in ACCURACY_LADDER]
    inversions = sum(1 for lo, hi in zip(means, means[1:]) if hi < lo)
    control = float(
        np.mean([r["final_pv"] for r in rows if r["accuracy"] is None])
    )
    ok = inversions <= 1 and means[-1] >= 1.2 * control and elapsed < 600.0
    ladder = " ".join(f"{m:.2f}" for m in means)
    verdict(
        4,
        ok,
        f"mean pv ladder [{ladder}], {inversions} adjacent inversions, "
        f"pv(acc=1.0)={means[-1]:.2f} vs 1.2x control={1.2 * control:.2f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_5_portfolio_value_rises_with_signal_density(density_sweep):
    rows, elapsed = density_sweep
    full = mean_pv(rows, 0.7, 1.0)
    sparse = mean_pv(rows, 0.7, 0.2)
    control = {r["seed"]: r["final_pv"] for r in rows if r["accuracy"] is None}
    half = by_seed(rows, 0.7, 0.5)
    wins = sum(1 for s in half if half[s] > control[s])
    ok = full >= sparse and wins >= 4 and elapsed < 600.0
    verdict(
        5,
        ok,
        f"mean pv density 1.0={full:.2f} vs 0.2={sparse:.2f}, "
        f"half-density beats control in {wins}/5 seeds, {elapsed:.0f}s",
    )


def test_criterion_6_noise_signal_is_statistically_flat(accuracy_sweep):
    rows, _ = accuracy_sweep
    noise = by_seed(rows, 0.5, 1.0)
    control = {r["seed"]: r["final_pv"] for r in rows if r["accuracy"] is None}
    diffs = np.array([noise[s] - control[s] for s in sorted(noise)])
    ok = abs(diffs.mean()) <= 2 * diffs.std()
    verdict(
        6,
        ok,
        f"paired diffs mean {diffs.mean():+.4f}, 2*std {2 * diffs.std():.4f}",
    )


def project_by_support_search(v: np.ndarray) -> np.ndarray:
    d = v.size
    best, best_dist = None, np.inf
    for r in range(1, d + 1):
        for support in itertools.combinations(range(d), r):
            theta = (sum(v[i] for i in support) - 1.0) / r
            x = np.zeros(d)
            for i in support:
                x[i] = v[i] - theta
            if np.any(x[list(support)] < -1e-12):
                continue
            dist = float(((x - v) ** 2).sum())
            if dist < best_dist:
                best, best_dist = x, dist
    return best


def replay_reversion(update, epsilon, window, hist):
    """Drive one update rule over a growing history, scripted step by step."""
    m = hist.shape[1]
    b = np.full(m, 1.0 / m)
    path = []
    for t in range(1, hist.shape[0]):
        b = update(b, hist[:t], epsilon, window)
        path.append(b.copy())
    return np.stack(path)


def olmar_scripted(b, hist, epsilon, window):
    if hist.shape[0] < window:
        return b.copy()
    predicted = np.zeros(b.size)
    for k in range(window):
        term = np.ones(b.size)
        for j in range(k + 1):
            term = term / hist[hist.shape[0] - 1 - j]
        predicted += term
    predicted /= window
    if float(b @ predicted) >= epsilon:
        return b.copy()
    centered = predicted - predicted.mean()
    nsq = float(centered @ centered)
    if nsq <= 1e-300:
        return b.copy()
    return project_by_support_search(
        b + (epsilon - float(b @ predicted)) / nsq * centered
    )


def wmamr_scripted(b, hist, epsilon, window):
    if hist.shape[0] < window:
        return b.copy()
    avg = hist[-window:].mean(axis=0)
    loss = float(b @ avg) - epsilon
    if loss <= 0.0:
        return b.copy()
    centered = avg - avg.mean()
    nsq = float(centered @ centered)
    if nsq <= 1e-300:
        return b.copy()
    return project_by_support_search(b - (loss / nsq) * centered)


def test_criterion_7_baselines_agree_with_closed_forms():
    problems = []

    prices = generate_synthetic(n_assets=3, n_steps=120, vol=0.03, seed=40)
    cm = CostModel(c_buy=0.004, c_sell=0.006)
    held = run_backtest(prices, build_states(prices, None, 10), hold_cash_policy(4), cm)
    if not np.all(np.abs(held.pv - 1.0) <= 1e-12):
        problems.append("hold-cash pv drifted")

    ew = run_backtest(prices, build_states(prices, None, 10), ew_policy(4), cm)
    crp = run_backtest(prices, build_states(prices, None, 10), CRPPolicy(np.full(4, 0.25)), cm)
    if not (
        np.array_equal(ew.actions, crp.actions) and np.array_equal(ew.pv, crp.pv)
    ):
        problems.append("equal-weight differs from uniform fixed mix")

    rng = np.random.default_rng(55)
    hist = np.hstack([np.ones((40, 1)), np.exp(rng.normal(0, 0.06, (40, 3)))])
    olmar_path = replay_reversion(olmar_action, 10.0, 5, hist)
    olmar_ref = replay_reversion(olmar_scripted, 10.0, 5, hist)
    if not np.allclose(olmar_path, olmar_ref, atol=1e-10):
        problems.append("moving-average reversion replay diverged")
    wmamr_path = replay_reversion(wmamr_action, 1.0, 5, hist)
    wmamr_ref = replay_reversion(wmamr_scripted, 1.0, 5, hist)
    if not np.allclose(wmamr_path, wmamr_ref, atol=1e-10):
        problems.append("windowed mean reversion replay diverged")

    worst_proj = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 5))
        v = rng.normal(0, 2, d)
        gap = float(np.abs(simplex_project(v) - project_by_support_search(v)).max())
        worst_proj = max(worst_proj, gap)
    if worst_proj > 1e-6:
        problems.append(f"projection gap {worst_proj:.2e}")

    verdict(
        7,
        not problems,
        "; ".join(problems) if problems else
        f"hold-cash flat, fixed-mix identical, both reversion replays within "
        f"1e-10, projection gap {worst_proj:.2e}",
    )


def test_criterion_8_metric_oracles():
    rng = np.random.default_rng(33)
    worst_pv, worst_sr = 0.0, 0.0
    for _ in range(50):
        t_total = int(rng.integers(3, 40))
        factors = np.exp(rng.normal(0, 0.04, t_total))
        uniform = np.full((t_total, 2), 0.5)
        result = BacktestResult(
            start_index=0,
            actions=uniform,
            weights=uniform,
            betas=np.ones(t_total),
            factors=factors,
        )
        direct_pv = float(np.prod(factors))
        worst_pv = max(
            worst_pv, abs(portfolio_value(result) - direct_pv) / direct_pv
        )
        h = int(rng.integers(2, t_total + 1))
        direct_sr = (factors[:h].sum() - 0.02) / np.std(factors[:h])
        worst_sr = max(worst_sr, abs(sharpe_ratio(result, h) - direct_sr))
    two_point = BacktestResult(
        start_index=0,
        actions=np.full((2, 2), 0.5),
        weights=np.full((2, 2), 0.5),
        betas=np.ones(2),
        factors=np.array([1.1, 0.9]),
    )
    spot = abs(sharpe_ratio(two_point, 2) - 19.8)
    ok = worst_pv <= 1e-10 and worst_sr <= 1e-10 and spot <= 1e-10
    verdict(
        8,
        ok,
        f"pv gap {worst_pv:.2e}, sharpe gap {worst_sr:.2e}, "
        f"two-point case off 19.8 by {spot:.2e}",
    )


def test_criterion_9_sweep_command_reruns_byte_identical(tmp_path):
    args = [
        "--set", "market.synthetic.n_assets=2",
        "--set", "market.synthetic.n_steps=150",
        "--set", "market.synthetic.vol=0.02",
        "--set", "market.synthetic.seed=5",
        "--set", "split.fraction=0.8",
        "--set", "window=8",
        "--set", "agent.hidden=8",
        "--set", "agent.epochs=2",
        "--set", "agent.batch_window=16",
        "--set", "agent.learning_rate=0.5",
        "--set", "sweep.accuracies=0.6,1.0",
        "--set", "sweep.densities=1.0",
        "--set", "seeds=0",
        "--set", "seed=11",
    ]

    def digest_tree(out: Path) -> dict[str, str]:
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.is_file()
        }

    first, second = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["sweep", "--out", str(first), *args])
    code_b = cli_main(["sweep", "--out", str(second), *args])
    hashes_a, hashes_b = digest_tree(first), digest_tree(second)
    ok = code_a == 0 and code_b == 0 and hashes_a == hashes_b and len(hashes_a) == 3
    verdict(
        9,
        ok,
        f"exit codes {code_a}/{code_b}, {len(hashes_a)} artifacts, "
        f"hashes identical: {hashes_a == hashes_b}",
    )
