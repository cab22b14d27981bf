from __future__ import annotations

import numpy as np
import pytest

from signalfolio.market import PriceSeries, generate_synthetic


@pytest.fixture
def tiny_market() -> PriceSeries:
    """Cash + two assets over five steps, hand-built closes."""
    close = np.array(
        [
            [1.0, 1.0, 1.0, 1.0, 1.0],
            [10.0, 11.0, 9.9, 10.89, 10.3455],
            [20.0, 18.0, 19.8, 17.82, 19.602],
        ]
    )
    return PriceSeries(close=close, timestamps=tuple(range(5)), assets=("A1", "A2"))


@pytest.fixture
def drift_market() -> PriceSeries:
    """Zero-vol market where asset 1 compounds at exactly 1.01 per step."""
    return generate_synthetic(n_assets=1, n_steps=60, drift=np.log(1.01), vol=0.0, seed=0)


@pytest.fixture
def noisy_market() -> PriceSeries:
    return generate_synthetic(n_assets=2, n_steps=120, drift=(0.001, -0.001), vol=0.02, seed=42)


def random_simplex(rng: np.random.Generator, m: int) -> np.ndarray:
    v = rng.dirichlet(np.ones(m))
    # dirichlet occasionally rounds a sum one ulp away from 1
    return v / v.sum()
