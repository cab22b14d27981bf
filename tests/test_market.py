from __future__ import annotations

import numpy as np
import pytest

from signalfolio.market import (
    MarketDataError,
    PriceSeries,
    chronological_split,
    generate_synthetic,
    load_csv,
    relative_prices,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestPriceSeries:
    def test_rejects_nonconstant_cash(self):
        close = np.array([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(MarketDataError, match="cash"):
            PriceSeries(close=close, timestamps=(0, 1), assets=("A",))

    def test_rejects_nonpositive_price(self):
        close = np.array([[1.0, 1.0], [3.0, 0.0]])
        with pytest.raises(MarketDataError, match="positive"):
            PriceSeries(close=close, timestamps=(0, 1), assets=("A",))

    def test_rejects_decreasing_timestamps(self):
        close = np.ones((2, 2))
        with pytest.raises(MarketDataError, match="increasing"):
            PriceSeries(close=close, timestamps=(5, 5), assets=("A",))

    def test_close_is_read_only(self, tiny_market):
        with pytest.raises(ValueError):
            tiny_market.close[0, 0] = 2.0


class TestLoadCsv:
    def test_grid_shape_and_cash(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(
            path,
            [
                "timestamp,asset,close",
                "1,BTC,100.0",
                "1,ETH,10.0",
                "2,BTC,101.0",
                "2,ETH,9.0",
                "3,BTC,99.0",
                "3,ETH,11.0",
            ],
        )
        p = load_csv(path)
        assert p.close.shape == (3, 3)
        assert p.assets == ("BTC", "ETH")
        assert np.all(p.close[0] == 1.0)
        assert p.close[1, 1] == 101.0

    def test_rejects_zero_price(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(path, ["timestamp,asset,close", "1,BTC,0.0"])
        with pytest.raises(MarketDataError, match="non-positive"):
            load_csv(path)

    def test_rejects_ragged(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(
            path,
            ["timestamp,asset,close", "1,BTC,100.0", "2,BTC,101.0", "1,ETH,10.0"],
        )
        with pytest.raises(MarketDataError, match="ragged"):
            load_csv(path)

    def test_forward_fill_fills_gap(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(
            path,
            ["timestamp,asset,close", "1,BTC,100.0", "2,BTC,101.0", "1,ETH,10.0"],
        )
        p = load_csv(path, forward_fill=True)
        assert p.close[2, 1] == 10.0

    def test_forward_fill_cannot_fill_leading_gap(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(
            path,
            ["timestamp,asset,close", "1,BTC,100.0", "2,BTC,101.0", "2,ETH,10.0"],
        )
        with pytest.raises(MarketDataError, match="ragged"):
            load_csv(path, forward_fill=True)

    def test_rejects_duplicate_row(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(path, ["timestamp,asset,close", "1,BTC,100.0", "1,BTC,100.0"])
        with pytest.raises(MarketDataError, match="duplicate"):
            load_csv(path)

    def test_missing_column_named(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(path, ["time,asset,close", "1,BTC,100.0"])
        with pytest.raises(MarketDataError, match="timestamp"):
            load_csv(path)

    def test_iso_timestamps(self, tmp_path):
        path = tmp_path / "m.csv"
        write_lines(
            path,
            [
                "timestamp,asset,close",
                "2021-01-01T00:00:00,BTC,100.0",
                "2021-01-01T00:30:00,BTC,101.0",
            ],
        )
        p = load_csv(path)
        assert p.n_steps == 2
        assert p.timestamps[0].year == 2021

    def test_schema_asset_order(self, tmp_path):
        # assets keep the order of their first row, whatever their names
        path = tmp_path / "m.csv"
        write_lines(
            path,
            ["timestamp,asset,close", "1,ETH,10.0", "1,BTC,100.0", "2,BTC,101.0", "2,ETH,11.0"],
        )
        p = load_csv(path)
        assert p.assets == ("ETH", "BTC")
        assert np.array_equal(p.close[1:], [[10.0, 11.0], [100.0, 101.0]])

    def test_extra_columns_ignored(self, tmp_path):
        plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        write_lines(plain, ["timestamp,asset,close", "1,BTC,100.0", "2,BTC,101.0"])
        write_lines(
            extra,
            ["volume,high,timestamp,low,asset,close", "5,0,1,0,BTC,100.0", ",x,2,-1,BTC,101.0"],
        )
        a, b = load_csv(plain), load_csv(extra)
        assert (a.assets, a.timestamps) == (b.assets, b.timestamps)
        assert np.array_equal(a.close, b.close)

    def test_round_trip_identity(self, tmp_path):
        original = generate_synthetic(n_assets=3, n_steps=40, drift=0.001, vol=0.05, seed=9)
        path = tmp_path / "rt.csv"
        rows = [
            f"{ts},{asset},{float(original.close[i + 1, j])!r}"
            for j, ts in enumerate(original.timestamps)
            for i, asset in enumerate(original.assets)
        ]
        write_lines(path, ["timestamp,asset,close", *rows])
        loaded = load_csv(path)
        assert loaded.assets == original.assets
        assert loaded.timestamps == original.timestamps
        assert np.array_equal(loaded.close, original.close)


class TestRelativePrices:
    def test_two_asset_example(self):
        close = np.array([[1.0, 1.0], [10.0, 11.0], [20.0, 18.0]])
        p = PriceSeries(close=close, timestamps=(0, 1), assets=("A", "B"))
        y = relative_prices(p)
        assert np.allclose(y[:, 0], [1.0, 1.1, 0.9])

    def test_constant_market_all_ones(self):
        close = np.full((3, 6), 7.0)
        close[0] = 1.0
        p = PriceSeries(close=close, timestamps=tuple(range(6)), assets=("A", "B"))
        assert np.all(relative_prices(p) == 1.0)

    def test_cash_row_exactly_one(self, noisy_market):
        assert np.all(relative_prices(noisy_market)[0] == 1.0)

    def test_read_only(self, noisy_market):
        with pytest.raises(ValueError):
            relative_prices(noisy_market)[1, 0] = 2.0

    def test_cumprod_recovers_closes(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            p = generate_synthetic(
                n_assets=int(rng.integers(1, 5)),
                n_steps=int(rng.integers(3, 40)),
                drift=float(rng.normal(0, 0.01)),
                vol=float(rng.uniform(0, 0.1)),
                seed=int(rng.integers(0, 1000)),
            )
            y = relative_prices(p)
            rebuilt = p.close[:, :1] * np.cumprod(y, axis=1)
            assert np.allclose(rebuilt, p.close[:, 1:], rtol=1e-12)

    def test_single_step_rejected(self):
        p = PriceSeries(close=np.ones((2, 1)), timestamps=(0,), assets=("A",))
        with pytest.raises(MarketDataError):
            relative_prices(p)

    @pytest.mark.parametrize("closes", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_ratio_overflow_rejected(self, closes):
        # both closes are valid, but their ratio overflows to inf or underflows to 0
        close = np.array([[1.0, 1.0], closes])
        p = PriceSeries(close=close, timestamps=(0, 1), assets=("A",))
        with np.errstate(over="ignore"), pytest.raises(MarketDataError, match="finite"):
            relative_prices(p)


class TestSplit:
    def test_fraction_ninety(self):
        p = generate_synthetic(n_assets=1, n_steps=100, seed=0)
        train, test = chronological_split(p, int(round(0.9 * p.n_steps)))
        assert train.n_steps == 90
        assert test.n_steps == 10

    def test_fraction_one_rejected(self):
        with pytest.raises(MarketDataError):
            chronological_split(generate_synthetic(n_assets=1, n_steps=100), 100)

    def test_halfhour_style_boundary(self):
        p = generate_synthetic(n_assets=1, n_steps=35089, seed=1)
        train, test = chronological_split(p, 32313)
        assert train.n_steps == 32313
        assert test.n_steps == 2776

    def test_concatenation_reproduces_input(self, noisy_market):
        train, test = chronological_split(noisy_market, 90)
        glued = np.hstack([train.close, test.close])
        assert np.array_equal(glued, noisy_market.close)
        assert train.timestamps + test.timestamps == noisy_market.timestamps

    def test_too_short_segment_rejected(self):
        p = generate_synthetic(n_assets=1, n_steps=20, seed=0)
        with pytest.raises(MarketDataError, match="too short"):
            chronological_split(p, 19, min_steps=2)
        with pytest.raises(MarketDataError, match="too short"):
            chronological_split(p, 5, min_steps=12)

    def test_boundary_below_one_rejected(self):
        p = generate_synthetic(n_assets=1, n_steps=20, seed=0)
        with pytest.raises(MarketDataError, match="^split boundary 0 must be >= 1$"):
            chronological_split(p, 0, min_steps=0)


class TestSynthetic:
    def test_same_seed_identical(self):
        spec = dict(n_assets=2, n_steps=50, drift=0.01, vol=0.1, seed=11)
        a = generate_synthetic(**spec)
        b = generate_synthetic(**spec)
        assert np.array_equal(a.close, b.close)

    def test_different_seed_differs(self):
        base = dict(n_assets=2, n_steps=50, drift=0.01, vol=0.1)
        a = generate_synthetic(seed=1, **base)
        b = generate_synthetic(seed=2, **base)
        assert not np.array_equal(a.close, b.close)

    def test_zero_vol_zero_drift_constant(self):
        p = generate_synthetic(n_assets=2, n_steps=30, seed=5, vol=0.0)
        assert np.all(p.close == 1.0)

    def test_zero_vol_drift_compounds(self, drift_market):
        y = relative_prices(drift_market)
        assert np.allclose(y[1], 1.01, rtol=1e-12)

    def test_regime_prob_one_alternates_drift_sign(self):
        prices = generate_synthetic(
            n_assets=1, n_steps=7, drift=0.1, vol=0.0, regime_switch_prob=1.0, seed=0
        )
        y = relative_prices(prices)[1]
        signs = np.sign(np.log(y))
        assert list(signs) == [-1.0, 1.0, -1.0, 1.0, -1.0, 1.0]

    def test_invariants_random_specs(self):
        rng = np.random.default_rng(77)
        for _ in range(15):
            n = int(rng.integers(1, 6))
            spec = dict(
                n_assets=n,
                n_steps=int(rng.integers(2, 60)),
                drift=tuple(rng.normal(0, 0.02, n)),
                vol=tuple(rng.uniform(0, 0.1, n)),
                regime_switch_prob=float(rng.uniform(0, 1)),
                seed=int(rng.integers(0, 10_000)),
            )
            p = generate_synthetic(**spec)
            assert p.close.shape == (n + 1, spec["n_steps"])
            assert np.all(p.close > 0)
            assert np.all(p.close[0] == 1.0)

    def test_bad_specs_rejected(self):
        with pytest.raises(MarketDataError):
            generate_synthetic(n_assets=0, n_steps=10)
        with pytest.raises(MarketDataError):
            generate_synthetic(n_assets=1, n_steps=10, vol=-0.1)
        with pytest.raises(MarketDataError):
            generate_synthetic(n_assets=1, n_steps=10, regime_switch_prob=1.5)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            (dict(n_assets=0), "need at least one risky asset"),
            (dict(n_steps=1), "need at least two steps"),
            (dict(regime_switch_prob=-0.1), "regime switch probability outside [0, 1]"),
            (dict(drift=(0.1, 0.2, 0.3)), "drift has shape (3,), want (2,)"),
            (dict(vol=[[0.1, 0.2]]), "vol has shape (1, 2), want (2,)"),
            (dict(vol=(0.1, -0.1)), "volatility must be non-negative"),
        ],
    )
    def test_bad_spec_messages(self, kwargs, message):
        with pytest.raises(MarketDataError) as err:
            generate_synthetic(**{"n_assets": 2, "n_steps": 10, **kwargs})
        assert str(err.value) == message
