"""Price series loading, validation, synthesis and slicing.

Every series carries a synthetic cash row at index 0 with constant price 1,
so a market of n risky assets has n+1 rows.  Timestamps are integers or
ISO-8601 datetimes, strictly increasing, and shared by all assets; ragged
input is rejected unless forward-filling is requested explicitly.  The
module also holds open_whole and write_json, the writers of every artifact,
at the bottom of the import graph so that every module can use them.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np


class MarketDataError(ValueError):
    """Malformed or inconsistent price data."""


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(a, dtype=float)
    out.setflags(write=False)
    return out


@contextmanager
def open_whole(path: str | Path, newline: str | None = None):
    """A text file to write path through, whole or not at all.

    The text goes to a sibling "<name>.tmp" that replaces path only once the
    block completes; on any error the temp file is removed and the error
    re-raised, so path keeps its previous contents.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with tmp.open("w", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path: str | Path, fields: dict) -> None:
    """Write the bytes of json.dumps(fields, sort_keys=True), whole or not at all.

    Each top-level value is encoded on its own, a numpy array as its
    .tolist(), so the largest text held at once is one value's.  A float64
    vector or matrix is encoded one run of bit-equal rows at a time (a
    vector's elements are its rows): json.dumps encodes the first row of
    each run, and the text repeats that row's token for the rest of the run.
    """

    def encode(value) -> str:
        if not isinstance(value, np.ndarray):
            return json.dumps(value, sort_keys=True)
        if value.dtype != np.float64 or value.ndim not in (1, 2) or len(value) < 2:
            return json.dumps(value.tolist(), sort_keys=True)
        bits = np.ascontiguousarray(value).view(np.int64)  # -0.0 and 0.0 differ in bits
        bits = bits[:, None] if value.ndim == 1 else bits
        starts = np.flatnonzero(np.r_[True, (bits[1:] != bits[:-1]).any(axis=1)])
        if len(starts) == len(value):  # no row repeats its predecessor
            return json.dumps(value.tolist())
        counts = np.diff(np.r_[starts, len(value)]).tolist()
        text = json.dumps(value[starts].tolist())
        sep, edge = (", ", 1) if value.ndim == 1 else ("], [", 2)
        rows = map(itertools.repeat, text[edge:-edge].split(sep), counts)
        return text[:edge] + sep.join(itertools.chain.from_iterable(rows)) + text[-edge:]

    with open_whole(path) as fh:
        fh.write("{")
        for i, key in enumerate(sorted(fields)):
            fh.write(f"{', ' if i else ''}{json.dumps(key)}: ")
            fh.write(encode(fields[key]))
        fh.write("}")


@dataclass(frozen=True)
class PriceSeries:
    """Closing prices for cash + risky assets, one column per time step."""

    close: np.ndarray
    timestamps: tuple
    assets: tuple[str, ...]

    def __post_init__(self) -> None:
        close = np.asarray(self.close, dtype=float)
        if close.ndim != 2:
            raise MarketDataError("close must be a 2-D matrix")
        n_rows, n_cols = close.shape
        if n_rows != len(self.assets) + 1:
            raise MarketDataError(
                f"close has {n_rows} rows but expected {len(self.assets) + 1} "
                "(cash + risky assets)"
            )
        if n_cols == 0:
            raise MarketDataError("series has no time steps")
        if n_cols != len(self.timestamps):
            raise MarketDataError("timestamps do not match close columns")
        if not np.all(np.isfinite(close)) or np.any(close <= 0.0):
            raise MarketDataError("prices must be finite and strictly positive")
        if np.any(close[0] != close[0, 0]):
            raise MarketDataError("cash row must be constant")
        for a, b in zip(self.timestamps, self.timestamps[1:]):
            try:
                ordered = a < b
            except TypeError as exc:
                raise MarketDataError(f"incomparable timestamps {a!r} and {b!r}") from exc
            if not ordered:
                raise MarketDataError(f"timestamps not strictly increasing at {b!r}")
        object.__setattr__(self, "close", _frozen(close))
        object.__setattr__(self, "timestamps", tuple(self.timestamps))
        object.__setattr__(self, "assets", tuple(self.assets))

    @property
    def n_assets(self) -> int:
        """Number of risky assets (cash excluded)."""
        return len(self.assets)

    @property
    def n_steps(self) -> int:
        return self.close.shape[1]

    def slice(self, start: int, stop: int) -> "PriceSeries":
        if not 0 <= start < stop <= self.n_steps:
            raise MarketDataError(f"bad slice [{start}, {stop}) of {self.n_steps} steps")
        return PriceSeries(
            close=self.close[:, start:stop],
            timestamps=self.timestamps[start:stop],
            assets=self.assets,
        )


def relative_prices(prices: PriceSeries) -> np.ndarray:
    """Read-only per-step ratios close[t+1] / close[t]; the cash row is exactly 1.

    Requires at least two steps.  Ratios of valid closes can still overflow
    or underflow (1e-300 then 1e300), so they are checked too.
    """
    if prices.n_steps < 2:
        raise MarketDataError("need at least two steps for relative prices")
    y = prices.close[:, 1:] / prices.close[:, :-1]
    y[0, :] = 1.0
    if not np.all(np.isfinite(y)) or np.any(y <= 0.0):
        raise MarketDataError("relative prices must be finite and strictly positive")
    return _frozen(y)


def chronological_split(
    prices: PriceSeries, boundary: int, min_steps: int = 2
) -> tuple[PriceSeries, PriceSeries]:
    """Split into (train, test) at step index boundary; order is preserved.

    Each segment must keep at least min_steps steps; callers that feed a
    windowed policy should pass window + 2.
    """
    if boundary < min_steps or prices.n_steps - boundary < min_steps:
        raise MarketDataError(
            f"segment too short: boundary {boundary} of {prices.n_steps} steps "
            f"(need >= {min_steps} on each side)"
        )
    if boundary < 1:
        raise MarketDataError(f"split boundary {boundary} must be >= 1")
    return prices.slice(0, boundary), prices.slice(boundary, prices.n_steps)


def _per_asset(value, n_assets: int, name: str) -> np.ndarray:
    """value as one float per asset: a scalar repeated, or a sequence of n_assets."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim == 0:
        return np.full(n_assets, float(arr))
    if arr.shape != (n_assets,):
        raise MarketDataError(f"{name} has shape {arr.shape}, want ({n_assets},)")
    return arr


def generate_synthetic(
    n_assets: int,
    n_steps: int,
    drift: float | tuple[float, ...] = 0.0,
    vol: float | tuple[float, ...] = 0.01,
    regime_switch_prob: float = 0.0,
    seed: int = 0,
) -> PriceSeries:
    """Generate a seeded synthetic market starting at price 1.

    Log prices follow per-asset drift plus Gaussian noise.  When regime
    switching is enabled, a global sign flips with the given probability at
    each step and multiplies every drift, so favourable assets trade places.
    """
    if n_assets < 1:
        raise MarketDataError("need at least one risky asset")
    if n_steps < 2:
        raise MarketDataError("need at least two steps")
    if not 0.0 <= regime_switch_prob <= 1.0:
        raise MarketDataError("regime switch probability outside [0, 1]")
    drift = _per_asset(drift, n_assets, "drift")
    vol = _per_asset(vol, n_assets, "vol")
    if np.any(vol < 0.0):
        raise MarketDataError("volatility must be non-negative")
    rng = np.random.default_rng(seed)
    flips = rng.random(n_steps - 1) < regime_switch_prob
    signs = np.where(flips, -1.0, 1.0).cumprod()
    noise = rng.standard_normal((n_assets, n_steps - 1))
    increments = drift[:, None] * signs[None, :] + vol[:, None] * noise
    log_close = np.concatenate([np.zeros((n_assets, 1)), np.cumsum(increments, axis=1)], axis=1)
    close = np.vstack([np.ones((1, n_steps)), np.exp(log_close)])
    return PriceSeries(
        close=close,
        timestamps=tuple(range(n_steps)),
        assets=tuple(f"A{i + 1}" for i in range(n_assets)),
    )


def _parse_timestamp(raw: str):
    text = raw.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return datetime.fromisoformat(text)
    except ValueError:
        raise MarketDataError(f"unparseable timestamp {raw!r}") from None


def _parse_price(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except (TypeError, ValueError):
        raise MarketDataError(f"unparseable price {raw!r} at {where}") from None
    if not np.isfinite(value) or value <= 0.0:
        raise MarketDataError(f"non-positive price {raw!r} at {where}")
    return value


def load_csv(path: str | Path, forward_fill: bool = False) -> PriceSeries:
    """Load a long-format CSV of (timestamp, asset, close) rows.

    Other columns are ignored, and assets keep the order of their first row.
    All assets must cover the same timestamps.  With forward_fill=True a
    missing (asset, timestamp) cell reuses the asset's most recent earlier
    row; leading gaps are still an error.  Cash is synthesized at row 0.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames or []
        for required in ("timestamp", "asset", "close"):
            if required not in header:
                raise MarketDataError(f"{path}: missing column {required!r}")
        cells: dict[str, dict] = {}
        for lineno, row in enumerate(reader, start=2):
            where = f"{path}:{lineno}"
            asset = (row["asset"] or "").strip()
            if not asset:
                raise MarketDataError(f"empty asset id at {where}")
            ts = _parse_timestamp(row["timestamp"] or "")
            if asset not in cells:
                cells[asset] = {}
            if ts in cells[asset]:
                raise MarketDataError(f"duplicate row for asset {asset!r} at {where}")
            cells[asset][ts] = _parse_price(row["close"], where)
    if not cells:
        raise MarketDataError(f"{path}: no data rows")
    timestamps = set()
    for per_asset in cells.values():
        timestamps.update(per_asset.keys())
    try:
        grid = sorted(timestamps)
    except TypeError as exc:
        raise MarketDataError(f"{path}: mixed timestamp types") from exc
    n, t_total = len(cells), len(grid)
    close = np.empty((n, t_total))
    for i, (asset, per_asset) in enumerate(cells.items()):
        last = None
        for j, ts in enumerate(grid):
            if ts in per_asset:
                last = per_asset[ts]
            elif not forward_fill or last is None:
                raise MarketDataError(
                    f"{path}: ragged series, asset {asset!r} missing timestamp {ts!r}"
                )
            close[i, j] = last
    return PriceSeries(
        close=np.vstack([np.ones((1, t_total)), close]),
        timestamps=tuple(grid),
        assets=tuple(cells),
    )
