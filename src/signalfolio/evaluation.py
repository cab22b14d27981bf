"""Portfolio value and risk-adjusted performance summaries.

sharpe_ratio follows the sum convention: the portfolio return over a
horizon is the sum of per-step wealth factors beta * (a . y), the risk
term is their population standard deviation, and the risk-free rate is
subtracted as a plain number.
"""

from __future__ import annotations

import csv
import re
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .engine import BacktestResult, EngineError
from .market import write_json

DEFAULT_RISK_FREE = 0.02


def portfolio_value(result: BacktestResult) -> float:
    """Final portfolio value from 1, the exponential of the reward sum."""
    return float(np.exp(np.sum(result.rewards)))


def check_horizon(horizon: int, n_steps: int) -> None:
    """Raise EngineError unless a Sharpe over horizon steps fits an n_steps backtest."""
    if horizon < 2:
        raise EngineError(f"horizon {horizon} too short (need >= 2 steps)")
    if horizon > n_steps:
        raise EngineError(f"horizon {horizon} exceeds backtest length {n_steps}")


def sharpe_ratio(result: BacktestResult, horizon: int, r_free: float = DEFAULT_RISK_FREE) -> float:
    """Sum-of-factors Sharpe over the first `horizon` steps; NaN for constant factors."""
    check_horizon(horizon, result.n_steps)
    factors = result.factors[:horizon]
    sigma = float(np.std(factors))
    if sigma == 0.0:
        return float("nan")
    return (float(factors.sum()) - r_free) / sigma


_HORIZON_RE = re.compile(r"^(\d+)([dwm])$")


def horizon_steps(label: str, steps_per_day: int = 1) -> int:
    """Steps covered by a horizon label such as "1w" or "2m".

    Intraday series (steps_per_day > 1) use calendar spans: a week is
    7 days, a month 30.  Daily series use trading spans: a 5-day week
    and a 21-day month.
    """
    if steps_per_day < 1:
        raise EngineError("steps_per_day must be >= 1")
    match = _HORIZON_RE.match(label.strip().lower())
    if not match:
        raise EngineError(f"unparseable horizon label {label!r}")
    count, unit = int(match.group(1)), match.group(2)
    if count < 1:
        raise EngineError(f"bad horizon count in {label!r}")
    if unit == "d":
        days = count
    elif unit == "w":
        days = 7 * count if steps_per_day > 1 else 5 * count
    else:
        days = 30 * count if steps_per_day > 1 else 21 * count
    return days * steps_per_day


def horizon_table(
    results: Mapping[str, BacktestResult],
    horizons: Sequence[str],
    steps_per_day: int = 1,
    r_free: float = DEFAULT_RISK_FREE,
) -> dict[str, dict]:
    """Sharpe per strategy and horizon; every run must cover the longest.

    Each strategy maps to {"final_pv", "sharpe_by_horizon", "steps_per_day",
    "r_free"}.  A strategy with constant wealth factors (hold-cash, say)
    keeps sharpe_ratio's own NaN for that horizon.
    """
    if not results:
        raise EngineError("no results to evaluate")
    if not horizons:
        raise EngineError("no horizons requested")
    table = {}
    for name in results:
        result = results[name]
        sharpes = {
            label: sharpe_ratio(result, horizon_steps(label, steps_per_day), r_free)
            for label in horizons
        }
        table[name] = {
            "final_pv": portfolio_value(result),
            "sharpe_by_horizon": sharpes,
            "steps_per_day": steps_per_day,
            "r_free": r_free,
        }
    return table


def write_table(path: str | Path, header: Sequence[str], rows, append: bool = False) -> None:
    """Write a CSV artifact: floats as their repr, None as empty, anything else as str.

    append=True adds the rows under the header already in the file.  Floats go
    through float() first, since numpy 2 reprs np.float64(1.0) as "np.float64(1.0)".
    """
    with Path(path).open("a" if append else "w", newline="") as fh:
        writer = csv.writer(fh)
        if not append:
            writer.writerow(header)
        for row in rows:
            writer.writerow(
                "" if v is None else repr(float(v)) if isinstance(v, float) else str(v)
                for v in row
            )


def write_metrics_csv(table: Mapping[str, dict], horizons: Sequence[str], path: str | Path) -> None:
    rows = (
        [name, row["final_pv"], *(row["sharpe_by_horizon"][h] for h in horizons)]
        for name, row in sorted(table.items())
    )
    write_table(path, ["strategy", "final_pv", *horizons], rows)


def write_metrics_json(table: Mapping[str, dict], path: str | Path) -> None:
    """The table, with each undefined Sharpe as null so the JSON stays standard."""
    fields = {}
    for name, row in table.items():
        sharpes = {h: v if np.isfinite(v) else None for h, v in row["sharpe_by_horizon"].items()}
        fields[name] = {**row, "sharpe_by_horizon": sharpes}
    write_json(path, fields)
