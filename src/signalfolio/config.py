"""Flat dotted-key experiment configuration.

Config files are plain text: one `key = value` per line, `#` comments and
blank lines allowed.  Values parse as bool, int, float, comma-separated
lists of those, or bare strings; a string key's value is taken as text,
whole, and only none or an empty value leaves it unset.  Command-line
`--set key=value` overrides win over the file.

KEYS holds every key's default next to its check: type, range, choices,
and distinct values in a grid.  resolve checks the merged config once, when
it is loaded and before any work, and returns typed values that the
builders read directly.  The builders check only against the data or
other keys: the CSV file, the length of a per-asset list, a split too short
for the window, a batch window longer than the training episode, a
checkpoint that does not fit and a horizon longer than the test split.
echo_config writes a resolved config as a config file, and resolving that
file gives back the same config.
"""

from __future__ import annotations

import math
from pathlib import Path

from .agent import PolicyParams, TrainConfig, init_policy, load_checkpoint, policy_forward, train
from .baselines import CRPPolicy, OLMARPolicy, WMAMRPolicy, ew_policy, hold_cash_policy
from .engine import BacktestResult, CostModel, EngineError, run_backtest
from .evaluation import check_horizon, horizon_steps
from .market import (
    MarketDataError,
    PriceSeries,
    SplitSpec,
    SyntheticMarketSpec,
    chronological_split,
    generate_synthetic,
    load_csv,
)
from .signals import (
    SignalConfig,
    SignalSeries,
    decision_indices,
    fit_internal_predictor,
    oracle_labels,
    predictor_labels,
    state_dim,
    true_movements,
)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key or line."""


# Every key: its default, its kind and, for some "int" and "number" kinds,
# the interval its value must lie in, written like "[0, 1)": a round bracket
# is an open end, and errors print the interval as written.  A kind is
# "int", "number", "bool" or "str" (none reads as ""), or the tuple of
# allowed strings (none reads as "none").  A suffix "?" also allows none;
# "*" makes a list, where a lone value becomes a 1-tuple and none the empty
# one; "+" a list of at least one value, all distinct; "~" either one value
# or a list of them (one per asset).
KEYS: dict[str, tuple] = {
    "market.source": ("synthetic", ("synthetic", "csv")),
    "market.csv.path": ("", "str"),
    "market.csv.forward_fill": (False, "bool"),
    "market.synthetic.n_assets": (3, "int", "[1, inf)"),
    "market.synthetic.n_steps": (2400, "int", "[2, inf)"),
    "market.synthetic.drift": (0.0, "number~"),
    "market.synthetic.vol": (0.01, "number~", "[0, inf)"),
    "market.synthetic.regime_prob": (0.0, "number", "[0, 1]"),
    "market.synthetic.seed": (0, "int", "[0, inf)"),
    "split.fraction": (0.9, "number", "(0, 1)"),
    "split.boundary": (None, "int?", "[1, inf)"),
    "window": (30, "int", "[1, inf)"),
    "cost.buy": (0.0025, "number", "[0, 1)"),
    "cost.sell": (0.0025, "number", "[0, 1)"),
    "cost.mode": ("fixed_point", ("fixed_point", "simple")),
    "cost.max_iters": (100, "int", "[1, inf)"),
    "cost.tol": (1e-10, "number", "(0, inf)"),
    "signal.mode": ("none", ("oracle", "internal", "none")),
    "signal.accuracy": (1.0, "number", "[0, 1]"),
    "signal.density": (1.0, "number", "[0, 1]"),
    "signal.seed": (0, "int", "[0, inf)"),
    "signal.lookback": (1, "int", "[1, inf)"),
    "signal.lags": (5, "int", "[1, inf)"),
    "signal.fit_epochs": (200, "int", "[1, inf)"),
    "signal.fit_lr": (0.5, "number", "[0, inf)"),
    "agent.enabled": (False, "bool"),
    "agent.hidden": ((64,), "int*", "[1, inf)"),
    "agent.learning_rate": (3.0, "number", "[0, inf)"),
    "agent.batch_window": (64, "int", "[1, inf)"),
    "agent.epochs": (100, "int", "[0, inf)"),
    "agent.steps_per_epoch": (None, "int?", "[1, inf)"),
    "agent.seed": (0, "int", "[0, inf)"),
    "agent.init_scale": (1.0, "number", "[0, inf)"),
    "agent.checkpoint": ("", "str"),
    "baselines": ((), "str*"),
    "baseline.epsilon": (None, "number?"),
    "baseline.window": (5, "int", "[1, inf)"),
    "baseline.target_weights": ((), "number*"),
    "sweep.accuracies": ((1.0,), "number+", "[0, 1]"),
    "sweep.densities": ((1.0,), "number+", "[0, 1]"),
    "seeds": ((0,), "int+"),
    "seed": (0, "int"),
    "rfree": (0.02, "number"),
    "jobs": (1, "int", "[1, inf)"),
    "metrics.horizons": (("1w", "2w", "1m", "2m"), "str+"),
    "metrics.steps_per_day": (1, "int", "[1, inf)"),
}

DEFAULTS: dict[str, object] = {key: spec[0] for key, spec in KEYS.items()}

_TYPES = {"int": int, "number": (int, float), "bool": bool, "str": str}
_EXPECTED = {"int": "an integer", "number": "a number", "bool": "true/false", "str": "a string"}


def parse_scalar(text: str):
    token = text.strip()
    low = token.lower()
    if low == "true":
        return True
    if low == "false":
        return False
    if low in ("none", ""):
        return None
    try:
        return int(token)
    except ValueError:
        pass
    try:
        return float(token)
    except ValueError:
        pass
    return token


def parse_value(text: str, key: str | None = None):
    """A scalar or a tuple of them split at commas; a "str" key's text stays whole."""
    if KEYS.get(key, (None, None))[1] == "str":
        return None if parse_scalar(text) is None else text.strip()
    if "," in text:
        return tuple(parse_scalar(part) for part in text.split(","))
    return parse_scalar(text)


def parse_config_file(path: str | Path) -> dict[str, object]:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, object] = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        out[key] = parse_value(value, key)
    return out


def apply_overrides(cfg: dict[str, object], pairs) -> dict[str, object]:
    out = dict(cfg)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        key = key.strip()
        out[key] = parse_value(value, key)
    return out


def resolve(cfg: dict[str, object] | None) -> dict[str, object]:
    """Merge user keys over defaults, then check every value once against KEYS.

    Returns typed values: numbers as float, list keys as tuples, string keys
    as str.  Raises ConfigError naming the first unknown key or bad value, so
    every command rejects a bad value of any key, whether or not it reads it;
    that includes a horizon label that does not parse or is under 2 steps.
    """
    merged = dict(DEFAULTS)
    for key, value in (cfg or {}).items():
        if key not in KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    resolved = {key: _check(key, value, *KEYS[key][1:]) for key, value in merged.items()}
    check_horizons(resolved, math.inf)
    return resolved


def _check(key: str, value, kind, interval: str = ""):
    """value as its KEYS kind, or a ConfigError naming key."""
    if isinstance(kind, tuple):
        value = "none" if value is None else value
        if value not in kind:
            raise ConfigError(f"{key}: unknown value {value!r} (choose from {', '.join(kind)})")
        return value
    base = kind.rstrip("?*+~")
    shape = kind[len(base):]
    if shape in ("*", "+") or (shape == "~" and isinstance(value, tuple)):
        items = value if isinstance(value, tuple) else () if value is None else (value,)
        if shape == "+" and not items:
            raise ConfigError(f"{key}: need at least one value")
        values = tuple(_check(key, item, base, interval) for item in items)
        if shape == "+" and len(set(values)) < len(values):
            raise ConfigError(f"{key}: duplicate values in {values}")
        return values
    if value is None and shape == "?":
        return None
    if value is None and base == "str":
        return ""
    if not isinstance(value, _TYPES[base]) or (isinstance(value, bool) and base != "bool"):
        raise ConfigError(f"{key}: expected {_EXPECTED[base]}, got {value!r}")
    if base == "number":
        value = float(value)
        if not math.isfinite(value):
            raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    if interval:
        low, high = (float(end) for end in interval[1:-1].split(","))
        above = low < value if interval[0] == "(" else low <= value
        below = value < high if interval[-1] == ")" else value <= high
        if not (above and below):
            raise ConfigError(f"{key}: {value!r} outside {interval}")
    return value


def check_horizons(cfg: dict[str, object], n_steps: float) -> None:
    """Each metrics.horizons label must parse and cover 2 to n_steps steps."""
    for label in cfg["metrics.horizons"]:
        try:
            check_horizon(horizon_steps(label, cfg["metrics.steps_per_day"]), n_steps)
        except EngineError as exc:
            raise ConfigError(f"metrics.horizons: {exc}") from exc


def build_market(cfg: dict[str, object]) -> PriceSeries:
    if cfg["market.source"] == "csv":
        path = cfg["market.csv.path"]
        if not path:
            raise ConfigError("market.csv.path: required when market.source = csv")
        if not Path(path).exists():
            raise ConfigError(f"market.csv.path: no such file {path!r}")
        try:
            return load_csv(path, forward_fill=cfg["market.csv.forward_fill"])
        except MarketDataError as exc:
            raise ConfigError(f"market.csv.path: {exc}") from exc
    n_assets = cfg["market.synthetic.n_assets"]
    for key in ("market.synthetic.drift", "market.synthetic.vol"):
        if isinstance(cfg[key], tuple) and len(cfg[key]) != n_assets:
            raise ConfigError(f"{key}: {len(cfg[key])} values for {n_assets} assets")
    return generate_synthetic(
        SyntheticMarketSpec(
            n_assets=n_assets,
            n_steps=cfg["market.synthetic.n_steps"],
            drift=cfg["market.synthetic.drift"],
            vol=cfg["market.synthetic.vol"],
            regime_switch_prob=cfg["market.synthetic.regime_prob"],
            seed=cfg["market.synthetic.seed"],
        )
    )


def build_split(cfg: dict[str, object]) -> SplitSpec:
    if cfg["split.boundary"] is not None:
        return SplitSpec(boundary=cfg["split.boundary"])
    return SplitSpec(fraction=cfg["split.fraction"])


def build_segments(cfg: dict[str, object]) -> tuple[PriceSeries, PriceSeries]:
    """The configured market, split into train and test segments."""
    market, spec, window = build_market(cfg), build_split(cfg), cfg["window"]
    try:
        return chronological_split(market, spec, min_steps=window + 2)
    except MarketDataError as exc:
        key = "split.fraction" if spec.boundary is None else "split.boundary"
        raise ConfigError(f"{key}: {exc} at window {window}") from exc


def build_cost(cfg: dict[str, object]) -> CostModel:
    return CostModel(
        c_buy=cfg["cost.buy"],
        c_sell=cfg["cost.sell"],
        max_iters=cfg["cost.max_iters"],
        tol=cfg["cost.tol"],
        mode=cfg["cost.mode"],
    )


def build_train_config(cfg: dict[str, object], train_p: PriceSeries) -> TrainConfig:
    """Training settings, whose batch window must fit train_p's episode."""
    tc = TrainConfig(
        learning_rate=cfg["agent.learning_rate"],
        batch_window=cfg["agent.batch_window"],
        epochs=cfg["agent.epochs"],
        window=cfg["window"],
        steps_per_epoch=cfg["agent.steps_per_epoch"],
        lookback=cfg["signal.lookback"],
    )
    episode = len(decision_indices(train_p.n_steps, tc.window))
    if episode < tc.batch_window:
        raise ConfigError(
            f"agent.batch_window: {tc.batch_window} longer than the {episode}-step training episode"
        )
    return tc


def _labeller(cfg, train_p: PriceSeries):
    """(segment, seed) -> movement labels per signal.mode, fit on train_p if needed."""
    mode = cfg["signal.mode"]
    if mode == "none":
        return lambda segment, seed: None
    if mode == "oracle":
        accuracy, density = cfg["signal.accuracy"], cfg["signal.density"]
        return lambda segment, seed: oracle_labels(
            true_movements(segment),
            SignalConfig(accuracy=accuracy, density=density, seed=seed),
        )
    predictor = fit_internal_predictor(
        train_p,
        lags=cfg["signal.lags"],
        epochs=cfg["signal.fit_epochs"],
        lr=cfg["signal.fit_lr"],
        seed=cfg["signal.seed"],
    )
    return lambda segment, seed: predictor_labels(predictor, segment)


def prepare_agent(
    cfg: dict[str, object],
    train_p: PriceSeries,
    test_p: PriceSeries | None,
    seeds: tuple[int, int, int, int],
    params: PolicyParams | None = None,
) -> tuple[PolicyParams, SignalSeries | None, SignalSeries | None]:
    """Labels and initial policy of one run; shared by backtest, train and sweep.

    seeds are the init, training, train-label and test-label seeds.  params
    (from a checkpoint) stand in for a fresh init, and test_p=None skips the
    test labels.  Returns the parameters and the train- and test-split
    signals.
    """
    init_seed, _, train_label_seed, test_label_seed = seeds
    label = _labeller(cfg, train_p)
    test_signals = None if test_p is None else label(test_p, test_label_seed)
    if params is None:
        n, window = train_p.n_assets, cfg["window"]
        params = init_policy(
            input_dim=state_dim(n, window),
            n_actions=n + 1,
            hidden=cfg["agent.hidden"],
            seed=init_seed,
            init_scale=cfg["agent.init_scale"],
        )
    return params, label(train_p, train_label_seed), test_signals


def load_agent_checkpoint(cfg, n_assets: int) -> tuple[PolicyParams | None, dict]:
    """agent.checkpoint's parameters and meta, or (None, {}) when it is unset."""
    path = cfg["agent.checkpoint"]
    if not path:
        return None, {}
    if not Path(path).exists():
        raise ConfigError(f"agent.checkpoint: no such file {path!r}")
    params, meta = load_checkpoint(path)
    window = cfg["window"]
    got, want = (params.input_dim, params.n_actions), (state_dim(n_assets, window), n_assets + 1)
    if got != want:
        raise ConfigError(
            f"agent.checkpoint: policy (inputs, outputs) {got}, but {n_assets} assets "
            f"at window {window} need {want}"
        )
    return params, meta


def setup_agent(
    cfg: dict[str, object],
    train_p: PriceSeries,
    test_p: PriceSeries | None,
    seeds: tuple[int, int, int, int],
    cm: CostModel,
    params: PolicyParams | None = None,
) -> tuple[PolicyParams, list[float], SignalSeries | None]:
    """One run of the agent: prepare_agent, then training under cm as a group of one.

    Returns the parameters, the per-epoch learning curve and the test-split
    signals, and raises the error that stops the training.
    """
    params, train_signals, test_signals = prepare_agent(cfg, train_p, test_p, seeds, params)
    [outcome] = train(
        [params], train_p, [train_signals], cm, build_train_config(cfg, train_p), [seeds[1]]
    )
    if isinstance(outcome, Exception):
        raise outcome
    params, curve = outcome
    return params, curve, test_signals


def backtest_agent(
    cfg: dict[str, object],
    test_p: PriceSeries,
    params: PolicyParams,
    signals: SignalSeries | None,
    cm: CostModel,
) -> BacktestResult:
    """Backtest the agent's policy on the test split; shared by backtest and sweep."""
    return run_backtest(
        test_p,
        lambda obs: policy_forward(params, obs.matrix),
        signals,
        cm,
        window=cfg["window"],
        lookback=cfg["signal.lookback"],
    )


def build_baselines(cfg: dict[str, object], m: int) -> dict:
    """Baseline policies over m components, by the names in `baselines`."""
    reversion = {"window": cfg["baseline.window"]}
    if cfg["baseline.epsilon"] is not None:  # else the policy's own default
        reversion["epsilon"] = cfg["baseline.epsilon"]
    builders = {
        "ew": lambda: ew_policy(m),
        "crp": lambda: _crp_baseline(cfg, m),
        "olmar": lambda: OLMARPolicy(**reversion),
        "wmamr": lambda: WMAMRPolicy(**reversion),
        "hold_cash": lambda: hold_cash_policy(m),
    }
    for name in cfg["baselines"]:
        if name not in builders:
            raise ConfigError(
                f"baselines: unknown strategy {name!r} (choose from {', '.join(builders)})"
            )
    return {name: builders[name]() for name in cfg["baselines"]}


def _crp_baseline(cfg: dict[str, object], m: int):
    """CRP toward baseline.target_weights, or equal weights when it is unset."""
    target = cfg["baseline.target_weights"] or (1.0 / m,) * m
    if len(target) != m:
        raise ConfigError(f"baseline.target_weights: got {len(target)} weights, need {m}")
    try:
        return CRPPolicy(target)
    except ValueError as exc:
        raise ConfigError(f"baseline.target_weights: {exc}") from exc


def _format_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def echo_config(cfg: dict[str, object]) -> str:
    """Reproducible text rendering of the resolved config, sorted by key."""
    return "".join(f"{key} = {_format_value(cfg[key])}\n" for key in sorted(cfg))
