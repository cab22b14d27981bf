"""Flat dotted-key experiment configuration.

Config files are plain text: one `key = value` per line, `#` comments and
blank lines allowed.  Values parse as bool, int, float, comma-separated
lists of those, or bare strings.  Command-line `--set key=value` overrides
win over the file, and dedicated flags win over both.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

from .agent import PolicyParams, TrainConfig, init_policy, policy_forward, train
from .engine import BacktestResult, CostModel, run_backtest
from .market import (
    CsvSchema,
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
    fit_internal_predictor,
    oracle_labels,
    predictor_labels,
    true_movements,
)


class ConfigError(ValueError):
    """Invalid configuration; message names the offending key or line."""


DEFAULTS: dict[str, object] = {
    "market.source": "synthetic",
    "market.csv.path": "",
    "market.csv.forward_fill": False,
    "market.synthetic.n_assets": 3,
    "market.synthetic.n_steps": 2400,
    "market.synthetic.drift": 0.0,
    "market.synthetic.vol": 0.01,
    "market.synthetic.regime_prob": 0.0,
    "market.synthetic.seed": 0,
    "split.fraction": 0.9,
    "split.boundary": None,
    "window": 30,
    "cost.buy": 0.0025,
    "cost.sell": 0.0025,
    "cost.mode": "fixed_point",
    "cost.max_iters": 100,
    "cost.tol": 1e-10,
    "signal.mode": "none",
    "signal.accuracy": 1.0,
    "signal.density": 1.0,
    "signal.seed": 0,
    "signal.lookback": 1,
    "signal.lags": 5,
    "signal.fit_epochs": 200,
    "signal.fit_lr": 0.5,
    "agent.enabled": False,
    "agent.hidden": (64,),
    "agent.learning_rate": 3.0,
    "agent.batch_window": 64,
    "agent.epochs": 100,
    "agent.steps_per_epoch": None,
    "agent.seed": 0,
    "agent.init_scale": 1.0,
    "agent.checkpoint": "",
    "baseline.name": "",
    "baselines": (),
    "baseline.epsilon": None,
    "baseline.window": 5,
    "baseline.target_weights": (),
    "sweep.accuracies": (1.0,),
    "sweep.densities": (1.0,),
    "seeds": (0,),
    "seed": 0,
    "rfree": 0.02,
    "jobs": 1,
    "metrics.horizons": ("1w", "2w", "1m", "2m"),
    "metrics.steps_per_day": 1,
}

KNOWN_KEYS = frozenset(DEFAULTS)

BASELINE_NAMES = ("ew", "crp", "olmar", "wmamr", "hold_cash")
SIGNAL_MODES = ("oracle", "internal", "none")


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


def parse_value(text: str):
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
        out[key] = parse_value(value)
    return out


def apply_overrides(cfg: dict[str, object], pairs) -> dict[str, object]:
    out = dict(cfg)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"override {pair!r} is not key=value")
        key, _, value = pair.partition("=")
        out[key.strip()] = parse_value(value)
    return out


def resolve(cfg: dict[str, object] | None) -> dict[str, object]:
    """Merge user keys over defaults, rejecting unknown keys."""
    merged = dict(DEFAULTS)
    for key, value in (cfg or {}).items():
        if key not in KNOWN_KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        merged[key] = value
    return merged


def _as_tuple(value) -> tuple:
    if value is None:
        return ()
    if isinstance(value, tuple):
        return value
    return (value,)


def get_number(cfg, key, kind=float):
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    return kind(value)


def get_int(cfg, key) -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def get_bool(cfg, key) -> bool:
    value = cfg[key]
    if not isinstance(value, bool):
        raise ConfigError(f"{key}: expected true/false, got {value!r}")
    return value


def get_str(cfg, key) -> str:
    value = cfg[key]
    if value is None:
        return ""
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def build_market(cfg: dict[str, object]) -> PriceSeries:
    source = get_str(cfg, "market.source")
    if source == "synthetic":
        drift = cfg["market.synthetic.drift"]
        vol = cfg["market.synthetic.vol"]
        try:
            spec = SyntheticMarketSpec(
                n_assets=get_int(cfg, "market.synthetic.n_assets"),
                n_steps=get_int(cfg, "market.synthetic.n_steps"),
                drift=drift if isinstance(drift, tuple) else get_number(cfg, "market.synthetic.drift"),
                vol=vol if isinstance(vol, tuple) else get_number(cfg, "market.synthetic.vol"),
                regime_switch_prob=get_number(cfg, "market.synthetic.regime_prob"),
                seed=get_int(cfg, "market.synthetic.seed"),
            )
        except ValueError as exc:
            raise ConfigError(f"market.synthetic.*: {exc}") from exc
        return generate_synthetic(spec)
    if source == "csv":
        path = get_str(cfg, "market.csv.path")
        if not path:
            raise ConfigError("market.csv.path: required when market.source = csv")
        if not Path(path).exists():
            raise ConfigError(f"market.csv.path: no such file {path!r}")
        return load_csv(path, CsvSchema(), forward_fill=get_bool(cfg, "market.csv.forward_fill"))
    raise ConfigError(f"market.source: unknown source {source!r}")


def build_split(cfg: dict[str, object]) -> SplitSpec:
    boundary = cfg["split.boundary"]
    try:
        if boundary is not None:
            return SplitSpec(boundary=get_int(cfg, "split.boundary"))
        return SplitSpec(fraction=get_number(cfg, "split.fraction"))
    except ValueError as exc:
        raise ConfigError(f"split.*: {exc}") from exc


def build_segments(cfg: dict[str, object]) -> tuple[PriceSeries, PriceSeries]:
    """The configured market, split into train and test segments."""
    return chronological_split(
        build_market(cfg), build_split(cfg), min_steps=get_int(cfg, "window") + 2
    )


def build_cost(cfg: dict[str, object]) -> CostModel:
    try:
        return CostModel(
            c_buy=get_number(cfg, "cost.buy"),
            c_sell=get_number(cfg, "cost.sell"),
            max_iters=get_int(cfg, "cost.max_iters"),
            tol=get_number(cfg, "cost.tol"),
            mode=get_str(cfg, "cost.mode"),
        )
    except ValueError as exc:
        raise ConfigError(f"cost.*: {exc}") from exc


def build_train_config(cfg: dict[str, object]) -> TrainConfig:
    steps = cfg["agent.steps_per_epoch"]
    try:
        return TrainConfig(
            learning_rate=get_number(cfg, "agent.learning_rate"),
            batch_window=get_int(cfg, "agent.batch_window"),
            epochs=get_int(cfg, "agent.epochs"),
            seed=get_int(cfg, "agent.seed"),
            window=get_int(cfg, "window"),
            steps_per_epoch=None if steps is None else get_int(cfg, "agent.steps_per_epoch"),
            lookback=get_int(cfg, "signal.lookback"),
        )
    except ValueError as exc:
        raise ConfigError(f"agent.*: {exc}") from exc


def _labeller(cfg, train_p: PriceSeries):
    """(segment, seed) -> movement labels per signal.mode, fit on train_p if needed."""
    mode = signal_mode(cfg)
    if mode == "none":
        return lambda segment, seed: None
    if mode == "oracle":
        accuracy = get_number(cfg, "signal.accuracy")
        density = get_number(cfg, "signal.density")
        return lambda segment, seed: oracle_labels(
            true_movements(segment),
            SignalConfig(accuracy=accuracy, density=density, seed=seed),
        )
    predictor = fit_internal_predictor(
        train_p,
        lags=get_int(cfg, "signal.lags"),
        epochs=get_int(cfg, "signal.fit_epochs"),
        lr=get_number(cfg, "signal.fit_lr"),
        seed=get_int(cfg, "signal.seed"),
    )
    return lambda segment, seed: predictor_labels(predictor, segment)


def setup_agent(
    cfg: dict[str, object],
    train_p: PriceSeries,
    test_p: PriceSeries | None,
    seeds: tuple[int, int, int, int],
    params: PolicyParams | None = None,
    fit: bool = True,
) -> tuple[PolicyParams, list[float], SignalSeries | None]:
    """Labels and trained policy of one run; shared by backtest, train and sweep.

    seeds are the init, training, train-label and test-label seeds.  params
    (from a checkpoint) stand in for a fresh init, fit=False skips training
    and its labels, and test_p=None skips the test labels.  Returns the
    parameters, the per-epoch learning curve and the test-split signals.
    """
    init_seed, train_seed, train_label_seed, test_label_seed = seeds
    label = _labeller(cfg, train_p)
    test_signals = None if test_p is None else label(test_p, test_label_seed)
    if params is None:
        n, window = train_p.n_assets, get_int(cfg, "window")
        params = init_policy(
            input_dim=n * window + n,
            n_actions=n + 1,
            hidden=hidden_sizes(cfg),
            seed=init_seed,
            init_scale=get_number(cfg, "agent.init_scale"),
        )
    curve: list[float] = []
    if fit:
        train_signals = label(train_p, train_label_seed)
        train_cfg = replace(build_train_config(cfg), seed=train_seed)
        params, curve = train(params, train_p, train_signals, build_cost(cfg), train_cfg)
    return params, curve, test_signals


def backtest_agent(
    cfg: dict[str, object], test_p: PriceSeries, params: PolicyParams, signals: SignalSeries | None
) -> BacktestResult:
    """Backtest the agent's policy on the test split; shared by backtest and sweep."""
    return run_backtest(
        test_p,
        lambda obs: policy_forward(params, obs.matrix),
        signals,
        build_cost(cfg),
        window=get_int(cfg, "window"),
        lookback=get_int(cfg, "signal.lookback"),
    )


def hidden_sizes(cfg: dict[str, object]) -> tuple[int, ...]:
    sizes = _as_tuple(cfg["agent.hidden"])
    for size in sizes:
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ConfigError(f"agent.hidden: bad layer size {size!r}")
    return tuple(sizes)


def baseline_names(cfg: dict[str, object]) -> tuple[str, ...]:
    names = list(_as_tuple(cfg["baselines"]))
    single = get_str(cfg, "baseline.name")
    if single and single not in names:
        names.append(single)
    for name in names:
        if name not in BASELINE_NAMES:
            key = "baselines" if name in _as_tuple(cfg["baselines"]) else "baseline.name"
            raise ConfigError(
                f"{key}: unknown strategy {name!r} (choose from {', '.join(BASELINE_NAMES)})"
            )
    return tuple(names)


def signal_mode(cfg: dict[str, object]) -> str:
    mode = get_str(cfg, "signal.mode")
    if mode not in SIGNAL_MODES:
        raise ConfigError(
            f"signal.mode: unknown mode {mode!r} (choose from {', '.join(SIGNAL_MODES)})"
        )
    return mode


def seed_list(cfg: dict[str, object]) -> tuple[int, ...]:
    seeds = _as_tuple(cfg["seeds"])
    if not seeds:
        raise ConfigError("seeds: need at least one seed")
    for seed in seeds:
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigError(f"seeds: bad seed {seed!r}")
    return tuple(seeds)


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


def echo_config(cfg: dict[str, object], exclude: tuple[str, ...] = ("out",)) -> str:
    """Reproducible text rendering of the resolved config, sorted by key."""
    lines = [
        f"{key} = {_format_value(cfg[key])}"
        for key in sorted(cfg)
        if key not in exclude
    ]
    return "\n".join(lines) + "\n"
