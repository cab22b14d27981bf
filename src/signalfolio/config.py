"""Flat dotted-key experiment configuration.

Config files are plain text: one `key = value` per line, `#` comments and
blank lines allowed.  Values parse as bool, int, float, comma-separated
lists of those, or bare strings.  Command-line `--set key=value` overrides
win over the file, and dedicated flags win over both.
"""

from __future__ import annotations

import math
from pathlib import Path

from .agent import PolicyParams, TrainConfig, init_policy, load_checkpoint, policy_forward, train
from .baselines import CRPPolicy, OLMARPolicy, WMAMRPolicy, ew_policy, hold_cash_policy
from .engine import BacktestResult, CostModel, EngineError, run_backtest
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


def get_number(cfg, key, low: float = -math.inf, high: float = math.inf) -> float:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: expected a number, got {value!r}")
    if not low <= value <= high:
        raise ConfigError(f"{key}: {value!r} outside [{low}, {high}]")
    return float(value)


def get_int(cfg, key, minimum: int | None = None) -> int:
    value = cfg[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}, got {value}")
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
        try:
            return load_csv(path, forward_fill=get_bool(cfg, "market.csv.forward_fill"))
        except MarketDataError as exc:
            raise ConfigError(f"market.csv.path: {exc}") from exc
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
    market, spec, window = build_market(cfg), build_split(cfg), get_int(cfg, "window", 1)
    try:
        return chronological_split(market, spec, min_steps=window + 2)
    except MarketDataError as exc:
        raise ConfigError(f"split.* / window: {exc}") from exc


def build_cost(cfg: dict[str, object]) -> CostModel:
    try:
        return CostModel(
            c_buy=get_number(cfg, "cost.buy"),
            c_sell=get_number(cfg, "cost.sell"),
            max_iters=get_int(cfg, "cost.max_iters"),
            tol=get_number(cfg, "cost.tol"),
            mode=get_str(cfg, "cost.mode"),
        )
    except EngineError as exc:  # a ConfigError above already names its key
        raise ConfigError(f"cost.*: {exc}") from exc


def build_train_config(cfg: dict[str, object], train_p: PriceSeries | None = None) -> TrainConfig:
    """Training settings; with train_p, also checks the batch window fits its episode."""
    steps = cfg["agent.steps_per_epoch"]
    try:
        tc = TrainConfig(
            learning_rate=get_number(cfg, "agent.learning_rate"),
            batch_window=get_int(cfg, "agent.batch_window"),
            epochs=get_int(cfg, "agent.epochs"),
            window=get_int(cfg, "window", 1),
            steps_per_epoch=None if steps is None else get_int(cfg, "agent.steps_per_epoch"),
            lookback=get_int(cfg, "signal.lookback", 1),
        )
    except EngineError as exc:  # a ConfigError above already names its key
        raise ConfigError(f"agent.*: {exc}") from exc
    episode = None if train_p is None else len(decision_indices(train_p.n_steps, tc.window))
    if episode is not None and episode < tc.batch_window:
        raise ConfigError(
            f"agent.batch_window: {tc.batch_window} longer than the {episode}-step training episode"
        )
    return tc


def _labeller(cfg, train_p: PriceSeries):
    """(segment, seed) -> movement labels per signal.mode, fit on train_p if needed."""
    mode = signal_mode(cfg)
    if mode == "none":
        return lambda segment, seed: None
    if mode == "oracle":
        accuracy = get_number(cfg, "signal.accuracy", 0.0, 1.0)
        density = get_number(cfg, "signal.density", 0.0, 1.0)
        return lambda segment, seed: oracle_labels(
            true_movements(segment),
            SignalConfig(accuracy=accuracy, density=density, seed=seed),
        )
    predictor = fit_internal_predictor(
        train_p,
        lags=get_int(cfg, "signal.lags", 1),
        epochs=get_int(cfg, "signal.fit_epochs", 1),
        lr=get_number(cfg, "signal.fit_lr"),
        seed=get_int(cfg, "signal.seed", 0),
    )
    return lambda segment, seed: predictor_labels(predictor, segment)


def prepare_agent(
    cfg: dict[str, object],
    train_p: PriceSeries,
    test_p: PriceSeries | None,
    seeds: tuple[int, int, int, int],
    params: PolicyParams | None = None,
    fit: bool = True,
) -> tuple[PolicyParams, SignalSeries | None, SignalSeries | None]:
    """Labels and initial policy of one run; shared by backtest, train and sweep.

    seeds are the init, training, train-label and test-label seeds.  params
    (from a checkpoint) stand in for a fresh init, fit=False skips the
    training labels, and test_p=None skips the test labels.  Returns the
    parameters and the train- and test-split signals.
    """
    init_seed, _, train_label_seed, test_label_seed = seeds
    label = _labeller(cfg, train_p)
    test_signals = None if test_p is None else label(test_p, test_label_seed)
    if params is None:
        n, window = train_p.n_assets, get_int(cfg, "window")
        params = init_policy(
            input_dim=n * window + n,
            n_actions=n + 1,
            hidden=hidden_sizes(cfg),
            seed=init_seed,
            init_scale=get_number(cfg, "agent.init_scale", 0.0),
        )
    train_signals = label(train_p, train_label_seed) if fit else None
    return params, train_signals, test_signals


def load_agent_checkpoint(cfg, n_assets: int) -> tuple[PolicyParams | None, dict]:
    """agent.checkpoint's parameters and meta, or (None, {}) when it is unset."""
    path = get_str(cfg, "agent.checkpoint")
    if not path:
        return None, {}
    if not Path(path).exists():
        raise ConfigError(f"agent.checkpoint: no such file {path!r}")
    params, meta = load_checkpoint(path)
    window = get_int(cfg, "window")
    got, want = (params.input_dim, params.n_actions), (n_assets * window + n_assets, n_assets + 1)
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
    params: PolicyParams | None = None,
    fit: bool = True,
) -> tuple[PolicyParams, list[float], SignalSeries | None]:
    """One run of the agent: prepare_agent, then training as a group of one.

    Returns the parameters, the per-epoch learning curve and the test-split
    signals, and raises the error that stops the training.
    """
    params, train_signals, test_signals = prepare_agent(cfg, train_p, test_p, seeds, params, fit)
    if not fit:
        return params, [], test_signals
    [outcome] = train(
        [params], train_p, [train_signals], build_cost(cfg),
        build_train_config(cfg, train_p), [seeds[1]],
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
        window=get_int(cfg, "window"),
        lookback=get_int(cfg, "signal.lookback", 1),
    )


def hidden_sizes(cfg: dict[str, object]) -> tuple[int, ...]:
    sizes = _as_tuple(cfg["agent.hidden"])
    for size in sizes:
        if isinstance(size, bool) or not isinstance(size, int) or size < 1:
            raise ConfigError(f"agent.hidden: bad layer size {size!r}")
    return tuple(sizes)


def build_baselines(cfg: dict[str, object], m: int) -> dict:
    """Baseline policies over m components by name: `baselines`, then `baseline.name`."""
    listed = _as_tuple(cfg["baselines"])
    single = get_str(cfg, "baseline.name")
    names = dict.fromkeys([*listed, single] if single else listed)
    reversion = {"window": get_int(cfg, "baseline.window", 1)}
    if cfg["baseline.epsilon"] is not None:  # else the policy's own default
        reversion["epsilon"] = get_number(cfg, "baseline.epsilon")
    builders = {
        "ew": lambda: ew_policy(m),
        "crp": lambda: _crp_baseline(cfg, m),
        "olmar": lambda: OLMARPolicy(**reversion),
        "wmamr": lambda: WMAMRPolicy(**reversion),
        "hold_cash": lambda: hold_cash_policy(m),
    }
    for name in names:
        if name not in builders:
            key = "baselines" if name in listed else "baseline.name"
            raise ConfigError(
                f"{key}: unknown strategy {name!r} (choose from {', '.join(builders)})"
            )
    return {name: builders[name]() for name in names}


def _crp_baseline(cfg: dict[str, object], m: int):
    """CRP toward baseline.target_weights, or equal weights when it is unset."""
    target = _as_tuple(cfg["baseline.target_weights"]) or (1.0 / m,) * m
    if len(target) != m:
        raise ConfigError(f"baseline.target_weights: got {len(target)} weights, need {m}")
    try:
        return CRPPolicy(target)
    except ValueError as exc:
        raise ConfigError(f"baseline.target_weights: {exc}") from exc


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
