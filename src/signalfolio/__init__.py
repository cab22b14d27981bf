"""Backtesting and policy-gradient training for signal-augmented portfolios."""

from .agent import (
    Episode,
    PolicyParams,
    TrainConfig,
    gradient,
    init_policy,
    objective,
    policy_forward,
    train,
)
from .baselines import (
    CRPPolicy,
    OLMARPolicy,
    WMAMRPolicy,
    ew_policy,
    olmar_action,
    simplex_project,
    wmamr_action,
)
from .engine import (
    BacktestResult,
    ConvergenceError,
    CostModel,
    accumulate,
    cost_factor,
    drift_weights,
    run_backtest,
    step_reward,
)
from .evaluation import (
    MetricsReport,
    UndefinedSharpeError,
    horizon_table,
    portfolio_value,
    sharpe_ratio,
)
from .market import (
    MarketDataError,
    PriceSeries,
    SplitSpec,
    SyntheticMarketSpec,
    chronological_split,
    generate_synthetic,
    load_csv,
    relative_prices,
)
from .signals import (
    MovementPredictor,
    Observations,
    SignalConfig,
    SignalSeries,
    build_states,
    fit_internal_predictor,
    oracle_labels,
    true_movements,
)

__version__ = "0.1.0"
