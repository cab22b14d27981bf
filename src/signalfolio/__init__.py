"""Backtesting and policy-gradient training for signal-augmented portfolios."""
