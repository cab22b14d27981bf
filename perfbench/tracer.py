"""In-memory span tracer that wraps signalfolio's functions from outside.

The tracer replaces each target function with a thin wrapper in every
namespace of the package that binds it (the defining module and each module
that imported the name), so calls made through ``from .engine import
reward_chain`` are seen as well as direct ones.  Spans hold name, start,
end, parent span and operation id; they stay in memory until the run ends.
A target the package no longer defines is reported as missing instead of
failing the run.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

PACKAGE = "signalfolio"


@dataclass(frozen=True)
class Target:
    """One wrapped callable, named ``Class.method`` for methods."""

    layer: str
    module: str
    attr: str
    counts: Callable[[object], dict[str, int]] | None = None


def _sweep_counts(result) -> dict[str, int]:
    rows, failures = result
    return {"sweep.cells_completed": len(rows), "sweep.cells_failed": len(failures)}


TARGETS = (
    Target("agent.gradient", "agent", "gradient"),
    Target("agent.objective", "agent", "objective"),
    Target("agent.train", "agent", "train"),
    Target("agent.policy_forward", "agent", "policy_forward"),
    Target("agent.checkpoint_io", "agent", "save_checkpoint"),
    Target("agent.checkpoint_io", "agent", "load_checkpoint"),
    Target(
        "signals.build_states",
        "signals",
        "build_states",
        lambda states: {"signals.build_states.states": len(states)},
    ),
    Target("signals.oracle_labels", "signals", "oracle_labels"),
    Target("signals.fit_internal_predictor", "signals", "fit_internal_predictor"),
    Target("signals.predictor_labels", "signals", "predictor_labels"),
    Target("engine.reward_chain", "engine", "reward_chain"),
    Target(
        "engine.run_backtest",
        "engine",
        "run_backtest",
        lambda result: {"engine.run_backtest.steps": result.n_steps},
    ),
    Target("engine.result_io", "engine", "BacktestResult.save"),
    Target("engine.result_io", "engine", "BacktestResult.load"),
    Target("baselines.decide", "baselines", "CRPPolicy.__call__"),
    Target("baselines.decide", "baselines", "_ReversionPolicy.__call__"),
    Target("baselines.simplex_project", "baselines", "simplex_project"),
    Target("evaluation.horizon_table", "evaluation", "horizon_table"),
    Target("evaluation.write", "evaluation", "write_metrics_csv"),
    Target("evaluation.write", "evaluation", "write_metrics_json"),
    Target("sweep.run_sweep", "sweep", "run_sweep", _sweep_counts),
    Target("market.generate_synthetic", "market", "generate_synthetic"),
    Target("cli.command", "cli", "main"),
)

# Metrics named by the issue that are fed by a differently named span.
DERIVED_SOURCE = {
    "sweep.cells_completed": "sweep.run_sweep",
    "sweep.cells_failed": "sweep.run_sweep",
    "sweep.cell_success_ratio": "sweep.run_sweep",
}


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int
    op: int
    counts: dict[str, int] | None


class Tracer:
    """Records nested spans of wrapped calls, one operation at a time."""

    def __init__(self) -> None:
        self.targets = TARGETS
        self.spans: list[Span] = []
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def missing(self) -> list[str]:
        """Targets whose module or attribute no longer exists, as module.attr."""
        return [
            f"{t.module}.{t.attr}" for t in self.targets if self._lookup(t) is None
        ]

    def missing_layers(self) -> set[str]:
        """Layers none of whose targets exist any more."""
        found = {t.layer for t in self.targets if self._lookup(t) is not None}
        return {t.layer for t in self.targets} - found

    def install(self, op: int) -> None:
        """Wrap every present target for the operation numbered ``op``."""
        self.op = op
        for target in self.targets:
            found = self._lookup(target)
            if found is None:
                continue
            owner, name, raw = found
            if "." in target.attr:
                self._patch(owner, name, self._wrap_member(raw, target))
                continue
            wrapped = self._wrap(raw, target)
            for namespace, bound_name in _bindings(raw):
                self._patch(namespace, bound_name, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    @staticmethod
    def _lookup(target: Target):
        """(owner, name, raw attribute) of a target, or None if it is gone."""
        module = sys.modules.get(f"{PACKAGE}.{target.module}")
        if module is None:
            return None
        owner_name, _, member = target.attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None:
            return None
        raw = vars(owner).get(member)
        if raw is None:
            return None
        return owner, member, raw

    def _wrap_member(self, raw, target: Target):
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, target))
        if isinstance(raw, staticmethod):
            return staticmethod(self._wrap(raw.__func__, target))
        return self._wrap(raw, target)

    def _wrap(self, fn, target: Target):
        spans, stack = self.spans, self._stack
        layer, counts = target.layer, target.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = Span(layer, start, end, parent, self.op, None)
            if counts is not None:
                spans[index] = spans[index]._replace(counts=counts(result))
            return result

        return traced

    def write(self, path: Path, origin: float) -> None:
        """Dump spans as JSON lines, times in seconds since ``origin``."""
        with path.open("w") as fh:
            for span in self.spans:
                record = span._asdict()
                record["start"] -= origin
                record["end"] -= origin
                fh.write(json.dumps(record) + "\n")


def _bindings(obj):
    """Every (module, name) pair in the package whose namespace binds obj."""
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for name, value in list(vars(module).items()):
            if value is obj:
                yield module, name


def layer_totals(spans: list[Span]) -> dict[str, float]:
    """calls, busy_s, self_s and extra counts per layer, summed over spans.

    self_s is a span's duration minus that of its direct children; calls
    run on one thread, so children never overlap and the self times of all
    spans add up to the duration of the root spans.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.end - span.start
    totals: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        duration = span.end - span.start
        totals[f"{span.name}.calls"] += 1
        totals[f"{span.name}.busy_s"] += duration
        totals[f"{span.name}.self_s"] += duration - child_time[index]
        for key, value in (span.counts or {}).items():
            totals[key] += value
    attempted = totals["sweep.cells_completed"] + totals["sweep.cells_failed"]
    totals["sweep.cell_success_ratio"] = (
        totals["sweep.cells_completed"] / attempted if attempted else 0.0
    )
    totals["trace.self_sum_s"] = sum(
        value for key, value in totals.items() if key.endswith(".self_s")
    )
    return totals


def source_layer(metric: str) -> str:
    """The span name a per-layer metric is derived from."""
    return DERIVED_SOURCE.get(metric, metric.rpartition(".")[0])
