from __future__ import annotations

import math
import re

import numpy as np
import pytest

from signalfolio import config as cfgmod
from signalfolio.agent import init_policy, train
from signalfolio.config import (
    DEFAULTS,
    ConfigError,
    apply_overrides,
    build_baselines,
    build_cost,
    build_market,
    build_segments,
    echo_config,
    labeller,
    parse_config_file,
    parse_scalar,
    parse_value,
    resolve,
    train_agents,
    train_settings,
)
from signalfolio.engine import EngineError
from signalfolio.market import MarketDataError, chronological_split
from signalfolio.signals import state_dim


class TestScalarParsing:
    def test_booleans(self):
        assert parse_scalar("true") is True
        assert parse_scalar("False") is False

    def test_none_forms(self):
        assert parse_scalar("none") is None
        assert parse_scalar("") is None

    def test_numbers(self):
        assert parse_scalar("42") == 42
        assert isinstance(parse_scalar("42"), int)
        assert parse_scalar("0.25") == 0.25
        assert parse_scalar("-3e-2") == -0.03

    def test_strings_pass_through(self):
        assert parse_scalar("olmar") == "olmar"
        assert parse_scalar(" padded ") == "padded"

    def test_comma_lists_become_tuples(self):
        assert parse_value("0.5,0.7,1.0") == (0.5, 0.7, 1.0)
        assert parse_value("ew, crp") == ("ew", "crp")
        assert parse_value("7") == 7

    def test_string_key_value_stays_text(self):
        assert parse_value("2024", "market.csv.path") == "2024"
        assert parse_value(" true ", "agent.checkpoint") == "true"
        assert parse_value("2024.0,5", "market.csv.path") == "2024.0,5"
        assert parse_value("None", "market.csv.path") is None
        assert parse_value(" ", "agent.checkpoint") is None
        assert parse_value("2024", "window") == 2024


class TestConfigFile:
    def test_parses_keys_comments_blanks(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# run settings\n"
            "\n"
            "window = 20\n"
            "sweep.accuracies = 0.5, 0.8, 1.0\n"
            "baselines = olmar\n"
            "agent.enabled = true\n"
        )
        cfg = parse_config_file(path)
        assert cfg["window"] == 20
        assert cfg["sweep.accuracies"] == (0.5, 0.8, 1.0)
        assert cfg["baselines"] == "olmar"
        assert cfg["agent.enabled"] is True

    def test_bad_line_reports_location(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text("window = 20\nnot a setting\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert "broken.cfg:2" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config_file(tmp_path / "absent.cfg")

    def test_key_set_twice_names_it_and_both_lines(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("window = 8\ncost.buy = 0.001\n\nwindow = 12\n")
        with pytest.raises(ConfigError) as err:
            parse_config_file(path)
        assert str(err.value) == f"window: set twice in {path}, on lines 1 and 4"


class TestResolve:
    def test_defaults_all_present(self):
        cfg = resolve(None)
        assert cfg == DEFAULTS
        assert cfg is not DEFAULTS

    def test_user_value_wins(self):
        cfg = resolve({"window": 12})
        assert cfg["window"] == 12
        assert cfg["cost.buy"] == 0.0025

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError) as err:
            resolve({"windw": 12})
        assert "windw" in str(err.value)

    def test_overrides_after_file(self):
        cfg = apply_overrides({"window": 12}, ["window=7", "window=9", "seed=4"])
        assert cfg["window"] == 9
        assert cfg["seed"] == 4

    def test_override_requires_equals(self):
        with pytest.raises(ConfigError):
            apply_overrides({}, ["window:9"])

    def test_values_come_back_typed(self):
        cfg = resolve(
            {
                "cost.buy": 0,
                "market.synthetic.drift": (0, 0.001),
                "baselines": "ew",
                "baseline.target_weights": None,
                "agent.checkpoint": None,
                "signal.mode": None,
            }
        )
        assert cfg["cost.buy"] == 0.0 and isinstance(cfg["cost.buy"], float)
        assert [type(v) for v in cfg["market.synthetic.drift"]] == [float, float]
        assert cfg["baselines"] == ("ew",)
        assert cfg["baseline.target_weights"] == ()
        assert cfg["agent.checkpoint"] == ""
        assert cfg["signal.mode"] == "none"

    @pytest.mark.parametrize(
        "key,value",
        [
            ("window", 2.0),
            ("window", True),
            ("agent.enabled", 1),
            ("market.synthetic.vol", (0.01, "x")),
            ("sweep.densities", ()),
            ("split.fraction", None),
            ("metrics.horizons", None),
        ],
    )
    def test_bad_value_names_its_key(self, key, value):
        with pytest.raises(ConfigError) as err:
            resolve({key: value})
        assert str(err.value).startswith(f"{key}: ")


class TestBuilders:
    def test_market_from_defaults(self):
        prices = build_market(resolve(None))
        assert prices.n_assets == 3
        assert prices.n_steps == 2400

    # each bad value is set on a resolved config, past resolve's own check,
    # so the builder named is the one that rejects it
    def test_market_rejects_bad_spec(self):
        with pytest.raises(MarketDataError, match=r"^need at least two steps$"):
            build_market({**resolve(None), "market.synthetic.n_steps": 1})

    def test_split_fraction_by_default(self):
        train, test = build_segments(resolve(None))
        assert train.n_steps == 2160
        assert test.n_steps == 240

    def test_split_boundary_takes_precedence(self):
        cfg = resolve({"split.boundary": 2000})
        train, test = build_segments(cfg)
        assert train.n_steps == 2000
        assert test.n_steps == 400

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(ConfigError, match=r"^split\.fraction: segment too short"):
            build_segments({**resolve(None), "split.fraction": 1.5})

    def test_cost_model(self):
        cm = build_cost(resolve({"cost.mode": "simple", "cost.sell": 0.001}))
        assert cm.mode == "simple"
        assert cm.c_sell == 0.001
        assert cm.c_buy == 0.0025

    def test_cost_rejects_bad_rate(self):
        with pytest.raises(EngineError, match=r"^commission rates must lie in \[0, 1\)$"):
            build_cost({**resolve(None), "cost.buy": 2.0})

    def test_train_config(self):
        cfg = resolve({"agent.epochs": 7, "agent.learning_rate": 0.5, "window": 9})
        settings = train_settings(cfg, build_segments(cfg)[0])
        assert settings["epochs"] == 7
        assert settings["learning_rate"] == 0.5
        assert settings["window"] == 9

    def test_hidden_sizes(self):
        assert resolve({"agent.hidden": (32, 16)})["agent.hidden"] == (32, 16)
        assert resolve({"agent.hidden": 32})["agent.hidden"] == (32,)
        with pytest.raises(ConfigError):
            resolve({"agent.hidden": (32, 0)})

    def test_unknown_baseline_names_offending_key(self):
        with pytest.raises(ConfigError) as err:
            build_baselines(resolve({"baselines": ("ew", "bah")}), 4)
        assert str(err.value).startswith("baselines: unknown strategy 'bah'")

    def test_signal_mode_validated(self):
        assert resolve({"signal.mode": "oracle"})["signal.mode"] == "oracle"
        with pytest.raises(ConfigError):
            resolve({"signal.mode": "psychic"})

    def test_seed_list(self):
        assert resolve({"seeds": (3, 4)})["seeds"] == (3, 4)
        assert resolve({"seeds": 5})["seeds"] == (5,)
        with pytest.raises(ConfigError):
            resolve({"seeds": ("a",)})


def _train(cfg):
    """agent.train on one cell of a one-unit net, with cfg's training settings."""
    train_p = build_segments(cfg)[0]
    n, settings = train_p.n_assets, train_settings(cfg, train_p)
    params = init_policy(state_dim(n, cfg["window"]), n + 1, (1,), 0)
    return train([params], train_p, [None], build_cost(cfg), [np.random.default_rng(0)], **settings)


def _split_at_boundary(cfg):
    # the library's own bound on split.boundary: no segment length asked
    return chronological_split(build_market(cfg), cfg["split.boundary"], min_steps=0)


_BELOW_0, _ABOVE_0 = math.nextafter(0.0, -1.0), math.nextafter(0.0, 1.0)
_BELOW_1, _ABOVE_1 = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)

# Each range that a KEYS entry shares with the library: the key, the value
# just inside the range, the value just outside it, and the builder that
# hands the key to the library.
SHARED_BOUNDS = [
    ("agent.learning_rate", 0.0, _BELOW_0, _train),
    ("agent.batch_window", 1, 0, _train),
    ("agent.epochs", 0, -1, _train),
    ("agent.steps_per_epoch", 1, 0, _train),
    ("cost.buy", 0.0, _BELOW_0, build_cost),
    ("cost.buy", _BELOW_1, 1.0, build_cost),
    ("cost.sell", 0.0, _BELOW_0, build_cost),
    ("cost.sell", _BELOW_1, 1.0, build_cost),
    ("cost.mode", "simple", "bogus", build_cost),
    ("split.boundary", 1, 0, _split_at_boundary),
    ("market.synthetic.n_assets", 1, 0, build_market),
    ("market.synthetic.n_steps", 2, 1, build_market),
    ("market.synthetic.regime_prob", 0.0, _BELOW_0, build_market),
    ("market.synthetic.regime_prob", 1.0, _ABOVE_1, build_market),
    ("market.synthetic.vol", 0.0, _BELOW_0, build_market),
    ("market.synthetic.vol", (0.01, 0.0, 0.02), (0.01, _BELOW_0, 0.02), build_market),
]


class TestSharedBounds:
    """KEYS and the library draw each shared range at the same value."""

    @pytest.mark.parametrize(
        "key,inside,outside,build",
        SHARED_BOUNDS,
        ids=[f"{key}={inside!r}" for key, inside, *_ in SHARED_BOUNDS],
    )
    def test_resolve_and_builder_agree(self, key, inside, outside, build):
        cfg = resolve({"market.synthetic.n_steps": 150, "window": 8, key: inside})
        build(cfg)
        with pytest.raises(ConfigError, match=f"^{re.escape(key)}: "):
            resolve({key: outside})
        with pytest.raises(ValueError):
            build({**cfg, key: outside})


class TestEcho:
    def test_deterministic_and_sorted(self):
        cfg = resolve({"window": 15})
        text = echo_config(cfg)
        assert text == echo_config(dict(reversed(list(cfg.items()))))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "window = 15" in lines

    def test_round_trips_through_parser(self, tmp_path):
        cfg = resolve({"sweep.accuracies": (0.5, 1.0), "agent.enabled": True})
        path = tmp_path / "echo.cfg"
        path.write_text(echo_config(cfg))
        parsed = parse_config_file(path)
        merged = resolve(parsed)
        assert merged["sweep.accuracies"] == (0.5, 1.0)
        assert merged["agent.enabled"] is True
        assert merged["window"] == cfg["window"]
        assert merged == cfg


TINY_AGENT = {
    "market.synthetic.n_assets": 2,
    "market.synthetic.n_steps": 120,
    "market.synthetic.vol": 0.02,
    "market.synthetic.drift": 0.001,
    "window": 8,
    "agent.hidden": (8,),
    "agent.epochs": 2,
    "agent.batch_window": 16,
    "agent.learning_rate": 0.5,
}


def _agents(cfg, train_p):
    """Three agents: oracle labels at two accuracies and the no-signal control."""
    oracle = {**cfg, "signal.mode": "oracle"}
    return [
        (labeller({**oracle, "signal.accuracy": 0.6}, train_p), (1, 2, 3, 4), None),
        (labeller({**cfg, "signal.mode": "none"}, train_p), (5, 6, 7, 8), None),
        (labeller(oracle, train_p), (9, 10, 11, 12), None),
    ]


def _outcome_bytes(outcome):
    params, curve, signals = outcome
    return params.theta.tobytes(), curve, None if signals is None else signals.tobytes()


class TestTrainAgents:
    """config.train_agents: set-up per agent, then one lockstep agent.train call."""

    def setup_method(self):
        self.cfg = resolve(TINY_AGENT)
        self.train_p, self.test_p = build_segments(self.cfg)
        self.cm = build_cost(self.cfg)

    def run(self, agents, with_test=True):
        test_p = self.test_p if with_test else None
        return train_agents(self.cfg, self.train_p, test_p, self.cm, agents)

    def test_group_equals_one_agent_calls(self):
        agents = _agents(self.cfg, self.train_p)
        group = [_outcome_bytes(outcome) for outcome in self.run(agents)]
        alone = [_outcome_bytes(outcome) for agent in agents for outcome in self.run([agent])]
        assert group == alone
        assert [signals is None for _, _, signals in group] == [False, True, False]
        assert len({theta for theta, _, _ in group}) == 3

    def test_setup_failure_fails_that_agent_alone(self):
        agents = _agents(self.cfg, self.train_p)
        expected = [_outcome_bytes(outcome) for outcome in self.run(agents)]

        def no_labels(segment, seed):
            raise RuntimeError("no labels here")

        agents[1] = (no_labels, *agents[1][1:])
        first, failed, last = self.run(agents)
        assert isinstance(failed, RuntimeError) and str(failed) == "no labels here"
        assert [_outcome_bytes(first), _outcome_bytes(last)] == [expected[0], expected[2]]

    def test_given_params_are_not_reinitialised(self, monkeypatch):
        label, seeds, _ = _agents(self.cfg, self.train_p)[1]
        [fresh] = self.run([(label, seeds, None)])
        given = init_policy(2 * 8 + 2, 3, hidden=(8,), seed=99)
        inits = []
        monkeypatch.setattr(cfgmod, "init_policy", lambda *args: inits.append(args))
        self.cfg = {**self.cfg, "agent.epochs": 0}
        [(params, curve, _)] = self.run([(label, seeds, given)])
        assert inits == [] and curve == []
        assert params.theta.tobytes() == given.theta.tobytes()
        assert params.theta.tobytes() != fresh[0].theta.tobytes()

    def test_no_test_split_gives_no_test_signals(self):
        agents = _agents(self.cfg, self.train_p)
        assert [signals for _, _, signals in self.run(agents, with_test=False)] == [None] * 3

    def test_training_settings_checked_before_any_setup(self):
        labelled = []

        def label(segment, seed):
            labelled.append(seed)

        self.cfg = {**self.cfg, "agent.batch_window": 500}
        message = r"^agent\.batch_window: 500 longer than the 100-step training episode$"
        with pytest.raises(ConfigError, match=message):
            self.run([(label, (0, 0, 0, 0), None)])
        assert labelled == []

    def test_training_error_fails_every_agent(self, monkeypatch):
        def broken(*args, **settings):
            raise RuntimeError("no step")

        monkeypatch.setattr(cfgmod, "train", broken)
        outcomes = self.run(_agents(self.cfg, self.train_p))
        assert [str(outcome) for outcome in outcomes] == ["no step"] * 3
