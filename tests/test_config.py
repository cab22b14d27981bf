from __future__ import annotations

import pytest

from signalfolio.config import (
    DEFAULTS,
    ConfigError,
    apply_overrides,
    build_baselines,
    build_cost,
    build_market,
    build_split,
    build_train_config,
    echo_config,
    parse_config_file,
    parse_scalar,
    parse_value,
    resolve,
)


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
            "baseline.name = olmar\n"
            "agent.enabled = true\n"
        )
        cfg = parse_config_file(path)
        assert cfg["window"] == 20
        assert cfg["sweep.accuracies"] == (0.5, 0.8, 1.0)
        assert cfg["baseline.name"] == "olmar"
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
        cfg = apply_overrides({"window": 12}, ["window=9", "seed=4"])
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
                "metrics.horizons": None,
                "agent.checkpoint": None,
                "signal.mode": None,
            }
        )
        assert cfg["cost.buy"] == 0.0 and isinstance(cfg["cost.buy"], float)
        assert [type(v) for v in cfg["market.synthetic.drift"]] == [float, float]
        assert cfg["baselines"] == ("ew",)
        assert cfg["metrics.horizons"] == ()
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

    def test_market_rejects_bad_spec(self):
        cfg = resolve({"market.synthetic.n_steps": 1})
        with pytest.raises(ConfigError) as err:
            build_market(cfg)
        assert "market.synthetic" in str(err.value)

    def test_split_fraction_by_default(self):
        spec = build_split(resolve(None))
        assert spec.fraction == 0.9
        assert spec.boundary is None

    def test_split_boundary_takes_precedence(self):
        cfg = resolve({"split.boundary": 2000})
        spec = build_split(cfg)
        assert spec.boundary == 2000
        assert spec.fraction is None

    def test_split_rejects_bad_fraction(self):
        with pytest.raises(ConfigError) as err:
            build_split(resolve({"split.fraction": 1.5}))
        assert "split" in str(err.value)

    def test_cost_model(self):
        cm = build_cost(resolve({"cost.mode": "simple", "cost.sell": 0.001}))
        assert cm.mode == "simple"
        assert cm.c_sell == 0.001
        assert cm.c_buy == 0.0025

    def test_cost_rejects_bad_rate(self):
        with pytest.raises(ConfigError) as err:
            build_cost(resolve({"cost.buy": 2.0}))
        assert "cost" in str(err.value)

    def test_train_config(self):
        cfg = resolve({"agent.epochs": 7, "agent.learning_rate": 0.5, "window": 9})
        tc = build_train_config(cfg)
        assert tc.epochs == 7
        assert tc.learning_rate == 0.5
        assert tc.window == 9

    def test_hidden_sizes(self):
        assert resolve({"agent.hidden": (32, 16)})["agent.hidden"] == (32, 16)
        assert resolve({"agent.hidden": 32})["agent.hidden"] == (32,)
        with pytest.raises(ConfigError):
            resolve({"agent.hidden": (32, 0)})

    def test_baseline_names_merge(self):
        cfg = resolve({"baselines": ("ew", "crp"), "baseline.name": "olmar"})
        assert tuple(build_baselines(cfg, 4)) == ("ew", "crp", "olmar")

    def test_baseline_names_deduplicate(self):
        cfg = resolve({"baselines": ("ew",), "baseline.name": "ew"})
        assert tuple(build_baselines(cfg, 4)) == ("ew",)

    def test_unknown_baseline_names_offending_key(self):
        with pytest.raises(ConfigError) as err:
            build_baselines(resolve({"baseline.name": "bah"}), 4)
        assert "baseline.name" in str(err.value)
        with pytest.raises(ConfigError) as err:
            build_baselines(resolve({"baselines": ("bah",)}), 4)
        assert "baselines" in str(err.value)

    def test_signal_mode_validated(self):
        assert resolve({"signal.mode": "oracle"})["signal.mode"] == "oracle"
        with pytest.raises(ConfigError):
            resolve({"signal.mode": "psychic"})

    def test_seed_list(self):
        assert resolve({"seeds": (3, 4)})["seeds"] == (3, 4)
        assert resolve({"seeds": 5})["seeds"] == (5,)
        with pytest.raises(ConfigError):
            resolve({"seeds": ("a",)})


class TestEcho:
    def test_deterministic_and_sorted(self):
        cfg = resolve({"window": 15})
        text = echo_config(cfg)
        assert text == echo_config(dict(reversed(list(cfg.items()))))
        lines = text.splitlines()
        assert lines == sorted(lines)
        assert "window = 15" in lines

    def test_excludes_output_path(self):
        cfg = dict(resolve(None))
        cfg["out"] = "/tmp/results"
        assert "out" not in echo_config(cfg)

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
