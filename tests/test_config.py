from __future__ import annotations

import json

import numpy as np
import pytest

from driftmark.cli import main as cli_main
from driftmark.config import EngineConfig, config_from_dict, load_config
from driftmark.errors import ConfigError, EngineError
from driftmark.evalloop import EvalEngine, event_line
from oracles import per_row_shape


def test_defaults():
    cfg = EngineConfig()
    assert cfg.contract.allowed_token_budgets == (500, 1000, 2000, 4000)
    assert cfg.market.spread_tolerance == 0.02
    assert cfg.market.risk_high_below == 0.15
    assert cfg.agents.buy_min_cents == 10_000
    assert cfg.agents.buy_max_cents == 20_000
    assert cfg.agents.batch_size == 30
    assert cfg.simulator.max_open_positions == 30
    assert cfg.metrics.hhis_weights == (0.2, 0.2, 0.3, 0.15, 0.15)
    assert cfg.metrics.temporal_drift_form == "difference"
    assert cfg.simulator.initial_capital_cents == 600_000
    assert cfg.simulator.stop_loss_ratio == -0.05
    assert cfg.simulator.target_win_ratio == 0.50
    assert cfg.simulator.edge_delta == 0.03
    assert cfg.loop.sweep_budgets == (500, 1000, 2000, 4000)


def test_load_yaml_overrides(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(
        "market:\n  spread_tolerance: 0.05\nsimulator:\n  initial_capital_cents: 1000000\n",
        encoding="utf-8",
    )
    cfg = load_config(path)
    assert cfg.market.spread_tolerance == 0.05
    assert cfg.simulator.initial_capital_cents == 1_000_000
    # untouched sections keep defaults
    assert cfg.agents.batch_size == 30


def test_load_none_gives_defaults():
    assert load_config(None) == EngineConfig()


def test_unknown_keys_rejected():
    with pytest.raises(ValueError):
        config_from_dict({"market": {"no_such_knob": 1}})
    with pytest.raises(ValueError):
        config_from_dict({"no_such_section": {}})


def test_round_trip_through_dict():
    cfg = EngineConfig()
    assert config_from_dict(cfg.to_dict()) == cfg


# The seven knobs a config snapshot held before they were retired, at their defaults.
RETIRED_DEFAULTS = {
    "agents": {
        "momentum_bias": 0.05, "mean_reversion_weight": 0.25, "drift_ema_alpha": 0.3,
        "max_open_positions": 30,
    },
    "loop": {"bootstrap_resamples": 10_000, "mode": "execution", "checkpoint_every": 1},
}


class TestRetiredKeys:
    def test_old_snapshot_still_loads(self):
        data = EngineConfig().to_dict()
        for section, keys in RETIRED_DEFAULTS.items():
            data[section].update(keys)
        assert config_from_dict(data) == EngineConfig()

    def test_retired_keys_are_gone(self):
        cfg = EngineConfig()
        for section, keys in RETIRED_DEFAULTS.items():
            for key in keys:
                assert not hasattr(getattr(cfg, section), key)

    def test_agent_limit_must_equal_simulator_limit(self):
        assert config_from_dict(
            {"agents": {"max_open_positions": 5}, "simulator": {"max_open_positions": 5}}
        ).simulator.max_open_positions == 5
        with pytest.raises(ConfigError, match="max_open_positions"):
            config_from_dict({"agents": {"max_open_positions": 5}})
        with pytest.raises(ConfigError, match="max_open_positions"):
            config_from_dict({"simulator": {"max_open_positions": 5}, "agents": {"max_open_positions": 30}})


class TestDriftForm:
    @pytest.mark.parametrize("form", ["difference", "product"])
    def test_known_forms(self, form):
        cfg = config_from_dict({"metrics": {"temporal_drift_form": form}})
        assert cfg.metrics.temporal_drift_form == form

    @pytest.mark.parametrize("form", ["differnce", "Product", ""])
    def test_unknown_form_raises_config_error(self, form):
        with pytest.raises(ConfigError, match="temporal_drift_form"):
            config_from_dict({"metrics": {"temporal_drift_form": form}})

    def test_cli_exits_1(self, tmp_path, capsys):
        path = tmp_path / "typo.yaml"
        path.write_text("metrics:\n  temporal_drift_form: differnce\n", encoding="utf-8")
        code = cli_main(["--config", str(path), "--out", str(tmp_path), "verify", "--run-id", "x"])
        assert code == 1
        assert "temporal_drift_form" in capsys.readouterr().err


class TestVolatilityWindow:
    def test_one_change_is_enough(self):
        assert config_from_dict({"metrics": {"volatility_window": 1}}).metrics.volatility_window == 1

    # 0 and -1 would leave every d_temporal at 0 (a price history holding one
    # price); below -1 the history cannot be built at all.
    @pytest.mark.parametrize("window", [0, -1, -2, 2.5, "10"])
    def test_fewer_than_one_change_raises_config_error(self, window):
        with pytest.raises(ConfigError, match="volatility_window"):
            config_from_dict({"metrics": {"volatility_window": window}})


class TestConfigErrors:
    @pytest.mark.parametrize(
        "text",
        [
            None,  # no file at all
            "market: [unclosed\n",
            "market:\n  no_such_knob: 1\n",
            "no_such_section: {}\n",
            "market: 3\n",
            "- a list\n",
            b"market:\n  spread_tolerance: \xff\n",  # not UTF-8
        ],
    )
    def test_bad_config_raises_config_error(self, tmp_path, text):
        path = tmp_path / "config.yaml"
        if text is not None:
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        with pytest.raises(ConfigError):
            load_config(path)

    def test_config_error_is_an_engine_and_value_error(self):
        assert issubclass(ConfigError, EngineError)
        assert issubclass(ConfigError, ValueError)

    @pytest.mark.parametrize("text", [None, "market: [unclosed\n", "market:\n  nope: 1\n"])
    def test_cli_exits_1_without_traceback(self, tmp_path, capsys, text):
        path = tmp_path / "bad.yaml"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        code = cli_main(["--config", str(path), "--out", str(tmp_path), "verify", "--run-id", "x"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


class TestInitialCapital:
    def test_zero_is_allowed(self):
        assert config_from_dict(
            {"simulator": {"initial_capital_cents": 0}}
        ).simulator.initial_capital_cents == 0

    @pytest.mark.parametrize("capital", [-1, -600_000, 600_000.0, "600000"])
    def test_negative_or_not_cents_raises_config_error(self, capital):
        with pytest.raises(ConfigError, match="initial_capital_cents"):
            config_from_dict({"simulator": {"initial_capital_cents": capital}})

    def test_cli_run_writes_nothing(self, tmp_path, capsys):
        """The run used to end in an AssertionError after it had written its
        manifest and contract, which took the run id."""
        path = tmp_path / "negative.yaml"
        path.write_text("simulator:\n  initial_capital_cents: -1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main([
            "--config", str(path), "--out", str(out), "run", "--agents", "momentum",
            "--cycles", "2", "--run-id", "neg",
        ])
        assert code == 1
        assert "initial_capital_cents" in capsys.readouterr().err
        assert not (out / "neg").exists()


class TestAgentCounts:
    """``batch_size=0`` once ran with every batch accepted and no decision,
    ``-1`` with every batch rejected, and ``calibration_window_size=0`` made
    the window the agent's whole history."""

    NAMES = ("batch_size", "calibration_window_size")

    @pytest.mark.parametrize("name", NAMES)
    def test_one_is_allowed(self, name):
        assert getattr(config_from_dict({"agents": {name: 1}}).agents, name) == 1

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [0, -1, -30, True, False, 30.0, "30", None])
    def test_not_an_int_of_at_least_one_raises_config_error(self, name, value):
        with pytest.raises(ConfigError, match=f"agents.{name} "):
            config_from_dict({"agents": {name: value}})

    def test_cli_run_writes_nothing(self, tmp_path, capsys):
        path = tmp_path / "empty_batch.yaml"
        path.write_text("agents:\n  batch_size: 0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = cli_main([
            "--config", str(path), "--out", str(out), "run", "--agents", "momentum",
            "--cycles", "2", "--run-id", "empty",
        ])
        assert code == 1
        assert "batch_size" in capsys.readouterr().err
        assert not (out / "empty").exists()


class TestFinalReportSettings:
    """Values the final reports cannot take used to fail a run only after
    its last cycle, leaving no run_completed and no events.sha256."""

    def test_bounds_are_allowed(self):
        metrics = config_from_dict({"metrics": {"ece_bins": 2, "var_alpha": 0.49}}).metrics
        assert (metrics.ece_bins, metrics.var_alpha) == (2, 0.49)

    @pytest.mark.parametrize("bins", [1, 0, -10, 10.0, "10"])
    def test_fewer_than_two_ece_bins_raises_config_error(self, bins):
        with pytest.raises(ConfigError, match="ece_bins"):
            config_from_dict({"metrics": {"ece_bins": bins}})

    @pytest.mark.parametrize("alpha", [0.0, 0.5, -0.05, 1.0, float("nan"), "0.05"])
    def test_var_alpha_outside_open_interval_raises_config_error(self, alpha):
        with pytest.raises(ConfigError, match="var_alpha"):
            config_from_dict({"metrics": {"var_alpha": alpha}})


class TestHeuristicProbabilities:
    """Each is a baseline probability the log writes; a value JSON or the
    log's template could not write as the generic encoder does once went
    into the log as it was."""

    NAMES = ("heuristic_favorite_prob", "heuristic_longshot_prob")

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize("value", [0, 1, 0.0, 0.25, 1.0])
    def test_numbers_in_the_unit_interval_are_kept_as_they_are(self, name, value):
        kept = getattr(config_from_dict({"baselines": {name: value}}).baselines, name)
        assert type(kept) is type(value) and kept == value

    @pytest.mark.parametrize("name", NAMES)
    @pytest.mark.parametrize(
        "value",
        [True, False, "0.9", None, [0.9], float("nan"), float("inf"), float("-inf"), -0.1, 1.5, 2,
         np.float64(0.9)],
    )
    def test_other_values_raise_config_error(self, name, value):
        with pytest.raises(ConfigError, match=name):
            config_from_dict({"baselines": {name: value}})

    def test_integer_probabilities_are_logged_as_the_encoder_writes_them(self, tmp_path):
        config = config_from_dict(
            {"baselines": {"heuristic_favorite_prob": 1, "heuristic_longshot_prob": 0}}
        )
        engine = EvalEngine.create(
            tmp_path, seed=3, agent_ids=["momentum"],
            feed_source={"kind": "synthetic", "n_markets": 40}, cycles=2, config=config,
        )
        path = engine.run().events_path
        for line in path.read_text(encoding="utf-8").splitlines(keepends=True):
            assert event_line(json.loads(line)) == line
        heuristic = set()
        for ev in per_row_shape(path):
            if ev.get("baseline") == "heuristic":
                heuristic.add(ev["probability"])
        assert {0, 1} <= heuristic
