from __future__ import annotations

import pytest

from driftmark.cli import main as cli_main
from driftmark.config import EngineConfig, config_from_dict, load_config
from driftmark.errors import ConfigError, EngineError


def test_defaults():
    cfg = EngineConfig()
    assert cfg.contract.allowed_token_budgets == (500, 1000, 2000, 4000)
    assert cfg.market.spread_tolerance == 0.02
    assert cfg.market.risk_high_below == 0.15
    assert cfg.agents.buy_min_cents == 10_000
    assert cfg.agents.buy_max_cents == 20_000
    assert cfg.agents.batch_size == 30
    assert cfg.agents.max_open_positions == 30
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
