"""Engine configuration.

Every tunable named in the module design decisions lives here with its
default, grouped per subsystem. A run snapshots the full config into its
manifest so results stay reproducible even if defaults move later.

Config files are YAML with one top-level key per section, e.g.::

    market:
      spread_tolerance: 0.03
    simulator:
      initial_capital_cents: 1000000
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import yaml

from .errors import ConfigError


@dataclass(frozen=True)
class ContractConfig:
    hash_algorithm: str = "sha256"
    allowed_token_budgets: tuple[int, ...] = (500, 1000, 2000, 4000)
    # Budgets outside the allowed set are rejected unless this is set.
    allow_any_budget: bool = False


@dataclass(frozen=True)
class MarketConfig:
    spread_tolerance: float = 0.02
    # Token-bucket rate limit for live fetching, requests per second.
    rate_limit_per_sec: float = 2.0
    # Risk banding on min(yes_price, no_price).
    risk_high_below: float = 0.15
    risk_low_at_least: float = 0.45
    # Horizon banding on (end_time - now).
    horizon_short_days: float = 7.0
    horizon_medium_days: float = 90.0
    request_timeout_sec: float = 10.0


@dataclass(frozen=True)
class AgentConfig:
    # RISK_CONFIRMATION sizing multiplier on HIGH-risk markets.
    high_risk_size_factor: float = 0.5
    buy_min_cents: int = 10_000
    buy_max_cents: int = 20_000
    batch_size: int = 30
    bootstrap_min_confidence: int = 7
    bootstrap_min_edge: float = 0.05
    calibration_min_confidence: int = 9
    calibration_min_edge: float = 0.03
    calibration_window_size: int = 30
    prob_adjustment_penalty: float = -0.05
    # Strict wire parsing rejects markdown fences; lenient strips and logs.
    lenient_json: bool = False

    def __post_init__(self):
        # A batch holds at least one market, and a calibration window at
        # least one realized P&L: ``realized[-0:]`` would be the whole history.
        for name in ("batch_size", "calibration_window_size"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ConfigError(f"agents.{name} must be an int of at least 1, not {value!r}")


@dataclass(frozen=True)
class BaselineConfig:
    heuristic_favorite_prob: float = 0.9
    heuristic_longshot_prob: float = 0.1
    # Use mid of (yes, 1-no) instead of raw yes_price for the market baseline.
    market_use_mid: bool = False

    def __post_init__(self):
        # Each is a logged probability: a number JSON writes as the run does.
        for name in ("heuristic_favorite_prob", "heuristic_longshot_prob"):
            value = getattr(self, name)
            if type(value) not in (int, float) or not 0 <= value <= 1:
                raise ConfigError(f"baselines.{name} must be a number in [0, 1], not {value!r}")


@dataclass(frozen=True)
class MetricConfig:
    ece_bins: int = 10
    log_likelihood_eps: float = 1e-9
    # "difference" or "product"; both drift forms appear in reports.
    temporal_drift_form: str = "difference"
    var_alpha: float = 0.05
    volatility_threshold: float = 0.08
    volatility_window: int = 10
    hhis_weights: tuple[float, float, float, float, float] = (0.2, 0.2, 0.3, 0.15, 0.15)

    def __post_init__(self):
        if self.temporal_drift_form not in ("difference", "product"):
            raise ConfigError(
                f"metrics.temporal_drift_form must be difference or product, "
                f"not {self.temporal_drift_form!r}"
            )
        # The volatility of a window of price changes needs at least one change.
        if not isinstance(self.volatility_window, int) or self.volatility_window < 1:
            raise ConfigError(
                f"metrics.volatility_window must be at least 1, not {self.volatility_window!r}"
            )
        # The final reports bin forecasts for ECE and price VaR at this tail;
        # a value they cannot take would fail the run only after its last cycle.
        if not isinstance(self.ece_bins, int) or self.ece_bins < 2:
            raise ConfigError(f"metrics.ece_bins must be at least 2, not {self.ece_bins!r}")
        if not isinstance(self.var_alpha, (int, float)) or not 0.0 < self.var_alpha < 0.5:
            raise ConfigError(f"metrics.var_alpha must be in (0, 0.5), not {self.var_alpha!r}")


@dataclass(frozen=True)
class SimulatorConfig:
    initial_capital_cents: int = 600_000
    stop_loss_ratio: float = -0.05
    target_win_ratio: float = 0.50
    # Execution-mode entry threshold on recorded edge.
    edge_delta: float = 0.03
    # The one open-position limit: the simulator enforces it, agents plan for it.
    max_open_positions: int = 30

    def __post_init__(self):
        # A portfolio's available capital may never go negative.
        if not isinstance(self.initial_capital_cents, int) or self.initial_capital_cents < 0:
            raise ConfigError(
                f"simulator.initial_capital_cents must be at least 0, "
                f"not {self.initial_capital_cents!r}"
            )


@dataclass(frozen=True)
class LoopConfig:
    cycle_interval_sec: int = 3600
    sweep_budgets: tuple[int, ...] = (500, 1000, 2000, 4000)


@dataclass(frozen=True)
class EngineConfig:
    contract: ContractConfig = field(default_factory=ContractConfig)
    market: MarketConfig = field(default_factory=MarketConfig)
    agents: AgentConfig = field(default_factory=AgentConfig)
    baselines: BaselineConfig = field(default_factory=BaselineConfig)
    metrics: MetricConfig = field(default_factory=MetricConfig)
    simulator: SimulatorConfig = field(default_factory=SimulatorConfig)
    loop: LoopConfig = field(default_factory=LoopConfig)

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


_SECTIONS = {
    "contract": ContractConfig,
    "market": MarketConfig,
    "agents": AgentConfig,
    "baselines": BaselineConfig,
    "metrics": MetricConfig,
    "simulator": SimulatorConfig,
    "loop": LoopConfig,
}


# Keys that no longer exist. Config snapshots in older manifests still hold
# them, so they are ignored: none of them had an effect, apart from
# agents.max_open_positions, which must equal the simulator's limit, and
# loop.checkpoint_every, whose one value in use (1) is now fixed: a replay
# or synthetic run is checkpointed at every cycle.
_RETIRED = (
    ("agents", "momentum_bias"),
    ("agents", "mean_reversion_weight"),
    ("agents", "drift_ema_alpha"),
    ("agents", "max_open_positions"),
    ("loop", "bootstrap_resamples"),
    ("loop", "mode"),
    ("loop", "checkpoint_every"),
)


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """Build a config from a nested dict, keeping defaults for absent keys."""
    sections: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"config section [{name}] must hold a mapping")
        raw = {k: v for k, v in section.items() if (name, k) not in _RETIRED}
        unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys in [{name}]: {sorted(unknown)}")
        for f in dataclasses.fields(cls):
            if f.name in raw and isinstance(f.default, tuple):
                raw[f.name] = tuple(raw[f.name])
        sections[name] = cls(**raw)
    unknown_sections = set(data) - set(_SECTIONS)
    if unknown_sections:
        raise ConfigError(f"unknown config sections: {sorted(unknown_sections)}")
    agent_limit = (data.get("agents") or {}).get("max_open_positions")
    if agent_limit is not None and agent_limit != sections["simulator"].max_open_positions:
        raise ConfigError(
            f"agents.max_open_positions {agent_limit} differs from "
            f"simulator.max_open_positions {sections['simulator'].max_open_positions}; "
            "the one limit is now simulator.max_open_positions"
        )
    return EngineConfig(**sections)


def load_config(path: str | Path | None) -> EngineConfig:
    """Load YAML config; ``None`` yields all defaults."""
    if path is None:
        return EngineConfig()
    try:
        data = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid YAML: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a mapping")
    return config_from_dict(data)
