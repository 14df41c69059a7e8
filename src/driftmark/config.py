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
    momentum_bias: float = 0.05
    mean_reversion_weight: float = 0.25
    drift_ema_alpha: float = 0.3
    # RISK_CONFIRMATION sizing multiplier on HIGH-risk markets.
    high_risk_size_factor: float = 0.5
    buy_min_cents: int = 10_000
    buy_max_cents: int = 20_000
    batch_size: int = 30
    max_open_positions: int = 30
    bootstrap_min_confidence: int = 7
    bootstrap_min_edge: float = 0.05
    calibration_min_confidence: int = 9
    calibration_min_edge: float = 0.03
    calibration_window_size: int = 30
    prob_adjustment_penalty: float = -0.05
    # Strict wire parsing rejects markdown fences; lenient strips and logs.
    lenient_json: bool = False


@dataclass(frozen=True)
class BaselineConfig:
    heuristic_favorite_prob: float = 0.9
    heuristic_longshot_prob: float = 0.1
    # Use mid of (yes, 1-no) instead of raw yes_price for the market baseline.
    market_use_mid: bool = False


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


@dataclass(frozen=True)
class SimulatorConfig:
    initial_capital_cents: int = 600_000
    stop_loss_ratio: float = -0.05
    target_win_ratio: float = 0.50
    # Execution-mode entry threshold on recorded edge.
    edge_delta: float = 0.03
    max_open_positions: int = 30


@dataclass(frozen=True)
class LoopConfig:
    cycle_interval_sec: int = 3600
    sweep_budgets: tuple[int, ...] = (500, 1000, 2000, 4000)
    bootstrap_resamples: int = 10_000
    checkpoint_every: int = 1
    mode: str = "execution"  # or "observation"


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


def config_from_dict(data: dict[str, Any]) -> EngineConfig:
    """Build a config from a nested dict, keeping defaults for absent keys."""
    sections: dict[str, Any] = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name) or {}
        if not isinstance(section, dict):
            raise ConfigError(f"config section [{name}] must hold a mapping")
        raw = dict(section)
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
