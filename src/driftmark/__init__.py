"""driftmark: deterministic evaluation of forecasting agents on binary
prediction markets — locked instructions, baseline comparison, drift
measurement, holistic scoring, and simulated trading."""

__version__ = "0.1.0"

from .config import EngineConfig, load_config
from .contract import ContractHash, PromptContract, lock_contract
from .market_data import MarketSnapshot, ResolvedOutcome, generate_synthetic
from .evalloop import EvalEngine, RunManifest, token_budget_sweep
from .metrics import significance_test
from .reporting import aggregate

__all__ = [
    "EngineConfig",
    "load_config",
    "ContractHash",
    "PromptContract",
    "lock_contract",
    "MarketSnapshot",
    "ResolvedOutcome",
    "generate_synthetic",
    "EvalEngine",
    "RunManifest",
    "significance_test",
    "token_budget_sweep",
    "aggregate",
]
