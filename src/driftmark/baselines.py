"""Reference forecasters evaluated on the same schedule as agents.

All four baselines are stateless functions of their declared inputs. None
of them sees any agent's calibration window; the signatures make that
impossible by construction.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .market_data import EventCategory, MarketSnapshot, ResolvedOutcome


class BaselineKind(str, Enum):
    MARKET = "market"
    UNIFORM = "uniform"
    HISTORICAL = "historical"
    HEURISTIC = "heuristic"


class BaselineForecast(NamedTuple):
    kind: BaselineKind
    condition_id: str
    probability: float


def market_baseline(snapshot: MarketSnapshot, use_mid: bool = False) -> BaselineForecast:
    """The market's own implied probability (optionally the yes/no mid)."""
    prob = snapshot.yes_price
    if use_mid:
        prob = (snapshot.yes_price + (1.0 - snapshot.no_price)) / 2.0
    return BaselineForecast(BaselineKind.MARKET, snapshot.condition_id, prob)


def uniform_baseline(snapshot: MarketSnapshot) -> BaselineForecast:
    return BaselineForecast(BaselineKind.UNIFORM, snapshot.condition_id, 0.5)


class HistoricalFrequency:
    """Laplace-smoothed outcome frequency per (risk, domain) cell.

    The empty cell yields 0.5; each resolved event updates exactly one cell.
    """

    def __init__(self):
        self._counts: dict[tuple[str, str], tuple[int, int]] = {}

    @staticmethod
    def _key(category: EventCategory) -> tuple[str, str]:
        return (category.risk.value, category.domain.value)

    def update(self, outcome: ResolvedOutcome, category: EventCategory) -> None:
        pos, n = self._counts.get(self._key(category), (0, 0))
        self._counts[self._key(category)] = (pos + (1 if outcome.outcome == 1 else 0), n + 1)

    def probability(self, category: EventCategory) -> float:
        pos, n = self._counts.get(self._key(category), (0, 0))
        return (pos + 1) / (n + 2)


def historical_frequency_baseline(
    category: EventCategory,
    history: HistoricalFrequency,
    *,
    snapshot: MarketSnapshot,
) -> BaselineForecast:
    """Laplace-smoothed frequency over the resolved events of ``history``
    sharing (risk, domain)."""
    return BaselineForecast(
        BaselineKind.HISTORICAL, snapshot.condition_id, history.probability(category)
    )


def heuristic_baseline(
    snapshot: MarketSnapshot,
    favorite_prob: float = 0.9,
    longshot_prob: float = 0.1,
) -> BaselineForecast:
    """Round toward the favorite: sharpen the quote to 0.9 / 0.1 / 0.5."""
    if snapshot.yes_price > 0.5:
        prob = favorite_prob
    elif snapshot.yes_price < 0.5:
        prob = longshot_prob
    else:
        prob = 0.5
    return BaselineForecast(BaselineKind.HEURISTIC, snapshot.condition_id, prob)
