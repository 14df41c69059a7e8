from __future__ import annotations

import inspect
from datetime import datetime, timezone

import numpy as np
import pytest

from driftmark.baselines import (
    BaselineKind,
    HistoricalFrequency,
    heuristic_baseline,
    historical_frequency_baseline,
    market_baseline,
    uniform_baseline,
)
from driftmark.market_data import (
    Domain,
    EventCategory,
    Horizon,
    ResolvedOutcome,
    Risk,
    generate_synthetic,
)
from driftmark.metrics import brier

from conftest import make_snapshot

NOW = datetime(2026, 2, 1, tzinfo=timezone.utc)
CAT = EventCategory(Risk.MEDIUM, Domain.ECONOMIC, Horizon.SHORT)


def _resolved(values, cat=CAT) -> HistoricalFrequency:
    """A history that has seen one resolved market of ``cat`` per value."""
    history = HistoricalFrequency()
    for i, v in enumerate(values):
        history.update(ResolvedOutcome(f"0x{i:040x}", v, NOW), cat)
    return history


class TestMarketBaseline:
    def test_passthrough(self):
        assert market_baseline(make_snapshot(yes=0.62)).probability == 0.62
        assert market_baseline(make_snapshot(yes=0.0, no=1.0)).probability == 0.0
        assert market_baseline(make_snapshot(yes=0.5)).probability == 0.5

    def test_mid_option(self):
        snap = make_snapshot(yes=0.60, no=0.38)
        assert market_baseline(snap, use_mid=True).probability == pytest.approx(
            (0.60 + 0.62) / 2, abs=1e-12
        )

    def test_kind_tag(self):
        assert market_baseline(make_snapshot()).kind == BaselineKind.MARKET


class TestUniformBaseline:
    def test_always_half(self):
        for yes in (0.0, 0.31, 0.5, 0.97):
            assert uniform_baseline(make_snapshot(yes=yes)).probability == 0.5

    def test_brier_exactly_quarter(self):
        assert brier(0.5, 1) == 0.25
        assert brier(0.5, 0) == 0.25

    def test_mean_brier_exact_on_synthetic(self):
        feed = generate_synthetic(3, 500, 2)
        scores = [brier(0.5, o.outcome) for o in feed.outcomes]
        assert float(np.mean(scores)) == 0.25


class TestHistoricalBaseline:
    def test_empty_set_laplace_prior(self):
        bf = historical_frequency_baseline(CAT, HistoricalFrequency(), snapshot=make_snapshot())
        assert bf.probability == 0.5

    def test_seven_of_ten(self):
        bf = historical_frequency_baseline(
            CAT, _resolved([1] * 7 + [0] * 3), snapshot=make_snapshot()
        )
        assert bf.probability == pytest.approx(8 / 12, abs=1e-12)

    def test_zero_of_four(self):
        bf = historical_frequency_baseline(CAT, _resolved([0] * 4), snapshot=make_snapshot())
        assert bf.probability == pytest.approx(1 / 6, abs=1e-12)

    def test_keys_on_risk_and_domain_only(self):
        other_horizon = EventCategory(Risk.MEDIUM, Domain.ECONOMIC, Horizon.LONG)
        bf = historical_frequency_baseline(
            other_horizon, _resolved([1] * 7 + [0] * 3, CAT), snapshot=make_snapshot()
        )
        assert bf.probability == pytest.approx(8 / 12, abs=1e-12)
        other_domain = EventCategory(Risk.MEDIUM, Domain.POLITICAL, Horizon.SHORT)
        bf2 = historical_frequency_baseline(
            other_domain, _resolved([1] * 7 + [0] * 3, CAT), snapshot=make_snapshot()
        )
        assert bf2.probability == 0.5


class TestHeuristicBaseline:
    def test_sharpen_favorite(self):
        assert heuristic_baseline(make_snapshot(yes=0.62)).probability == 0.9

    def test_tie(self):
        assert heuristic_baseline(make_snapshot(yes=0.50)).probability == 0.5

    def test_longshot(self):
        assert heuristic_baseline(make_snapshot(yes=0.31)).probability == 0.1

    def test_config_coefficients(self):
        bf = heuristic_baseline(make_snapshot(yes=0.8), favorite_prob=0.7, longshot_prob=0.3)
        assert bf.probability == 0.7


class TestStatelessness:
    def test_identical_inputs_identical_outputs(self):
        snap = make_snapshot(yes=0.42)
        assert market_baseline(snap) == market_baseline(snap)
        assert uniform_baseline(snap) == uniform_baseline(snap)
        assert heuristic_baseline(snap) == heuristic_baseline(snap)

    def test_no_baseline_reads_calibration_state(self):
        # Independence from rolling-window calibration is structural: no
        # baseline signature accepts a window or any agent state.
        for fn in (market_baseline, uniform_baseline, historical_frequency_baseline, heuristic_baseline):
            params = inspect.signature(fn).parameters
            assert "window" not in params
            assert all("calibration" not in name for name in params)

    def test_market_brier_converges_to_price_entropy(self):
        feed = generate_synthetic(7, 10_000, 2)
        outcomes = {o.condition_id: o.outcome for o in feed.outcomes}
        final = {}
        for s in feed.snapshots:
            final[s.condition_id] = s
        scores = [
            brier(market_baseline(s).probability, outcomes[cid]) for cid, s in final.items()
        ]
        # E[p(1-p)] for p ~ U(0.02, 0.98)
        a, b = 0.02, 0.98
        expected = (a + b) / 2 - (b**3 - a**3) / (3 * (b - a))
        assert abs(float(np.mean(scores)) - expected) < 0.01
