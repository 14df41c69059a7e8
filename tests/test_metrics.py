from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmark.errors import (
    DegenerateInput,
    EmptyInput,
    InvalidAlpha,
    LengthMismatch,
    WeightsNotNormalized,
    ZeroPrice,
)
from driftmark.market_data import Domain, EventCategory, Horizon, Risk
from driftmark.metrics import (
    DriftReport,
    RiskReport,
    brier,
    confidence_drift,
    confidence_reasoning_alignment,
    confidence_stability,
    drift_report,
    ece_mce,
    hhis,
    log_likelihood,
    log_likelihood_clamped,
    market_divergence,
    baseline_delta,
    narrative_drift,
    narrative_drift_sets,
    overconfidence_index,
    price_volatility,
    reasoning_quality,
    reliability_bins_to_csv,
    risk_adjusted_return,
    risk_category,
    token_set,
    score_forecasts,
    temporal_drift,
    var_cvar,
)

import oracles

probs = st.floats(min_value=0.0, max_value=1.0)


class TestBrier:
    def test_uniform(self):
        assert brier(0.5, 1) == 0.25
        assert brier(0.5, 0) == 0.25

    def test_perfect(self):
        assert brier(1.0, 1) == 0.0

    def test_squared_error(self):
        assert brier(0.7, 0) == pytest.approx(0.49, abs=1e-15)

    @given(probs, st.integers(0, 1))
    def test_matches_oracle(self, p, o):
        assert brier(p, o) == pytest.approx(oracles.brier_oracle(p, o), abs=1e-12)


class TestLogLikelihood:
    def test_near_perfect(self):
        assert log_likelihood(1.0, 1, 1e-9) == pytest.approx(math.log(1 - 1e-9), abs=1e-15)

    def test_half(self):
        assert log_likelihood(0.5, 1) == pytest.approx(math.log(0.5), abs=1e-12)
        assert log_likelihood(0.5, 0) == pytest.approx(math.log(0.5), abs=1e-12)

    def test_clamped_at_zero(self):
        value = log_likelihood(0.0, 1, 1e-9)
        assert value == pytest.approx(math.log(1e-9), abs=1e-9)
        assert log_likelihood_clamped(0.0, 1, 1e-9)
        assert not log_likelihood_clamped(0.4, 1, 1e-9)

    def test_eps_domain(self):
        with pytest.raises(InvalidAlpha):
            log_likelihood(0.5, 1, eps=0.5)

    @given(probs, st.integers(0, 1))
    def test_matches_oracle(self, p, o):
        assert log_likelihood(p, o) == pytest.approx(
            oracles.log_likelihood_oracle(p, o), abs=1e-12
        )

    @given(probs, st.integers(0, 1))
    def test_never_positive(self, p, o):
        assert log_likelihood(p, o) <= 0.0


class TestEceMce:
    def test_single_bin_hand_value(self):
        pairs = [(0.9, 1)] * 50
        ece, mce, bins = ece_mce(pairs)
        assert ece == pytest.approx(0.1, abs=1e-12)
        assert mce == pytest.approx(0.1, abs=1e-12)

    def test_calibrated_synthetic(self):
        rng = np.random.default_rng(5)
        p = rng.uniform(0.0, 1.0, size=100_000)
        o = (rng.random(100_000) < p).astype(int)
        ece, mce, _ = ece_mce(list(zip(p, o)))
        assert ece < 0.01

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            ece_mce([])
        with pytest.raises(EmptyInput):
            ece_mce([(0.5, 1)], bins=1)

    def test_bins_partition_and_counts(self):
        pairs = [(0.05, 0), (0.5, 1), (0.95, 1), (1.0, 1)]
        _, _, bins = ece_mce(pairs, bins=10)
        assert len(bins) == 10
        assert bins[0].bin_low == 0.0 and bins[-1].bin_high == 1.0
        assert sum(b.count for b in bins) == len(pairs)
        # p=1.0 lands in the top bin
        assert bins[-1].count == 2

    @given(
        st.lists(st.tuples(probs, st.integers(0, 1)), min_size=1, max_size=200),
        st.integers(2, 20),
    )
    @settings(max_examples=100)
    def test_matches_oracle_and_mce_dominates(self, pairs, bins):
        ece, mce, _ = ece_mce(pairs, bins)
        o_ece, o_mce = oracles.ece_mce_oracle(pairs, bins)
        assert ece == pytest.approx(o_ece, abs=1e-9)
        assert mce == pytest.approx(o_mce, abs=1e-9)
        assert mce >= ece - 1e-12

    def test_csv_export(self):
        _, _, bins = ece_mce([(0.3, 0), (0.8, 1)], bins=4)
        buf = io.StringIO()
        reliability_bins_to_csv(bins, buf)
        lines = buf.getvalue().strip().splitlines()
        assert lines[0] == "bin_low,bin_high,mean_confidence,empirical_accuracy,count"
        assert len(lines) == 5


class TestNarrativeDrift:
    def test_identical(self):
        assert narrative_drift("same trace here", "same trace here") == 0.0

    def test_disjoint(self):
        assert narrative_drift("alpha beta", "gamma delta") == 1.0

    def test_hand_jaccard(self):
        # {a b c d} vs {a b e f}: 1 - 2/6
        assert narrative_drift("a b c d", "a b e f") == pytest.approx(2 / 3, abs=1e-12)

    def test_both_empty(self):
        assert narrative_drift("", "") == 0.0

    def test_case_and_punctuation_ignored(self):
        assert narrative_drift("Hello, world!", "hello world") == 0.0

    @given(st.text(max_size=100), st.text(max_size=100))
    @settings(max_examples=100)
    def test_matches_oracle(self, a, b):
        assert narrative_drift(a, b) == pytest.approx(
            oracles.narrative_drift_oracle(a, b), abs=1e-12
        )

    @given(st.text(max_size=100), st.text(max_size=100))
    def test_bounded_and_symmetric(self, a, b):
        d = narrative_drift(a, b)
        assert 0.0 <= d <= 1.0
        assert d == narrative_drift(b, a)

    def test_set_core_agrees_with_trace_form(self):
        a, b = "Edge 0.05 beats, the market", "the market beats edge"
        assert narrative_drift_sets(token_set(a), token_set(b)) == narrative_drift(a, b)
        assert narrative_drift_sets(frozenset(), frozenset()) == 0.0


# Text that mixes letters and digits of many scripts with underscores,
# combining marks, whitespace and punctuation.
_TRACE_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from("_ \t\n.,-'\u0301\u0308\u20dd\u0130\u00df\u2167\u00bd\u0663\u17e0"),
        st.characters(categories=("L", "M", "N", "P", "Z")),
        st.characters(),
    ),
    max_size=80,
)


class TestTokenSet:
    @given(_TRACE_TEXT)
    @settings(max_examples=300)
    def test_matches_isalnum_loop(self, text):
        assert token_set(text) == oracles.token_set_oracle(text)

    def test_token_class_is_isalnum_on_every_code_point(self):
        import sys

        from driftmark.metrics import _TOKEN

        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert bool(_TOKEN.fullmatch(ch)) == ch.isalnum(), hex(code)

    def test_underscore_and_marks_split_tokens(self):
        assert token_set("snake_case x\u0301y 42nd") == {"snake", "case", "x", "y", "42nd"}


class TestTemporalDrift:
    def test_difference_hand_value(self):
        assert temporal_drift(0.40, 0.60, 0.50, 0.55, "difference") == pytest.approx(
            0.15, abs=1e-12
        )

    def test_product_hand_value(self):
        assert temporal_drift(0.40, 0.60, 0.50, 0.55, "product") == pytest.approx(
            0.01, abs=1e-12
        )

    def test_no_change(self):
        assert temporal_drift(0.4, 0.4, 0.5, 0.5, "difference") == 0.0
        assert temporal_drift(0.4, 0.4, 0.5, 0.5, "product") == 0.0

    def test_unknown_form(self):
        with pytest.raises(ValueError):
            temporal_drift(0.4, 0.5, 0.5, 0.5, "quotient")

    @given(probs, probs, probs, probs, st.sampled_from(["difference", "product"]))
    def test_matches_oracle(self, a, b, c, d, form):
        assert temporal_drift(a, b, c, d, form) == pytest.approx(
            oracles.temporal_drift_oracle(a, b, c, d, form), abs=1e-12
        )


class TestConfidenceDrift:
    def test_bin_gap(self):
        # history in the 0.8 decile with 70% accuracy
        history = [(0.8, 1)] * 7 + [(0.8, 0)] * 3
        value, low = confidence_drift(0.8, history)
        assert value == pytest.approx(0.1, abs=1e-12)
        assert not low

    def test_empty_history_flagged(self):
        value, low = confidence_drift(0.8, [])
        assert value == 0.0 and low

    def test_empty_bin_flagged(self):
        history = [(0.99, 1)] * 5  # decile 9 only
        value, low = confidence_drift(0.55, history)  # decile 5
        assert value == 0.0 and low

    def test_calibrated_history_small_drift(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.0, 1.0, size=50_000)
        o = (rng.random(50_000) < p).astype(int)
        history = list(zip(p, o))
        drifts = [confidence_drift(x, history)[0] for x in (0.55, 0.65, 0.75, 0.85)]
        assert all(d < 0.05 for d in drifts)

    def test_matches_oracle_and_table_path(self):
        from driftmark.metrics import confidence_drift_from_table, decile_accuracy_table

        rng = np.random.default_rng(23)
        for _ in range(200):
            n = int(rng.integers(0, 40))
            history = [
                (float(rng.uniform(0, 1)), int(rng.integers(0, 2))) for _ in range(n)
            ]
            x = float(rng.uniform(0, 1))
            got = confidence_drift(x, history)
            want = oracles.confidence_drift_oracle(x, history)
            assert got[0] == pytest.approx(want[0], abs=1e-12)
            assert got[1] == want[1]
            if history:
                table = decile_accuracy_table(history)
                assert confidence_drift_from_table(x, table) == got


class TestMarketDivergence:
    def test_identical(self):
        assert market_divergence([0.3, 0.4], [0.3, 0.4]) == 0.0

    def test_hand_value(self):
        assert market_divergence([0.6, 0.7], [0.5, 0.5]) == pytest.approx(0.15, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            market_divergence([0.1, 0.2, 0.3], [0.1, 0.2])

    @given(st.lists(st.tuples(probs, probs), min_size=1, max_size=50))
    def test_matches_oracle(self, pairs):
        ps = [p for p, _ in pairs]
        ms = [m for _, m in pairs]
        assert market_divergence(ps, ms) == pytest.approx(
            oracles.market_divergence_oracle(ps, ms), abs=1e-12
        )


class TestBaselineDelta:
    def test_signed_difference(self):
        assert baseline_delta(0.20, 0.18) == pytest.approx(0.02, abs=1e-15)
        assert baseline_delta(0.3, 0.3) == 0.0

    def test_vs_uniform_constant(self):
        assert baseline_delta(0.19, 0.25) == pytest.approx(-0.06, abs=1e-15)


class TestVarCvar:
    def test_coin_flip_full_loss(self):
        var, cvar = var_cvar(10_000, 0.5, 0.5)
        assert var == 10_000 and cvar == 10_000

    def test_favorite_gain_branch(self):
        var, cvar = var_cvar(10_000, 0.99, 0.99)
        assert var == pytest.approx(-10_000 * (1 / 0.99 - 1), abs=1e-9)
        assert cvar >= var

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            var_cvar(10_000, 0.5, 0.5, alpha=0.7)

    def test_zero_price(self):
        with pytest.raises(ZeroPrice):
            var_cvar(10_000, 0.0, 0.5)

    def test_thousand_random_draws_match_enumeration(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            size = int(rng.integers(1, 50_000))
            price = float(rng.uniform(0.01, 0.99))
            p_win = float(rng.uniform(0.0, 1.0))
            alpha = float(rng.uniform(0.01, 0.49))
            got = var_cvar(size, price, p_win, alpha)
            want = oracles.var_cvar_oracle(size, price, p_win, alpha)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)
            assert got[1] >= got[0] - 1e-9


class TestRiskCategory:
    def _cat(self, risk):
        return EventCategory(risk, Domain.ECONOMIC, Horizon.SHORT)

    def test_volatility_override(self):
        assert risk_category(self._cat(Risk.LOW), 0.20) == Risk.HIGH

    def test_direct_mapping(self):
        assert risk_category(self._cat(Risk.MEDIUM), 0.01) == Risk.MEDIUM
        assert risk_category(self._cat(Risk.LOW), 0.01) == Risk.LOW
        assert risk_category(self._cat(Risk.HIGH), 0.0) == Risk.HIGH

    def test_volatility_window(self):
        assert price_volatility([0.5, 0.5, 0.5, 0.5]) == 0.0
        assert price_volatility([0.5]) == 0.0
        assert price_volatility([0.2, 0.8, 0.2, 0.8], window=3) > 0.2


class TestHHIS:
    def test_all_perfect(self):
        assert hhis(1.0, 1.0, 0.0, 1.0, 1.0) == 1.0

    def test_all_worst(self):
        assert hhis(0.0, 0.0, 1.0, 0.0, 0.0) == 0.0

    def test_hand_value(self):
        assert hhis(0.8, 0.7, 0.2, 0.6, 0.5) == pytest.approx(0.705, abs=1e-9)

    def test_weights_must_normalize(self):
        with pytest.raises(WeightsNotNormalized):
            hhis(1, 1, 0, 1, 1, weights=(0.5, 0.5, 0.5, 0.1, 0.1))
        with pytest.raises(WeightsNotNormalized):
            hhis(1, 1, 0, 1, 1, weights=(1.0,))

    def test_drift_clamped(self):
        assert hhis(0.5, 0.5, 5.0, 0.5, 0.5) == hhis(0.5, 0.5, 1.0, 0.5, 0.5)
        assert hhis(0.5, 0.5, -3.0, 0.5, 0.5) == hhis(0.5, 0.5, 0.0, 0.5, 0.5)

    @given(probs, probs, st.floats(-2, 3), probs, probs)
    @settings(max_examples=300)
    def test_matches_oracle(self, c, cal, d, r, q):
        assert hhis(c, cal, d, r, q) == pytest.approx(
            oracles.hhis_oracle(c, cal, d, r, q), abs=1e-9
        )

    def test_monotonicity_random_tuples(self):
        rng = np.random.default_rng(77)
        for _ in range(2000):
            c, cal, r, q = rng.uniform(0, 1, 4)
            d = rng.uniform(-0.5, 1.5)
            bump = rng.uniform(0.01, 0.3)
            base = hhis(c, cal, d, r, q)
            assert hhis(min(c + bump, 1), cal, d, r, q) >= base - 1e-12
            assert hhis(c, min(cal + bump, 1), d, r, q) >= base - 1e-12
            assert hhis(c, cal, d + bump, r, q) <= base + 1e-12
            assert hhis(c, cal, d, min(r + bump, 1), q) >= base - 1e-12
            assert hhis(c, cal, d, r, min(q + bump, 1)) >= base - 1e-12


class TestComposites:
    def test_reasoning_quality(self):
        assert reasoning_quality(0.0, 0.0) == 1.0
        assert reasoning_quality(1.0, 1.0) == 0.0
        assert reasoning_quality(0.4, 0.2) == pytest.approx(0.7, abs=1e-12)

    def test_alignment_self_correlation(self):
        xs = [1.0, 2.0, 3.0, 4.0]
        assert confidence_reasoning_alignment(xs, xs) == pytest.approx(1.0, abs=1e-9)
        assert confidence_reasoning_alignment(xs, [-x for x in xs]) == pytest.approx(
            -1.0, abs=1e-9
        )

    def test_alignment_degenerate(self):
        with pytest.raises(DegenerateInput):
            confidence_reasoning_alignment([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(DegenerateInput):
            confidence_reasoning_alignment([1.0, 2.0], [0.1, 0.2])
        with pytest.raises(LengthMismatch):
            confidence_reasoning_alignment([1.0, 2.0, 3.0], [0.1, 0.2])

    def test_overconfidence_index_sign(self):
        overconfident = [(0.9, 0)] * 10 + [(0.9, 1)] * 10  # stated 0.9, hit rate 0.5
        assert overconfidence_index(overconfident) > 0.3

    def test_confidence_stability(self):
        assert confidence_stability([5, 5, 5, 5]) == 0.0
        assert confidence_stability([4]) == 0.0
        assert confidence_stability([0, 10]) == 5.0

    def test_risk_adjusted_return(self):
        assert risk_adjusted_return(100, [0, 0, 0]) is None
        assert risk_adjusted_return(100, [50]) is None
        value = risk_adjusted_return(300, [100, 200, 0])
        assert value == pytest.approx(300 / np.std([100, 200, 0]), abs=1e-9)


class TestReports:
    def test_drift_report_exact_sum(self):
        report = drift_report(0.1, 0.2, 0.3, 0.05)
        assert report.d_total == 0.1 + 0.2 + 0.3

    def test_score_forecasts_uniform(self):
        report = score_forecasts([(0.5, 1), (0.5, 0), (0.5, 1)])
        assert report.brier == 0.25
        assert report.sample_size == 3

    def test_risk_report_invariants(self):
        with pytest.raises(ValueError):
            RiskReport(risk_category=Risk.HIGH, var=None, cvar=None)
        with pytest.raises(ValueError):
            RiskReport(risk_category=Risk.HIGH, var=10.0, cvar=5.0)
        with pytest.raises(ValueError):
            RiskReport(risk_category=Risk.LOW, var=10.0, cvar=15.0)
        ok = RiskReport(risk_category=Risk.HIGH, var=10.0, cvar=15.0)
        assert ok.to_dict()["cvar"] == 15.0
