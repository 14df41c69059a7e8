from __future__ import annotations

import ast
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmark import evalloop, metrics
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
    accuracy,
    brier,
    confidence_drifts,
    confidence_reasoning_alignment,
    ece_mce,
    hhis,
    log_likelihood,
    narrative_drift,
    narrative_drift_sets,
    price_volatility,
    reasoning_quality,
    reliability_bins_to_csv,
    risk_adjusted_return,
    risk_category,
    significance_test,
    token_set,
    score_forecasts,
    var_cvar,
)

import oracles
from oracles import temporal_drift

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
        assert score_forecasts([(0.0, 1)], eps=1e-9)["clamped_count"] == 1
        assert score_forecasts([(0.4, 1)], eps=1e-9)["clamped_count"] == 0

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
        assert bins[0]["bin_low"] == 0.0 and bins[-1]["bin_high"] == 1.0
        assert sum(b["count"] for b in bins) == len(pairs)
        # p=1.0 lands in the top bin
        assert bins[-1]["count"] == 2

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

    def test_every_ascii_code_point_alone_and_between_letters(self):
        # ASCII text takes the byte-table path; each code point must split or
        # join tokens exactly as str.isalnum says.
        for code in range(128):
            ch = chr(code)
            for text in (ch, f"ab{ch}cd", f"A{ch}{ch}z", f"{ch}x{ch}"):
                assert token_set(text) == oracles.token_set_oracle(text), repr(text)

    @given(st.text(alphabet=st.characters(max_codepoint=127), max_size=120))
    @settings(max_examples=300)
    def test_ascii_text_matches_isalnum_loop(self, text):
        assert token_set(text) == oracles.token_set_oracle(text)

    def test_text_lowered_to_ascii_takes_the_ascii_path(self):
        # KELVIN SIGN is not ASCII, but lowers to "k".
        assert token_set("\u212a_9 ok") == oracles.token_set_oracle("\u212a_9 ok") == {"k", "9", "ok"}


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
        drifts = confidence_drifts([0.8] * 10, [1] * 7 + [0] * 3)
        assert drifts == pytest.approx([0.1] * 10, abs=1e-12)

    def test_calibrated_history_small_drift(self):
        rng = np.random.default_rng(11)
        p = rng.uniform(0.0, 1.0, size=50_000)
        o = (rng.random(50_000) < p).astype(int)
        assert np.mean(confidence_drifts(p, o)) < 0.05

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


@st.composite
def _price_paths(draw):
    """0-300 prices in [0, 1]: free draws that include 0 and 1, or a walk of
    equal prices and 1e-6 steps."""
    if draw(st.booleans()):
        return draw(
            st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])), max_size=300)
        )
    price = draw(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1e-6, 0.5, 1.0])))
    steps = draw(st.lists(st.sampled_from([0.0, 0.0, 1e-6, -1e-6, 0.25]), max_size=299))
    path = [price]
    for step in steps:
        path.append(min(1.0, max(0.0, path[-1] + step)))
    return path


class TestPriceVolatility:
    """Pure-Python volatility equals numpy's float64 form bit for bit."""

    @given(_price_paths(), st.sampled_from([0, 1, 2, 7, 8, 9, 10, 16, 129, 200]))
    @settings(max_examples=400, deadline=None)
    # Ten changes: a sequential sum rounds differently from numpy's pairwise one.
    @example([0.62, 0.74, 0.8, 0.94, 0.74, 0.92, 0.03, 0.47, 0.94, 0.65, 0.9], 10)
    def test_equals_numpy(self, prices, window):
        assert price_volatility(prices, window) == oracles.price_volatility_oracle(prices, window)

    def test_reads_a_deque(self):
        from collections import deque

        prices = deque([0.1, 0.4, 0.35, 0.9, 0.2], maxlen=4)
        assert price_volatility(prices, 3) == oracles.price_volatility_oracle(list(prices), 3)


class TestPopulationStdev:
    """The stdev behind ``price_volatility`` and ``risk_adjusted_return``
    equals numpy's float64 form bit for bit."""

    @given(st.lists(st.integers(-(10**12), 10**12), min_size=2, max_size=300))
    @settings(max_examples=400, deadline=None)
    def test_equals_numpy_on_per_cycle_pnl(self, xs):
        """Lengths across numpy's 8- and 128-element sum blocks, and cents
        up to 10**12 in size."""
        expected = float(np.std(np.asarray(xs, dtype=float), ddof=0))
        assert metrics._pstdev(list(map(float, xs))) == expected
        total = sum(xs)
        assert risk_adjusted_return(total, xs) == (total / expected if expected else None)


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

    @given(
        st.integers(3, 300).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(0, 10).map(float) | st.floats(-1e6, 1e6),
                         min_size=n, max_size=n),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
            )
        )
    )
    # a constant series whose mean rounds away from its value
    @example(([0.1, 0.1, 0.1], [0.0, 0.5, 1.0]))
    @settings(max_examples=100, deadline=None)
    def test_alignment_equals_corrcoef(self, pair):
        """The pure-Python Pearson correlation is numpy's to 1e-12, and is
        degenerate exactly where a series is constant or numpy's standard
        deviation of it is 0."""
        c, q = pair
        constant = len(set(c)) == 1 or len(set(q)) == 1
        if constant or float(np.std(c)) == 0.0 or float(np.std(q)) == 0.0:
            with pytest.raises(DegenerateInput):
                confidence_reasoning_alignment(c, q)
            return
        r = confidence_reasoning_alignment(c, q)
        assert -1.0 <= r <= 1.0
        assert abs(r - float(np.corrcoef(c, q)[0, 1])) <= 1e-12

    def test_alignment_degenerate(self):
        with pytest.raises(DegenerateInput):
            confidence_reasoning_alignment([1.0, 1.0, 1.0], [0.1, 0.2, 0.3])
        with pytest.raises(DegenerateInput):
            confidence_reasoning_alignment([1.0, 2.0], [0.1, 0.2])
        with pytest.raises(LengthMismatch):
            confidence_reasoning_alignment([1.0, 2.0, 3.0], [0.1, 0.2])

    def test_risk_adjusted_return(self):
        assert risk_adjusted_return(100, [0, 0, 0]) is None
        assert risk_adjusted_return(100, [50]) is None
        value = risk_adjusted_return(300, [100, 200, 0])
        assert value == pytest.approx(300 / np.std([100, 200, 0]), abs=1e-9)


class TestReports:
    def test_score_forecasts_uniform(self):
        report = score_forecasts([(0.5, 1), (0.5, 0), (0.5, 1)])
        assert report["brier"] == 0.25
        assert report["sample_size"] == 3


# Probabilities with the edges and the decile boundary drawn often.
edge_probs = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), probs)
resolved = st.lists(st.tuples(edge_probs, st.integers(0, 1)), min_size=1, max_size=60)


class TestArrayScoringMatchesPerForecast:
    """The array forms used by the final-report fold equal the per-forecast
    definitions bit for bit (exact ==, no tolerance)."""

    @given(resolved)
    @example([(0.0, 0), (0.5, 1), (1.0, 1), (1.0, 0), (0.5, 0)])
    @example([(0.95, 1), (0.97, 0), (0.02, 0), (1.0, 1)])  # all in the top decile
    @example([(0.55, 1), (0.45, 1), (0.5, 0)])  # all in one middle decile
    def test_confidence_drifts_equal_the_per_forecast_oracle(self, pairs):
        probs_, outcomes = [p for p, _ in pairs], [o for _, o in pairs]
        assert confidence_drifts(probs_, outcomes) == [
            oracles.confidence_drift_oracle(p, pairs)[0] for p in probs_
        ]

    def test_confidence_drifts_of_nothing(self):
        assert confidence_drifts([], []) == []

    @given(
        resolved,
        st.integers(2, 20),
        st.one_of(st.sampled_from([1e-9, 0.01]), st.floats(min_value=1e-12, max_value=0.01)),
    )
    @example([(0.0, 0), (0.5, 1), (1.0, 1), (1.0, 0)], 10, 1e-9)
    @example([(0.995, 1), (0.004, 1), (0.3, 0)], 10, 0.01)  # the clamp binds inside (0, 1)
    @example([(0.91, 1), (0.99, 1), (0.95, 0)], 10, 1e-9)  # all in one bin
    def test_score_forecasts_equals_per_forecast_oracle(self, pairs, bins, eps):
        ece, mce, bins_list = ece_mce(pairs, bins)
        expected = {
            "brier": float(np.mean([brier(p, o) for p, o in pairs])),
            "log_likelihood": float(np.mean([log_likelihood(p, o, eps) for p, o in pairs])),
            "accuracy": accuracy(pairs),
            "ece": ece,
            "mce": mce,
            "reliability_bins": bins_list,
            "clamped_count": sum(
                1 for p, o in pairs if oracles.log_likelihood_clamped_oracle(p, o, eps)
            ),
            "sample_size": len(pairs),
        }
        assert score_forecasts(pairs, bins, eps) == expected

    def test_score_forecasts_checks_eps_and_bins_once(self):
        with pytest.raises(EmptyInput):
            score_forecasts([])
        with pytest.raises(InvalidAlpha):
            score_forecasts([(0.5, 1)], eps=0.0)
        with pytest.raises(InvalidAlpha):
            score_forecasts([(0.5, 1)], bins=1, eps=0.02)
        with pytest.raises(EmptyInput):
            score_forecasts([(0.5, 1)], bins=1)


class TestSignificance:
    def test_identical_scores_p_near_one(self):
        scores = list(np.linspace(0.1, 0.4, 50))
        assert significance_test(scores, scores, seed=1) > 0.9

    def test_separated_scores_tiny_p(self):
        a = [0.0] * 100
        b = [0.25] * 100
        assert significance_test(a, b, seed=1) < 0.001

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            significance_test([0.1] * 10, [0.1] * 9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        a = list(rng.uniform(0, 1, 40))
        b = list(rng.uniform(0, 1, 40))
        assert significance_test(a, b, seed=5) == significance_test(a, b, seed=5)

    def test_moderate_difference_detected(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0.1, 0.3, 200)
        a = list(base)
        b = list(base + 0.05)
        assert significance_test(a, b, seed=2) < 0.01

    def test_the_engine_imports_no_numpy(self):
        """numpy is off the path from manifest to log: ``evalloop`` imports
        none, and ``significance_test`` imports it when called."""
        tree = ast.parse(Path(evalloop.__file__).read_text(encoding="utf-8"))
        imported = [
            alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
            for alias in node.names
        ] + [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
        assert not [name for name in imported if name and name.split(".")[0] == "numpy"]

