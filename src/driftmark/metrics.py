"""Scoring stack: correctness, calibration, drift, divergence, risk, composites.

Everything here is a pure function. Money is integer cents on the way in;
risk figures come back as float cents since they are expectations, not
ledger movements.
"""

from __future__ import annotations

import csv
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyInput,
    InvalidAlpha,
    LengthMismatch,
    WeightsNotNormalized,
    ZeroPrice,
)
from .market_data import EventCategory, Risk

DEFAULT_HHIS_WEIGHTS = (0.2, 0.2, 0.3, 0.15, 0.15)



# --- correctness ------------------------------------------------------------


def brier(p: float, outcome: int) -> float:
    """Squared error of a probability against a binary outcome."""
    return (p - outcome) ** 2


def log_likelihood(p: float, outcome: int, eps: float = 1e-9) -> float:
    """ln of the probability assigned to the realized outcome, clamped at eps."""
    if not (0.0 < eps <= 0.01):
        raise InvalidAlpha(f"eps must be in (0, 0.01], got {eps}")
    p_outcome = p if outcome == 1 else 1.0 - p
    return math.log(min(max(p_outcome, eps), 1.0 - eps))


def log_likelihood_clamped(p: float, outcome: int, eps: float = 1e-9) -> bool:
    """True when the clamp in ``log_likelihood`` would bind."""
    p_outcome = p if outcome == 1 else 1.0 - p
    return p_outcome < eps or p_outcome > 1.0 - eps


def accuracy(pairs: Sequence[tuple[float, int]]) -> float:
    """Thresholded correctness rate: predict YES iff p >= 0.5."""
    if not pairs:
        raise EmptyInput("accuracy needs at least one forecast")
    hits = sum(1 for p, o in pairs if (p >= 0.5) == (o == 1))
    return hits / len(pairs)


# --- calibration ------------------------------------------------------------


@dataclass(frozen=True)
class ReliabilityBin:
    bin_low: float
    bin_high: float
    mean_confidence: float | None
    empirical_accuracy: float | None
    count: int

    def to_dict(self) -> dict:
        return {
            "bin_low": self.bin_low,
            "bin_high": self.bin_high,
            "mean_confidence": self.mean_confidence,
            "empirical_accuracy": self.empirical_accuracy,
            "count": self.count,
        }


def ece_mce(
    forecasts: Sequence[tuple[float, int]], bins: int = 10
) -> tuple[float, float, list[ReliabilityBin]]:
    """Expected and maximum calibration error over equal-width bins.

    Empty bins are excluded from both statistics but still appear in the
    returned bin list (count 0) so the bins always partition [0, 1].
    """
    if bins < 2:
        raise EmptyInput(f"need at least 2 bins, got {bins}")
    if len(forecasts) == 0:
        raise EmptyInput("ece_mce needs at least one forecast")
    p = np.asarray([f[0] for f in forecasts], dtype=float)
    y = np.asarray([f[1] for f in forecasts], dtype=float)
    return _ece_mce(p, y, bins)


def _ece_mce(
    p: np.ndarray, y: np.ndarray, bins: int
) -> tuple[float, float, list[ReliabilityBin]]:
    idx = np.minimum((p * bins).astype(int), bins - 1)
    n = float(len(p))
    ece = 0.0
    mce = 0.0
    out: list[ReliabilityBin] = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        low, high = b / bins, (b + 1) / bins
        if count == 0:
            out.append(ReliabilityBin(low, high, None, None, 0))
            continue
        conf = float(p[mask].mean())
        acc = float(y[mask].mean())
        gap = abs(acc - conf)
        ece += (count / n) * gap
        mce = max(mce, gap)
        out.append(ReliabilityBin(low, high, conf, acc, count))
    return ece, mce, out


def reliability_bins_to_csv(bins_list: Sequence[ReliabilityBin], destination) -> None:
    """Write bins as CSV to a file-like object (for external plotting)."""
    writer = csv.writer(destination)
    writer.writerow(["bin_low", "bin_high", "mean_confidence", "empirical_accuracy", "count"])
    for b in bins_list:
        writer.writerow(
            [
                b.bin_low,
                b.bin_high,
                "" if b.mean_confidence is None else b.mean_confidence,
                "" if b.empirical_accuracy is None else b.empirical_accuracy,
                b.count,
            ]
        )


# --- drift --------------------------------------------------------------------


# Maximal runs of the characters ``str.isalnum`` accepts: ``\w`` minus "_".
_TOKEN = re.compile(r"[^\W_]+")
# ASCII text takes a byte-level path: every byte that is not alphanumeric
# becomes a space, and the rest splits on whitespace. Bytes above 127 never
# reach the table.
_ASCII_TOKEN_BYTES = bytes(c if c < 128 and chr(c).isalnum() else 32 for c in range(256))


def token_set(trace: str) -> frozenset[str]:
    """Maximal runs of alphanumeric characters, lowercased."""
    lowered = trace.lower()
    if lowered.isascii():
        return frozenset(lowered.encode().translate(_ASCII_TOKEN_BYTES).decode().split())
    return frozenset(_TOKEN.findall(lowered))


def narrative_drift_sets(a: frozenset[str], b: frozenset[str]) -> float:
    """1 - Jaccard similarity of two token sets; two empties agree."""
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


def narrative_drift(trace_prev: str, trace_curr: str) -> float:
    """1 - Jaccard similarity of the traces' token sets; two empties agree."""
    return narrative_drift_sets(token_set(trace_prev), token_set(trace_curr))


def temporal_drift(
    p_prev: float, p_curr: float, m_prev: float, m_curr: float, form: str = "difference"
) -> float:
    """Probability movement unexplained by (difference) or scaled by (product)
    the market's own movement."""
    dp = abs(p_curr - p_prev)
    dm = abs(m_curr - m_prev)
    if form == "difference":
        return dp - dm
    if form == "product":
        return dp * dm
    raise ValueError(f"unknown temporal drift form {form!r}")


def implied_confidence(p: float) -> float:
    return max(p, 1.0 - p)


def decile_accuracy_table(
    resolved_history: Sequence[tuple[float, int]]
) -> list[float | None]:
    """Empirical favorite-side accuracy per implied-confidence decile.

    One pass over the history; ``None`` marks empty deciles. Feeding the
    result to ``confidence_drift_from_table`` is equivalent to calling
    ``confidence_drift`` per forecast, just without the rescan.
    """
    hits = [0] * 10
    counts = [0] * 10
    for p, outcome in resolved_history:
        idx = min(int(implied_confidence(p) * 10), 9)
        counts[idx] += 1
        if (p >= 0.5) == (outcome == 1):
            hits[idx] += 1
    return [hits[i] / counts[i] if counts[i] else None for i in range(10)]


def confidence_drift_from_table(
    p_curr: float, table: Sequence[float | None]
) -> tuple[float, bool]:
    conf = implied_confidence(p_curr)
    acc = table[min(int(conf * 10), 9)]
    if acc is None:
        return 0.0, True
    return abs(conf - acc), False


def confidence_drift(
    p_curr: float, resolved_history: Sequence[tuple[float, int]]
) -> tuple[float, bool]:
    """Gap between implied confidence and the empirical accuracy of past
    forecasts in the same confidence decile.

    Returns (drift, low_evidence); low_evidence marks an empty history or
    an empty decile bin, where the drift defaults to 0.
    """
    if not resolved_history:
        return 0.0, True
    return confidence_drift_from_table(p_curr, decile_accuracy_table(resolved_history))


def confidence_drifts(probs: Sequence[float], outcomes: Sequence[int]) -> list[float]:
    """``confidence_drift`` of every forecast against the whole resolved
    history ``zip(probs, outcomes)``, bit for bit, in one pass over arrays.

    Every forecast lies in a decile its own history fills, so none is low
    evidence.
    """
    p = np.asarray(probs, dtype=float)
    conf = np.maximum(p, 1.0 - p)
    idx = np.minimum((conf * 10).astype(int), 9)
    hit = (p >= 0.5) == (np.asarray(outcomes) == 1)
    counts = np.bincount(idx, minlength=10)
    hits = np.bincount(idx[hit], minlength=10)
    return np.abs(conf - hits[idx] / counts[idx]).tolist()


def market_divergence(series_p: Sequence[float], series_m: Sequence[float]) -> float:
    """Mean absolute gap between a forecast series and the market's."""
    if len(series_p) != len(series_m):
        raise LengthMismatch(f"series lengths differ: {len(series_p)} vs {len(series_m)}")
    if not series_p:
        raise LengthMismatch("series must be non-empty")
    return float(np.mean(np.abs(np.asarray(series_p) - np.asarray(series_m))))


def baseline_delta(model_brier: float, baseline_brier: float) -> float:
    """Model Brier minus baseline Brier; negative means the model is better."""
    return model_brier - baseline_brier


# --- risk -----------------------------------------------------------------------


def var_cvar(
    size_cents: int, price: float, p_win: float, alpha: float = 0.05
) -> tuple[float, float]:
    """VaR and CVaR of one binary position's two-point loss law.

    Losing the bet costs the stake; winning pays size*(1/price - 1), i.e. a
    negative loss. VaR is the smallest loss level l with P(L > l) <= alpha,
    CVaR the expected loss beyond it.
    """
    if not (0.0 < alpha < 0.5):
        raise InvalidAlpha(f"alpha must be in (0, 0.5), got {alpha}")
    if price <= 0.0:
        raise ZeroPrice("price must be positive")
    loss_on_win = -size_cents * (1.0 / price - 1.0)
    loss_on_lose = float(size_cents)
    p_lose = 1.0 - p_win
    if p_lose > alpha:
        return loss_on_lose, loss_on_lose
    var = loss_on_win
    cvar = p_lose * loss_on_lose + p_win * loss_on_win
    return var, cvar


def _pairwise_sum(xs: list[float]) -> float:
    """``numpy.sum`` of a float64 vector, in numpy's order: sequential below
    8 elements, 8 interleaved accumulators up to 128, halves (cut at a
    multiple of 8) above. The built-in ``sum`` may compensate its rounding,
    so every addition here is explicit."""
    n = len(xs)
    if n < 8:
        total = 0.0
        for x in xs:
            total += x
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(xs[:half]) + _pairwise_sum(xs[half:])
    blocked = n - n % 8
    acc = xs[:8]
    for i in range(8, blocked, 8):
        acc = list(map(operator.add, acc, xs[i : i + 8]))
    a0, a1, a2, a3, a4, a5, a6, a7 = acc
    total = ((a0 + a1) + (a2 + a3)) + ((a4 + a5) + (a6 + a7))
    for x in xs[blocked:]:
        total += x
    return total


def price_volatility(prices: Sequence[float], window: int = 10) -> float:
    """Population stdev of the last ``window`` price changes (all of them
    when ``window`` is not positive); 0 when fewer than 2 changes. Equal bit
    for bit to ``numpy.std(numpy.diff(prices)[-window:])``: the same
    subtractions, correctly rounded divisions and square root, and
    ``_pairwise_sum`` for both sums."""
    p = list(map(float, prices))
    if window > 0:
        p = p[-window - 1 :]
    deltas = list(map(operator.sub, p[1:], p))
    n = len(deltas)
    if n < 2:
        return 0.0
    mean = _pairwise_sum(deltas) / n
    return math.sqrt(_pairwise_sum([(d - mean) * (d - mean) for d in deltas]) / n)


def risk_category(category: EventCategory, volatility: float, threshold: float = 0.08) -> Risk:
    """HIGH on a high-risk category or a volatility breach, else pass-through."""
    if category.risk == Risk.HIGH or volatility > threshold:
        return Risk.HIGH
    if category.risk == Risk.MEDIUM:
        return Risk.MEDIUM
    return Risk.LOW


def risk_adjusted_return(total_pnl_cents: int, per_cycle_pnl: Sequence[int]) -> float | None:
    """Total P&L over the stdev of per-cycle P&L; absent when flat."""
    if len(per_cycle_pnl) < 2:
        return None
    sd = float(np.std(np.asarray(per_cycle_pnl, dtype=float), ddof=0))
    if sd == 0.0:
        return None
    return total_pnl_cents / sd


# --- composites -------------------------------------------------------------------


def hhis(
    correctness: float,
    calibration: float,
    drift: float,
    risk: float,
    quality: float,
    weights: Sequence[float] = DEFAULT_HHIS_WEIGHTS,
) -> float:
    """Weighted composite of the five behavior axes; drift is clamped to [0,1]
    before entering so the score stays in [0,1]."""
    if len(weights) != 5:
        raise WeightsNotNormalized("exactly five weights required")
    if abs(math.fsum(weights) - 1.0) > 1e-12:
        raise WeightsNotNormalized(f"weights sum to {math.fsum(weights)!r}, not 1")
    d = min(max(drift, 0.0), 1.0)
    w1, w2, w3, w4, w5 = weights
    return math.fsum(
        [w1 * correctness, w2 * calibration, w3 * (1.0 - d), w4 * risk, w5 * quality]
    )


def reasoning_quality(d_narrative: float, d_confidence: float) -> float:
    """1 minus the mean of narrative and confidence drift."""
    return 1.0 - (d_narrative + d_confidence) / 2.0


def confidence_reasoning_alignment(
    confidences: Sequence[float], quality: Sequence[float]
) -> float:
    """Pearson correlation between stated confidence and reasoning quality."""
    if len(confidences) != len(quality):
        raise LengthMismatch(
            f"lengths differ: {len(confidences)} vs {len(quality)}"
        )
    if len(confidences) < 3:
        raise DegenerateInput("need at least 3 paired samples")
    c = np.asarray(confidences, dtype=float)
    q = np.asarray(quality, dtype=float)
    if float(np.std(c)) == 0.0 or float(np.std(q)) == 0.0:
        raise DegenerateInput("zero variance in an input series")
    return float(np.corrcoef(c, q)[0, 1])


def overconfidence_index(forecasts: Sequence[tuple[float, int]], bins: int = 10) -> float:
    """Count-weighted mean of signed (confidence - accuracy) across bins.

    Interpretation of the named diagnostic: positive values mean stated
    probability mass runs ahead of realized accuracy.
    """
    _, _, bin_list = ece_mce(forecasts, bins)
    total = sum(b.count for b in bin_list)
    signed = 0.0
    for b in bin_list:
        if b.count and b.mean_confidence is not None and b.empirical_accuracy is not None:
            signed += (b.count / total) * (b.mean_confidence - b.empirical_accuracy)
    return signed


def confidence_stability(confidences: Sequence[float]) -> float:
    """Stdev of stated confidence over time; 0 for fewer than two samples."""
    if len(confidences) < 2:
        return 0.0
    return float(np.std(np.asarray(confidences, dtype=float), ddof=0))


# --- report types ------------------------------------------------------------------


@dataclass(frozen=True)
class ScoreReport:
    brier: float
    log_likelihood: float
    accuracy: float
    ece: float
    mce: float
    reliability_bins: list[ReliabilityBin] = field(default_factory=list)
    clamped_count: int = 0
    sample_size: int = 0

    def to_dict(self) -> dict:
        return {
            "brier": self.brier,
            "log_likelihood": self.log_likelihood,
            "accuracy": self.accuracy,
            "ece": self.ece,
            "mce": self.mce,
            "reliability_bins": [b.to_dict() for b in self.reliability_bins],
            "clamped_count": self.clamped_count,
            "sample_size": self.sample_size,
        }


def score_forecasts(
    pairs: Sequence[tuple[float, int]], bins: int = 10, eps: float = 1e-9
) -> ScoreReport:
    """Full correctness + calibration report over (probability, outcome) pairs.

    Every value is bit for bit what ``brier``, ``log_likelihood``,
    ``log_likelihood_clamped`` and ``accuracy`` give per forecast; ``eps``
    is checked once for all of them.
    """
    if not pairs:
        raise EmptyInput("score_forecasts needs at least one forecast")
    if not (0.0 < eps <= 0.01):
        raise InvalidAlpha(f"eps must be in (0, 0.01], got {eps}")
    if bins < 2:
        raise EmptyInput(f"need at least 2 bins, got {bins}")
    p = np.asarray([f[0] for f in pairs], dtype=float)
    y = np.asarray([f[1] for f in pairs], dtype=float)
    chosen = np.where(y == 1, p, 1.0 - p)
    high = 1.0 - eps
    # ** and math.log stay per element: numpy's square and log may round
    # differently from the per-forecast definitions.
    briers = [d ** 2 for d in (p - y).tolist()]
    lls = list(map(math.log, np.minimum(np.maximum(chosen, eps), high).tolist()))
    ece, mce, bins_list = _ece_mce(p, y, bins)
    return ScoreReport(
        brier=float(np.mean(briers)),
        log_likelihood=float(np.mean(lls)),
        accuracy=int(((p >= 0.5) == (y == 1)).sum()) / len(pairs),
        ece=ece,
        mce=mce,
        reliability_bins=bins_list,
        clamped_count=int(((chosen < eps) | (chosen > high)).sum()),
        sample_size=len(pairs),
    )


@dataclass(frozen=True)
class DriftReport:
    d_narrative: float
    d_temporal: float
    d_confidence: float
    d_total: float
    market_divergence: float
    d_temporal_product: float = 0.0
    low_evidence: bool = False

    def to_dict(self) -> dict:
        return {
            "d_narrative": self.d_narrative,
            "d_temporal": self.d_temporal,
            "d_confidence": self.d_confidence,
            "d_total": self.d_total,
            "market_divergence": self.market_divergence,
            "d_temporal_product": self.d_temporal_product,
            "low_evidence": self.low_evidence,
        }


def drift_report(
    d_narrative: float,
    d_temporal: float,
    d_confidence: float,
    divergence: float,
    d_temporal_product: float = 0.0,
    low_evidence: bool = False,
) -> DriftReport:
    # d_total must be the exact float sum of its parts; never recompute it
    # from aggregated values elsewhere.
    return DriftReport(
        d_narrative=d_narrative,
        d_temporal=d_temporal,
        d_confidence=d_confidence,
        d_total=d_narrative + d_temporal + d_confidence,
        market_divergence=divergence,
        d_temporal_product=d_temporal_product,
        low_evidence=low_evidence,
    )


@dataclass(frozen=True)
class RiskReport:
    risk_category: Risk
    var: float | None = None
    cvar: float | None = None
    risk_adjusted_return: float | None = None

    def __post_init__(self):
        if self.risk_category == Risk.HIGH:
            if self.var is None or self.cvar is None:
                raise ValueError("HIGH risk requires var and cvar")
            if self.cvar < self.var:
                raise ValueError("cvar must be >= var")
        else:
            if self.var is not None or self.cvar is not None:
                raise ValueError("var/cvar only accompany HIGH risk")

    def to_dict(self) -> dict:
        return {
            "risk_category": self.risk_category.value,
            "var": self.var,
            "cvar": self.cvar,
            "risk_adjusted_return": self.risk_adjusted_return,
        }


@dataclass(frozen=True)
class CompositeScores:
    hhis: float
    reasoning_quality: float
    confidence_reasoning_alignment: float | None

    def to_dict(self) -> dict:
        return {
            "hhis": self.hhis,
            "reasoning_quality": self.reasoning_quality,
            "confidence_reasoning_alignment": self.confidence_reasoning_alignment,
        }
