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
from typing import Sequence

import numpy as np

from .config import MetricConfig
from .errors import (
    DegenerateInput,
    EmptyInput,
    InvalidAlpha,
    LengthMismatch,
    WeightsNotNormalized,
    ZeroPrice,
)
from .market_data import EventCategory, Risk


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


def accuracy(pairs: Sequence[tuple[float, int]]) -> float:
    """Thresholded correctness rate: predict YES iff p >= 0.5."""
    if not pairs:
        raise EmptyInput("accuracy needs at least one forecast")
    hits = sum(1 for p, o in pairs if (p >= 0.5) == (o == 1))
    return hits / len(pairs)


# --- calibration ------------------------------------------------------------


def ece_mce(
    forecasts: Sequence[tuple[float, int]], bins: int = 10
) -> tuple[float, float, list[dict]]:
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
) -> tuple[float, float, list[dict]]:
    idx = np.minimum((p * bins).astype(int), bins - 1)
    n = float(len(p))
    ece = 0.0
    mce = 0.0
    out: list[dict] = []
    for b in range(bins):
        mask = idx == b
        count = int(mask.sum())
        conf = acc = None
        if count:
            conf = float(p[mask].mean())
            acc = float(y[mask].mean())
            gap = abs(acc - conf)
            ece += (count / n) * gap
            mce = max(mce, gap)
        out.append(
            {
                "bin_low": b / bins,
                "bin_high": (b + 1) / bins,
                "mean_confidence": conf,
                "empirical_accuracy": acc,
                "count": count,
            }
        )
    return ece, mce, out


def reliability_bins_to_csv(bins_list: Sequence[dict], destination) -> None:
    """Write the bins ``ece_mce`` gives (at least two) as CSV to a file-like
    object (for external plotting); an empty value is an empty cell."""
    writer = csv.DictWriter(destination, fieldnames=list(bins_list[0]))
    writer.writeheader()
    writer.writerows(bins_list)


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
    shared = len(a & b)
    return 1.0 - shared / (len(a) + len(b) - shared)


def narrative_drift(trace_prev: str, trace_curr: str) -> float:
    """1 - Jaccard similarity of the traces' token sets; two empties agree."""
    return narrative_drift_sets(token_set(trace_prev), token_set(trace_curr))


def temporal_drifts(dp: float, dm: float) -> tuple[float, float]:
    """Both forms of temporal drift from the probability's move ``dp`` and
    the market's move ``dm``, each an absolute change: the movement
    unexplained by (difference) and scaled by (product) the market's own."""
    return dp - dm, dp * dm


def confidence_drifts(probs: Sequence[float], outcomes: Sequence[int]) -> list[float]:
    """Each forecast's confidence drift against the whole resolved history
    ``zip(probs, outcomes)``, in one pass over arrays: the gap between its
    implied confidence ``max(p, 1 - p)`` and the favorite-side accuracy of
    the history's forecasts in the same confidence decile.

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


def _pstdev(xs: list[float]) -> float:
    """Population stdev of a non-empty list of floats, equal bit for bit to
    ``numpy.std(xs, ddof=0)``: the same subtractions, correctly rounded
    divisions and square root, and ``_pairwise_sum`` for both sums."""
    n = len(xs)
    mean = _pairwise_sum(xs) / n
    return math.sqrt(_pairwise_sum([(x - mean) * (x - mean) for x in xs]) / n)


def price_volatility(prices: Sequence[float], window: int = 10) -> float:
    """Population stdev of the last ``window`` price changes (all of them
    when ``window`` is not positive); 0 when fewer than 2 changes. Equal bit
    for bit to ``numpy.std(numpy.diff(prices)[-window:])``."""
    p = list(map(float, prices))
    if window > 0:
        p = p[-window - 1 :]
    deltas = list(map(operator.sub, p[1:], p))
    if len(deltas) < 2:
        return 0.0
    return _pstdev(deltas)


def risk_category(category: EventCategory, volatility: float, threshold: float = 0.08) -> Risk:
    """HIGH on a high-risk category or a volatility breach, else pass-through."""
    if category.risk == Risk.HIGH or volatility > threshold:
        return Risk.HIGH
    if category.risk == Risk.MEDIUM:
        return Risk.MEDIUM
    return Risk.LOW


def risk_adjusted_return(total_pnl_cents: int, per_cycle_pnl: Sequence[int]) -> float | None:
    """Total P&L over the population stdev of per-cycle P&L; absent when flat."""
    if len(per_cycle_pnl) < 2:
        return None
    sd = _pstdev(list(map(float, per_cycle_pnl)))
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
    weights: Sequence[float] = MetricConfig.hhis_weights,
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
    """Pearson correlation between stated confidence ``c`` and reasoning
    quality ``q``::

        r = sum((c_i - mean(c)) * (q_i - mean(q)))
            / sqrt(sum((c_i - mean(c))**2)) / sqrt(sum((q_i - mean(q))**2))

    clipped to [-1, 1]. Every sum is ``_pairwise_sum``, and no BLAS kernel
    is involved, so the bits do not depend on the host's CPU. A series
    whose values are all equal, or whose deviations square to 0, has no
    variance: a ``DegenerateInput``."""
    if len(confidences) != len(quality):
        raise LengthMismatch(
            f"lengths differ: {len(confidences)} vs {len(quality)}"
        )
    n = len(confidences)
    if n < 3:
        raise DegenerateInput("need at least 3 paired samples")
    # Checked first, as it is cheap and every scripted agent's confidence is
    # constant.
    if min(confidences) == max(confidences) or min(quality) == max(quality):
        raise DegenerateInput("zero variance in an input series")
    c = [float(x) for x in confidences]
    q = [float(x) for x in quality]
    mean_c, mean_q = _pairwise_sum(c) / n, _pairwise_sum(q) / n
    dc = [x - mean_c for x in c]
    dq = [x - mean_q for x in q]
    scc = _pairwise_sum([d * d for d in dc])
    sqq = _pairwise_sum([d * d for d in dq])
    if scc == 0.0 or sqq == 0.0:
        raise DegenerateInput("zero variance in an input series")
    r = _pairwise_sum(list(map(operator.mul, dc, dq))) / math.sqrt(scc) / math.sqrt(sqq)
    return min(max(r, -1.0), 1.0)


# --- significance ------------------------------------------------------------------


def significance_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided paired bootstrap p-value for a difference in mean scores.

    The null distribution resamples the mean of centered paired differences;
    add-one smoothing keeps the p-value strictly positive. Its value is
    written to no log, so numpy stays here, imported on the first call.
    """
    import numpy as np

    if len(scores_a) != len(scores_b):
        raise LengthMismatch(f"paired scores differ in length: {len(scores_a)} vs {len(scores_b)}")
    if len(scores_a) == 0:
        raise LengthMismatch("need at least one paired score")
    diffs = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    observed = float(diffs.mean())
    centered = diffs - observed
    rng = np.random.default_rng([int(seed) & ((1 << 64) - 1), 0x51F7])
    n = len(diffs)
    hits = 0
    chunk = max(1, min(resamples, 2_000_000 // max(n, 1)))
    remaining = resamples
    while remaining > 0:
        take = min(chunk, remaining)
        idx = rng.integers(0, n, size=(take, n))
        means = centered[idx].mean(axis=1)
        hits += int(np.sum(np.abs(means) >= abs(observed)))
        remaining -= take
    return (1 + hits) / (resamples + 1)


# --- reports ------------------------------------------------------------------------


def score_forecasts(
    pairs: Sequence[tuple[float, int]], bins: int = 10, eps: float = 1e-9
) -> dict:
    """Full correctness + calibration report over (probability, outcome) pairs,
    as the ``score`` object of a final report.

    Every value is bit for bit what ``brier``, ``log_likelihood`` and
    ``accuracy`` give per forecast; ``clamped_count`` counts the forecasts
    whose ``log_likelihood`` clamp binds. ``eps`` is checked once for all
    of them.
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
    return {
        "brier": float(np.mean(briers)),
        "log_likelihood": float(np.mean(lls)),
        "accuracy": int(((p >= 0.5) == (y == 1)).sum()) / len(pairs),
        "ece": ece,
        "mce": mce,
        "reliability_bins": bins_list,
        "clamped_count": int(((chosen < eps) | (chosen > high)).sum()),
        "sample_size": len(pairs),
    }
