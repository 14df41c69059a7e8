"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately written as plain loops and explicit
enumeration, sharing no code path with the package.
"""

from __future__ import annotations

import math


def brier_oracle(p: float, outcome: int) -> float:
    diff = p - outcome
    return diff * diff


def log_likelihood_oracle(p: float, outcome: int, eps: float = 1e-9) -> float:
    if outcome == 1:
        chosen = p
    else:
        chosen = 1.0 - p
    if chosen < eps:
        chosen = eps
    if chosen > 1.0 - eps:
        chosen = 1.0 - eps
    return math.log(chosen)


def ece_mce_oracle(pairs, bins: int = 10):
    buckets: dict[int, list[tuple[float, int]]] = {}
    for p, o in pairs:
        idx = int(p * bins)
        if idx >= bins:
            idx = bins - 1
        buckets.setdefault(idx, []).append((p, o))
    n = len(pairs)
    ece = 0.0
    mce = 0.0
    for idx, members in buckets.items():
        conf = sum(p for p, _ in members) / len(members)
        acc = sum(o for _, o in members) / len(members)
        gap = abs(acc - conf)
        ece += len(members) / n * gap
        if gap > mce:
            mce = gap
    return ece, mce


def _tokens_oracle(text: str) -> set[str]:
    cleaned = []
    for ch in text.lower():
        if ch.isalnum() or ch.isspace():
            cleaned.append(ch)
        else:
            cleaned.append(" ")
    return set("".join(cleaned).split())


def token_set_oracle(text: str) -> frozenset[str]:
    """Maximal runs of ``str.isalnum`` characters of the lowercased text,
    scanned one character at a time."""
    tokens = set()
    current: list[str] = []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            tokens.add("".join(current))
            current.clear()
    if current:
        tokens.add("".join(current))
    return frozenset(tokens)


def render_instruction_oracle(template: str, values: dict[str, str]) -> str:
    """Replace each ``{{ key }}`` left to right in one scan; a value is never
    rescanned."""
    out = []
    pos = 0
    while True:
        start = template.find("{{", pos)
        if start < 0:
            out.append(template[pos:])
            return "".join(out)
        end = template.find("}}", start + 2)
        key = template[start + 2:end].strip() if end >= 0 else ""
        if end < 0 or not key or not all(c.isascii() and (c.isalnum() or c in "_.") for c in key):
            out.append(template[pos:start + 1])
            pos = start + 1
            continue
        out.append(template[pos:start])
        out.append(values[key])
        pos = end + 2


def narrative_drift_oracle(prev: str, curr: str) -> float:
    a = _tokens_oracle(prev)
    b = _tokens_oracle(curr)
    if not a and not b:
        return 0.0
    inter = len([t for t in a if t in b])
    union = len(a) + len(b) - inter
    return 1.0 - inter / union


def temporal_drift_oracle(p_prev, p_curr, m_prev, m_curr, form: str) -> float:
    move_p = p_curr - p_prev
    if move_p < 0:
        move_p = -move_p
    move_m = m_curr - m_prev
    if move_m < 0:
        move_m = -move_m
    if form == "difference":
        return move_p - move_m
    return move_p * move_m


def var_cvar_oracle(size_cents: int, price: float, p_win: float, alpha: float):
    atoms = [
        (-size_cents * (1.0 / price - 1.0), p_win),
        (float(size_cents), 1.0 - p_win),
    ]
    atoms.sort(key=lambda t: t[0])
    var = None
    for level, _ in atoms:
        tail = sum(weight for value, weight in atoms if value > level)
        if tail <= alpha:
            var = level
            break
    assert var is not None
    kept = [(value, weight) for value, weight in atoms if value >= var]
    total = sum(weight for _, weight in kept)
    cvar = sum(value * weight for value, weight in kept) / total
    return var, cvar


def hhis_oracle(c, cal, d, r, q, weights=(0.2, 0.2, 0.3, 0.15, 0.15)) -> float:
    if d < 0.0:
        d = 0.0
    if d > 1.0:
        d = 1.0
    w1, w2, w3, w4, w5 = weights
    return w1 * c + w2 * cal + w3 * (1.0 - d) + w4 * r + w5 * q


def expected_return_oracle(prob: float, bet_cents: int, price: float) -> int:
    gain = prob * bet_cents * (1.0 / price - 1.0)
    loss = (1.0 - prob) * bet_cents
    value = gain - loss
    # round-half-even by hand via float formatting
    floor = math.floor(value)
    frac = value - floor
    if frac > 0.5:
        return floor + 1
    if frac < 0.5:
        return floor
    return floor + 1 if floor % 2 else floor


def market_divergence_oracle(series_p, series_m) -> float:
    total = 0.0
    for p, m in zip(series_p, series_m):
        gap = p - m
        if gap < 0:
            gap = -gap
        total += gap
    return total / len(series_p)


def confidence_drift_oracle(p_curr, resolved_history):
    if p_curr >= 0.5:
        conf = p_curr
    else:
        conf = 1.0 - p_curr
    decile = int(conf * 10)
    if decile > 9:
        decile = 9
    right = 0
    total = 0
    for p, outcome in resolved_history:
        c = p if p >= 0.5 else 1.0 - p
        d = int(c * 10)
        if d > 9:
            d = 9
        if d != decile:
            continue
        total += 1
        predicted_yes = p >= 0.5
        if (predicted_yes and outcome == 1) or (not predicted_yes and outcome == 0):
            right += 1
    if total == 0:
        return 0.0, True
    gap = conf - right / total
    if gap < 0:
        gap = -gap
    return gap, False


def calibration_adjustment_oracle(entries_pnl, window_size, stated_prob, penalty=-0.05):
    n = len(entries_pnl)
    if n == 0:
        return 0.5, 0.0
    wins = len([x for x in entries_pnl if x > 0])
    rate = (wins + 1) / (n + 2) if n < window_size else wins / n
    return rate, (penalty if rate < stated_prob else 0.0)
