"""Independent brute-force implementations used to cross-check the library.

Everything here is deliberately written as plain loops and explicit
enumeration, sharing no code path with the package. The exceptions are
``price_volatility_oracle``, numpy's own float64 form: the reference the
package's pure-Python volatility must equal bit for bit; and
``read_log_oracle``, ``json.loads`` on each line: the reference the
package's event-log reader must equal value for value and error for error;
and ``generate_synthetic_oracle``, the synthetic generator with numpy's
clip, which uses the generator's own tables and helpers; and
``build_decision_batch_oracle``, the decision reply built as objects and
serialized from them, and ``validate_decision_batch_oracle``, which use
the agents' records and helpers; and
``temporal_drift``, ``metrics.temporal_drifts`` of one market's moves in
one form, and ``drift_means_oracle``, the drift means taken with it per
market.
The portfolio oracles at the end use the simulator's data types, and
nothing else of it.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, replace
from datetime import timedelta

import numpy as np

from driftmark import agents as ag
from driftmark import market_data as md
from driftmark.agents import Action
from driftmark.errors import AlreadyOpen, NoSuchPosition
from driftmark.metrics import temporal_drifts
from driftmark.simulator import EntryKind, Position, Side
from driftmark.timeutil import SYNTHETIC_START


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


def number_type_oracle(name: str, value) -> bool:
    """A value of ``schema``'s ``int``, ``number`` or ``probability`` type,
    one value at a time: its type exactly (a bool is no int), then a
    float's range, compared without converting, or [0, 1]."""
    if type(value) not in ((int,) if name == "int" else (int, float)):
        return False
    if name == "probability":
        return 0.0 <= value <= 1.0
    return abs(value) <= sys.float_info.max


def price_volatility_oracle(prices, window: int = 10) -> float:
    """``numpy.std`` of the last ``window`` price changes (all when
    ``window`` is not positive); 0 when fewer than 2 changes."""
    deltas = np.diff(np.asarray(prices, dtype=float))
    if window > 0:
        deltas = deltas[-window:]
    if deltas.size < 2:
        return 0.0
    return float(np.std(deltas, ddof=0))


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


def temporal_drift(
    p_prev: float, p_curr: float, m_prev: float, m_curr: float, form: str = "difference"
) -> float:
    """Probability movement unexplained by (difference) or scaled by (product)
    the market's own movement: the package's ``temporal_drifts`` of one
    market, which ``temporal_drift_oracle`` checks."""
    if form not in ("difference", "product"):
        raise ValueError(f"unknown temporal drift form {form!r}")
    difference, product = temporal_drifts(abs(p_curr - p_prev), abs(m_curr - m_prev))
    return difference if form == "difference" else product


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


def log_likelihood_clamped_oracle(p: float, outcome: int, eps: float = 1e-9) -> bool:
    """Whether ``log_likelihood_oracle``'s clamp changes the probability."""
    if outcome == 1:
        chosen = p
    else:
        chosen = 1.0 - p
    return chosen < eps or chosen > 1.0 - eps


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


def read_log_oracle(data: bytes):
    """The events of a JSONL log as ``json.loads`` reads it one line at a
    time: ``("events", [event, ...])``, or ``("error", line_no, reason)``
    for the first line that is not strict UTF-8, not JSON or not a JSON
    object. A line holds everything up to and including its ``"\\n"``;
    a blank line is skipped but counted."""
    pieces = data.split(b"\n")
    lines = [piece + b"\n" for piece in pieces[:-1]]
    if pieces[-1]:
        lines.append(pieces[-1])
    events = []
    for line_no, raw in enumerate(lines, start=1):
        try:
            text = raw.decode("utf-8", "strict")
        except UnicodeDecodeError as exc:
            return ("error", line_no, f"not UTF-8: {exc}")
        if text.strip() == "":
            continue
        try:
            value = json.loads(text)
        except (ValueError, RecursionError) as exc:
            return ("error", line_no, str(exc))
        if not isinstance(value, dict):
            return ("error", line_no, f"a {type(value).__name__}, not a JSON object")
        events.append(value)
    return ("events", events)


def generate_synthetic_oracle(seed: int, n_markets: int, steps: int, category_mix=None):
    """``market_data.generate_synthetic`` as it was written with ``np.clip``
    on each price of the walk: the same draws in the same order, and the
    generator's own tables, condition ids and band draw."""
    start = SYNTHETIC_START
    mix = None
    if category_mix:
        total = float(sum(category_mix.values()))
        mix = [(cat, w / total) for cat, w in category_mix.items()]
    seed = int(seed) & ((1 << 64) - 1)
    interval = timedelta(seconds=3600)
    domains, horizons = list(md.Domain), list(md.Horizon)
    snapshots_by_step = [[] for _ in range(steps)]
    outcomes, true_probs = [], {}
    for i in range(n_markets):
        rng = np.random.default_rng([seed, i])
        if mix is None:
            p_star = float(rng.uniform(0.02, 0.98))
            domain = domains[int(rng.integers(len(domains)))]
            horizon = horizons[int(rng.integers(len(horizons)))]
        else:
            u = float(rng.random())
            acc = 0.0
            cat = mix[-1][0]
            for candidate, w in mix:
                acc += w
                if u < acc:
                    cat = candidate
                    break
            p_star = md._draw_yes_band(rng, cat.risk)
            domain, horizon = cat.domain, cat.horizon
        cid = md._condition_id(seed, i)
        true_probs[cid] = p_star
        question = md._QUESTION_TEMPLATES[domain].format(i=i)
        liquidity = (md.Liquidity.HIGH, md.Liquidity.MEDIUM, md.Liquidity.LOW)[
            int(rng.choice(3, p=[0.5, 0.3, 0.2]))
        ]
        last_step_time = start + (steps - 1) * interval
        end_time = max(start + md._HORIZON_SPAN[horizon], last_step_time + interval)
        eps = 0.0
        for t in range(steps):
            eps = float(np.clip(0.8 * eps + rng.normal(0.0, 0.015), -0.03, 0.03))
            yes = float(np.clip(p_star + eps, 0.01, 0.99))
            spread = float(rng.uniform(-0.004, 0.004))
            no = float(np.clip(1.0 - yes + spread, 0.0, 1.0))
            snapshots_by_step[t].append(
                md.MarketSnapshot(cid, question, yes, no, liquidity, end_time, start + t * interval)
            )
        outcome = 1 if float(rng.random()) < p_star else 0
        outcomes.append(md.ResolvedOutcome(cid, outcome, end_time))
    flat = [s for step in snapshots_by_step for s in step]
    return md.SyntheticFeed(snapshots=flat, outcomes=outcomes, true_probs=true_probs)


# --- the per-row shape of a log ------------------------------------------------


def _rows(block: dict) -> list[dict]:
    """A block's per-row events: its kind without the plural ``s``, each
    key it holds once, and each list's value at the row's place."""
    lists = [key for key, value in block.items() if type(value) is list]
    once = {key: value for key, value in block.items() if key not in lists}
    once["kind"] = block["kind"][:-1]
    return [
        {**once, **{key: block[key][i] for key in lists}}
        for i in range(len(block[lists[0]]))
    ]


def named_markets_events(events) -> list[dict]:
    """``events`` as the versions before blocks named their markets by place
    wrote them: each ``forecasts`` and ``baselines`` block also holds
    ``condition_id``, the first markets of the last ``snapshots`` block
    before it, one per value. A block that names its markets is kept."""
    named: list[dict] = []
    markets: list[str] = []
    for ev in events:
        if ev["kind"] == "snapshots":
            markets = ev["condition_id"]
        elif ev["kind"] in ("forecasts", "baselines") and "condition_id" not in ev:
            ev = {**ev, "condition_id": markets[: len(ev["probability"])]}
        named.append(ev)
    return named


def per_entry_events(events) -> list[dict]:
    """``named_markets_events`` of ``events`` as the versions before ledgers
    blocks wrote them: each ``ledgers`` block becomes one ``ledger`` event
    per entry in its place, but for settlement's. There the versions before
    wrote each resolution followed by each agent's entry for its market,
    agent by agent, where blocks write every resolution and then one block
    per agent."""
    rows: list[dict] = []
    resolutions: list[dict] = []
    settled: list[dict] = []
    for ev in [*named_markets_events(events), None]:
        if ev is not None and ev["kind"] == "resolution" and not settled:
            resolutions.append(ev)
            continue
        if ev is not None and ev["kind"] == "ledgers" and resolutions:
            settled.extend(_rows(ev))
            continue
        placed = 0
        for resolution in resolutions:
            entries = [e for e in settled if e["condition_id"] == resolution["condition_id"]]
            rows += [resolution, *entries]
            placed += len(entries)
        assert placed == len(settled), "a settlement entry without its resolution"
        resolutions.clear()
        settled.clear()
        if ev is not None:
            rows.extend(_rows(ev) if ev["kind"] == "ledgers" else [ev])
    return rows


def per_row_events(events) -> list[dict]:
    """``events`` as the versions before blocks wrote them: each
    ``forecasts`` and ``snapshots`` block becomes one event per market in
    its place, each run of consecutive ``baselines`` blocks, one per
    baseline kind, becomes one event per market and kind, market by
    market, and the ledger entries are written as ``per_entry_events``
    writes them."""
    rows: list[dict] = []
    baselines: list[dict] = []
    for ev in [*per_entry_events(events), None]:
        if ev is not None and ev["kind"] == "baselines":
            baselines.append(ev)
            continue
        for per_kind in zip(*map(_rows, baselines)):
            rows.extend(per_kind)
        baselines.clear()
        if ev is not None:
            rows.extend(_rows(ev) if ev["kind"] in ("forecasts", "snapshots") else [ev])
    return rows


def previous_forecasts(events) -> dict[str, tuple[list, list, list]]:
    """Each agent's (markets, probabilities, traces) of its last forecasts
    block in a cycle that ended, read from ``named_markets_events``, but
    only of a cycle in which it logged no agent_failure."""
    previous: dict[str, tuple[list, list, list]] = {}
    blocks: dict[str, dict] = {}
    failed: set[str] = set()
    for ev in named_markets_events(events):
        if ev["kind"] == "forecasts":
            blocks[ev["agent_id"]] = ev
        elif ev["kind"] == "agent_failure":
            failed.add(ev["agent_id"])
        elif ev["kind"] == "cycle_end":
            for agent_id, block in blocks.items():
                if agent_id not in failed:
                    previous[agent_id] = (
                        block["condition_id"], block["probability"], block["trace"]
                    )
            blocks.clear()
            failed.clear()
    return previous


def agent_part(events, agent_id: str) -> list[dict]:
    """An agent's part of a log, in log order: each event of its own (its
    ``agent_id``, or a ``final_report`` of it as ``subject``) and, for each
    ``cycle_end``, its entry in ``portfolios`` (None for a subject without
    one, such as a baseline) as ``{"kind": "cycle_end", "cycle", "portfolio"}``."""
    part: list[dict] = []
    for ev in events:
        if ev.get("agent_id") == agent_id or ev.get("subject") == agent_id:
            part.append(ev)
        elif ev["kind"] == "cycle_end":
            part.append({
                "kind": "cycle_end", "cycle": ev["cycle"],
                "portfolio": ev["portfolios"].get(agent_id),
            })
    return part


def read_events(path) -> list[dict]:
    """A log's lines, each read with ``json.loads``."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def named_markets_shape(path) -> list[dict]:
    """``named_markets_events`` of a log's events."""
    return named_markets_events(read_events(path))


def per_row_shape(path) -> list[dict]:
    """``per_row_events`` of a log's events."""
    return per_row_events(read_events(path))


def per_entry_shape(path) -> list[dict]:
    """``per_entry_events`` of a log's events."""
    return per_entry_events(read_events(path))


# --- portfolio arithmetic, one function per operation --------------------------
# Each operation builds its portfolio with its own arithmetic, as the
# simulator did before every operation went through one transition.


def _value_cents_oracle(quantity_micro: int, price: float) -> int:
    return int(round(quantity_micro * price / 10_000.0))


def _side_price_oracle(side, snapshot) -> float:
    return snapshot.yes_price if side == Side.YES else snapshot.no_price


def open_oracle(portfolio, decision, snapshot, now):
    side = Side.YES if decision.action == Action.BUY_YES else Side.NO
    price = _side_price_oracle(side, snapshot)
    amount = decision.amount_cents
    position = Position(
        condition_id=decision.market_id,
        side=side,
        entry_price=price,
        quantity_micro=int(round(amount * 10_000.0 / price)),
        cost_basis_cents=amount,
        opened_at=now,
    )
    return replace(
        portfolio,
        available_cents=portfolio.available_cents - amount,
        deployed_cents=portfolio.deployed_cents + amount,
        open_positions=portfolio.open_positions + (position,),
        next_seq=portfolio.next_seq + 1,
    )


def close_oracle(portfolio, condition_id, snapshot, fraction=100):
    position = next(p for p in portfolio.open_positions if p.condition_id == condition_id)
    price = _side_price_oracle(position.side, snapshot)
    if fraction == 100:
        closed = position.quantity_micro
    else:
        closed = int(round(position.quantity_micro * fraction / 100.0))
    closed = max(1, min(closed, position.quantity_micro))
    released = int(round(position.cost_basis_cents * closed / position.quantity_micro))
    proceeds = _value_cents_oracle(closed, price)
    if closed == position.quantity_micro:
        positions = tuple(p for p in portfolio.open_positions if p.condition_id != condition_id)
    else:
        quantity = position.quantity_micro - closed
        basis = position.cost_basis_cents - released
        remaining = replace(
            position,
            quantity_micro=quantity,
            cost_basis_cents=basis,
            unrealized_pnl_cents=_value_cents_oracle(quantity, price) - basis,
        )
        positions = tuple(
            remaining if p.condition_id == condition_id else p for p in portfolio.open_positions
        )
    return replace(
        portfolio,
        total_capital_cents=portfolio.total_capital_cents + proceeds - released,
        available_cents=portfolio.available_cents + proceeds,
        deployed_cents=portfolio.deployed_cents - released,
        open_positions=positions,
        next_seq=portfolio.next_seq + 1,
    )


def resolve_oracle(portfolio, outcome):
    position = next(
        (p for p in portfolio.open_positions if p.condition_id == outcome.condition_id), None
    )
    if position is None:
        return portfolio
    won = (position.side == Side.YES) == (outcome.outcome == 1)
    proceeds = _value_cents_oracle(position.quantity_micro, 1.0 if won else 0.0)
    return replace(
        portfolio,
        total_capital_cents=portfolio.total_capital_cents + proceeds - position.cost_basis_cents,
        available_cents=portfolio.available_cents + proceeds,
        deployed_cents=portfolio.deployed_cents - position.cost_basis_cents,
        open_positions=tuple(
            p for p in portfolio.open_positions if p.condition_id != outcome.condition_id
        ),
        next_seq=portfolio.next_seq + 1,
    )


def apply_entry_oracle(portfolio, entry):
    """One ledger entry's transition, found by a scan of the positions and
    checked by the portfolio's constructor, as the simulator applied each
    entry before a sequence went through one pass."""
    at = next(
        (i for i, p in enumerate(portfolio.open_positions)
         if p.condition_id == entry.condition_id),
        None,
    )
    held = list(portfolio.open_positions)
    if entry.kind == EntryKind.OPEN:
        if at is not None:
            raise AlreadyOpen(entry.condition_id)
        held.append(Position(
            entry.condition_id, entry.side, entry.price, entry.quantity_micro,
            entry.basis_delta_cents, entry.timestamp,
        ))
    elif at is None:
        raise NoSuchPosition(entry.condition_id)
    else:
        quantity = held[at].quantity_micro + entry.quantity_micro
        basis = held[at].cost_basis_cents + entry.basis_delta_cents
        if quantity <= 0:
            del held[at]
        else:
            value = _value_cents_oracle(quantity, entry.price)
            held[at] = replace(
                held[at], quantity_micro=quantity, cost_basis_cents=basis,
                unrealized_pnl_cents=value - basis,
            )
    return replace(
        portfolio,
        total_capital_cents=portfolio.total_capital_cents + entry.cash_delta_cents,
        available_cents=(
            portfolio.available_cents - entry.basis_delta_cents + entry.cash_delta_cents
        ),
        deployed_cents=portfolio.deployed_cents + entry.basis_delta_cents,
        open_positions=tuple(held),
        next_seq=entry.seq + 1,
    )


def step_oracle(portfolio, snapshots, stop_loss=-0.05, target_win=0.50):
    """``simulator.step`` of an empty batch: every position with a snapshot
    marked, then each marked one past a trigger band closed whole."""
    marked = []
    next_seq = portfolio.next_seq
    for p in portfolio.open_positions:
        snap = snapshots.get(p.condition_id)
        if snap is None:
            marked.append(p)
            continue
        value = _value_cents_oracle(p.quantity_micro, _side_price_oracle(p.side, snap))
        marked.append(replace(p, unrealized_pnl_cents=value - p.cost_basis_cents))
        next_seq += 1
    portfolio = replace(portfolio, open_positions=tuple(marked), next_seq=next_seq)
    for p in marked:
        if p.condition_id not in snapshots:
            continue
        pnl, basis = p.unrealized_pnl_cents, p.cost_basis_cents
        if basis:
            ratio = pnl / basis
        else:  # partial closes rounded the basis to 0: any P&L is unbounded
            ratio = 0.0 if pnl == 0 else (math.inf if pnl > 0 else -math.inf)
        if ratio <= stop_loss or ratio >= target_win:
            portfolio = close_oracle(portfolio, p.condition_id, snapshots[p.condition_id])
    return portfolio


# --- the decision reply, built as objects ------------------------------------------


@dataclass(frozen=True)
class CalibrationAdjustment:
    win_rate_adj: float
    prob_adjustment: float


def adjustment(rate: float | None, stated_prob: float, penalty: float) -> CalibrationAdjustment:
    """The win rate and the downward nudge it implies: with no history the
    prior rate is 0.5 and no nudge applies; the penalty fires when the rate
    trails the stated probability."""
    if rate is None:
        return CalibrationAdjustment(win_rate_adj=0.5, prob_adjustment=0.0)
    nudge = penalty if rate < stated_prob else 0.0
    return CalibrationAdjustment(win_rate_adj=rate, prob_adjustment=nudge)


def decisions_to_wire_oracle(batch: ag.DecisionBatch) -> str:
    """The agent wire schema of a batch, one dict per decision."""
    items = []
    for d in batch.decisions:
        item: dict = {"marketId": d.market_id, "action": d.action.value}
        if d.amount_cents is not None:
            item["amount"] = round(d.amount_cents / 100.0, 2)
        if d.close_fraction is not None:
            item["closeAmount"] = d.close_fraction
        item["reasoning"] = d.reasoning
        if d.confidence is not None:
            item["confidence"] = d.confidence
        if d.edge is not None:
            item["edge"] = round(d.edge, 6)
        if d.expected_return_cents is not None:
            item["expectedReturn"] = round(d.expected_return_cents / 100.0, 2)
        if d.h_score is not None:
            item["hScore"] = round(d.h_score, 6)
        if d.strategy is not None:
            item["strategy"] = d.strategy.value
        items.append(item)
    return json.dumps(
        {"decisions": items, "reasoning": batch.overall_reasoning}, separators=(",", ":")
    )


def validate_decision_batch_oracle(batch, known_markets, window, cfg) -> list[tuple[str, str]]:
    """The (code, detail) of each issue of a batch, every check run on
    every decision, in decision order."""
    issues = []
    if len(batch.decisions) != cfg.batch_size:
        issues.append(
            ("wrong_cardinality", f"{len(batch.decisions)} decisions, need {cfg.batch_size}")
        )
    floors = {
        ag.WindowMode.CALIBRATION: (cfg.calibration_min_confidence, cfg.calibration_min_edge),
        ag.WindowMode.BOOTSTRAP: (cfg.bootstrap_min_confidence, cfg.bootstrap_min_edge),
    }.get(window.mode)
    for n, d in enumerate(batch.decisions):
        if any(e.market_id == d.market_id for e in batch.decisions[:n]):
            issues.append(("duplicate_market", d.market_id))
        if d.market_id not in known_markets:
            issues.append(("unknown_market", d.market_id))
        if d.action in (Action.BUY_YES, Action.BUY_NO):
            amount = d.amount_cents
            if amount is None or not (cfg.buy_min_cents <= amount <= cfg.buy_max_cents):
                issues.append(("amount_out_of_range", f"{d.market_id}: amount {d.amount_cents}"))
            if floors is not None:
                ok = (
                    d.confidence is not None and d.confidence >= floors[0]
                    and d.edge is not None and d.edge >= floors[1]
                    and d.expected_return_cents is not None and d.expected_return_cents > 0
                )
                if not ok:
                    issues.append((
                        "threshold_violation",
                        f"{d.market_id}: conf={d.confidence} edge={d.edge} "
                        f"er={d.expected_return_cents} below {window.mode.value} floor",
                    ))
        if d.close_fraction is not None and not (1 <= d.close_fraction <= 100):
            issues.append(("amount_out_of_range", f"{d.market_id}: closeAmount"))
    return issues


def build_decision_batch_oracle(
    agent, records, snapshots, window, open_positions, *, risk_by_market, max_open_positions,
    cfg, produced_at,
) -> str:
    """The agent's reply for one cycle: a ``Decision`` per candidate and per
    HOLD, ranked by a sort of the decisions, held in a ``DecisionBatch``
    and serialized from it."""
    mode = window.mode
    if mode == ag.WindowMode.CALIBRATION:
        min_conf, min_edge = cfg.calibration_min_confidence, cfg.calibration_min_edge
    else:
        min_conf, min_edge = cfg.bootstrap_min_confidence, cfg.bootstrap_min_edge
    rate = ag._win_rate(window)
    candidates = []
    for snap in snapshots:
        cid = snap.condition_id
        if cid in open_positions or cid not in records:
            continue
        record = records[cid]
        adj = adjustment(rate, record.probability, cfg.prob_adjustment_penalty)
        calibrated = min(max(record.probability + adj.prob_adjustment, 0.0), 1.0)
        edge_yes = calibrated - snap.yes_price
        edge_no = (1.0 - calibrated) - snap.no_price
        if edge_yes >= edge_no:
            action, edge, p_side, price = Action.BUY_YES, edge_yes, calibrated, snap.yes_price
        else:
            action, edge, p_side, price = Action.BUY_NO, edge_no, 1.0 - calibrated, snap.no_price
        if price <= 0.0:
            continue
        bet = agent.bet_cents(record.confidence, risk_by_market.get(cid, md.Risk.MEDIUM), cfg)
        er = ag.expected_return(p_side, bet, price)
        if record.confidence >= min_conf and edge >= min_edge and er > 0:
            candidates.append(ag.Decision(
                market_id=cid, action=action, amount_cents=bet,
                reasoning=f"{agent.strategy.value}: edge {edge:.4f} at {price:.4f}",
                confidence=record.confidence, edge=edge, expected_return_cents=er, h_score=0.0,
                strategy=agent.strategy,
            ))
    ranked = sorted(candidates, key=lambda d: (
        -(d.h_score or 0.0), -(d.expected_return_cents or 0), -(d.edge or 0.0),
        -(d.confidence or 0),
    ))
    decisions = []
    used = set()
    room = max_open_positions - len(open_positions)
    for decision in ranked:
        if len(decisions) >= cfg.batch_size or room <= 0:
            break
        decisions.append(decision)
        used.add(decision.market_id)
        room -= 1
    for snap in snapshots:
        if len(decisions) >= cfg.batch_size:
            break
        if snap.condition_id not in used:
            decisions.append(ag.Decision(snap.condition_id, Action.HOLD, reasoning="no edge"))
            used.add(snap.condition_id)
    batch = ag.DecisionBatch(
        tuple(decisions), f"{agent.agent_id} cycle decisions under {mode.value}",
        agent.agent_id, produced_at,
    )
    return decisions_to_wire_oracle(batch)


def drift_means_oracle(curr, prev, snap_map, prices):
    """Means over the probabilities ``curr`` of ``temporal_drift``
    from ``prev`` in both forms, each market's taken from its last two
    prices, and of the divergence from the market's yes price; and the
    markets compared, in order."""
    compared, dt_diff, dt_prod, divergence = [], [], [], []
    for cid, p_curr in curr.items():
        if cid in snap_map:
            divergence.append(abs(p_curr - snap_map[cid].yes_price))
        p_prev = prev.get(cid)
        history = prices.get(cid, ())
        if p_prev is None or len(history) < 2:
            continue
        m_prev, m_curr = history[-2], history[-1]
        compared.append(cid)
        dt_diff.append(temporal_drift(p_prev, p_curr, m_prev, m_curr, "difference"))
        dt_prod.append(temporal_drift(p_prev, p_curr, m_prev, m_curr, "product"))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return (mean(dt_diff), mean(dt_prod), mean(divergence)), compared
