"""Forecasting agents, the decision wire format, and batch validation.

Scripted agents are pure functions of (seed, market, memory), where the
memory the engine passes is read from the log, so whole runs replay
bit-identically. Every agent forecasts each market under the same
locked contract and returns a probability, a confidence on the inferred 0-10
scale, and a reasoning trace truncated to the token budget; a forecast's
``input_tokens`` counts the instruction the contract renders for it.

Decision batches cross a JSON wire format; the parser is strict by default
(raw JSON only) with an opt-in lenient mode that strips markdown fences and
reports the violation.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from typing import NamedTuple, Sequence

from .config import AgentConfig
from .errors import MalformedAgentOutput, ZeroPrice
from .market_data import MarketSnapshot, Risk


class Action(str, Enum):
    BUY_YES = "BUY_YES"
    BUY_NO = "BUY_NO"
    CLOSE = "CLOSE"
    HOLD = "HOLD"


class Strategy(str, Enum):
    MOMENTUM = "MOMENTUM"
    MEAN_REVERSION = "MEAN_REVERSION"
    DRIFT_ADJUSTED = "DRIFT_ADJUSTED"
    RISK_CONFIRMATION = "RISK_CONFIRMATION"
    NONE = "NONE"


# Each action's and strategy's text, and the members by text. ``.value``
# and the enum constructor run Python-level code on every call; the members
# hash and compare as their text, so a lookup here does not.
_ACTION_TEXT = {a: a.value for a in Action}
_STRATEGY_TEXT = {s: s.value for s in Strategy}
_ACTIONS = {a.value: a for a in Action}
_STRATEGIES = {s.value: s for s in Strategy}
# Each strategy's text as a trace starts with it.
_STRATEGY_TRACE = {s: s.value.lower() for s in Strategy}


def _member(members: dict, enum: type[Enum], value):
    """``enum(value)``, looked up in ``members`` first: a value that is no
    member's text, or is not hashable, goes to the constructor, which
    raises its own error."""
    try:
        return members[value]
    except (KeyError, TypeError):
        return enum(value)


class WindowMode(str, Enum):
    FIRST_CALL = "FIRST_CALL"
    BOOTSTRAP = "BOOTSTRAP"
    CALIBRATION = "CALIBRATION"


def _clamp01(x: float) -> float:
    return min(max(x, 0.0), 1.0)


def unit_noise(*parts) -> float:
    """Deterministic hash-derived value in [-1, 1); stateless and portable."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).digest()
    return int.from_bytes(digest[:8], "big") / float(1 << 63) - 1.0


# --- records ------------------------------------------------------------------


class ForecastRecord(NamedTuple):
    condition_id: str
    probability: float
    confidence: int  # integer 0-10
    reasoning_trace: str
    input_tokens: int
    output_tokens: int


@dataclass(frozen=True)
class CalibrationWindow:
    """The realized P&L in cents of an agent's most recent closed positions,
    oldest first: at most ``size`` of them."""

    entries: tuple[int, ...] = ()
    size: int = 30

    @property
    def mode(self) -> WindowMode:
        if len(self.entries) == 0:
            return WindowMode.FIRST_CALL
        if len(self.entries) >= self.size:
            return WindowMode.CALIBRATION
        return WindowMode.BOOTSTRAP


def _win_rate(window: CalibrationWindow) -> float | None:
    """The window's Laplace-smoothed win rate: (wins+1)/(n+2) below a full
    window, the plain wins/n at a full one; None with no history."""
    n = len(window.entries)
    if n == 0:
        return None
    wins = sum(1 for pnl in window.entries if pnl > 0)
    if n < window.size:
        return (wins + 1) / (n + 2)
    return wins / n


def compute_edge(calibrated_probability: float, market_price: float) -> float:
    """Perceived mispricing: calibrated probability minus quoted price."""
    return calibrated_probability - market_price


def expected_return(prob: float, bet_cents: int, price: float) -> int:
    """Expected payoff in cents of a bet at the quoted price, half-even rounded."""
    if price <= 0.0:
        raise ZeroPrice("price must be positive")
    value = prob * bet_cents * (1.0 / price - 1.0) - (1.0 - prob) * bet_cents
    return int(round(value))


# --- decisions ------------------------------------------------------------------


@dataclass(frozen=True)
class Decision:
    market_id: str
    action: Action
    amount_cents: int | None = None
    close_fraction: int | None = None  # percent 1-100, CLOSE only
    reasoning: str = ""
    # Analytics recorded at decision time; validation thresholds read these.
    confidence: int | None = None
    edge: float | None = None
    expected_return_cents: int | None = None
    h_score: float | None = None
    strategy: Strategy | None = None


@dataclass(frozen=True)
class DecisionBatch:
    decisions: tuple[Decision, ...]
    overall_reasoning: str
    agent_id: str
    produced_at: datetime


@dataclass(frozen=True)
class BatchIssue:
    code: str  # wrong_cardinality | unknown_market | duplicate_market |
    #            amount_out_of_range | threshold_violation
    detail: str
    market_id: str | None = None


@dataclass(frozen=True)
class BatchValidation:
    ok: bool
    issues: tuple[BatchIssue, ...] = ()


def validate_decision_batch(
    batch: DecisionBatch,
    known_markets: set[str],
    window: CalibrationWindow,
    cfg: AgentConfig = AgentConfig(),
) -> BatchValidation:
    """Enforce the decision contract: exactly ``cfg.batch_size`` unique
    known markets, BUY amounts inside the mandated range, and per-mode
    confidence/edge floors.

    HOLD and CLOSE entries are exempt from the thresholds.
    """
    issues: list[BatchIssue] = []
    if len(batch.decisions) != cfg.batch_size:
        issues.append(
            BatchIssue("wrong_cardinality", f"{len(batch.decisions)} decisions, need {cfg.batch_size}")
        )
    seen: set[str] = set()
    mode = window.mode
    if mode == WindowMode.CALIBRATION:
        min_conf, min_edge = cfg.calibration_min_confidence, cfg.calibration_min_edge
    elif mode == WindowMode.BOOTSTRAP:
        min_conf, min_edge = cfg.bootstrap_min_confidence, cfg.bootstrap_min_edge
    else:
        min_conf, min_edge = None, None

    for d in batch.decisions:
        if d.market_id in seen:
            issues.append(BatchIssue("duplicate_market", d.market_id, d.market_id))
        seen.add(d.market_id)
        if d.market_id not in known_markets:
            issues.append(BatchIssue("unknown_market", d.market_id, d.market_id))
        # Padding: a HOLD without closeAmount has nothing more to check.
        if d.action is Action.HOLD and d.close_fraction is None:
            continue
        if d.action in (Action.BUY_YES, Action.BUY_NO):
            if d.amount_cents is None or not (
                cfg.buy_min_cents <= d.amount_cents <= cfg.buy_max_cents
            ):
                issues.append(
                    BatchIssue(
                        "amount_out_of_range",
                        f"{d.market_id}: amount {d.amount_cents}",
                        d.market_id,
                    )
                )
            if min_conf is not None:
                conf_ok = d.confidence is not None and d.confidence >= min_conf
                edge_ok = d.edge is not None and d.edge >= min_edge
                er_ok = d.expected_return_cents is not None and d.expected_return_cents > 0
                if not (conf_ok and edge_ok and er_ok):
                    issues.append(
                        BatchIssue(
                            "threshold_violation",
                            f"{d.market_id}: conf={d.confidence} edge={d.edge} "
                            f"er={d.expected_return_cents} below {mode.value} floor",
                            d.market_id,
                        )
                    )
        if d.close_fraction is not None and not (1 <= d.close_fraction <= 100):
            issues.append(
                BatchIssue("amount_out_of_range", f"{d.market_id}: closeAmount", d.market_id)
            )
    return BatchValidation(ok=not issues, issues=tuple(issues))


# --- opportunity ranking ----------------------------------------------------------


def _rank_key(
    h_score: float | None, expected_return_cents: int | None, edge: float | None,
    confidence: int | None,
) -> tuple:
    """The ascending sort key that ranks decisions descending on (H,
    expected return, edge, confidence), a missing value counting as 0."""
    return (-(h_score or 0.0), -(expected_return_cents or 0), -(edge or 0.0), -(confidence or 0))


def rank_decisions(decisions: Sequence[Decision]) -> list[Decision]:
    """Descending lexicographic sort on (H, expected return, edge, confidence),
    a missing value counting as 0; full ties keep their input order."""
    return sorted(
        decisions,
        key=lambda d: _rank_key(d.h_score, d.expected_return_cents, d.edge, d.confidence),
    )


# --- wire format ------------------------------------------------------------------

_FENCE = re.compile(r"^\s*```[a-zA-Z]*\s*|\s*```\s*$")


_WIRE_ENCODER = json.JSONEncoder(separators=(",", ":"))


def _wire_item(
    market_id: str,
    action: Action,
    amount_cents: int | None = None,
    close_fraction: int | None = None,
    reasoning: str = "",
    confidence: int | None = None,
    edge: float | None = None,
    expected_return_cents: int | None = None,
    h_score: float | None = None,
    strategy: Strategy | None = None,
) -> str:
    """The text of one decision of the agent wire schema from a
    ``Decision``'s values, in its field order: amounts in dollars, a value
    that is None left out."""
    item: dict = {"marketId": market_id, "action": _ACTION_TEXT[action]}
    if amount_cents is not None:
        item["amount"] = round(amount_cents / 100.0, 2)
    if close_fraction is not None:
        item["closeAmount"] = close_fraction
    item["reasoning"] = reasoning
    if confidence is not None:
        item["confidence"] = confidence
    if edge is not None:
        item["edge"] = round(edge, 6)
    if expected_return_cents is not None:
        item["expectedReturn"] = round(expected_return_cents / 100.0, 2)
    if h_score is not None:
        item["hScore"] = round(h_score, 6)
    if strategy is not None:
        item["strategy"] = _STRATEGY_TEXT[strategy]
    return _WIRE_ENCODER.encode(item)


def _wire_text(items: list[str], overall_reasoning: str) -> str:
    """The reply joined from its items' texts: the text the encoder gives
    for the whole object."""
    return (
        f'{{"decisions":[{",".join(items)}],'
        f'"reasoning":{_WIRE_ENCODER.encode(overall_reasoning)}}}'
    )


def decisions_to_wire(batch: DecisionBatch) -> str:
    """Serialize to the agent wire schema (amounts in dollars)."""
    items = [
        _wire_item(
            d.market_id, d.action, d.amount_cents, d.close_fraction, d.reasoning, d.confidence,
            d.edge, d.expected_return_cents, d.h_score, d.strategy,
        )
        for d in batch.decisions
    ]
    return _wire_text(items, batch.overall_reasoning)


def _cents(dollars) -> int:
    return int(round(float(dollars) * 100))


# The optional keys of a wire decision and their conversions, in the order
# of their ``Decision`` fields but reasoning. Only a BUY reads an amount.
_WIRE_FIELDS = (
    ("closeAmount", int),
    ("confidence", int),
    ("edge", float),
    ("expectedReturn", _cents),
    ("hScore", float),
    ("strategy", lambda text: _member(_STRATEGIES, Strategy, text)),
)
_BUY_WIRE_FIELDS = (("amount", _cents), *_WIRE_FIELDS)


def _reasoning(value, where: str) -> str:
    """A reasoning as read from the wire: absent or null is ``""``, any
    other value but a string is a ``MalformedAgentOutput`` naming ``where``."""
    if value is None:
        return ""
    if type(value) is not str:
        raise MalformedAgentOutput(f"{where}: {value!r} is not a string")
    return value


def hold_decision(
    holds: dict[tuple[str, str], Decision], market_id: str, reasoning: str
) -> Decision:
    """The HOLD of ``market_id`` with ``reasoning``, built once and shared
    through ``holds``, which maps (market id, reasoning) to it."""
    decision = holds.get((market_id, reasoning))
    if decision is None:
        decision = holds[market_id, reasoning] = Decision(
            market_id, Action.HOLD, reasoning=reasoning
        )
    return decision


def _decision(i: int, item) -> Decision:
    """Any wire decision, the ``i``-th of its reply, as a ``Decision``; one
    the contract refuses is a ``MalformedAgentOutput`` naming it."""
    if not isinstance(item, dict):
        raise MalformedAgentOutput(f"decision {i} is not an object")
    try:
        action = _member(_ACTIONS, Action, item["action"])
        market_id = item["marketId"]
    except (KeyError, ValueError) as exc:
        raise MalformedAgentOutput(f"decision {i}: {exc}") from exc
    if type(market_id) is not str:
        raise MalformedAgentOutput(f"decision {i}: marketId: {market_id!r} is not a string")
    buy = action in (Action.BUY_YES, Action.BUY_NO)
    if buy and item.get("amount") is None:
        raise MalformedAgentOutput(f"decision {i}: BUY without amount")
    # A key that is absent or null is None; a value its conversion cannot
    # take names the decision and the key. Only a BUY has an amount.
    values: list = [] if buy else [None]
    for key, convert in _BUY_WIRE_FIELDS if buy else _WIRE_FIELDS:
        value = item.get(key)
        if value is None:
            values.append(None)
            continue
        try:
            values.append(convert(value))
        except (TypeError, ValueError, OverflowError) as exc:
            raise MalformedAgentOutput(f"decision {i}: {key}: {exc}") from exc
    amount, close, confidence, edge, er, h_score, strategy = values
    reasoning = _reasoning(item.get("reasoning"), f"decision {i}: reasoning")
    return Decision(
        market_id, action, amount, close, reasoning, confidence, edge, er, h_score, strategy
    )


def parse_decision_wire(
    text: str,
    *,
    agent_id: str,
    produced_at: datetime,
    lenient: bool = False,
    holds: dict[tuple[str, str], Decision] | None = None,
) -> tuple[DecisionBatch, list[str]]:
    """Parse the wire schema into a DecisionBatch.

    Returns (batch, violations). Strict mode rejects anything that is not
    raw JSON; lenient mode strips markdown fences and records the
    violation instead of failing.

    A decision that is exactly ``{marketId, action: "HOLD", reasoning}``,
    with string values, takes a fast path to the ``Decision`` that
    ``_decision`` would read it to, shared through ``holds`` (see
    ``hold_decision``); pass one dict for all of a cycle's replies to share
    their padding. Every other decision takes ``_decision``.
    """
    violations: list[str] = []
    stripped = text.strip()
    if stripped.startswith("```"):
        if not lenient:
            raise MalformedAgentOutput("markdown fence around JSON output")
        stripped = _FENCE.sub("", stripped).strip()
        violations.append("markdown_fence_stripped")
    try:
        data = json.loads(stripped)
    except (ValueError, RecursionError) as exc:
        raise MalformedAgentOutput(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("decisions"), list):
        raise MalformedAgentOutput('top level must be {"decisions": [...], "reasoning": ...}')

    if holds is None:
        holds = {}
    decisions: list[Decision] = []
    for i, item in enumerate(data["decisions"]):
        if type(item) is dict and len(item) == 3 and item.get("action") == "HOLD":
            market_id, reasoning = item.get("marketId"), item.get("reasoning")
            if type(market_id) is str and type(reasoning) is str:
                # hold_decision's lookup, inline for the HOLD already shared
                decision = holds.get((market_id, reasoning))
                if decision is None:
                    decision = hold_decision(holds, market_id, reasoning)
                decisions.append(decision)
                continue
        decisions.append(_decision(i, item))
    batch = DecisionBatch(
        decisions=tuple(decisions),
        overall_reasoning=_reasoning(data.get("reasoning"), "reasoning"),
        agent_id=agent_id,
        produced_at=produced_at,
    )
    return batch, violations


# --- scripted agents ---------------------------------------------------------------


class Memory(NamedTuple):
    """What an agent remembers of a market, which the engine reads from the
    log: the market's previous yes price (None for its first) and the
    agent's own previous probability for it (None for none)."""

    price: float | None = None
    probability: float | None = None


class ScriptedAgent:
    """Base for deterministic agents: probability is a pure function of the
    market, the agent's memory of it, and the seed. An agent holds its id
    and seed, and keeps no state between calls; a kind's parameters are
    constants of its class."""

    strategy = Strategy.NONE
    base_confidence = 5

    def __init__(self, agent_id: str, seed: int = 0):
        self.agent_id = agent_id
        self.seed = seed

    # -- forecasting --

    def probability(
        self, market: MarketSnapshot, cycle_index: int, budget: int, memory: Memory
    ) -> float:
        raise NotImplementedError

    def confidence(self, market: MarketSnapshot, prob: float) -> int:
        return self.base_confidence

    def trace(self, market: MarketSnapshot, prob: float) -> str:
        return (
            f"{_STRATEGY_TRACE[self.strategy]} view on {market.condition_id}: "
            f"market quotes yes {market.yes_price:.4f} no {market.no_price:.4f}; "
            f"estimate {prob:.4f} with confidence {self.confidence(market, prob)}."
        )

    def forecast(
        self, market: MarketSnapshot, cycle_index: int, budget: int, memory: Memory
    ) -> tuple[float, int, str]:
        prob = self.probability(market, cycle_index, budget, memory)
        return prob, self.confidence(market, prob), self.trace(market, prob)

    # -- decision sizing --

    def bet_cents(self, confidence: int, risk: Risk, cfg: AgentConfig) -> int:
        bet = cfg.buy_min_cents + (cfg.buy_max_cents - cfg.buy_min_cents) * confidence // 10
        if self.strategy == Strategy.RISK_CONFIRMATION and risk == Risk.HIGH:
            bet = int(bet * cfg.high_risk_size_factor)
        return min(max(bet, cfg.buy_min_cents), cfg.buy_max_cents)


class MarketCopier(ScriptedAgent):
    """Null agent: repeats the market's own probability verbatim."""

    def probability(self, market, cycle_index, budget, memory):
        return market.yes_price


class ConstantAgent(ScriptedAgent):
    """Always 0.5; the agent-side twin of the uniform baseline."""

    def probability(self, market, cycle_index, budget, memory):
        return 0.5


class MomentumAgent(ScriptedAgent):
    strategy = Strategy.MOMENTUM
    base_confidence = 9
    bias = 0.05

    def probability(self, market, cycle_index, budget, memory):
        prev = memory.price
        if prev is None or market.yes_price == prev:
            return market.yes_price
        direction = 1.0 if market.yes_price > prev else -1.0
        return _clamp01(market.yes_price + self.bias * direction)


class MeanReversionAgent(ScriptedAgent):
    strategy = Strategy.MEAN_REVERSION
    base_confidence = 9
    weight = 0.25

    def probability(self, market, cycle_index, budget, memory):
        return market.yes_price + self.weight * (0.5 - market.yes_price)


class DriftAdjustedAgent(ScriptedAgent):
    """Smooths its own probability stream with an exponential moving average."""

    strategy = Strategy.DRIFT_ADJUSTED
    base_confidence = 8
    alpha = 0.3

    def probability(self, market, cycle_index, budget, memory):
        prev = market.yes_price if memory.probability is None else memory.probability
        # in [0, 1] for inputs in it, so the probability logged and read back is this value
        return _clamp01(self.alpha * market.yes_price + (1.0 - self.alpha) * prev)


class RiskConfirmationAgent(ScriptedAgent):
    strategy = Strategy.RISK_CONFIRMATION
    base_confidence = 9

    def probability(self, market, cycle_index, budget, memory):
        return market.yes_price


class BudgetNoiseAgent(ScriptedAgent):
    """Budget-sensitive probe: deviation from 0.5 scales with 1/budget.

    The noise draw is independent of the budget, so sweeping budgets with a
    fixed seed shrinks every deviation by exactly the budget ratio.
    """

    amplitude = 30.0

    def probability(self, market, cycle_index, budget, memory):
        u = unit_noise(self.seed, self.agent_id, market.condition_id, cycle_index)
        return _clamp01(0.5 + self.amplitude * u / budget)


class FlakyAgent(ScriptedAgent):
    """Deterministically fails on some cycles to exercise failure handling."""

    fail_every = 3

    def probability(self, market, cycle_index, budget, memory):
        if cycle_index % self.fail_every == 0:
            raise MalformedAgentOutput(f"garbled output on cycle {cycle_index}")
        return market.yes_price


AGENT_BUILDERS = {
    "market_copier": MarketCopier,
    "constant": ConstantAgent,
    "momentum": MomentumAgent,
    "mean_reversion": MeanReversionAgent,
    "drift_adjusted": DriftAdjustedAgent,
    "risk_confirmation": RiskConfirmationAgent,
    "budget_noise": BudgetNoiseAgent,
    "flaky": FlakyAgent,
}


def build_agent(agent_id: str, seed: int = 0) -> ScriptedAgent:
    """Instantiate a registered agent; ids may carry a variant suffix after
    '#' (e.g. ``momentum#a``) so one kind can run multiple instances."""
    kind = agent_id.split("#", 1)[0]
    if kind not in AGENT_BUILDERS:
        raise KeyError(f"unknown agent {agent_id!r}; known: {sorted(AGENT_BUILDERS)}")
    return AGENT_BUILDERS[kind](agent_id, seed)


def sample_forecast(
    agent: ScriptedAgent,
    market: MarketSnapshot,
    budget: int,
    *,
    cycle_index: int,
    input_tokens: int,
    memory: Memory,
) -> ForecastRecord:
    """Query the agent once for its forecast of ``market``, given its
    ``memory`` of it.

    ``input_tokens`` is the whitespace-token count of the market's rendered
    instruction, which the caller counts from the rendered parts. A trace is
    cut to its first ``budget`` whitespace tokens; one within budget is kept
    as it is. A reply whose probability is not a ``float`` in [0,1], whose
    confidence is not an ``int`` 0-10 (a bool is not one) or whose trace is
    not a ``str`` is a ``MalformedAgentOutput``.
    """
    prob, conf, trace = agent.forecast(market, cycle_index, budget, memory)
    if type(prob) is not float or not (0.0 <= prob <= 1.0):
        raise MalformedAgentOutput(f"probability {prob!r} is not a float in [0,1]")
    if type(conf) is not int or not (0 <= conf <= 10):
        raise MalformedAgentOutput(f"confidence {conf!r} is not an integer 0-10")
    if type(trace) is not str:
        raise MalformedAgentOutput(f"trace {trace!r} is not a string")
    words = trace.split()
    if len(words) > budget:
        words = words[:budget]
        trace = " ".join(words)
    return ForecastRecord(market.condition_id, prob, conf, trace, input_tokens, len(words))


# --- batch construction -------------------------------------------------------------


def build_decision_batch(
    agent: ScriptedAgent,
    records: dict[str, ForecastRecord],
    snapshots: Sequence[MarketSnapshot],
    window: CalibrationWindow,
    open_positions: set[str],
    *,
    risk_by_market: dict[str, Risk],
    max_open_positions: int,
    cfg: AgentConfig,
    hold_texts: dict[str, str] | None = None,
) -> str:
    """Assemble the agent's wire-format reply for one cycle.

    Ranked BUY candidates that clear the mode's floors come first, as many
    as ``max_open_positions`` leaves room for, then HOLD padding up to
    exactly ``cfg.batch_size`` unique markets. Stop-loss and target-win
    closes are not decisions: ``simulator.step`` enforces them. Each item is
    written from its values by the wire format's one writer, so the reply is
    the text ``decisions_to_wire`` gives for those decisions, without
    building them.
    A market's HOLD text is the same for every agent, so it is written once
    into ``hold_texts`` by market id; pass one dict for all of a cycle's
    replies.
    """
    mode = window.mode
    if mode == WindowMode.CALIBRATION:
        min_conf, min_edge = cfg.calibration_min_confidence, cfg.calibration_min_edge
    else:
        min_conf, min_edge = cfg.bootstrap_min_confidence, cfg.bootstrap_min_edge

    # The window, the strategy and the sizing are the same for every market,
    # so the win rate, the strategy's text and each (confidence, risk)'s bet
    # are too.
    rate = _win_rate(window)
    penalty = cfg.prob_adjustment_penalty
    strategy = agent.strategy
    strategy_text = _STRATEGY_TEXT[strategy]
    bets: dict[tuple[int, Risk], int] = {}
    candidates: list[tuple] = []
    for snap in snapshots:
        cid = snap.condition_id
        record = records.get(cid)
        # Each floor is tested as soon as its value is known, so only a
        # market that clears the confidence and edge floors is sized and
        # priced; most markets are HOLD padding.
        if record is None or record.confidence < min_conf or cid in open_positions:
            continue
        prob, confidence = record.probability, record.confidence
        # With no history no nudge applies; the penalty fires when the win
        # rate trails the stated probability.
        calibrated = _clamp01(prob + (penalty if rate is not None and rate < prob else 0.0))
        edge_yes = compute_edge(calibrated, snap.yes_price)
        edge_no = compute_edge(1.0 - calibrated, snap.no_price)
        if edge_yes >= edge_no:
            action, edge, p_side, price = Action.BUY_YES, edge_yes, calibrated, snap.yes_price
        else:
            action, edge, p_side, price = Action.BUY_NO, edge_no, 1.0 - calibrated, snap.no_price
        if edge < min_edge or price <= 0.0:
            continue
        risk = risk_by_market.get(cid, Risk.MEDIUM)
        bet = bets.get((confidence, risk))
        if bet is None:
            bet = bets[confidence, risk] = agent.bet_cents(confidence, risk, cfg)
        er = expected_return(p_side, bet, price)
        if er > 0:
            candidates.append((cid, action, bet, confidence, edge, er, price))

    if hold_texts is None:
        hold_texts = {}
    items: list[str] = []
    used: set[str] = set()
    room = max_open_positions - len(open_positions)
    # Ranked as rank_decisions ranks them; every candidate's H score is 0.
    candidates.sort(key=lambda c: _rank_key(0.0, c[5], c[4], c[3]))
    for cid, action, bet, confidence, edge, er, price in candidates:
        if len(items) >= cfg.batch_size or room <= 0:
            break
        items.append(_wire_item(
            cid, action, bet, None, f"{strategy_text}: edge {edge:.4f} at {price:.4f}",
            confidence, edge, er, 0.0, strategy,
        ))
        used.add(cid)
        room -= 1

    for snap in snapshots:
        if len(items) >= cfg.batch_size:
            break
        cid = snap.condition_id
        if cid in used:
            continue
        text = hold_texts.get(cid)
        if text is None:
            text = hold_texts[cid] = _wire_item(cid, Action.HOLD, reasoning="no edge")
        items.append(text)
        used.add(cid)

    return _wire_text(items, f"{agent.agent_id} cycle decisions under {mode.value}")
