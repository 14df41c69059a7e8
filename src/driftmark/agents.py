"""Forecasting agents, the decision wire format, and batch validation.

Scripted agents are pure functions of (seed, market history), so whole runs
replay bit-identically. Every agent answers the same locked instruction and
returns a probability, a confidence on the inferred 0-10 scale, and a
reasoning trace truncated to the token budget.

Decision batches cross a JSON wire format; the parser is strict by default
(raw JSON only) with an opt-in lenient mode that strips markdown fences and
reports the violation.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum
from typing import Sequence

from .config import AgentConfig
from .contract import ContractHash
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


@dataclass(frozen=True)
class ForecastRecord:
    condition_id: str
    agent_id: str
    probability: float
    confidence: int  # integer 0-10
    reasoning_trace: str
    strategy: Strategy
    input_tokens: int
    output_tokens: int
    latency_ms: float
    sampled_at: datetime
    contract_hash: ContractHash


@dataclass(frozen=True)
class ClosedPosition:
    condition_id: str
    side: str  # "YES" | "NO"
    pnl_cents: int


@dataclass(frozen=True)
class CalibrationWindow:
    """Rolling window of the most recent closed positions (at most 30)."""

    entries: tuple[ClosedPosition, ...] = ()
    size: int = 30

    @property
    def mode(self) -> WindowMode:
        if len(self.entries) == 0:
            return WindowMode.FIRST_CALL
        if len(self.entries) >= self.size:
            return WindowMode.CALIBRATION
        return WindowMode.BOOTSTRAP

    def record(self, closed: ClosedPosition) -> "CalibrationWindow":
        entries = (self.entries + (closed,))[-self.size:]
        return replace(self, entries=entries)


@dataclass(frozen=True)
class CalibrationAdjustment:
    win_rate_adj: float
    prob_adjustment: float


def calibration_adjustment(
    window: CalibrationWindow, stated_prob: float, penalty: float = -0.05
) -> CalibrationAdjustment:
    """Laplace-smoothed win rate and the downward nudge it implies.

    With no history the prior win rate is 0.5 and no adjustment applies.
    Below a full window the rate is (wins+1)/(n+2); at a full window it is
    the plain wins/n. The penalty fires when the rate trails the stated
    probability.
    """
    n = len(window.entries)
    if n == 0:
        return CalibrationAdjustment(win_rate_adj=0.5, prob_adjustment=0.0)
    wins = sum(1 for e in window.entries if e.pnl_cents > 0)
    if n < window.size:
        rate = (wins + 1) / (n + 2)
    else:
        rate = wins / n
    adjustment = penalty if rate < stated_prob else 0.0
    return CalibrationAdjustment(win_rate_adj=rate, prob_adjustment=adjustment)


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

    def codes(self) -> set[str]:
        return {i.code for i in self.issues}


def validate_decision_batch(
    batch: DecisionBatch,
    known_markets: set[str],
    window: CalibrationWindow,
    cfg: AgentConfig = AgentConfig(),
) -> BatchValidation:
    """Enforce the decision contract: exactly 30 unique known markets, BUY
    amounts inside the mandated range, and per-mode confidence/edge floors.

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


@dataclass(frozen=True)
class Opportunity:
    h_score: float
    expected_return_cents: int
    edge: float
    confidence: int
    payload: object = None


def rank_opportunities(candidates: Sequence[Opportunity]) -> list[Opportunity]:
    """Descending lexicographic sort on (H, expected return, edge, confidence);
    full ties keep their input order."""
    return sorted(
        candidates,
        key=lambda o: (-o.h_score, -o.expected_return_cents, -o.edge, -o.confidence),
    )


# --- wire format ------------------------------------------------------------------

_FENCE = re.compile(r"^\s*```[a-zA-Z]*\s*|\s*```\s*$")


def decisions_to_wire(batch: DecisionBatch) -> str:
    """Serialize to the agent wire schema (amounts in dollars)."""
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


def parse_decision_wire(
    text: str,
    *,
    agent_id: str,
    produced_at: datetime,
    lenient: bool = False,
) -> tuple[DecisionBatch, list[str]]:
    """Parse the wire schema into a DecisionBatch.

    Returns (batch, violations). Strict mode rejects anything that is not
    raw JSON; lenient mode strips markdown fences and records the
    violation instead of failing.
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
    except json.JSONDecodeError as exc:
        raise MalformedAgentOutput(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("decisions"), list):
        raise MalformedAgentOutput('top level must be {"decisions": [...], "reasoning": ...}')

    decisions: list[Decision] = []
    for i, item in enumerate(data["decisions"]):
        if not isinstance(item, dict):
            raise MalformedAgentOutput(f"decision {i} is not an object")
        try:
            action = Action(item["action"])
            market_id = str(item["marketId"])
        except (KeyError, ValueError) as exc:
            raise MalformedAgentOutput(f"decision {i}: {exc}") from exc
        amount_cents: int | None = None
        if action in (Action.BUY_YES, Action.BUY_NO):
            if "amount" not in item:
                raise MalformedAgentOutput(f"decision {i}: BUY without amount")
            amount_cents = int(round(float(item["amount"]) * 100))
        close_fraction = None
        if "closeAmount" in item:
            close_fraction = int(item["closeAmount"])
        er = item.get("expectedReturn")
        decisions.append(
            Decision(
                market_id=market_id,
                action=action,
                amount_cents=amount_cents,
                close_fraction=close_fraction,
                reasoning=str(item.get("reasoning", "")),
                confidence=None if item.get("confidence") is None else int(item["confidence"]),
                edge=None if item.get("edge") is None else float(item["edge"]),
                expected_return_cents=None if er is None else int(round(float(er) * 100)),
                h_score=None if item.get("hScore") is None else float(item["hScore"]),
                strategy=Strategy(item["strategy"]) if "strategy" in item else None,
            )
        )
    batch = DecisionBatch(
        decisions=tuple(decisions),
        overall_reasoning=str(data.get("reasoning", "")),
        agent_id=agent_id,
        produced_at=produced_at,
    )
    return batch, violations


# --- scripted agents ---------------------------------------------------------------


class ScriptedAgent:
    """Base for deterministic agents: probability is a pure function of the
    market, the agent's own recorded history, and the seed."""

    strategy = Strategy.NONE
    base_confidence = 5

    def __init__(self, agent_id: str, seed: int = 0):
        self.agent_id = agent_id
        self.seed = seed
        self._state: dict[str, float] = {}

    # -- forecasting --

    def probability(self, market: MarketSnapshot, cycle_index: int, budget: int) -> float:
        raise NotImplementedError

    def confidence(self, market: MarketSnapshot, prob: float) -> int:
        return self.base_confidence

    def trace(self, market: MarketSnapshot, prob: float) -> str:
        return (
            f"{self.strategy.value.lower()} view on {market.condition_id}: "
            f"market quotes yes {market.yes_price:.4f} no {market.no_price:.4f}; "
            f"estimate {prob:.4f} with confidence {self.confidence(market, prob)}."
        )

    def forecast(
        self, market: MarketSnapshot, cycle_index: int, budget: int
    ) -> tuple[float, int, str, Strategy]:
        prob = self.probability(market, cycle_index, budget)
        return prob, self.confidence(market, prob), self.trace(market, prob), self.strategy

    # -- decision sizing --

    def bet_cents(self, confidence: int, risk: Risk, cfg: AgentConfig) -> int:
        bet = cfg.buy_min_cents + (cfg.buy_max_cents - cfg.buy_min_cents) * confidence // 10
        if self.strategy == Strategy.RISK_CONFIRMATION and risk == Risk.HIGH:
            bet = int(bet * cfg.high_risk_size_factor)
        return min(max(bet, cfg.buy_min_cents), cfg.buy_max_cents)

    # -- checkpointing --

    def get_state(self) -> dict:
        return dict(self._state)

    def set_state(self, state: dict) -> None:
        self._state = dict(state)


class MarketCopier(ScriptedAgent):
    """Null agent: repeats the market's own probability verbatim."""

    def probability(self, market, cycle_index, budget):
        return market.yes_price


class ConstantAgent(ScriptedAgent):
    """Always 0.5; the agent-side twin of the uniform baseline."""

    def probability(self, market, cycle_index, budget):
        return 0.5


class MomentumAgent(ScriptedAgent):
    strategy = Strategy.MOMENTUM
    base_confidence = 9

    def __init__(self, agent_id: str, seed: int = 0, bias: float = 0.05):
        super().__init__(agent_id, seed)
        self.bias = bias

    def probability(self, market, cycle_index, budget):
        prev = self._state.get(market.condition_id)
        self._state[market.condition_id] = market.yes_price
        if prev is None or market.yes_price == prev:
            return market.yes_price
        direction = 1.0 if market.yes_price > prev else -1.0
        return _clamp01(market.yes_price + self.bias * direction)


class MeanReversionAgent(ScriptedAgent):
    strategy = Strategy.MEAN_REVERSION
    base_confidence = 9

    def __init__(self, agent_id: str, seed: int = 0, weight: float = 0.25):
        super().__init__(agent_id, seed)
        self.weight = weight

    def probability(self, market, cycle_index, budget):
        return market.yes_price + self.weight * (0.5 - market.yes_price)


class DriftAdjustedAgent(ScriptedAgent):
    """Smooths its own probability stream with an exponential moving average."""

    strategy = Strategy.DRIFT_ADJUSTED
    base_confidence = 8

    def __init__(self, agent_id: str, seed: int = 0, alpha: float = 0.3):
        super().__init__(agent_id, seed)
        self.alpha = alpha

    def probability(self, market, cycle_index, budget):
        prev = self._state.get(market.condition_id, market.yes_price)
        smoothed = self.alpha * market.yes_price + (1.0 - self.alpha) * prev
        self._state[market.condition_id] = smoothed
        return _clamp01(smoothed)


class RiskConfirmationAgent(ScriptedAgent):
    strategy = Strategy.RISK_CONFIRMATION
    base_confidence = 9

    def probability(self, market, cycle_index, budget):
        return market.yes_price


class BudgetNoiseAgent(ScriptedAgent):
    """Budget-sensitive probe: deviation from 0.5 scales with 1/budget.

    The noise draw is independent of the budget, so sweeping budgets with a
    fixed seed shrinks every deviation by exactly the budget ratio.
    """

    def __init__(self, agent_id: str, seed: int = 0, amplitude: float = 30.0):
        super().__init__(agent_id, seed)
        self.amplitude = amplitude

    def probability(self, market, cycle_index, budget):
        u = unit_noise(self.seed, self.agent_id, market.condition_id, cycle_index)
        return _clamp01(0.5 + self.amplitude * u / budget)


class FlakyAgent(ScriptedAgent):
    """Deterministically fails on some cycles to exercise failure handling."""

    def __init__(self, agent_id: str, seed: int = 0, fail_every: int = 3):
        super().__init__(agent_id, seed)
        self.fail_every = fail_every

    def probability(self, market, cycle_index, budget):
        if self.fail_every > 0 and cycle_index % self.fail_every == 0:
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


def _truncated(text: str, words: list[str], budget: int) -> tuple[str, int]:
    """``text`` cut to its first ``budget`` whitespace tokens ``words``
    (``text.split()``), and how many tokens it keeps. A text within budget
    is kept as it is."""
    if len(words) <= budget:
        return text, len(words)
    kept = words[:budget]
    return " ".join(kept), len(kept)


def truncate_tokens(text: str, budget: int) -> str:
    return _truncated(text, text.split(), budget)[0]


def sample_forecast(
    agent: ScriptedAgent,
    instruction: str,
    market: MarketSnapshot,
    budget: int,
    *,
    contract_hash: ContractHash,
    sampled_at: datetime,
    cycle_index: int,
    input_tokens: int,
) -> ForecastRecord:
    """Query the agent once and log the full record.

    ``input_tokens`` is the whitespace-token count of ``instruction``, which
    the caller counts from the rendered parts. Traces are truncated to the
    token budget; scripted agents run in-process so latency is recorded as
    zero.
    """
    prob, conf, trace, strategy = agent.forecast(market, cycle_index, budget)
    if not (0.0 <= prob <= 1.0):
        raise MalformedAgentOutput(f"probability {prob} outside [0,1]")
    if not (0 <= conf <= 10):
        raise MalformedAgentOutput(f"confidence {conf} outside 0-10")
    trace, output_tokens = _truncated(trace, trace.split(), budget)
    return ForecastRecord(
        condition_id=market.condition_id,
        agent_id=agent.agent_id,
        probability=prob,
        confidence=conf,
        reasoning_trace=trace,
        strategy=strategy,
        input_tokens=input_tokens,
        output_tokens=output_tokens,
        latency_ms=0.0,
        sampled_at=sampled_at,
        contract_hash=contract_hash,
    )


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
    produced_at: datetime,
) -> str:
    """Assemble the agent's wire-format reply for one cycle.

    Ranked BUY candidates that clear the mode's floors come first, as many
    as ``max_open_positions`` leaves room for, then HOLD padding up to
    exactly 30 unique markets. Stop-loss and target-win closes are not
    decisions: ``simulator.step`` enforces them.
    """
    mode = window.mode
    decisions: list[Decision] = []
    used: set[str] = set()

    if mode == WindowMode.CALIBRATION:
        min_conf, min_edge = cfg.calibration_min_confidence, cfg.calibration_min_edge
    else:
        min_conf, min_edge = cfg.bootstrap_min_confidence, cfg.bootstrap_min_edge

    candidates: list[Opportunity] = []
    for snap in snapshots:
        cid = snap.condition_id
        if cid in used or cid in open_positions or cid not in records:
            continue
        record = records[cid]
        adj = calibration_adjustment(window, record.probability, cfg.prob_adjustment_penalty)
        calibrated = _clamp01(record.probability + adj.prob_adjustment)
        edge_yes = compute_edge(calibrated, snap.yes_price)
        edge_no = compute_edge(1.0 - calibrated, snap.no_price)
        if edge_yes >= edge_no:
            action, edge, p_side, price = Action.BUY_YES, edge_yes, calibrated, snap.yes_price
        else:
            action, edge, p_side, price = Action.BUY_NO, edge_no, 1.0 - calibrated, snap.no_price
        if price <= 0.0:
            continue
        risk = risk_by_market.get(cid, Risk.MEDIUM)
        bet = agent.bet_cents(record.confidence, risk, cfg)
        er = expected_return(p_side, bet, price)
        if record.confidence >= min_conf and edge >= min_edge and er > 0:
            candidates.append(
                Opportunity(
                    h_score=0.0,
                    expected_return_cents=er,
                    edge=edge,
                    confidence=record.confidence,
                    payload=Decision(
                        market_id=cid,
                        action=action,
                        amount_cents=bet,
                        reasoning=f"{agent.strategy.value}: edge {edge:.4f} at {price:.4f}",
                        confidence=record.confidence,
                        edge=edge,
                        expected_return_cents=er,
                        h_score=0.0,
                        strategy=agent.strategy,
                    ),
                )
            )

    room = max_open_positions - len(open_positions)
    for opp in rank_opportunities(candidates):
        if len(decisions) >= cfg.batch_size or room <= 0:
            break
        decision = opp.payload
        decisions.append(decision)
        used.add(decision.market_id)
        room -= 1

    for snap in snapshots:
        if len(decisions) >= cfg.batch_size:
            break
        if snap.condition_id in used:
            continue
        decisions.append(
            Decision(market_id=snap.condition_id, action=Action.HOLD, reasoning="no edge")
        )
        used.add(snap.condition_id)

    batch = DecisionBatch(
        decisions=tuple(decisions),
        overall_reasoning=f"{agent.agent_id} cycle decisions under {mode.value}",
        agent_id=agent.agent_id,
        produced_at=produced_at,
    )
    return decisions_to_wire(batch)
