"""Execution mode: simulated fills, the portfolio state machine, and the
P&L ledger.

Money is integer cents throughout; share quantities are integer
micro-shares so partial closes stay exact. Operations are functional: each
returns a new portfolio plus the ledger entries it produced, and the
capital identity available + deployed = total holds after every mutation.

Fills happen at the quoted price with no slippage (quote-level model;
depth is out of scope). One position per market per agent.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Iterable

from .agents import Action, Decision, DecisionBatch, Opportunity, rank_opportunities
from .errors import (
    AlreadyOpen,
    InsufficientCapital,
    MissingSnapshot,
    NoSuchPosition,
    PositionLimitReached,
    ZeroPrice,
)
from .fileio import write_atomic
from .market_data import MarketSnapshot, ResolvedOutcome
from .timeutil import from_iso, to_iso

MICRO = 1_000_000  # micro-shares per share


class Side(str, Enum):
    YES = "YES"
    NO = "NO"


class EntryKind(str, Enum):
    OPEN = "OPEN"
    CLOSE = "CLOSE"
    RESOLVE = "RESOLVE"
    MARK = "MARK"


class Trigger(str, Enum):
    STOP_LOSS = "STOP_LOSS"
    TARGET_WIN = "TARGET_WIN"
    NONE = "NONE"


class Mode(str, Enum):
    OBSERVATION = "observation"
    EXECUTION = "execution"


def _value_cents(quantity_micro: int, price: float) -> int:
    """Market value of a quantity at a price, rounded half-even to cents."""
    return int(round(quantity_micro * price / 10_000.0))


@dataclass(frozen=True)
class Position:
    condition_id: str
    side: Side
    entry_price: float
    quantity_micro: int
    cost_basis_cents: int
    opened_at: datetime
    unrealized_pnl_cents: int = 0

    @property
    def pnl_ratio(self) -> float:
        return self.unrealized_pnl_cents / self.cost_basis_cents

    def side_price(self, snapshot: MarketSnapshot) -> float:
        return snapshot.yes_price if self.side == Side.YES else snapshot.no_price


@dataclass(frozen=True)
class LedgerEntry:
    seq: int
    kind: EntryKind
    condition_id: str
    # Realized P&L for CLOSE/RESOLVE; zero for OPEN and MARK.
    cash_delta_cents: int
    timestamp: datetime
    side: Side
    price: float
    # Signed micro-shares: positive on OPEN, negative on CLOSE/RESOLVE.
    quantity_micro: int
    # Cost basis moved into (+) or out of (-) the deployed bucket.
    basis_delta_cents: int
    note: str = ""


@dataclass(frozen=True)
class Portfolio:
    total_capital_cents: int
    available_cents: int
    deployed_cents: int
    open_positions: tuple[Position, ...] = ()
    max_open: int = 30
    next_seq: int = 1

    def __post_init__(self):
        if self.available_cents + self.deployed_cents != self.total_capital_cents:
            raise AssertionError(
                f"capital identity broken: {self.available_cents} + {self.deployed_cents} "
                f"!= {self.total_capital_cents}"
            )
        if self.available_cents < 0:
            raise AssertionError("available capital went negative")
        if len(self.open_positions) > self.max_open:
            raise AssertionError("too many open positions")

    @classmethod
    def fresh(cls, capital_cents: int, max_open: int = 30) -> "Portfolio":
        return cls(
            total_capital_cents=capital_cents,
            available_cents=capital_cents,
            deployed_cents=0,
            max_open=max_open,
        )

    def position(self, condition_id: str) -> Position | None:
        for p in self.open_positions:
            if p.condition_id == condition_id:
                return p
        return None

    def _without(self, condition_id: str) -> tuple[Position, ...]:
        return tuple(p for p in self.open_positions if p.condition_id != condition_id)

    def summary(self) -> str:
        return (
            f"total ${self.total_capital_cents / 100:.2f}, "
            f"available ${self.available_cents / 100:.2f}, "
            f"deployed ${self.deployed_cents / 100:.2f}, "
            f"open {len(self.open_positions)}/{self.max_open}"
        )


# --- core operations -----------------------------------------------------------


def open_position(
    portfolio: Portfolio, decision: Decision, snapshot: MarketSnapshot, now: datetime
) -> tuple[Portfolio, LedgerEntry]:
    """Fill a validated BUY at the quoted side price."""
    if decision.action not in (Action.BUY_YES, Action.BUY_NO):
        raise ValueError("open_position requires a BUY decision")
    amount = decision.amount_cents
    if amount is None:
        raise ValueError("BUY decision without amount")
    if portfolio.position(decision.market_id) is not None:
        raise AlreadyOpen(decision.market_id)
    if amount > portfolio.available_cents:
        raise InsufficientCapital(f"need {amount}, have {portfolio.available_cents}")
    if len(portfolio.open_positions) >= portfolio.max_open:
        raise PositionLimitReached(str(portfolio.max_open))
    side = Side.YES if decision.action == Action.BUY_YES else Side.NO
    price = snapshot.yes_price if side == Side.YES else snapshot.no_price
    if price <= 0.0:
        raise ZeroPrice(f"cannot fill at price {price}")
    quantity = int(round(amount * 10_000.0 / price))
    position = Position(
        condition_id=decision.market_id,
        side=side,
        entry_price=price,
        quantity_micro=quantity,
        cost_basis_cents=amount,
        opened_at=now,
    )
    entry = LedgerEntry(
        seq=portfolio.next_seq,
        kind=EntryKind.OPEN,
        condition_id=decision.market_id,
        cash_delta_cents=0,
        timestamp=now,
        side=side,
        price=price,
        quantity_micro=quantity,
        basis_delta_cents=amount,
        note="fill",
    )
    updated = replace(
        portfolio,
        available_cents=portfolio.available_cents - amount,
        deployed_cents=portfolio.deployed_cents + amount,
        open_positions=portfolio.open_positions + (position,),
        next_seq=portfolio.next_seq + 1,
    )
    return updated, entry


def mark_to_market(
    portfolio: Portfolio, snapshots: dict[str, MarketSnapshot]
) -> Portfolio:
    """Recompute unrealized P&L for every open position."""
    marked = []
    for p in portfolio.open_positions:
        snap = snapshots.get(p.condition_id)
        if snap is None:
            raise MissingSnapshot(p.condition_id)
        value = _value_cents(p.quantity_micro, p.side_price(snap))
        marked.append(replace(p, unrealized_pnl_cents=value - p.cost_basis_cents))
    return replace(portfolio, open_positions=tuple(marked))


def evaluate_triggers(
    position: Position, stop_loss: float = -0.05, target_win: float = 0.50
) -> Trigger:
    """Mandatory-close check on the marked pnl/cost ratio."""
    ratio = position.pnl_ratio
    if ratio <= stop_loss:
        return Trigger.STOP_LOSS
    if ratio >= target_win:
        return Trigger.TARGET_WIN
    return Trigger.NONE


def close_position(
    portfolio: Portfolio,
    condition_id: str,
    snapshot: MarketSnapshot,
    now: datetime,
    fraction: int = 100,
    note: str = "agent_close",
) -> tuple[Portfolio, LedgerEntry]:
    """Sell part or all of a position at the quoted side price."""
    position = portfolio.position(condition_id)
    if position is None:
        raise NoSuchPosition(condition_id)
    if not (1 <= fraction <= 100):
        raise ValueError(f"close fraction must be 1-100, got {fraction}")
    price = position.side_price(snapshot)
    if fraction == 100:
        closed_micro = position.quantity_micro
    else:
        closed_micro = int(round(position.quantity_micro * fraction / 100.0))
    closed_micro = max(1, min(closed_micro, position.quantity_micro))
    basis_released = int(
        round(position.cost_basis_cents * closed_micro / position.quantity_micro)
    )
    proceeds = _value_cents(closed_micro, price)
    realized = proceeds - basis_released

    if closed_micro == position.quantity_micro:
        positions = portfolio._without(condition_id)
    else:
        remaining_micro = position.quantity_micro - closed_micro
        remaining_basis = position.cost_basis_cents - basis_released
        remaining = replace(
            position,
            quantity_micro=remaining_micro,
            cost_basis_cents=remaining_basis,
            unrealized_pnl_cents=_value_cents(remaining_micro, price) - remaining_basis,
        )
        positions = tuple(
            remaining if p.condition_id == condition_id else p
            for p in portfolio.open_positions
        )
    entry = LedgerEntry(
        seq=portfolio.next_seq,
        kind=EntryKind.CLOSE,
        condition_id=condition_id,
        cash_delta_cents=realized,
        timestamp=now,
        side=position.side,
        price=price,
        quantity_micro=-closed_micro,
        basis_delta_cents=-basis_released,
        note=note,
    )
    updated = replace(
        portfolio,
        total_capital_cents=portfolio.total_capital_cents + realized,
        available_cents=portfolio.available_cents + proceeds,
        deployed_cents=portfolio.deployed_cents - basis_released,
        open_positions=positions,
        next_seq=portfolio.next_seq + 1,
    )
    return updated, entry


def resolve_market(
    portfolio: Portfolio, outcome: ResolvedOutcome, now: datetime | None = None
) -> tuple[Portfolio, LedgerEntry | None]:
    """Settle a position at resolution: winners pay $1 per share, losers zero.

    A market without an open position is a no-op.
    """
    position = portfolio.position(outcome.condition_id)
    if position is None:
        return portfolio, None
    ts = now or outcome.resolved_at
    won = (position.side == Side.YES) == (outcome.outcome == 1)
    settle_price = 1.0 if won else 0.0
    proceeds = _value_cents(position.quantity_micro, settle_price)
    realized = proceeds - position.cost_basis_cents
    entry = LedgerEntry(
        seq=portfolio.next_seq,
        kind=EntryKind.RESOLVE,
        condition_id=outcome.condition_id,
        cash_delta_cents=realized,
        timestamp=ts,
        side=position.side,
        price=settle_price,
        quantity_micro=-position.quantity_micro,
        basis_delta_cents=-position.cost_basis_cents,
        note="resolution",
    )
    updated = replace(
        portfolio,
        total_capital_cents=portfolio.total_capital_cents + realized,
        available_cents=portfolio.available_cents + proceeds,
        deployed_cents=portfolio.deployed_cents - position.cost_basis_cents,
        open_positions=portfolio._without(outcome.condition_id),
        next_seq=portfolio.next_seq + 1,
    )
    return updated, entry


# --- the step ---------------------------------------------------------------------


@dataclass(frozen=True)
class SkipRecord:
    market_id: str
    action: str
    reason: str


@dataclass(frozen=True)
class StepResult:
    portfolio: Portfolio
    entries: tuple[LedgerEntry, ...]
    skipped: tuple[SkipRecord, ...]


def step(
    portfolio: Portfolio,
    batch: DecisionBatch,
    snapshots: dict[str, MarketSnapshot],
    mode: Mode,
    delta: float = 0.03,
    *,
    now: datetime,
    stop_loss: float = -0.05,
    target_win: float = 0.50,
) -> StepResult:
    """Apply one validated decision batch.

    Observation mode executes nothing. Execution mode marks positions,
    applies mandatory trigger closes (whether or not the agent asked),
    honors agent CLOSE decisions, then fills BUYs with recorded edge above
    delta in ranked order until capital or position limits bind. Every skip
    carries its reason; sub-operation failures never abort the step.
    """
    if mode == Mode.OBSERVATION:
        return StepResult(portfolio=portfolio, entries=(), skipped=())

    entries: list[LedgerEntry] = []
    skipped: list[SkipRecord] = []

    # Mark positions with a snapshot this cycle; stale ones keep their last
    # mark and are reported, not fatal.
    marked: list[Position] = []
    next_seq = portfolio.next_seq
    for p in portfolio.open_positions:
        snap = snapshots.get(p.condition_id)
        if snap is None:
            skipped.append(SkipRecord(p.condition_id, "MARK", "missing_snapshot"))
            marked.append(p)
            continue
        price = p.side_price(snap)
        value = _value_cents(p.quantity_micro, price)
        marked.append(replace(p, unrealized_pnl_cents=value - p.cost_basis_cents))
        entries.append(
            LedgerEntry(
                seq=next_seq,
                kind=EntryKind.MARK,
                condition_id=p.condition_id,
                cash_delta_cents=0,
                timestamp=now,
                side=p.side,
                price=price,
                quantity_micro=0,
                basis_delta_cents=0,
                note="mark",
            )
        )
        next_seq += 1
    portfolio = replace(portfolio, open_positions=tuple(marked), next_seq=next_seq)

    # Mandatory trigger closes, engine-enforced.
    for position in list(portfolio.open_positions):
        snap = snapshots.get(position.condition_id)
        if snap is None:
            continue
        trigger = evaluate_triggers(position, stop_loss, target_win)
        if trigger != Trigger.NONE:
            portfolio, entry = close_position(
                portfolio,
                position.condition_id,
                snap,
                now,
                note=f"trigger_{trigger.value.lower()}",
            )
            entries.append(entry)

    # Agent CLOSE decisions (voluntary).
    for d in batch.decisions:
        if d.action != Action.CLOSE:
            continue
        snap = snapshots.get(d.market_id)
        if snap is None:
            skipped.append(SkipRecord(d.market_id, d.action.value, "missing_snapshot"))
            continue
        if portfolio.position(d.market_id) is None:
            skipped.append(SkipRecord(d.market_id, d.action.value, "no_such_position"))
            continue
        portfolio, entry = close_position(
            portfolio, d.market_id, snap, now, fraction=d.close_fraction or 100
        )
        entries.append(entry)

    # BUYs above the entry threshold, best first.
    buys = [d for d in batch.decisions if d.action in (Action.BUY_YES, Action.BUY_NO)]
    ranked = rank_opportunities(
        [
            Opportunity(
                h_score=d.h_score if d.h_score is not None else 0.0,
                expected_return_cents=(
                    d.expected_return_cents if d.expected_return_cents is not None else 0
                ),
                edge=d.edge if d.edge is not None else 0.0,
                confidence=d.confidence if d.confidence is not None else 0,
                payload=d,
            )
            for d in buys
        ]
    )
    for opp in ranked:
        d: Decision = opp.payload
        if d.edge is None:
            skipped.append(SkipRecord(d.market_id, d.action.value, "no_recorded_edge"))
            continue
        if d.edge <= delta:
            skipped.append(SkipRecord(d.market_id, d.action.value, "threshold_not_met"))
            continue
        snap = snapshots.get(d.market_id)
        if snap is None:
            skipped.append(SkipRecord(d.market_id, d.action.value, "missing_snapshot"))
            continue
        try:
            portfolio, entry = open_position(portfolio, d, snap, now)
            entries.append(entry)
        except AlreadyOpen:
            skipped.append(SkipRecord(d.market_id, d.action.value, "already_open"))
        except InsufficientCapital:
            skipped.append(SkipRecord(d.market_id, d.action.value, "insufficient_capital"))
        except PositionLimitReached:
            skipped.append(SkipRecord(d.market_id, d.action.value, "position_limit_reached"))
        except ZeroPrice:
            skipped.append(SkipRecord(d.market_id, d.action.value, "zero_price"))

    return StepResult(portfolio=portfolio, entries=tuple(entries), skipped=tuple(skipped))


# --- ledger persistence and replay ---------------------------------------------------


def entry_to_record(entry: LedgerEntry) -> dict:
    return {
        "seq": entry.seq,
        "kind": entry.kind.value,
        "condition_id": entry.condition_id,
        "cash_delta_cents": entry.cash_delta_cents,
        "timestamp": to_iso(entry.timestamp),
        "side": entry.side.value,
        "price": entry.price,
        "quantity_micro": entry.quantity_micro,
        "basis_delta_cents": entry.basis_delta_cents,
        "note": entry.note,
    }


def entry_from_record(data: dict) -> LedgerEntry:
    return LedgerEntry(
        seq=int(data["seq"]),
        kind=EntryKind(data["kind"]),
        condition_id=data["condition_id"],
        cash_delta_cents=int(data["cash_delta_cents"]),
        timestamp=from_iso(data["timestamp"]),
        side=Side(data["side"]),
        price=float(data["price"]),
        quantity_micro=int(data["quantity_micro"]),
        basis_delta_cents=int(data["basis_delta_cents"]),
        note=data.get("note", ""),
    )


class LedgerWriter:
    """A JSONL ledger, kept in memory until ``sync`` writes the whole file."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._lines: list[str] = []

    def append(self, entry: LedgerEntry) -> None:
        self._lines.append(json.dumps(entry_to_record(entry), separators=(",", ":")) + "\n")

    def sync(self) -> None:
        """Write every entry appended so far as the ledger file, atomically."""
        write_atomic(self.path, "".join(self._lines).encode())


def replay_ledger(
    initial_capital_cents: int, entries: Iterable[LedgerEntry], max_open: int = 30
) -> Portfolio:
    """Fold a ledger from initial capital back into the final portfolio."""
    portfolio = Portfolio.fresh(initial_capital_cents, max_open=max_open)
    for entry in entries:
        if entry.kind == EntryKind.OPEN:
            position = Position(
                condition_id=entry.condition_id,
                side=entry.side,
                entry_price=entry.price,
                quantity_micro=entry.quantity_micro,
                cost_basis_cents=entry.basis_delta_cents,
                opened_at=entry.timestamp,
            )
            portfolio = replace(
                portfolio,
                available_cents=portfolio.available_cents - entry.basis_delta_cents,
                deployed_cents=portfolio.deployed_cents + entry.basis_delta_cents,
                open_positions=portfolio.open_positions + (position,),
                next_seq=entry.seq + 1,
            )
        elif entry.kind in (EntryKind.CLOSE, EntryKind.RESOLVE):
            position = portfolio.position(entry.condition_id)
            if position is None:
                raise NoSuchPosition(entry.condition_id)
            closed = -entry.quantity_micro
            released = -entry.basis_delta_cents
            proceeds = released + entry.cash_delta_cents
            if closed >= position.quantity_micro:
                positions = portfolio._without(entry.condition_id)
            else:
                remaining = replace(
                    position,
                    quantity_micro=position.quantity_micro - closed,
                    cost_basis_cents=position.cost_basis_cents - released,
                    unrealized_pnl_cents=_value_cents(
                        position.quantity_micro - closed, entry.price
                    )
                    - (position.cost_basis_cents - released),
                )
                positions = tuple(
                    remaining if p.condition_id == entry.condition_id else p
                    for p in portfolio.open_positions
                )
            portfolio = replace(
                portfolio,
                total_capital_cents=portfolio.total_capital_cents + entry.cash_delta_cents,
                available_cents=portfolio.available_cents + proceeds,
                deployed_cents=portfolio.deployed_cents - released,
                open_positions=positions,
                next_seq=entry.seq + 1,
            )
        elif entry.kind == EntryKind.MARK:
            position = portfolio.position(entry.condition_id)
            if position is not None:
                updated = replace(
                    position,
                    unrealized_pnl_cents=_value_cents(position.quantity_micro, entry.price)
                    - position.cost_basis_cents,
                )
                portfolio = replace(
                    portfolio,
                    open_positions=tuple(
                        updated if p.condition_id == entry.condition_id else p
                        for p in portfolio.open_positions
                    ),
                    next_seq=entry.seq + 1,
                )
    return portfolio
