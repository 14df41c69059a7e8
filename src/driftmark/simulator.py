"""Execution mode: simulated fills, the portfolio state machine, and the
P&L ledger.

Money is integer cents throughout; share quantities are integer
micro-shares so partial closes stay exact. Operations are functional: each
prices its change as one ledger entry and returns ``apply_entry`` of it.
``apply_entries`` is the one portfolio transition: ``apply_entry`` is its
one-entry case, and a step's marks and ledger replay pass it a whole
sequence. The capital identity available + deployed = total holds after
every entry.

Fills happen at the quoted price with no slippage (quote-level model;
depth is out of scope). One position per market per agent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import datetime
from enum import Enum
from pathlib import Path
from typing import Iterable

from .agents import Action, Decision, DecisionBatch, rank_decisions
from .errors import (
    AlreadyOpen,
    InsufficientCapital,
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
        """Marked P&L per cent of cost basis. Partial closes can round the
        basis to 0 while shares are left; any P&L is then unbounded."""
        pnl, basis = self.unrealized_pnl_cents, self.cost_basis_cents
        if basis == 0:
            return math.copysign(math.inf, pnl) if pnl else 0.0
        return pnl / basis

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


def _broken(total: int, available: int, deployed: int, n_open: int, max_open: int) -> str:
    """Which invariant a portfolio of these totals breaks ("" for none)."""
    if available + deployed != total:
        return f"capital identity broken: {available} + {deployed} != {total}"
    if available < 0:
        return "available capital went negative"
    if n_open > max_open:
        return "too many open positions"
    return ""


@dataclass(frozen=True)
class Portfolio:
    total_capital_cents: int
    available_cents: int
    deployed_cents: int
    open_positions: tuple[Position, ...] = ()
    max_open: int = 30
    next_seq: int = 1

    def __post_init__(self):
        broken = _broken(
            self.total_capital_cents, self.available_cents, self.deployed_cents,
            len(self.open_positions), self.max_open,
        )
        if broken:
            raise AssertionError(broken)

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
    return apply_entry(portfolio, entry), entry


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
    realized = _value_cents(closed_micro, price) - basis_released
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
    return apply_entry(portfolio, entry), entry


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
    realized = _value_cents(position.quantity_micro, settle_price) - position.cost_basis_cents
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
    return apply_entry(portfolio, entry), entry


def apply_entry(portfolio: Portfolio, entry: LedgerEntry) -> Portfolio:
    """The portfolio after one ledger entry: ``apply_entries`` of it."""
    return apply_entries(portfolio, (entry,))


def apply_entries(portfolio: Portfolio, entries: Iterable[LedgerEntry]) -> Portfolio:
    """The portfolio after ``entries``, in order: the only transition, shared
    by every operation above, ``step``'s marks and ``replay_ledger``.

    Every kind moves capital alike: ``basis_delta_cents`` goes from available
    to deployed, and the realized ``cash_delta_cents`` into available and
    total. An OPEN adds its position. A CLOSE, RESOLVE or MARK adds its
    quantity and basis to the market's position and marks what is left at
    its price; a position with no quantity left is removed. A CLOSE,
    RESOLVE or MARK for a market without a position raises
    ``NoSuchPosition``: ``step`` marks only the positions held, so every
    entry applied advances ``next_seq``.

    The positions are indexed by market once, keep their order, and the
    portfolio is built once, at the end; the totals after each entry are
    checked as ``Portfolio`` checks them, and an invariant broken is an
    ``AssertionError`` naming the entry's seq. So the result, or the error,
    is that of applying the entries one at a time.
    """
    total = portfolio.total_capital_cents
    available = portfolio.available_cents
    deployed = portfolio.deployed_cents
    max_open = portfolio.max_open
    next_seq = portfolio.next_seq
    held = {p.condition_id: p for p in portfolio.open_positions}
    for entry in entries:
        cid = entry.condition_id
        position = held.get(cid)
        if entry.kind == EntryKind.OPEN:
            if position is not None:
                raise AlreadyOpen(cid)
            held[cid] = Position(
                cid, entry.side, entry.price, entry.quantity_micro, entry.basis_delta_cents,
                entry.timestamp,
            )
        elif position is None:
            raise NoSuchPosition(cid)
        else:
            quantity = position.quantity_micro + entry.quantity_micro
            basis = position.cost_basis_cents + entry.basis_delta_cents
            if quantity <= 0:
                del held[cid]
            else:
                held[cid] = Position(
                    cid, position.side, position.entry_price, quantity, basis,
                    position.opened_at, _value_cents(quantity, entry.price) - basis,
                )
        cash, moved = entry.cash_delta_cents, entry.basis_delta_cents
        total += cash
        available += cash - moved
        deployed += moved
        next_seq = entry.seq + 1
        if available < 0 or available + deployed != total or len(held) > max_open:
            broken = _broken(total, available, deployed, len(held), max_open)
            raise AssertionError(f"{broken} after ledger entry seq {entry.seq}")
    return Portfolio(total, available, deployed, tuple(held.values()), max_open, next_seq)


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

    # Mark positions with a snapshot this cycle, in one transition; stale
    # ones keep their last mark and are reported, not fatal.
    for p in portfolio.open_positions:
        snap = snapshots.get(p.condition_id)
        if snap is None:
            skipped.append(SkipRecord(p.condition_id, "MARK", "missing_snapshot"))
            continue
        entries.append(LedgerEntry(
            portfolio.next_seq + len(entries), EntryKind.MARK, p.condition_id, 0, now, p.side,
            p.side_price(snap), 0, 0, "mark",
        ))
    portfolio = apply_entries(portfolio, entries)

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
    for d in rank_decisions(buys):
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

    def append(self, line: str) -> None:
        """Add one entry's line: ``entry_to_record`` as compact JSON."""
        self._lines.append(line)

    def sync(self) -> None:
        """Write every entry appended so far as the ledger file, atomically."""
        write_atomic(self.path, "".join(self._lines).encode())


def replay_ledger(
    initial_capital_cents: int, entries: Iterable[LedgerEntry], max_open: int = 30
) -> Portfolio:
    """Fold a ledger from initial capital back into the final portfolio."""
    return apply_entries(Portfolio.fresh(initial_capital_cents, max_open=max_open), entries)
