from __future__ import annotations

import dataclasses
import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from driftmark.agents import (
    Action,
    CalibrationWindow,
    Decision,
    DecisionBatch,
    parse_decision_wire,
    validate_decision_batch,
)
from driftmark.errors import (
    AlreadyOpen,
    InsufficientCapital,
    NoSuchPosition,
    PositionLimitReached,
    ZeroPrice,
)
from driftmark.market_data import MIN_POSITIVE_PRICE, ResolvedOutcome
from driftmark.simulator import (
    EntryKind,
    LedgerEntry,
    Mode,
    Portfolio,
    Side,
    Trigger,
    apply_entries,
    apply_entry,
    close_position,
    entry_from_record,
    entry_to_record,
    evaluate_triggers,
    open_position,
    replay_ledger,
    resolve_market,
    step,
)

import oracles
from conftest import make_snapshot

NOW = datetime(2026, 2, 1, tzinfo=timezone.utc)


def buy(cid, amount_cents=15_000, action=Action.BUY_YES, edge=0.10, conf=9, er=100):
    return Decision(
        market_id=cid,
        action=action,
        amount_cents=amount_cents,
        confidence=conf,
        edge=edge,
        expected_return_cents=er,
    )


def batch_of(decisions, agent="a1"):
    return DecisionBatch(tuple(decisions), "", agent, NOW)


def mark(p, yes, cid="0xm"):
    """``p`` after a MARK of its position in ``cid`` at a YES price of ``yes``."""
    pos = p.position(cid)
    price = pos.side_price(make_snapshot(cid=cid, yes=yes))
    return apply_entry(p, LedgerEntry(p.next_seq, EntryKind.MARK, cid, 0, NOW, pos.side, price, 0, 0))


class TestOpenPosition:
    def test_arithmetic(self):
        p = Portfolio.fresh(600_000)
        snap = make_snapshot(cid="0xm", yes=0.50)
        p2, entry = open_position(p, buy("0xm", 15_000), snap, NOW)
        assert p2.available_cents == 585_000
        assert p2.deployed_cents == 15_000
        assert p2.total_capital_cents == 600_000
        pos = p2.position("0xm")
        assert pos.quantity_micro == 300_000_000  # 300 shares
        assert entry.kind == EntryKind.OPEN
        assert entry.cash_delta_cents == 0

    def test_insufficient_capital(self):
        p = Portfolio.fresh(5_000)
        with pytest.raises(InsufficientCapital):
            open_position(p, buy("0xm", 10_000), make_snapshot(cid="0xm"), NOW)

    def test_position_limit(self):
        p = Portfolio.fresh(600_000, max_open=1)
        p, _ = open_position(p, buy("0xa"), make_snapshot(cid="0xa"), NOW)
        with pytest.raises(PositionLimitReached):
            open_position(p, buy("0xb"), make_snapshot(cid="0xb"), NOW)

    def test_already_open(self):
        p = Portfolio.fresh(600_000)
        p, _ = open_position(p, buy("0xa"), make_snapshot(cid="0xa"), NOW)
        with pytest.raises(AlreadyOpen):
            open_position(p, buy("0xa"), make_snapshot(cid="0xa"), NOW)

    def test_buy_no_uses_no_price(self):
        p = Portfolio.fresh(600_000)
        snap = make_snapshot(cid="0xa", yes=0.75, no=0.25)
        p2, entry = open_position(p, buy("0xa", 10_000, Action.BUY_NO), snap, NOW)
        assert entry.side == Side.NO
        assert entry.price == 0.25
        assert p2.position("0xa").quantity_micro == 400_000_000


class TestMarkAndTriggers:
    def _open(self, yes=0.50, amount=15_000):
        p = Portfolio.fresh(600_000)
        snap = make_snapshot(cid="0xm", yes=yes)
        return open_position(p, buy("0xm", amount), snap, NOW)[0]

    def test_mark_unchanged(self):
        p = mark(self._open(), 0.50)
        assert p.position("0xm").unrealized_pnl_cents == 0

    def test_mark_up(self):
        p = mark(self._open(), 0.60)
        assert p.position("0xm").unrealized_pnl_cents == 3_000  # +$30

    def test_mark_down(self):
        p = mark(self._open(), 0.40)
        assert p.position("0xm").unrealized_pnl_cents == -3_000

    def test_missing_snapshot(self):
        # a stale position keeps its last mark and the step reports it
        p = mark(self._open(), 0.48)
        result = step(p, batch_of([]), {}, Mode.EXECUTION, now=NOW)
        assert result.entries == ()
        assert result.portfolio == p
        assert [(s.market_id, s.action, s.reason) for s in result.skipped] == [
            ("0xm", "MARK", "missing_snapshot")
        ]

    def test_trigger_bands(self):
        p = self._open()
        assert evaluate_triggers(mark(p, 0.47).position("0xm")) == Trigger.STOP_LOSS  # -6%
        assert evaluate_triggers(mark(p, 0.78).position("0xm")) == Trigger.TARGET_WIN  # +56%
        assert evaluate_triggers(mark(p, 0.49).position("0xm")) == Trigger.NONE  # -4%

    def test_trigger_boundaries(self):
        p = self._open(yes=0.50, amount=10_000)
        # exactly -5% and +50%
        assert evaluate_triggers(mark(p, 0.475).position("0xm")) == Trigger.STOP_LOSS
        assert evaluate_triggers(mark(p, 0.75).position("0xm")) == Trigger.TARGET_WIN


class TestClose:
    def _opened(self):
        p = Portfolio.fresh(600_000)
        snap = make_snapshot(cid="0xm", yes=0.50)
        return open_position(p, buy("0xm", 15_000), snap, NOW)[0]

    def test_full_close_realizes(self):
        p = self._opened()
        p2, entry = close_position(p, "0xm", make_snapshot(cid="0xm", yes=0.60), NOW)
        assert entry.cash_delta_cents == 3_000  # +$30 on $150 basis
        assert p2.total_capital_cents == 603_000
        assert p2.available_cents == 603_000
        assert p2.deployed_cents == 0
        assert p2.position("0xm") is None

    def test_half_close(self):
        p = self._opened()
        p2, entry = close_position(
            p, "0xm", make_snapshot(cid="0xm", yes=0.60), NOW, fraction=50
        )
        assert entry.cash_delta_cents == 1_500  # proceeds $90 on basis $75
        remaining = p2.position("0xm")
        assert remaining.cost_basis_cents == 7_500
        assert remaining.quantity_micro == 150_000_000

    def test_no_such_position(self):
        p = Portfolio.fresh(600_000)
        with pytest.raises(NoSuchPosition):
            close_position(p, "0xz", make_snapshot(cid="0xz"), NOW)


class TestResolve:
    def _opened(self):
        p = Portfolio.fresh(600_000)
        snap = make_snapshot(cid="0xm", yes=0.50)
        return open_position(p, buy("0xm", 15_000), snap, NOW)[0]

    def test_yes_wins(self):
        p = self._opened()
        p2, entry = resolve_market(p, ResolvedOutcome("0xm", 1, NOW))
        assert entry.cash_delta_cents == 15_000  # $300 payout on $150 basis
        assert p2.total_capital_cents == 615_000

    def test_yes_loses(self):
        p = self._opened()
        p2, entry = resolve_market(p, ResolvedOutcome("0xm", 0, NOW))
        assert entry.cash_delta_cents == -15_000
        assert p2.total_capital_cents == 585_000

    def test_no_position_noop(self):
        p = Portfolio.fresh(600_000)
        p2, entry = resolve_market(p, ResolvedOutcome("0xz", 1, NOW))
        assert entry is None
        assert p2 == p


class TestStep:
    def test_observation_mode_no_entries(self):
        p = Portfolio.fresh(600_000)
        result = step(
            p, batch_of([buy("0xa")]), {"0xa": make_snapshot(cid="0xa")}, Mode.OBSERVATION, now=NOW
        )
        assert result.entries == ()
        assert result.portfolio == p

    def test_buy_above_delta_opens(self):
        p = Portfolio.fresh(600_000)
        result = step(
            p,
            batch_of([buy("0xa", edge=0.10)]),
            {"0xa": make_snapshot(cid="0xa")},
            Mode.EXECUTION,
            0.03,
            now=NOW,
        )
        opens = [e for e in result.entries if e.kind == EntryKind.OPEN]
        assert len(opens) == 1

    def test_buy_below_delta_skipped(self):
        p = Portfolio.fresh(600_000)
        result = step(
            p,
            batch_of([buy("0xa", edge=0.02)]),
            {"0xa": make_snapshot(cid="0xa")},
            Mode.EXECUTION,
            0.03,
            now=NOW,
        )
        assert not [e for e in result.entries if e.kind == EntryKind.OPEN]
        assert result.skipped[0].reason == "threshold_not_met"

    def test_missing_edge_skipped(self):
        p = Portfolio.fresh(600_000)
        d = Decision(market_id="0xa", action=Action.BUY_YES, amount_cents=15_000)
        result = step(
            p, batch_of([d]), {"0xa": make_snapshot(cid="0xa")}, Mode.EXECUTION, now=NOW
        )
        assert result.skipped[0].reason == "no_recorded_edge"

    def test_trigger_close_enforced_without_agent_decision(self):
        p = Portfolio.fresh(600_000)
        p, _ = open_position(p, buy("0xa"), make_snapshot(cid="0xa", yes=0.50), NOW)
        crashed = {"0xa": make_snapshot(cid="0xa", yes=0.40)}
        result = step(p, batch_of([]), crashed, Mode.EXECUTION, now=NOW)
        closes = [e for e in result.entries if e.kind == EntryKind.CLOSE]
        assert len(closes) == 1
        assert closes[0].note == "trigger_stop_loss"
        assert result.portfolio.position("0xa") is None

    def test_no_trigger_band_violations_after_step(self):
        p = Portfolio.fresh(600_000)
        for i, yes in enumerate((0.5, 0.6, 0.7)):
            p, _ = open_position(
                p, buy(f"0x{i}"), make_snapshot(cid=f"0x{i}", yes=yes), NOW
            )
        moved = {
            "0x0": make_snapshot(cid="0x0", yes=0.30),
            "0x1": make_snapshot(cid="0x1", yes=0.95),
            "0x2": make_snapshot(cid="0x2", yes=0.71),
        }
        result = step(p, batch_of([]), moved, Mode.EXECUTION, now=NOW)
        for pos in result.portfolio.open_positions:
            assert evaluate_triggers(pos) == Trigger.NONE

    def test_agent_close_with_fraction(self):
        p = Portfolio.fresh(600_000)
        p, _ = open_position(p, buy("0xa"), make_snapshot(cid="0xa", yes=0.50), NOW)
        d = Decision(market_id="0xa", action=Action.CLOSE, close_fraction=50)
        result = step(
            p, batch_of([d]), {"0xa": make_snapshot(cid="0xa", yes=0.52)}, Mode.EXECUTION, now=NOW
        )
        assert result.portfolio.position("0xa").cost_basis_cents == 7_500

    def test_close_unknown_skipped(self):
        p = Portfolio.fresh(600_000)
        d = Decision(market_id="0xa", action=Action.CLOSE)
        result = step(
            p, batch_of([d]), {"0xa": make_snapshot(cid="0xa")}, Mode.EXECUTION, now=NOW
        )
        assert result.skipped[0].reason == "no_such_position"

    def test_ranked_fill_order(self):
        p = Portfolio.fresh(25_000)  # room for one $150 and one $100 buy
        decisions = [
            buy("0xlow", 15_000, edge=0.05, er=10),
            buy("0xhigh", 15_000, edge=0.20, er=500),
        ]
        snaps = {cid: make_snapshot(cid=cid) for cid in ("0xlow", "0xhigh")}
        result = step(p, batch_of(decisions), snaps, Mode.EXECUTION, now=NOW)
        opens = [e for e in result.entries if e.kind == EntryKind.OPEN]
        assert opens[0].condition_id == "0xhigh"
        skips = {s.market_id: s.reason for s in result.skipped}
        assert skips.get("0xlow") == "insufficient_capital"


# A quoted price is 0 or at least MIN_POSITIVE_PRICE, as the feed enforces.
PRICES = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(MIN_POSITIVE_PRICE, 1.0))

# Any ledger entry over a few markets: deltas of either sign, so entries
# can overdraw, exceed the position limit, or close what is not held.
ENTRIES = st.builds(
    LedgerEntry,
    seq=st.integers(1, 100),
    kind=st.sampled_from(EntryKind),
    condition_id=st.sampled_from(["0xa", "0xb", "0xc"]),
    cash_delta_cents=st.integers(-5_000, 5_000),
    timestamp=st.just(NOW),
    side=st.sampled_from(Side),
    price=st.floats(0.0, 1.0),
    quantity_micro=st.integers(-2_000_000, 2_000_000),
    basis_delta_cents=st.integers(-5_000, 20_000),
    note=st.sampled_from(["", "mark"]),
)


class TestLedger:
    def test_entry_round_trip(self):
        p = Portfolio.fresh(600_000)
        _, entry = open_position(p, buy("0xa"), make_snapshot(cid="0xa"), NOW)
        assert entry_from_record(entry_to_record(entry)) == entry

    def test_replay_reproduces_final_state(self):
        p = Portfolio.fresh(600_000)
        entries = []
        snaps = {}
        for i, yes in enumerate((0.5, 0.4, 0.6, 0.3)):
            cid = f"0x{i}"
            snaps[cid] = make_snapshot(cid=cid, yes=yes)
            p, e = open_position(p, buy(cid, 12_000 + i * 1_000), snaps[cid], NOW)
            entries.append(e)
        p, e = close_position(p, "0x1", make_snapshot(cid="0x1", yes=0.55), NOW, fraction=40)
        entries.append(e)
        p, e = resolve_market(p, ResolvedOutcome("0x2", 1, NOW))
        entries.append(e)
        replayed = replay_ledger(600_000, entries, max_open=p.max_open)
        # Resume rebuilds portfolios this way, so the whole state must match:
        # position order, unrealized P&L, opened_at and next_seq included.
        assert replayed == p

    def test_apply_entry_replay_rules(self):
        p = Portfolio.fresh(600_000)
        p, opened = open_position(p, buy("0xa"), make_snapshot(cid="0xa"), NOW)
        # an entry of a market without a position is refused, a MARK too:
        # taken as a no-op, it left next_seq behind its own seq
        for kind in (EntryKind.CLOSE, EntryKind.RESOLVE, EntryKind.MARK):
            with pytest.raises(NoSuchPosition):
                apply_entry(p, LedgerEntry(9, kind, "0xz", 0, NOW, Side.YES, 0.5, -1, -1))
        with pytest.raises(AlreadyOpen):
            apply_entry(p, opened)

    @given(
        capital=st.integers(0, 100_000),
        max_open=st.integers(0, 3),
        entries=st.lists(ENTRIES, max_size=30),
    )
    @settings(max_examples=500)
    @example(capital=100, max_open=30, entries=[
        LedgerEntry(4, EntryKind.OPEN, "0xa", 0, NOW, Side.YES, 0.5, 10, 50),
        LedgerEntry(5, EntryKind.MARK, "0xa", 0, NOW, Side.YES, 0.7, 0, 0),
        LedgerEntry(6, EntryKind.OPEN, "0xb", 0, NOW, Side.NO, 0.5, 10, 60),
    ])
    @example(capital=1_000, max_open=3, entries=[
        LedgerEntry(1, EntryKind.OPEN, "0xa", 0, NOW, Side.YES, 0.5, 1_000_000, 50),
        LedgerEntry(2, EntryKind.OPEN, "0xb", 0, NOW, Side.NO, 0.5, 1_000_000, 60),
        LedgerEntry(3, EntryKind.MARK, "0xa", 0, NOW, Side.YES, 0.7, 0, 0),
        LedgerEntry(4, EntryKind.CLOSE, "0xb", 5, NOW, Side.NO, 0.4, -500_000, -30),
        LedgerEntry(5, EntryKind.MARK, "0xc", 0, NOW, Side.NO, 0.4, 0, 0),
        LedgerEntry(6, EntryKind.RESOLVE, "0xa", -50, NOW, Side.YES, 0.0, -1_000_000, -50),
    ])
    def test_apply_entries_is_the_per_entry_fold(self, capital, max_open, entries):
        """Any entries, of any kind, market and delta: ``apply_entries`` is
        ``apply_entry`` folded over them, and the scan-and-rebuild oracle
        folded over them, or raises the per-entry fold's error, whose
        message names the entry that broke an invariant."""
        start = Portfolio.fresh(capital, max_open)
        portfolio = oracle = start
        for entry in entries:
            try:
                oracle = oracles.apply_entry_oracle(oracle, entry)
            except (AlreadyOpen, NoSuchPosition, AssertionError) as exc:
                with pytest.raises(type(exc)) as info:
                    apply_entry(portfolio, entry)
                if isinstance(exc, AssertionError):
                    assert str(info.value) == f"{exc} after ledger entry seq {entry.seq}"
                else:
                    assert str(info.value) == str(exc)
                with pytest.raises(type(exc)) as whole:
                    apply_entries(start, entries)
                assert str(whole.value) == str(info.value)
                return
            portfolio = apply_entry(portfolio, entry)
            assert portfolio == oracle
        assert apply_entries(start, entries) == portfolio

    @given(
        opened=st.lists(st.tuples(st.floats(0.05, 0.95), st.integers(10_000, 20_000)),
                        max_size=30),
        moves=st.dictionaries(st.integers(0, 29), st.floats(-0.6, 0.6)),
        first_seq=st.integers(1, 10**6),
    )
    @settings(max_examples=200)
    @example(opened=[(0.5, 10_000)] * 3, moves={0: 0.01, 2: -0.3}, first_seq=1)
    def test_step_of_an_empty_batch_is_the_oracle(self, opened, moves, first_seq):
        """Up to 30 positions, each with a snapshot whose side price moved
        past a trigger band, within the bands, or with no snapshot: the
        step's marks, in one pass, and its closes are the oracle's, and the
        seqs run on."""
        sides = [Side.YES if i % 2 else Side.NO for i in range(len(opened))]
        portfolio = dataclasses.replace(Portfolio.fresh(10**7), next_seq=first_seq)
        portfolio = apply_entries(portfolio, [
            LedgerEntry(first_seq + i, EntryKind.OPEN, f"0x{i:02d}", 0, NOW, side, price,
                        round(basis * 10_000 / price), basis)
            for i, ((price, basis), side) in enumerate(zip(opened, sides))
        ])
        snaps = {}
        for i, move in moves.items():
            if i < len(opened):
                price = min(opened[i][0] * (1 + move), 1.0)
                yes = price if sides[i] == Side.YES else 1.0 - price
                snaps[f"0x{i:02d}"] = make_snapshot(cid=f"0x{i:02d}", yes=yes)
        result = step(portfolio, batch_of([]), snaps, Mode.EXECUTION, now=NOW)
        assert result.portfolio == oracles.step_oracle(portfolio, snaps)
        assert [e.seq for e in result.entries] == list(
            range(portfolio.next_seq, portfolio.next_seq + len(result.entries))
        )

    def test_capital_identity_enforced(self):
        with pytest.raises(AssertionError):
            Portfolio(total_capital_cents=100, available_cents=60, deployed_cents=30)


class TestConservationFuzz:
    def test_randomized_decision_stream(self):
        # 10k randomized operations: the capital identity holds after every
        # mutation, ledger replay matches, and no trigger band survives a step.
        rng = random.Random(20260209)
        cids = [f"0x{i:03d}" for i in range(60)]
        prices = {cid: rng.uniform(0.1, 0.9) for cid in cids}
        p = Portfolio.fresh(2_000_000, max_open=30)
        all_entries = []
        t = NOW
        steps = 0
        while steps < 10_000:
            # drift prices
            for cid in cids:
                prices[cid] = min(0.99, max(0.01, prices[cid] + rng.gauss(0, 0.04)))
            snaps = {cid: make_snapshot(cid=cid, yes=prices[cid], observed=t) for cid in cids}
            decisions = []
            for _ in range(rng.randint(1, 6)):
                cid = rng.choice(cids)
                kind = rng.random()
                if kind < 0.55:
                    decisions.append(
                        buy(
                            cid,
                            rng.randint(10_000, 20_000),
                            rng.choice([Action.BUY_YES, Action.BUY_NO]),
                            edge=rng.uniform(-0.05, 0.3),
                            er=rng.randint(-100, 2_000),
                        )
                    )
                elif kind < 0.85:
                    decisions.append(
                        Decision(
                            market_id=cid,
                            action=Action.CLOSE,
                            close_fraction=rng.choice([None, 25, 50, 100]),
                        )
                    )
                else:
                    decisions.append(Decision(market_id=cid, action=Action.HOLD))
            result = step(p, batch_of(decisions), snaps, Mode.EXECUTION, 0.03, now=t)
            p = result.portfolio
            all_entries.extend(result.entries)
            steps += len(decisions)
            # capital identity is asserted by apply_entries after every
            # entry and by Portfolio.__post_init__; verify trigger bands
            # explicitly
            for pos in p.open_positions:
                assert evaluate_triggers(pos) == Trigger.NONE
            t = t + timedelta(minutes=5)

        replayed = replay_ledger(2_000_000, all_entries, max_open=30)
        assert replayed == p

    def test_determinism_of_ledger_stream(self):
        def run():
            rng = random.Random(5)
            p = Portfolio.fresh(600_000)
            entries = []
            t = NOW
            for i in range(50):
                cid = f"0x{rng.randint(0, 9)}"
                snaps = {cid: make_snapshot(cid=cid, yes=rng.uniform(0.2, 0.8), observed=t)}
                decisions = [buy(cid, rng.randint(10_000, 20_000), edge=0.2)]
                result = step(p, batch_of(decisions), snaps, Mode.EXECUTION, now=t)
                p = result.portfolio
                entries.extend(result.entries)
                t = t + timedelta(minutes=1)
            return [entry_to_record(e) for e in entries]

        assert run() == run()


MACHINE_CIDS = ("0xa", "0xb", "0xc", "0xd")


class PortfolioMachine(RuleBasedStateMachine):
    """Opens, partial and full closes, resolutions and steps (marks and
    trigger closes) on one portfolio. Each operation's portfolio equals the
    per-operation arithmetic of ``oracles``, and the replay of every entry so
    far equals the live portfolio."""

    CAPITAL = 50_000
    MAX_OPEN = 3

    def __init__(self):
        super().__init__()
        self.portfolio = Portfolio.fresh(self.CAPITAL, self.MAX_OPEN)
        self.entries = []
        self.now = NOW

    def _took(self, portfolio, entries):
        self.portfolio = portfolio
        self.entries.extend(entries)

    @rule(
        cid=st.sampled_from(MACHINE_CIDS),
        # the agent wire's amount range, which batch validation enforces
        amount=st.integers(10_000, 20_000),
        action=st.sampled_from([Action.BUY_YES, Action.BUY_NO]),
        yes=PRICES,
    )
    def open(self, cid, amount, action, yes):
        decision = Decision(market_id=cid, action=action, amount_cents=amount)
        snap = make_snapshot(cid=cid, yes=yes)
        try:
            after, entry = open_position(self.portfolio, decision, snap, self.now)
        except (AlreadyOpen, InsufficientCapital, PositionLimitReached, ZeroPrice):
            return
        assert after == oracles.open_oracle(self.portfolio, decision, snap, self.now)
        self._took(after, [entry])

    @rule(
        cid=st.sampled_from(MACHINE_CIDS),
        fraction=st.one_of(st.just(100), st.integers(1, 99)),
        yes=PRICES,
    )
    def close(self, cid, fraction, yes):
        snap = make_snapshot(cid=cid, yes=yes)
        if self.portfolio.position(cid) is None:
            with pytest.raises(NoSuchPosition):
                close_position(self.portfolio, cid, snap, self.now, fraction)
            return
        after, entry = close_position(self.portfolio, cid, snap, self.now, fraction)
        assert after == oracles.close_oracle(self.portfolio, cid, snap, fraction)
        self._took(after, [entry])

    @rule(cid=st.sampled_from(MACHINE_CIDS), outcome=st.integers(0, 1))
    def resolve(self, cid, outcome):
        resolved = ResolvedOutcome(cid, outcome, self.now)
        after, entry = resolve_market(self.portfolio, resolved)
        assert after == oracles.resolve_oracle(self.portfolio, resolved)
        self._took(after, [entry] if entry else [])

    @rule(moves=st.dictionaries(st.sampled_from(MACHINE_CIDS), PRICES))
    def step(self, moves):
        self.now += timedelta(minutes=5)
        snaps = {cid: make_snapshot(cid=cid, yes=yes) for cid, yes in moves.items()}
        result = step(self.portfolio, batch_of([]), snaps, Mode.EXECUTION, now=self.now)
        assert result.portfolio == oracles.step_oracle(self.portfolio, snaps)
        self._took(result.portfolio, result.entries)

    @invariant()
    def replay_equals_live(self):
        assert replay_ledger(self.CAPITAL, self.entries, self.MAX_OPEN) == self.portfolio


TestPortfolioMachine = PortfolioMachine.TestCase
TestPortfolioMachine.settings = settings(max_examples=150, stateful_step_count=25, deadline=None)


WIRE_CIDS = tuple(f"0x{i:02d}" for i in range(30))


def wire(first: dict) -> str:
    """An agent's reply: ``first`` for the first market, HOLDs for the rest."""
    holds = [{"marketId": cid, "action": "HOLD", "reasoning": ""} for cid in WIRE_CIDS[1:]]
    return json.dumps({"decisions": [{"marketId": WIRE_CIDS[0], **first}, *holds], "reasoning": ""})


BUY_YES_100 = {"action": "BUY_YES", "amount": 100.0, "reasoning": "", "confidence": 9,
               "edge": 0.1, "expectedReturn": 1.0}


def step_reply(portfolio, n: int, first: dict, yes: float):
    """Parse, validate and step the ``n``-th cycle's reply at yes price ``yes``."""
    now = NOW + timedelta(minutes=5 * n)
    batch, violations = parse_decision_wire(wire(first), agent_id="a1", produced_at=now)
    validation = validate_decision_batch(batch, set(WIRE_CIDS), CalibrationWindow(size=30))
    assert violations == [] and validation.ok, validation.issues
    snaps = {cid: make_snapshot(cid=cid, yes=yes) for cid in WIRE_CIDS}
    return step(portfolio, batch, snaps, Mode.EXECUTION, now=now)


class TestPartialClosesThroughTheWire:
    @settings(max_examples=300, deadline=None)
    @given(
        entry=st.floats(0.05, 0.95),
        # Each close's price moves at most 4% from the entry, mostly inside
        # the trigger bands, so a position can outlive many partial closes.
        closes=st.lists(st.tuples(st.integers(1, 99), st.floats(-0.04, 0.04)), max_size=16),
    )
    # Three 99% closes leave 200 micro-shares at a basis of 0 cents.
    @example(entry=0.5, closes=[(99, 0.0)] * 4)
    @example(entry=0.5, closes=[(99, 0.0)] * 3 + [(50, 0.04)])
    def test_any_close_amount_steps(self, entry, closes):
        """Each cycle's reply is parsed, validated and stepped: a $100 BUY,
        then CLOSEs of any closeAmount at moving prices. No step raises, a
        position left open can be checked against the trigger bands, and the
        ledger replays to the portfolio."""
        portfolio = Portfolio.fresh(600_000)
        entries = []
        replies = [(BUY_YES_100, entry)] + [
            ({"action": "CLOSE", "closeAmount": f, "reasoning": ""}, entry * (1 + move))
            for f, move in closes
        ]
        for n, (first, yes) in enumerate(replies):
            result = step_reply(portfolio, n, first, yes)
            portfolio = result.portfolio
            entries.extend(result.entries)
            for position in portfolio.open_positions:
                assert position.quantity_micro > 0 and position.cost_basis_cents >= 0
                # the next step's check, which divided by a basis of 0
                assert evaluate_triggers(position) in Trigger
        assert replay_ledger(600_000, entries) == portfolio

    def test_a_close_can_leave_a_remainder_past_a_band_until_the_next_step(self):
        """The step checks the trigger bands before the agent's own CLOSEs,
        and a partial close rounds the remaining basis and value to cents
        apart. So after these closes at an unchanged price the remainder is
        past the stop-loss band, and only the next step closes it."""
        portfolio = step_reply(Portfolio.fresh(600_000), 0, BUY_YES_100, 0.5).portfolio
        for n, fraction in enumerate((19, 42, 48, 75, 77, 89), 1):
            close = {"action": "CLOSE", "closeAmount": fraction, "reasoning": ""}
            portfolio = step_reply(portfolio, n, close, 0.5).portfolio
        (position,) = portfolio.open_positions
        assert (position.quantity_micro, position.cost_basis_cents) == (309_034, 16)
        assert position.unrealized_pnl_cents == -1
        assert evaluate_triggers(position) == Trigger.STOP_LOSS
        hold = {"action": "HOLD", "reasoning": ""}
        result = step_reply(portfolio, 7, hold, 0.5)
        closes = [e for e in result.entries if e.kind == EntryKind.CLOSE]
        assert [(e.condition_id, e.note) for e in closes] == [(WIRE_CIDS[0], "trigger_stop_loss")]
        assert result.portfolio.open_positions == ()
