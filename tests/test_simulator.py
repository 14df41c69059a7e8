from __future__ import annotations

import random
from datetime import datetime, timedelta, timezone

import pytest

from driftmark.agents import Action, Decision, DecisionBatch
from driftmark.errors import (
    AlreadyOpen,
    InsufficientCapital,
    MissingSnapshot,
    NoSuchPosition,
    PositionLimitReached,
)
from driftmark.market_data import ResolvedOutcome
from driftmark.simulator import (
    EntryKind,
    Mode,
    Portfolio,
    Side,
    Trigger,
    close_position,
    entry_from_record,
    entry_to_record,
    evaluate_triggers,
    mark_to_market,
    open_position,
    replay_ledger,
    resolve_market,
    step,
)

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
        p = self._open()
        p = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.50)})
        assert p.position("0xm").unrealized_pnl_cents == 0

    def test_mark_up(self):
        p = self._open()
        p = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.60)})
        assert p.position("0xm").unrealized_pnl_cents == 3_000  # +$30

    def test_mark_down(self):
        p = self._open()
        p = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.40)})
        assert p.position("0xm").unrealized_pnl_cents == -3_000

    def test_missing_snapshot(self):
        p = self._open()
        with pytest.raises(MissingSnapshot):
            mark_to_market(p, {})

    def test_trigger_bands(self):
        p = self._open()
        marked = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.47)})
        assert evaluate_triggers(marked.position("0xm")) == Trigger.STOP_LOSS  # -6%
        marked = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.78)})
        assert evaluate_triggers(marked.position("0xm")) == Trigger.TARGET_WIN  # +56%
        marked = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.49)})
        assert evaluate_triggers(marked.position("0xm")) == Trigger.NONE  # -4%

    def test_trigger_boundaries(self):
        p = self._open(yes=0.50, amount=10_000)
        # exactly -5% and +50%
        marked = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.475)})
        assert evaluate_triggers(marked.position("0xm")) == Trigger.STOP_LOSS
        marked = mark_to_market(p, {"0xm": make_snapshot(cid="0xm", yes=0.75)})
        assert evaluate_triggers(marked.position("0xm")) == Trigger.TARGET_WIN


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
            # capital identity is asserted inside Portfolio.__post_init__ on
            # every mutation; verify trigger bands explicitly
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
