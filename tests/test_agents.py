from __future__ import annotations

import json
import random
from datetime import datetime, timezone

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmark import agents
from driftmark.agents import (
    Action,
    CalibrationWindow,
    Decision,
    DecisionBatch,
    MarketCopier,
    Memory,
    Strategy,
    WindowMode,
    build_agent,
    build_decision_batch,
    compute_edge,
    decisions_to_wire,
    expected_return,
    parse_decision_wire,
    rank_decisions,
    sample_forecast,
    validate_decision_batch,
)
from driftmark.config import AgentConfig
from driftmark.errors import MalformedAgentOutput, ZeroPrice
from driftmark.market_data import MIN_POSITIVE_PRICE, Risk

import oracles
from conftest import make_snapshot

NOW = datetime(2026, 2, 1, tzinfo=timezone.utc)


def window_with(pnls, size=30):
    return CalibrationWindow(entries=tuple(pnls), size=size)


class TestCalibrationWindow:
    def test_modes(self):
        assert window_with([]).mode == WindowMode.FIRST_CALL
        assert window_with([10] * 7).mode == WindowMode.BOOTSTRAP
        assert window_with([10] * 30).mode == WindowMode.CALIBRATION


def calibration_adjustment(window, stated_prob, penalty=-0.05):
    """The win rate and nudge ``build_decision_batch`` takes for a forecast
    of ``stated_prob`` under ``window``, as the object path took them: the
    rate is the package's, the nudge the oracle's (``build_decision_batch``
    nudges inline and is tested against that path)."""
    return oracles.adjustment(agents._win_rate(window), stated_prob, penalty)


class TestCalibrationAdjustment:
    def test_first_call_prior(self):
        adj = calibration_adjustment(window_with([]), 0.5)
        assert adj.win_rate_adj == 0.5
        assert adj.prob_adjustment == 0.0

    def test_full_window_plain_rate(self):
        adj = calibration_adjustment(window_with([1] * 15 + [-1] * 15), 0.4)
        assert adj.win_rate_adj == 0.5
        assert adj.prob_adjustment == 0.0  # 0.5 >= 0.4

    def test_laplace_below_full_window(self):
        adj = calibration_adjustment(window_with([1] * 10 + [-1] * 10), 0.7)
        assert adj.win_rate_adj == pytest.approx(11 / 22, abs=1e-15)
        assert adj.prob_adjustment == -0.05  # 0.5 < 0.7

    @given(
        st.lists(st.integers(-1000, 1000), max_size=30),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=200)
    def test_matches_oracle_and_domain(self, pnls, stated):
        adj = calibration_adjustment(window_with(pnls), stated)
        rate, nudge = oracles.calibration_adjustment_oracle(pnls, 30, stated)
        assert adj.win_rate_adj == pytest.approx(rate, abs=1e-12)
        assert adj.prob_adjustment == nudge
        assert 0.0 <= adj.win_rate_adj <= 1.0
        assert adj.prob_adjustment in (0.0, -0.05)


class TestEdgeAndReturn:
    def test_edge_is_difference(self):
        assert compute_edge(0.65, 0.55) == pytest.approx(0.10, abs=1e-12)
        assert compute_edge(0.4, 0.4) == 0.0
        assert compute_edge(1.0, 0.0) == 1.0

    def test_fair_bet_zero(self):
        assert expected_return(0.5, 10_000, 0.5) == 0

    def test_hand_values(self):
        # 0.6*100*(1/0.5-1) - 0.4*100 = +20 dollars
        assert expected_return(0.6, 10_000, 0.5) == 2_000
        # 0.6*150*(1/0.75-1) - 0.4*150 = -30 dollars
        assert expected_return(0.6, 15_000, 0.75) == -3_000

    def test_zero_price(self):
        with pytest.raises(ZeroPrice):
            expected_return(0.5, 10_000, 0.0)

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.integers(min_value=10_000, max_value=20_000),
    )
    @settings(max_examples=300)
    def test_fair_odds_property(self, price, bet):
        assert expected_return(price, bet, price) == 0

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=1, max_value=50_000),
        st.floats(min_value=0.01, max_value=1.0),
    )
    @settings(max_examples=300)
    def test_matches_oracle(self, prob, bet, price):
        assert expected_return(prob, bet, price) == oracles.expected_return_oracle(
            prob, bet, price
        )


def _hold_batch(ids, agent_id="a1"):
    return DecisionBatch(
        decisions=tuple(Decision(market_id=i, action=Action.HOLD) for i in ids),
        overall_reasoning="",
        agent_id=agent_id,
        produced_at=NOW,
    )


def _known(n=40):
    return {f"0x{i:040x}" for i in range(n)}


class TestValidateBatch:
    def test_thirty_holds_accepted(self):
        ids = sorted(_known())[:30]
        result = validate_decision_batch(_hold_batch(ids), _known(), window_with([]))
        assert result.ok

    def test_wrong_cardinality(self):
        ids = sorted(_known())[:29]
        result = validate_decision_batch(_hold_batch(ids), _known(), window_with([]))
        assert not result.ok
        assert "wrong_cardinality" in {i.code for i in result.issues}

    def test_duplicate_market(self):
        ids = sorted(_known())[:29]
        result = validate_decision_batch(
            _hold_batch(ids + [ids[0]]), _known(), window_with([])
        )
        assert "duplicate_market" in {i.code for i in result.issues}

    def test_unknown_market(self):
        ids = sorted(_known())[:29] + ["0xunknown"]
        result = validate_decision_batch(_hold_batch(ids), _known(), window_with([]))
        assert "unknown_market" in {i.code for i in result.issues}

    def test_buy_amount_out_of_range(self):
        ids = sorted(_known())[:30]
        decisions = [Decision(market_id=i, action=Action.HOLD) for i in ids[:29]]
        decisions.append(
            Decision(
                market_id=ids[29],
                action=Action.BUY_YES,
                amount_cents=25_000,  # $250
                confidence=9,
                edge=0.2,
                expected_return_cents=100,
            )
        )
        batch = DecisionBatch(tuple(decisions), "", "a1", NOW)
        result = validate_decision_batch(batch, _known(), window_with([]))
        assert "amount_out_of_range" in {i.code for i in result.issues}

    def test_bootstrap_thresholds(self):
        ids = sorted(_known())[:30]
        low_conf = Decision(
            market_id=ids[0],
            action=Action.BUY_YES,
            amount_cents=15_000,
            confidence=6,  # below 7
            edge=0.10,
            expected_return_cents=500,
        )
        rest = [Decision(market_id=i, action=Action.HOLD) for i in ids[1:]]
        batch = DecisionBatch((low_conf, *rest), "", "a1", NOW)
        result = validate_decision_batch(batch, _known(), window_with([10]))
        assert "threshold_violation" in {i.code for i in result.issues}

    def test_calibration_thresholds(self):
        ids = sorted(_known())[:30]
        ok_decision = Decision(
            market_id=ids[0],
            action=Action.BUY_YES,
            amount_cents=15_000,
            confidence=9,
            edge=0.03,
            expected_return_cents=1,
        )
        rest = [Decision(market_id=i, action=Action.HOLD) for i in ids[1:]]
        batch = DecisionBatch((ok_decision, *rest), "", "a1", NOW)
        assert validate_decision_batch(batch, _known(), window_with([10] * 30)).ok
        thin_edge = DecisionBatch(
            (
                Decision(
                    market_id=ids[0],
                    action=Action.BUY_YES,
                    amount_cents=15_000,
                    confidence=9,
                    edge=0.029,
                    expected_return_cents=1,
                ),
                *rest,
            ),
            "",
            "a1",
            NOW,
        )
        result = validate_decision_batch(thin_edge, _known(), window_with([10] * 30))
        assert "threshold_violation" in {i.code for i in result.issues}

    def test_fuzzed_batches(self):
        # Acceptance-style fuzz: every illegal batch rejected with the right
        # code, every compliant batch accepted.
        rng = random.Random(4321)
        known = sorted(_known(60))
        for _ in range(300):
            flavor = rng.choice(["ok", "cardinality", "duplicate", "amount"])
            ids = rng.sample(known, 30)
            decisions = [Decision(market_id=i, action=Action.HOLD) for i in ids]
            if flavor == "cardinality":
                n = rng.choice([0, 1, 29, 31, 45])
                decisions = decisions[:n] if n <= 30 else decisions + [
                    Decision(market_id=i, action=Action.HOLD)
                    for i in rng.sample([k for k in known if k not in ids], n - 30)
                ]
            elif flavor == "duplicate":
                decisions[-1] = Decision(market_id=ids[0], action=Action.HOLD)
            elif flavor == "amount":
                bad = rng.choice([5_000, 9_999, 20_001, 100_000])
                decisions[0] = Decision(
                    market_id=ids[0],
                    action=Action.BUY_NO,
                    amount_cents=bad,
                    confidence=9,
                    edge=0.5,
                    expected_return_cents=100,
                )
            batch = DecisionBatch(tuple(decisions), "", "a1", NOW)
            result = validate_decision_batch(batch, set(known), window_with([]))
            if flavor == "ok":
                assert result.ok
            elif flavor == "cardinality":
                assert "wrong_cardinality" in {i.code for i in result.issues}
            elif flavor == "duplicate":
                assert "duplicate_market" in {i.code for i in result.issues}
            else:
                assert "amount_out_of_range" in {i.code for i in result.issues}


    @given(
        decisions=st.lists(
            st.builds(
                Decision,
                market_id=st.sampled_from(["0x0", "0x1", "0x2", "0xunknown"]),
                action=st.sampled_from(list(Action)),
                amount_cents=st.one_of(st.none(), st.integers(0, 30_000)),
                close_fraction=st.one_of(st.none(), st.integers(-5, 120)),
                confidence=st.one_of(st.none(), st.integers(0, 10)),
                edge=st.one_of(st.none(), st.floats(-0.2, 0.2)),
                expected_return_cents=st.one_of(st.none(), st.integers(-100, 100)),
            ),
            max_size=8,
        ),
        pnls=st.lists(st.integers(-5, 5), max_size=4),
        batch_size=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    def test_issues_equal_every_check_on_every_decision(self, decisions, pnls, batch_size):
        """Skipping the BUY and threshold checks for a HOLD without
        closeAmount leaves every issue and its order as running every
        check on every decision gives."""
        batch = DecisionBatch(tuple(decisions), "", "a1", NOW)
        known, window = {"0x0", "0x1", "0x2"}, window_with(pnls, size=3)
        cfg = AgentConfig(batch_size=batch_size)
        result = validate_decision_batch(batch, known, window, cfg)
        expected = oracles.validate_decision_batch_oracle(batch, known, window, cfg)
        assert [(i.code, i.detail) for i in result.issues] == expected
        assert result.ok == (not expected)

class TestRankOpportunities:
    @staticmethod
    def buy(h, er, edge, conf, reasoning=""):
        return Decision("0xm", Action.BUY_YES, 10_000, None, reasoning, conf, edge, er, h)

    def test_h_score_primary(self):
        a = self.buy(0.8, 100, 0.1, 5)
        b = self.buy(0.6, 999, 0.9, 9)
        assert rank_decisions([b, a]) == [a, b]

    def test_expected_return_breaks_ties(self):
        a = self.buy(0.5, 2_000, 0.1, 5)
        b = self.buy(0.5, 500, 0.1, 5)
        assert rank_decisions([b, a]) == [a, b]
        # a missing value counts as 0
        c = self.buy(0.5, None, 0.1, 5)
        d = self.buy(0.5, -1, 0.1, 5)
        assert rank_decisions([d, c]) == [c, d]

    def test_stable_on_full_tie(self):
        a = self.buy(0.5, 100, 0.1, 5, reasoning="first")
        b = self.buy(0.5, 100, 0.1, 5, reasoning="second")
        c = self.buy(None, 100, 0.1, 5, reasoning="third")
        d = self.buy(0.0, 100, 0.1, 5, reasoning="fourth")
        assert [d.reasoning for d in rank_decisions([a, b, c, d])] == [
            "first", "second", "third", "fourth"
        ]

    def test_edge_then_confidence(self):
        a = self.buy(0.5, 100, 0.2, 5)
        b = self.buy(0.5, 100, 0.1, 9)
        c = self.buy(0.5, 100, 0.1, 7)
        assert rank_decisions([c, b, a]) == [a, b, c]


# Any JSON value, nested a little.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)

# JSON values without NaN, which equals no other value, so that batches
# read from it compare equal.
_WIRE_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=10),
    lambda inner: (
        st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3)
    ),
    max_leaves=6,
)
_ABSENT = object()
# A HOLD of the parser's fast path, from a small pool of markets so some
# repeat, and each way a decision can miss the path by one key.
_FAST_HOLDS = st.fixed_dictionaries({
    "marketId": st.sampled_from(["0x0", "0x1", "0x2"]),
    "action": st.just("HOLD"),
    "reasoning": st.sampled_from(["no edge", "", "fallback"]),
})
_NEAR_HOLDS = st.one_of(
    _FAST_HOLDS,
    st.builds(lambda d, v: {**d, "other": v}, _FAST_HOLDS, _WIRE_VALUES),
    st.builds(lambda d, a: {**d, "action": a}, _FAST_HOLDS, st.sampled_from(
        ["hold", "Hold", " HOLD", "CLOSE", "BUY_YES", "BUY_NO", None, ["HOLD"]]
    )),
    st.builds(lambda d, v: {**d, "marketId": v}, _FAST_HOLDS, _WIRE_VALUES),
    st.builds(lambda d, v: {**d, "reasoning": v}, _FAST_HOLDS, _WIRE_VALUES),
    st.builds(lambda d, v: {**d, "closeAmount": v}, _FAST_HOLDS,
              st.one_of(st.integers(-5, 120), _WIRE_VALUES)),
    st.builds(lambda d, v: {**d, "amount": v}, _FAST_HOLDS, _WIRE_VALUES),
    st.builds(lambda d, key: {k: v for k, v in d.items() if k != key}, _FAST_HOLDS,
              st.sampled_from(["marketId", "action", "reasoning"])),
    _WIRE_VALUES,
)


class TestWireFormat:
    def _wire(self, n=30):
        items = [
            {"marketId": f"0x{i:040x}", "action": "HOLD", "reasoning": "r"} for i in range(n)
        ]
        items[0] = {
            "marketId": "0x" + "00" * 20,
            "action": "BUY_YES",
            "amount": 150.0,
            "reasoning": "value",
        }
        return json.dumps({"decisions": items, "reasoning": "overall"})

    def test_round_trip(self):
        batch, violations = parse_decision_wire(self._wire(), agent_id="a1", produced_at=NOW)
        assert violations == []
        assert len(batch.decisions) == 30
        assert batch.decisions[0].amount_cents == 15_000
        text = decisions_to_wire(batch)
        again, _ = parse_decision_wire(text, agent_id="a1", produced_at=NOW)
        assert again.decisions == batch.decisions

    def test_strict_rejects_fences(self):
        fenced = "```json\n" + self._wire() + "\n```"
        with pytest.raises(MalformedAgentOutput):
            parse_decision_wire(fenced, agent_id="a1", produced_at=NOW)

    def test_lenient_strips_and_reports(self):
        fenced = "```json\n" + self._wire() + "\n```"
        batch, violations = parse_decision_wire(
            fenced, agent_id="a1", produced_at=NOW, lenient=True
        )
        assert violations == ["markdown_fence_stripped"]
        assert len(batch.decisions) == 30

    def test_buy_without_amount_rejected(self):
        bad = json.dumps(
            {"decisions": [{"marketId": "0x1", "action": "BUY_NO", "reasoning": ""}]}
        )
        with pytest.raises(MalformedAgentOutput):
            parse_decision_wire(bad, agent_id="a1", produced_at=NOW)

    def test_invalid_json_rejected(self):
        with pytest.raises(MalformedAgentOutput):
            parse_decision_wire("{not json", agent_id="a1", produced_at=NOW)
        with pytest.raises(MalformedAgentOutput):
            parse_decision_wire('{"reasoning": "no decisions"}', agent_id="a1", produced_at=NOW)

    def test_close_amount_parsed(self):
        wire = json.dumps(
            {
                "decisions": [
                    {"marketId": "0x1", "action": "CLOSE", "closeAmount": 50, "reasoning": ""}
                ],
                "reasoning": "",
            }
        )
        batch, _ = parse_decision_wire(wire, agent_id="a1", produced_at=NOW)
        assert batch.decisions[0].close_fraction == 50

    @pytest.mark.parametrize(
        "key, value",
        [("action", "SELL"), ("action", ["HOLD"]), ("strategy", "GREEDY"),
         ("strategy", ["MOMENTUM"])],
        ids=["unknown_action", "list_action", "unknown_strategy", "list_strategy"],
    )
    def test_text_no_member_has_fails_as_the_enum_constructor(self, key, value):
        """Texts are looked up in tables; one no member has, or a list,
        still fails with the constructor's own ``ValueError`` message (an
        action's wrapped in ``MalformedAgentOutput``, a strategy's raw)."""
        enum = Action if key == "action" else Strategy
        with pytest.raises(ValueError) as constructor:
            enum(value)
        item = {"marketId": "0x1", "action": "HOLD", "reasoning": "", key: value}
        wire = json.dumps({"decisions": [item], "reasoning": ""})
        with pytest.raises(MalformedAgentOutput) as parsed:
            parse_decision_wire(wire, agent_id="a1", produced_at=NOW)
        prefix = "decision 0: " if key == "action" else "decision 0: strategy: "
        assert str(parsed.value) == prefix + str(constructor.value)

    @pytest.mark.parametrize(
        "field, value",
        [("amount", "abc"), ("amount", 1e400), ("amount", float("nan")), ("amount", [150]),
         ("closeAmount", "x"), ("closeAmount", 1e400), ("confidence", "high"),
         ("edge", {"v": 1}), ("expectedReturn", "lots"), ("hScore", [0.5]),
         ("strategy", "nope")],
    )
    def test_a_value_its_field_cannot_take_names_the_decision_and_the_field(self, field, value):
        """Each of these once escaped as a raw ValueError, OverflowError or
        TypeError, which ended the run instead of the agent's cycle."""
        items = [
            {"marketId": "0x0", "action": "HOLD", "reasoning": ""},
            {"marketId": "0x1", "action": "BUY_YES", "amount": 150.0, "reasoning": "", field: value},
        ]
        wire = json.dumps({"decisions": items, "reasoning": ""})
        with pytest.raises(MalformedAgentOutput, match=f"^decision 1: {field}: "):
            parse_decision_wire(wire, agent_id="a1", produced_at=NOW)

    def test_absent_or_null_optional_keys_are_none(self):
        """Only a BUY reads an amount, so a HOLD's amount is not read."""
        items = [
            {"marketId": "0x0", "action": "HOLD", "amount": "abc", "closeAmount": None,
             "strategy": None},
            {"marketId": "0x1", "action": "CLOSE", "confidence": None, "edge": None},
        ]
        batch, _ = parse_decision_wire(
            json.dumps({"decisions": items}), agent_id="a1", produced_at=NOW
        )
        assert [d.amount_cents for d in batch.decisions] == [None, None]
        assert batch.decisions[0] == Decision("0x0", Action.HOLD)
        assert batch.decisions[1] == Decision("0x1", Action.CLOSE)

    def test_null_buy_amount_is_a_buy_without_amount(self):
        item = {"marketId": "0x1", "action": "BUY_NO", "amount": None}
        with pytest.raises(MalformedAgentOutput, match="BUY without amount"):
            parse_decision_wire(
                json.dumps({"decisions": [item]}), agent_id="a1", produced_at=NOW
            )

    @pytest.mark.parametrize("value", [None, 7, 1.5, True, [1, 2], {"id": "0x1"}])
    def test_a_non_string_market_id_names_the_decision_and_the_key(self, value):
        """Once ``null`` read as market ``"None"`` and ``[1, 2]`` as ``"[1, 2]"``."""
        items = [
            {"marketId": "0x0", "action": "HOLD", "reasoning": ""},
            {"marketId": value, "action": "HOLD", "reasoning": ""},
        ]
        with pytest.raises(MalformedAgentOutput) as err:
            parse_decision_wire(json.dumps({"decisions": items}), agent_id="a1", produced_at=NOW)
        assert str(err.value) == f"decision 1: marketId: {value!r} is not a string"

    @pytest.mark.parametrize("value", [7, 1.5, False, ["r"], {"why": "r"}])
    def test_a_non_string_reasoning_names_the_decision_and_the_key(self, value):
        """Once a dict reasoning read as its repr."""
        item = {"marketId": "0x0", "action": "CLOSE", "reasoning": value}
        with pytest.raises(MalformedAgentOutput) as err:
            parse_decision_wire(json.dumps({"decisions": [item]}), agent_id="a1", produced_at=NOW)
        assert str(err.value) == f"decision 0: reasoning: {value!r} is not a string"
        with pytest.raises(MalformedAgentOutput) as err:
            parse_decision_wire(
                json.dumps({"decisions": [], "reasoning": value}), agent_id="a1", produced_at=NOW
            )
        assert str(err.value) == f"reasoning: {value!r} is not a string"

    def test_an_absent_or_null_reasoning_reads_as_empty(self):
        items = [
            {"marketId": "0x0", "action": "HOLD"},
            {"marketId": "0x1", "action": "HOLD", "reasoning": None},
        ]
        for top in ({}, {"reasoning": None}):
            batch, _ = parse_decision_wire(
                json.dumps({"decisions": items, **top}), agent_id="a1", produced_at=NOW
            )
            assert batch.overall_reasoning == ""
            assert batch.decisions == (Decision("0x0", Action.HOLD), Decision("0x1", Action.HOLD))

    @given(
        items=st.lists(_NEAR_HOLDS, max_size=8),
        reasoning=st.one_of(st.just(_ABSENT), _WIRE_VALUES),
    )
    @settings(max_examples=500, deadline=None)
    def test_the_hold_fast_path_equals_the_general_path(self, items, reasoning):
        """Each decision read by the general path alone, ``_decision``,
        gives the batch the parser gives, or the same
        ``MalformedAgentOutput`` message; a second parse that shares the
        first's HOLDs gives it too."""
        top = {} if reasoning is _ABSENT else {"reasoning": reasoning}
        wire = json.dumps({"decisions": items, **top})
        data = json.loads(wire)
        holds: dict = {}
        try:
            expected = DecisionBatch(
                tuple(agents._decision(i, item) for i, item in enumerate(data["decisions"])),
                agents._reasoning(data.get("reasoning"), "reasoning"), "a1", NOW,
            )
        except MalformedAgentOutput as general:
            with pytest.raises(MalformedAgentOutput) as fast:
                parse_decision_wire(wire, agent_id="a1", produced_at=NOW, holds=holds)
            assert str(fast.value) == str(general)
            return
        for _ in range(2):
            batch, _ = parse_decision_wire(wire, agent_id="a1", produced_at=NOW, holds=holds)
            assert batch == expected
        assert all(d.action is Action.HOLD for d in holds.values())

    @given(
        st.lists(
            st.dictionaries(
                st.sampled_from(
                    ["marketId", "action", "amount", "closeAmount", "reasoning", "confidence",
                     "edge", "expectedReturn", "hScore", "strategy", "other"]
                ),
                st.one_of(_JSON_VALUES, st.sampled_from([m.value for m in (*Action, *Strategy)])),
            ),
            max_size=4,
        )
    )
    @settings(max_examples=400, deadline=None)
    def test_any_json_decision_gives_a_batch_or_malformed_agent_output(self, items):
        wire = json.dumps({"decisions": items, "reasoning": ""})
        try:
            batch, _ = parse_decision_wire(wire, agent_id="a1", produced_at=NOW)
        except MalformedAgentOutput:
            return
        assert len(batch.decisions) == len(items)

    def test_every_action_and_strategy_round_trips(self):
        decisions = tuple(
            Decision(
                market_id=f"0x{i}", action=action, amount_cents=15_000, reasoning="r",
                strategy=strategy,
            )
            for i, (action, strategy) in enumerate(
                (a, s) for a in Action for s in (*Strategy, None)
            )
        )
        batch = DecisionBatch(decisions, "overall", "a1", NOW)
        wire = json.loads(decisions_to_wire(batch))
        assert [(d["action"], d.get("strategy")) for d in wire["decisions"]] == [
            (d.action.value, d.strategy and d.strategy.value) for d in decisions
        ]
        again, _ = parse_decision_wire(decisions_to_wire(batch), agent_id="a1", produced_at=NOW)
        assert [(d.action, d.strategy) for d in again.decisions] == [
            (d.action, d.strategy) for d in decisions
        ]
        assert all(type(d.action) is Action for d in again.decisions)


# A price a snapshot may quote: 0, or at least the smallest positive one.
_PRICES = st.one_of(st.just(0.0), st.floats(MIN_POSITIVE_PRICE, 1.0))


class TestScriptedAgents:
    def _forecast(self, agent, snap, cycle=1, budget=1000, memory=Memory()):
        return sample_forecast(
            agent, snap, budget, cycle_index=cycle, input_tokens=3, memory=memory
        )

    def test_market_copier(self):
        agent = build_agent("market_copier")
        rec = self._forecast(agent, make_snapshot(yes=0.62))
        assert rec.probability == 0.62
        assert agent.strategy == Strategy.NONE

    def test_constant(self):
        rec = self._forecast(build_agent("constant"), make_snapshot(yes=0.9))
        assert rec.probability == 0.5

    def test_momentum_bias_on_rise(self):
        agent = build_agent("momentum")
        first = self._forecast(agent, make_snapshot(yes=0.55), cycle=1)
        assert first.probability == 0.55  # no prior price
        second = self._forecast(agent, make_snapshot(yes=0.60), cycle=2, memory=Memory(0.55))
        assert second.probability == pytest.approx(0.65, abs=1e-12)
        third = self._forecast(agent, make_snapshot(yes=0.58), cycle=3, memory=Memory(0.60))
        assert third.probability == pytest.approx(0.53, abs=1e-12)

    def test_mean_reversion_quarter_toward_half(self):
        rec = self._forecast(build_agent("mean_reversion"), make_snapshot(yes=0.9))
        assert rec.probability == pytest.approx(0.9 + 0.25 * (0.5 - 0.9), abs=1e-12)

    def test_drift_adjusted_ema(self):
        agent = build_agent("drift_adjusted")
        first = self._forecast(agent, make_snapshot(yes=0.5), cycle=1)
        memory = Memory(0.5, first.probability)
        rec = self._forecast(agent, make_snapshot(yes=0.8), cycle=2, memory=memory)
        assert rec.probability == pytest.approx(0.3 * 0.8 + 0.7 * 0.5, abs=1e-12)

    def test_budget_noise_scales_inversely(self):
        snap = make_snapshot(yes=0.5)
        a = build_agent("budget_noise", seed=9)
        b = build_agent("budget_noise", seed=9)
        p500 = self._forecast(a, snap, cycle=3, budget=500).probability
        p4000 = self._forecast(b, snap, cycle=3, budget=4000).probability
        assert abs(p500 - 0.5) == pytest.approx(8 * abs(p4000 - 0.5), abs=1e-12)

    def test_referential_transparency(self):
        snaps = [make_snapshot(yes=0.4 + 0.05 * i) for i in range(5)]

        def stream(seed):
            agent = build_agent("momentum", seed=seed)
            memories = [Memory(), *(Memory(s.yes_price) for s in snaps)]
            return [
                self._forecast(agent, s, cycle=i + 1, memory=memory).probability
                for i, (s, memory) in enumerate(zip(snaps, memories))
            ]

        assert stream(3) == stream(3)

    @staticmethod
    def _reply(agent, market, cycle, budget, memory):
        try:
            return agent.forecast(market, cycle, budget, memory)
        except MalformedAgentOutput as exc:
            return str(exc)

    @pytest.mark.parametrize("kind", sorted(agents.AGENT_BUILDERS))
    @given(
        seed=st.integers(0, 2**64 - 1),
        calls=st.lists(
            st.tuples(
                st.integers(0, 2),  # the market, of three
                _PRICES,
                st.integers(1, 12),  # cycle
                st.integers(1, 4000),  # budget
                st.builds(Memory, st.none() | _PRICES, st.none() | st.floats(0.0, 1.0)),
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_an_agent_is_a_pure_function_of_its_arguments(self, kind, seed, calls):
        """The same market, cycle, budget and memory give the same reply
        whatever calls come between, and no call changes the agent: all it
        remembers is the memory the engine passes."""
        agent = build_agent(kind, seed)
        attributes = dict(vars(agent))
        (n, yes, *args), *between = calls
        market = make_snapshot(cid=f"0x{n:040x}", yes=yes)
        first = self._reply(agent, market, *args)
        for m, other_yes, *other_args in between:
            self._reply(agent, make_snapshot(cid=f"0x{m:040x}", yes=other_yes), *other_args)
        assert self._reply(agent, market, *args) == first
        assert vars(agent) == attributes

    @given(yes=_PRICES, previous=st.floats(0.0, 1.0))
    @example(yes=1.0, previous=1.0)
    @example(yes=0.0, previous=0.0)
    def test_drift_adjusted_smoothing_stays_in_the_unit_interval(self, yes, previous):
        """Its smoothing of a price and a probability in [0, 1] is in [0, 1]
        itself, so the clamp keeps it as it is: the probability logged,
        which the engine passes back as its memory, is the value computed."""
        agent = build_agent("drift_adjusted")
        smoothed = agent.alpha * yes + (1.0 - agent.alpha) * previous
        assert 0.0 <= smoothed <= 1.0
        memory = Memory(None, previous)
        assert agent.probability(make_snapshot(yes=yes), 1, 1000, memory) == smoothed

    def test_trace_truncated_to_budget(self):
        agent = build_agent("market_copier")
        rec = self._forecast(agent, make_snapshot(), budget=5)
        assert rec.output_tokens <= 5

    @pytest.mark.parametrize(
        "trace, budget, kept",
        [
            (" ".join(str(i) for i in range(100)), 10, " ".join(str(i) for i in range(10))),
            # a trace within budget is kept as it is, spacing included
            ("a  b\n", 10, "a  b\n"),
        ],
        ids=["over_budget", "within_budget"],
    )
    def test_trace_cut_to_its_first_budget_tokens(self, trace, budget, kept):
        class Talker(MarketCopier):
            def trace(self, market, prob):
                return trace

        rec = self._forecast(Talker("talker"), make_snapshot(), budget=budget)
        assert rec.reasoning_trace == kept
        assert rec.output_tokens == len(kept.split())

    @pytest.mark.parametrize(
        "reply",
        [(np.float64(0.625), 7, "t"), (float("nan"), 7, "t"), (1, 7, "t"), (0, 7, "t"),
         (1.5, 7, "t"), (0.625, True, "t"), (0.625, 7.0, "t"), (0.625, 11, "t"),
         (0.625, 7, None), (0.625, 7, b"t")],
        ids=["numpy_float", "nan", "int_1", "int_0", "above_1", "bool_confidence",
             "float_confidence", "confidence_11", "no_trace", "bytes_trace"],
    )
    def test_a_reply_of_other_types_is_malformed(self, reply):
        """The probability is a ``float`` in [0,1], the confidence an ``int``
        0-10 and the trace a ``str``, as the log's template writes them."""

        class Odd(MarketCopier):
            def forecast(self, market, cycle_index, budget, memory):
                return reply

        with pytest.raises(MalformedAgentOutput):
            self._forecast(Odd("odd"), make_snapshot())

    def test_flaky_agent_raises(self):
        agent = build_agent("flaky")
        with pytest.raises(MalformedAgentOutput):
            self._forecast(agent, make_snapshot(), cycle=3)  # 3 % 3 == 0

    def test_unknown_agent(self):
        with pytest.raises(KeyError):
            build_agent("no_such_agent")

    def test_variant_suffix(self):
        agent = build_agent("momentum#b", seed=1)
        assert agent.agent_id == "momentum#b"


class TestBuildDecisionBatch:
    def test_exactly_thirty_unique(self):
        agent = build_agent("momentum")
        snaps = [make_snapshot(cid=f"0x{i:040x}", yes=0.3 + 0.01 * i) for i in range(40)]
        records = {
            s.condition_id: sample_forecast(
                agent, s, 1000, cycle_index=1, input_tokens=1, memory=Memory()
            )
            for s in snaps
        }
        wire = build_decision_batch(
            agent,
            records,
            snaps,
            CalibrationWindow(),
            set(),
            risk_by_market={s.condition_id: Risk.LOW for s in snaps},
            max_open_positions=30,
            cfg=AgentConfig(),
        )
        batch, _ = parse_decision_wire(wire, agent_id=agent.agent_id, produced_at=NOW)
        assert len(batch.decisions) == 30
        ids = [d.market_id for d in batch.decisions]
        assert len(set(ids)) == 30
        result = validate_decision_batch(batch, {s.condition_id for s in snaps}, CalibrationWindow())
        assert result.ok

    @given(
        kind=st.sampled_from(sorted(agents.AGENT_BUILDERS)),
        markets=st.lists(
            st.tuples(
                st.integers(0, 44),  # a small pool of ids, so some repeat
                _PRICES, _PRICES,
                st.floats(0.0, 1.0), st.integers(0, 10),  # the forecast
                st.booleans(),  # whether the agent forecast it
                st.sampled_from([None, *Risk]),
            ),
            min_size=1, max_size=45,
        ),
        pnls=st.lists(st.integers(-500, 500), max_size=12),
        window_size=st.integers(1, 12),
        open_ids=st.sets(st.integers(0, 50), max_size=8),
        max_open=st.integers(0, 40),
        batch_size=st.integers(1, 35),
    )
    @settings(max_examples=300, deadline=None)
    # One confidence over three risks, which size a risk_confirmation bet
    # apart; and a forecast equal to the window's win rate, 0.5, which the
    # penalty spares.
    @example(
        kind="risk_confirmation",
        markets=[(n, 0.3, 0.7, 0.5, 9, True, risk) for n, risk in enumerate([*Risk, None])],
        pnls=[1, -1], window_size=12, open_ids=set(), max_open=40, batch_size=30,
    )
    def test_equals_the_object_path(
        self, kind, markets, pnls, window_size, open_ids, max_open, batch_size
    ):
        """The reply is the text, and parses to the batch, that building a
        ``Decision`` per candidate and per HOLD and serializing them gave."""
        agent = build_agent(kind)
        snaps, records, risks = [], {}, {}
        for n, yes, no, prob, confidence, forecast, risk in markets:
            cid = f"0x{n:040x}"
            snaps.append(make_snapshot(cid=cid, yes=yes, no=no))
            if forecast:
                records[cid] = agents.ForecastRecord(cid, prob, confidence, "t", 0, 0)
            if risk is not None:
                risks[cid] = risk
        args = (agent, records, snaps, window_with(pnls, size=window_size),
                {f"0x{n:040x}" for n in open_ids})
        kwargs = dict(risk_by_market=risks, max_open_positions=max_open,
                      cfg=AgentConfig(batch_size=batch_size))
        wire = build_decision_batch(*args, **kwargs)
        expected = oracles.build_decision_batch_oracle(*args, **kwargs, produced_at=NOW)
        assert wire == expected
        assert parse_decision_wire(wire, agent_id=kind, produced_at=NOW) == parse_decision_wire(
            expected, agent_id=kind, produced_at=NOW
        )

    @given(
        order=st.permutations(sorted(agents.AGENT_BUILDERS)),
        cycles=st.lists(
            st.lists(
                st.tuples(
                    st.integers(0, 44),  # a small pool of ids, so some repeat
                    _PRICES, _PRICES, st.floats(0.0, 1.0), st.integers(0, 10),
                ),
                min_size=1, max_size=40,
            ),
            min_size=1, max_size=3,
        ),
        open_ids=st.sets(st.integers(0, 50), max_size=8),
        batch_size=st.integers(1, 35),
    )
    @settings(max_examples=100, deadline=None)
    def test_replies_that_share_a_cycle_s_hold_texts_equal_the_uncached_ones(
        self, order, cycles, open_ids, batch_size
    ):
        """Each agent of a cycle, in any order, builds its reply with the
        cycle's one ``hold_texts``: the reply is the text the object path
        gives, and the text its own parse serializes back to. Each cycle
        starts a new dict, which holds only HOLDs of its own markets."""
        cfg = AgentConfig(batch_size=batch_size)
        opened = {f"0x{n:040x}" for n in open_ids}
        for markets in cycles:
            snaps, records = [], {}
            for n, yes, no, prob, confidence in markets:
                cid = f"0x{n:040x}"
                snaps.append(make_snapshot(cid=cid, yes=yes, no=no))
                records[cid] = agents.ForecastRecord(cid, prob, confidence, "t", 0, 0)
            hold_texts: dict[str, str] = {}
            for kind in order:
                args = (build_agent(kind), records, snaps, window_with([1, -1]), opened)
                kwargs = dict(risk_by_market={}, max_open_positions=40, cfg=cfg)
                wire = build_decision_batch(*args, **kwargs, hold_texts=hold_texts)
                assert wire == oracles.build_decision_batch_oracle(
                    *args, **kwargs, produced_at=NOW
                )
                batch, _ = parse_decision_wire(wire, agent_id=kind, produced_at=NOW)
                assert decisions_to_wire(batch) == wire
            assert set(hold_texts) <= {s.condition_id for s in snaps}
            assert all(
                json.loads(text) == {"marketId": cid, "action": "HOLD", "reasoning": "no edge"}
                for cid, text in hold_texts.items()
            )
