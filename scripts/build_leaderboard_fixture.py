#!/usr/bin/env python3
"""Regenerate tests/fixtures/leaderboard_events.jsonl.

The fixture is a minimal event log whose aggregation reproduces the
published leaderboard of eight large-scale agents: P&L to the cent, token
averages to the integer, and the P&L ordering. Two synthetic markets carry
the forecasts and the settled ledger entries. It is written in the shape
the engine writes, every key of every event: a cycle's snapshots, an
agent's forecasts of a cycle and an agent's settlement entries are one block
each, and each cycle ends with every agent's untouched portfolio.
"""

from __future__ import annotations

import json
from pathlib import Path

from driftmark.config import EngineConfig

# (agent_id, pnl_cents, unique_users, agent_count, avg_input_tokens, avg_output_tokens)
LEADERBOARD_ROWS = [
    ("Kimi-K2-Thinking", -398_337_092, 76_369, 108_281, 3_794, 3_166),
    ("Claude-Sonnet-4.5", -1_427_693_658, 53_854, 73_095, 3_994, 713),
    ("GPT-5.1", -660_572_268, 46_479, 59_257, 3_961, 3_179),
    ("Grok-4", -359_653_338, 45_678, 58_268, 4_439, 3_930),
    ("Gemini-3-Pro-Preview", -260_493_330, 45_520, 57_656, 6_725, 4_611),
    ("DeepSeek-Chat-v3.1", -507_411_667, 43_980, 56_194, 4_106, 717),
    ("Qwen3-Max", -310_537_852, 43_618, 54_936, 4_377, 429),
    ("Minimax-M2", -355_146_532, 41_084, 50_674, 4_000, 1_532),
]

MARKETS = [
    ("0x" + "f1" * 20, 0.6, 1),
    ("0x" + "f2" * 20, 0.4, 0),
]

T1 = "2026-01-05T00:00:00Z"
T2 = "2026-01-06T00:00:00Z"

# An agent's portfolio totals at each cycle's end: it trades only at settlement.
CAPITAL_CENTS = EngineConfig().simulator.initial_capital_cents
TOTALS = {
    "total_capital_cents": CAPITAL_CENTS, "available_cents": CAPITAL_CENTS,
    "deployed_cents": 0, "open": 0,
}


def build_events() -> list[dict]:
    events: list[dict] = [
        {
            "kind": "run_started",
            "run_id": "leaderboard-fixture",
            "seed": 0,
            "cycles": 2,
            "mode": "execution",
            "agent_ids": [row[0] for row in LEADERBOARD_ROWS],
            "contract_hashes": [],
            "feed_source": {"kind": "replay", "feed": "fixture"},
            "cycle_interval_sec": 86400,
        }
    ]
    for agent_id, _pnl, users, count, _ti, _to in LEADERBOARD_ROWS:
        events.append(
            {
                "kind": "agent_meta",
                "agent_id": agent_id,
                "agent_count": count,
                "strategy": "NONE",
                "unique_users": users,
            }
        )
    for cid, _p, _o in MARKETS:
        events.append(
            {
                "kind": "market_meta",
                "condition_id": cid,
                "question": "Will the market index close higher this period?",
                "liquidity": "high",
                "risk": "medium",
                "domain": "economic",
                "horizon": "short",
                "end_time": T2,
            }
        )
    cids = [cid for cid, _p, _o in MARKETS]
    prices = [price for _cid, price, _o in MARKETS]
    for cycle, ts in ((1, T1), (2, T2)):
        events.append({"kind": "cycle_start", "cycle": cycle, "time": ts})
        events.append(
            {
                "kind": "snapshots",
                "cycle": cycle,
                "condition_id": cids,
                "yes_price": prices,
                "no_price": [round(1.0 - price, 10) for price in prices],
                "observed_at": [ts] * len(MARKETS),
            }
        )
        for agent_id, _pnl, _u, _c, tokens_in, tokens_out in LEADERBOARD_ROWS:
            events.append(
                {
                    "kind": "forecasts",
                    "cycle": cycle,
                    "agent_id": agent_id,
                    "probability": prices,
                    "confidence": [5] * len(MARKETS),
                    "trace": [f"quote tracking view on {cid}" for cid in cids],
                    "input_tokens": [tokens_in] * len(MARKETS),
                    "output_tokens": [tokens_out] * len(MARKETS),
                }
            )
        events.append({
            "kind": "cycle_end", "cycle": cycle, "time": ts,
            "portfolios": {row[0]: TOTALS for row in LEADERBOARD_ROWS},
        })
    # Settlement: every resolution, then each agent's P&L split across the
    # two markets as one block of RESOLVE entries.
    for cid, _p, outcome in MARKETS:
        events.append(
            {
                "kind": "resolution",
                "condition_id": cid,
                "outcome": outcome,
                "resolved_at": T2,
            }
        )
    for agent_id, pnl, _u, _c, _ti, _to in LEADERBOARD_ROWS:
        first = pnl // 2
        events.append(
            {
                "kind": "ledgers",
                "cycle": 3,
                "agent_id": agent_id,
                "basis_delta_cents": [0] * len(MARKETS),
                "cash_delta_cents": [first, pnl - first],
                "condition_id": cids,
                "entry_kind": ["RESOLVE"] * len(MARKETS),
                "note": ["resolution"] * len(MARKETS),
                "price": [1.0 if outcome else 0.0 for _cid, _p, outcome in MARKETS],
                "quantity_micro": [0] * len(MARKETS),
                "seq": list(range(1, len(MARKETS) + 1)),
                "side": ["YES"] * len(MARKETS),
                "timestamp": [T2] * len(MARKETS),
            }
        )
    events.append({"kind": "run_completed", "cycles_run": 2})
    return events


FIXTURE = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "leaderboard_events.jsonl"


def write_fixture(dest: Path) -> None:
    """Write ``build_events()`` to ``dest``, one compact line per event with
    sorted keys."""
    dest.parent.mkdir(parents=True, exist_ok=True)
    with open(dest, "w", encoding="utf-8") as fh:
        for ev in build_events():
            fh.write(json.dumps(ev, sort_keys=True, separators=(",", ":")) + "\n")


def main() -> None:
    write_fixture(FIXTURE)
    print(f"wrote {FIXTURE}")


if __name__ == "__main__":
    main()
