#!/usr/bin/env python3
"""Regenerate tests/fixtures/leaderboard_events.jsonl.

The fixture is a minimal event log whose aggregation reproduces the
published leaderboard of eight large-scale agents: P&L to the cent, token
averages to the integer, and the P&L ordering. Two synthetic markets carry
the forecasts and the settled ledger entries. It is written in an older,
per-row shape (one forecast, snapshot or ledger entry per line, with the
keys forecasts no longer repeat), which ``driftmark report`` still reads.
"""

from __future__ import annotations

import json
from pathlib import Path

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
    for cycle, ts in ((1, T1), (2, T2)):
        events.append({"kind": "cycle_start", "cycle": cycle, "time": ts})
        for cid, price, _o in MARKETS:
            events.append(
                {
                    "kind": "snapshot",
                    "cycle": cycle,
                    "condition_id": cid,
                    "yes_price": price,
                    "no_price": round(1.0 - price, 10),
                    "observed_at": ts,
                }
            )
        for agent_id, _pnl, _u, _c, tokens_in, tokens_out in LEADERBOARD_ROWS:
            for cid, price, _o in MARKETS:
                events.append(
                    {
                        "kind": "forecast",
                        "cycle": cycle,
                        "agent_id": agent_id,
                        "condition_id": cid,
                        "probability": price,
                        "confidence": 5,
                        "trace": f"quote tracking view on {cid}",
                        "strategy": "NONE",
                        "input_tokens": tokens_in,
                        "output_tokens": tokens_out,
                        "latency_ms": 0.0,
                        "sampled_at": ts,
                        "contract_digest": "",
                    }
                )
        events.append({"kind": "cycle_end", "cycle": cycle, "time": ts})
    # Settlement: split each agent's P&L across the two markets.
    for agent_id, pnl, _u, _c, _ti, _to in LEADERBOARD_ROWS:
        first = pnl // 2
        parts = [first, pnl - first]
        for (cid, price, outcome), part in zip(MARKETS, parts):
            events.append(
                {
                    "kind": "ledger",
                    "cycle": 3,
                    "agent_id": agent_id,
                    "entry_kind": "RESOLVE",
                    "seq": 1,
                    "condition_id": cid,
                    "cash_delta_cents": part,
                    "timestamp": T2,
                    "side": "YES",
                    "price": 1.0 if outcome else 0.0,
                    "quantity_micro": 0,
                    "basis_delta_cents": 0,
                    "note": "resolution",
                }
            )
    for cid, _p, outcome in MARKETS:
        events.append(
            {
                "kind": "resolution",
                "condition_id": cid,
                "outcome": outcome,
                "resolved_at": T2,
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
