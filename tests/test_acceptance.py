"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or on
failure). Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager
from datetime import timedelta
from pathlib import Path

import numpy as np
import pytest

from driftmark.agents import Action, Decision, DecisionBatch, CalibrationWindow
from driftmark.agents import validate_decision_batch
from driftmark.contract import ContractStore
from driftmark.evalloop import EvalEngine, resume_run, token_budget_sweep, verify_run
from driftmark.market_data import generate_synthetic
from driftmark.metrics import (
    brier,
    ece_mce,
    hhis,
    log_likelihood,
    narrative_drift,
    significance_test,
    var_cvar,
)
from driftmark.reporting import aggregate
from driftmark.simulator import (
    Mode,
    Portfolio,
    Trigger,
    evaluate_triggers,
    replay_ledger,
    step,
)
from driftmark.timeutil import SYNTHETIC_START

import oracles
from conftest import make_snapshot
from oracles import temporal_drift


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"\nFAIL  criterion {number:2d}: {description}")
        raise
    print(f"\nPASS  criterion {number:2d}: {description}")


WORDS = (
    "market outlook polls price trend shift narrative update belief signal "
    "incumbent margin volatility spread revision momentum reversal consensus"
).split()


def test_criterion_01_metric_oracles():
    with criterion(1, "metric oracle suite, 1000 random inputs each, tol 1e-9 (ece 1e-6)"):
        rng = np.random.default_rng(101)
        words = WORDS
        t0 = time.monotonic()
        for _ in range(1000):
            p = float(rng.uniform(0, 1))
            o = int(rng.integers(0, 2))
            assert abs(brier(p, o) - oracles.brier_oracle(p, o)) < 1e-9
            assert abs(log_likelihood(p, o) - oracles.log_likelihood_oracle(p, o)) < 1e-9

            a, b, c, d = rng.uniform(0, 1, 4)
            got_d = temporal_drift(a, b, c, d, "difference")
            got_p = temporal_drift(a, b, c, d, "product")
            assert abs(got_d - oracles.temporal_drift_oracle(a, b, c, d, "difference")) < 1e-9
            assert abs(got_p - oracles.temporal_drift_oracle(a, b, c, d, "product")) < 1e-9

            trace_a = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            trace_b = " ".join(rng.choice(words, size=rng.integers(0, 12)))
            assert (
                abs(narrative_drift(trace_a, trace_b) - oracles.narrative_drift_oracle(trace_a, trace_b))
                < 1e-9
            )

            size = int(rng.integers(1, 50_000))
            price = float(rng.uniform(0.01, 0.99))
            p_win = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0.01, 0.49))
            got = var_cvar(size, price, p_win, alpha)
            want = oracles.var_cvar_oracle(size, price, p_win, alpha)
            assert abs(got[0] - want[0]) < 1e-9 and abs(got[1] - want[1]) < 1e-9

            h_in = rng.uniform(0, 1, 4)
            d_in = float(rng.uniform(-0.5, 1.5))
            assert (
                abs(
                    hhis(h_in[0], h_in[1], d_in, h_in[2], h_in[3])
                    - oracles.hhis_oracle(h_in[0], h_in[1], d_in, h_in[2], h_in[3])
                )
                < 1e-9
            )

        for _ in range(1000):
            n = int(rng.integers(1, 60))
            pairs = [(float(rng.uniform(0, 1)), int(rng.integers(0, 2))) for _ in range(n)]
            bins = int(rng.integers(2, 15))
            ece, mce, _ = ece_mce(pairs, bins)
            o_ece, o_mce = oracles.ece_mce_oracle(pairs, bins)
            assert abs(ece - o_ece) < 1e-6
            assert abs(mce - o_mce) < 1e-6
        elapsed = time.monotonic() - t0
        assert elapsed < 10.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_02_uniform_brier_constant():
    with criterion(2, "uniform baseline mean Brier exactly 0.25 on synthetic resolved sets"):
        for seed, n in ((1, 100), (2, 999), (7, 2500), (42, 4000)):
            feed = generate_synthetic(seed, n, 2)
            scores = [brier(0.5, o.outcome) for o in feed.outcomes]
            assert float(np.mean(scores)) == 0.25


def test_criterion_03_synthetic_calibration():
    with criterion(3, "10k-market feed: market-baseline ECE < 0.02, bins within ±0.03"):
        t0 = time.monotonic()
        feed = generate_synthetic(7, 10_000, 2)
        outcomes = {o.condition_id: o.outcome for o in feed.outcomes}
        final = {}
        for s in feed.snapshots:
            final[s.condition_id] = s
        pairs = [(final[cid].yes_price, outcomes[cid]) for cid in final]
        ece, _, _ = ece_mce(pairs, 10)
        assert ece < 0.02, f"market baseline ece {ece:.4f}"

        probs = np.array([feed.true_probs[o.condition_id] for o in feed.outcomes])
        ys = np.array([o.outcome for o in feed.outcomes])
        for b in range(10):
            low, high = b / 10, (b + 1) / 10
            mask = (probs >= low) & (probs < high) if b < 9 else (probs >= 0.9)
            assert mask.sum() > 0
            freq = float(ys[mask].mean())
            center = low + 0.05
            assert abs(freq - center) <= 0.03, f"bin {b}: {freq:.4f} vs {center}"
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"calibration check took {elapsed:.1f}s"


def test_criterion_04_market_copier_null(tmp_path):
    with criterion(4, "copier on 500x10: divergence 0, diff d_t 0, baseline delta 0 (1e-12)"):
        t0 = time.monotonic()
        result = EvalEngine.create(
            tmp_path,
            seed=7,
            agent_ids=["market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 500},
            cycles=10,
            run_id="copier-null",
        ).run()
        drift_cycles = 0
        per_cycle_pairs: dict[int, list[tuple[float, int]]] = {}
        market_pairs: dict[int, list[tuple[float, int]]] = {}
        outcomes: dict[str, int] = {}
        baseline_probs: dict[tuple[int, str], float] = {}
        forecast_probs: dict[tuple[int, str], float] = {}
        for ev in oracles.per_row_shape(result.events_path):
            if ev["kind"] == "drift" and ev["agent_id"] == "market_copier":
                drift_cycles += 1
                assert abs(ev["market_divergence"]) <= 1e-12
                assert abs(ev["d_temporal_difference"]) <= 1e-12
            elif ev["kind"] == "resolution":
                outcomes[ev["condition_id"]] = ev["outcome"]
            elif ev["kind"] == "forecast":
                forecast_probs[(ev["cycle"], ev["condition_id"])] = ev["probability"]
            elif ev["kind"] == "baseline" and ev["baseline"] == "market":
                baseline_probs[(ev["cycle"], ev["condition_id"])] = ev["probability"]
        assert drift_cycles == 9  # cycles 2..10
        # per-cycle baseline delta vs the market baseline
        for (cycle, cid), p in forecast_probs.items():
            per_cycle_pairs.setdefault(cycle, []).append((p, outcomes[cid]))
            market_pairs.setdefault(cycle, []).append((baseline_probs[(cycle, cid)], outcomes[cid]))
        for cycle in per_cycle_pairs:
            agent_brier = float(np.mean([brier(p, o) for p, o in per_cycle_pairs[cycle]]))
            market_brier = float(np.mean([brier(p, o) for p, o in market_pairs[cycle]]))
            assert abs(agent_brier - market_brier) <= 1e-12
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"copier run took {elapsed:.1f}s"


def test_criterion_05_simulator_conservation():
    with criterion(5, "10k-step fuzz: capital identity, exact ledger fold, trigger bands"):
        t0 = time.monotonic()
        rng = random.Random(55_001)
        cids = [f"0x{i:03d}" for i in range(80)]
        prices = {cid: rng.uniform(0.08, 0.92) for cid in cids}
        portfolio = Portfolio.fresh(3_000_000, max_open=30)
        entries = []
        now = SYNTHETIC_START
        ops = 0
        while ops < 10_000:
            for cid in cids:
                prices[cid] = min(0.99, max(0.01, prices[cid] + rng.gauss(0, 0.05)))
            snaps = {cid: make_snapshot(cid=cid, yes=prices[cid], observed=now) for cid in cids}
            decisions = []
            for _ in range(rng.randint(1, 8)):
                cid = rng.choice(cids)
                roll = rng.random()
                if roll < 0.6:
                    decisions.append(
                        Decision(
                            market_id=cid,
                            action=rng.choice([Action.BUY_YES, Action.BUY_NO]),
                            amount_cents=rng.randint(10_000, 20_000),
                            confidence=rng.randint(0, 10),
                            edge=rng.uniform(-0.1, 0.4),
                            expected_return_cents=rng.randint(-500, 3_000),
                        )
                    )
                elif roll < 0.85:
                    decisions.append(
                        Decision(
                            market_id=cid,
                            action=Action.CLOSE,
                            close_fraction=rng.choice([None, 10, 33, 50, 100]),
                        )
                    )
                else:
                    decisions.append(Decision(market_id=cid, action=Action.HOLD))
            batch = DecisionBatch(tuple(decisions), "", "fuzz", now)
            result = step(portfolio, batch, snaps, Mode.EXECUTION, 0.03, now=now)
            portfolio = result.portfolio
            entries.extend(result.entries)
            ops += len(decisions)
            # capital identity is asserted by apply_entries after every
            # entry and by Portfolio.__post_init__; check it and the trigger
            # band at the step's prices
            assert portfolio.available_cents + portfolio.deployed_cents == portfolio.total_capital_cents
            for pos in portfolio.open_positions:
                assert evaluate_triggers(pos) == Trigger.NONE
            now = now + timedelta(seconds=300)

        folded = replay_ledger(3_000_000, entries, max_open=30)
        assert folded.total_capital_cents == portfolio.total_capital_cents
        assert folded.available_cents == portfolio.available_cents
        assert folded.deployed_cents == portfolio.deployed_cents
        assert len(folded.open_positions) == len(portfolio.open_positions)
        for pos in portfolio.open_positions:
            twin = folded.position(pos.condition_id)
            assert twin is not None
            assert twin.quantity_micro == pos.quantity_micro
            assert twin.cost_basis_cents == pos.cost_basis_cents
            assert twin.unrealized_pnl_cents == pos.unrealized_pnl_cents
        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"fuzz took {elapsed:.1f}s"


def test_criterion_06_rule_of_30():
    with criterion(6, "rule-of-30 fuzz: all violations rejected with the right code"):
        rng = random.Random(66_001)
        known = [f"0x{i:040x}" for i in range(80)]
        known_set = set(known)
        window = CalibrationWindow()
        checked = {"ok": 0, "cardinality": 0, "duplicate": 0, "amount": 0}
        for _ in range(1_000):
            flavor = rng.choice(list(checked))
            ids = rng.sample(known, 30)
            decisions = [Decision(market_id=i, action=Action.HOLD) for i in ids]
            if flavor == "cardinality":
                n = rng.choice([0, 1, 15, 29, 31, 60])
                if n <= 30:
                    decisions = decisions[:n]
                else:
                    extra = [k for k in known if k not in ids]
                    decisions += [
                        Decision(market_id=i, action=Action.HOLD)
                        for i in rng.sample(extra, n - 30)
                    ]
            elif flavor == "duplicate":
                decisions[rng.randrange(1, 30)] = Decision(market_id=ids[0], action=Action.HOLD)
            elif flavor == "amount":
                bad_amount = rng.choice([0, 9_999, 20_001, 1_000_000])
                decisions[0] = Decision(
                    market_id=ids[0],
                    action=rng.choice([Action.BUY_YES, Action.BUY_NO]),
                    amount_cents=bad_amount,
                    confidence=10,
                    edge=0.5,
                    expected_return_cents=1_000,
                )
            batch = DecisionBatch(tuple(decisions), "", "fuzz", SYNTHETIC_START)
            result = validate_decision_batch(batch, known_set, window)
            if flavor == "ok":
                assert result.ok
            elif flavor == "cardinality":
                assert "wrong_cardinality" in {i.code for i in result.issues}
            elif flavor == "duplicate":
                assert "duplicate_market" in {i.code for i in result.issues}
            else:
                assert "amount_out_of_range" in {i.code for i in result.issues}
            checked[flavor] += 1
        assert all(v > 0 for v in checked.values())


def test_criterion_07_end_to_end_determinism(tmp_path):
    with criterion(7, "byte-identical logs across executions; resume matches at every boundary"):
        kwargs = dict(
            seed=20_260_209,
            agent_ids=["momentum", "market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 40},
            cycles=20,
            run_id="det20",
        )
        r1 = EvalEngine.create(tmp_path / "a", **kwargs).run()
        r2 = EvalEngine.create(tmp_path / "b", **kwargs).run()
        assert r1.event_log_sha256 == r2.event_log_sha256
        assert (tmp_path / "a/det20/events.jsonl").read_bytes() == (
            tmp_path / "b/det20/events.jsonl"
        ).read_bytes()
        for boundary in range(1, 20):
            resumed = resume_run(tmp_path / "a", "det20", at_cycle=boundary)
            assert resumed.event_log_sha256 == r1.event_log_sha256, f"boundary {boundary}"


def test_criterion_08_tamper_detection(tmp_path):
    with criterion(8, "verify flags 1000/1000 single-byte tamperings of contracts and logs"):
        result = EvalEngine.create(
            tmp_path,
            seed=5,
            agent_ids=["market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 32},
            cycles=3,
            run_id="tamper",
        ).run()
        run_dir = tmp_path / "tamper"
        contract_file = next((run_dir / "contracts").glob("*.contract.json"))
        digest = contract_file.name.split(".")[0]
        store = ContractStore(run_dir / "contracts")
        events_file = run_dir / "events.jsonl"

        rng = random.Random(88_001)
        contract_bytes = contract_file.read_bytes()
        undetected = 0
        for _ in range(500):
            pos = rng.randrange(len(contract_bytes))
            flip = bytes([contract_bytes[pos] ^ (1 << rng.randrange(8))])
            contract_file.write_bytes(contract_bytes[:pos] + flip + contract_bytes[pos + 1:])
            if store.verify_stored(digest):
                undetected += 1
        contract_file.write_bytes(contract_bytes)

        event_bytes = events_file.read_bytes()
        for _ in range(500):
            pos = rng.randrange(len(event_bytes))
            flip = bytes([event_bytes[pos] ^ (1 << rng.randrange(8))])
            events_file.write_bytes(event_bytes[:pos] + flip + event_bytes[pos + 1:])
            if verify_run(tmp_path, "tamper").events_ok:
                undetected += 1
        events_file.write_bytes(event_bytes)
        assert undetected == 0, f"{undetected} tamperings evaded detection"
        assert verify_run(tmp_path, "tamper").ok


def test_criterion_09_leaderboard_fixture():
    with criterion(9, "fixture log reproduces all eight leaderboard rows and the ordering"):
        fixture = Path(__file__).parent / "fixtures" / "leaderboard_events.jsonl"
        report = aggregate(fixture, sort_key="pnl")
        rows = {r.agent_id: r for r in report.leaderboard}
        expected = {
            "Kimi-K2-Thinking": (-398_337_092, 3_794, 3_166),
            "Claude-Sonnet-4.5": (-1_427_693_658, 3_994, 713),
            "GPT-5.1": (-660_572_268, 3_961, 3_179),
            "Grok-4": (-359_653_338, 4_439, 3_930),
            "Gemini-3-Pro-Preview": (-260_493_330, 6_725, 4_611),
            "DeepSeek-Chat-v3.1": (-507_411_667, 4_106, 717),
            "Qwen3-Max": (-310_537_852, 4_377, 429),
            "Minimax-M2": (-355_146_532, 4_000, 1_532),
        }
        assert set(rows) == set(expected)
        for agent_id, (pnl, t_in, t_out) in expected.items():
            assert rows[agent_id].pnl_cents == pnl
            assert round(rows[agent_id].avg_input_tokens) == t_in
            assert round(rows[agent_id].avg_output_tokens) == t_out
        assert [r.agent_id for r in report.leaderboard] == [
            "Gemini-3-Pro-Preview",
            "Qwen3-Max",
            "Minimax-M2",
            "Grok-4",
            "Kimi-K2-Thinking",
            "DeepSeek-Chat-v3.1",
            "GPT-5.1",
            "Claude-Sonnet-4.5",
        ]


def test_criterion_10_token_budget_sweep(tmp_path):
    with criterion(10, "sweep: sensitive agent strictly decreasing |dP|; insensitive exact"):
        report = token_budget_sweep(
            tmp_path,
            seed=11,
            agent_ids=["budget_noise", "market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 35},
            cycles=6,
            mode="observation",
            budgets=(500, 1_000, 2_000, 4_000),
        )
        noise = sorted(
            (r for r in report.rows if r.agent_id == "budget_noise"), key=lambda r: r.budget
        )
        dprobs = [r.mean_abs_dprob for r in noise]
        assert len(dprobs) == 4
        assert all(a > b for a, b in zip(dprobs, dprobs[1:])), dprobs
        copier = [r for r in report.rows if r.agent_id == "market_copier"]
        assert all(r.max_prob_gap_vs_first_budget == 0.0 for r in copier)


def test_criterion_11_hhis_properties():
    with criterion(11, "HHIS monotone in all five axes on 10k tuples; exact endpoints"):
        assert hhis(1.0, 1.0, 0.0, 1.0, 1.0) == 1.0
        assert hhis(0.0, 0.0, 1.0, 0.0, 0.0) == 0.0
        rng = np.random.default_rng(111)
        for _ in range(10_000):
            c, cal, r, q = rng.uniform(0, 1, 4)
            d = float(rng.uniform(-0.5, 1.5))
            bump = float(rng.uniform(0.005, 0.4))
            base = hhis(c, cal, d, r, q)
            assert hhis(min(c + bump, 1.0), cal, d, r, q) >= base - 1e-12
            assert hhis(c, min(cal + bump, 1.0), d, r, q) >= base - 1e-12
            assert hhis(c, cal, d + bump, r, q) <= base + 1e-12
            assert hhis(c, cal, d, min(r + bump, 1.0), q) >= base - 1e-12
            assert hhis(c, cal, d, r, min(q + bump, 1.0)) >= base - 1e-12


def test_criterion_12_significance_sanity():
    with criterion(12, "significance test: p > 0.9 on identical, p < 0.001 on separated"):
        scores = list(np.linspace(0.05, 0.45, 64))
        assert significance_test(scores, scores, seed=12) > 0.9
        zeros = [0.0] * 100
        quarters = [0.25] * 100
        assert significance_test(zeros, quarters, seed=12) < 0.001
