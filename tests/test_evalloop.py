from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from driftmark.config import EngineConfig, config_from_dict
from driftmark.errors import (
    CorruptLog,
    InvalidParameters,
    LengthMismatch,
    LiveSourceNotResumable,
    MalformedAgentOutput,
    NoCheckpoint,
)
from driftmark.evalloop import (
    EvalEngine,
    RunManifest,
    RunPaths,
    file_sha256,
    resume_run,
    significance_test,
    token_budget_sweep,
    verify_run,
)
from driftmark import agents, evalloop
from driftmark.contract import lock_contract, render_instruction
from driftmark.market_data import generate_synthetic, save_feed, save_outcomes
from driftmark.reporting import EventFold, final_reports_from_fold, iter_events
from driftmark.simulator import entry_from_record, replay_ledger


def make_engine(root, seed=42, agents=("market_copier", "momentum"), markets=40, cycles=5, run_id=None, mode="execution"):
    return EvalEngine.create(
        root,
        seed=seed,
        agent_ids=list(agents),
        feed_source={"kind": "synthetic", "n_markets": markets},
        cycles=cycles,
        run_id=run_id,
        mode=mode,
    )


class TestRunBasics:
    def test_counts_and_artifacts(self, tmp_path):
        result = make_engine(tmp_path, cycles=5).run()
        assert result.cycles_run == 5
        paths = RunPaths(tmp_path, result.run_id)
        assert paths.manifest.exists()
        assert paths.events.exists()
        assert paths.events_sha.exists()
        events = list(iter_events(paths.events))
        cycle_starts = [e for e in events if e["kind"] == "cycle_start"]
        assert len(cycle_starts) == 5
        # one record per (cycle, agent): batches
        batches = [e for e in events if e["kind"] == "batch"]
        assert len(batches) == 10

    def test_manifest_written_before_cycles_and_immutable(self, tmp_path):
        engine = make_engine(tmp_path, cycles=3, run_id="mani")
        result = engine.run()
        manifest = RunManifest.from_json(
            (tmp_path / "mani" / "manifest.json").read_text(encoding="utf-8")
        )
        assert manifest.run_id == "mani"
        assert manifest.cycles == 3
        assert manifest.seed == 42
        rebuilt = config_from_dict(manifest.metric_config)
        assert rebuilt == EngineConfig()

    def test_too_few_markets_rejected(self, tmp_path):
        with pytest.raises(InvalidParameters):
            make_engine(tmp_path, markets=10).run()

    def test_forecast_events_per_agent_market_cycle(self, tmp_path):
        result = make_engine(tmp_path, agents=("market_copier",), markets=31, cycles=4).run()
        events = list(iter_events(result.events_path))
        forecasts = [e for e in events if e["kind"] == "forecast"]
        assert len(forecasts) == 31 * 4

    def test_baselines_follow_agent_schedule(self, tmp_path):
        result = make_engine(tmp_path, agents=("market_copier",), markets=31, cycles=3).run()
        events = list(iter_events(result.events_path))
        baselines = [e for e in events if e["kind"] == "baseline"]
        # four baseline kinds per market per cycle
        assert len(baselines) == 4 * 31 * 3
        agent_times = {(e["cycle"], e["sampled_at"]) for e in events if e["kind"] == "forecast"}
        baseline_times = {(e["cycle"], e["as_of"]) for e in baselines}
        assert baseline_times == agent_times

    def test_drift_starts_at_cycle_two(self, tmp_path):
        result = make_engine(tmp_path, agents=("momentum",), markets=31, cycles=4).run()
        drift = [
            e
            for e in iter_events(result.events_path)
            if e["kind"] == "drift" and e["agent_id"] == "momentum"
        ]
        assert sorted(e["cycle"] for e in drift) == [2, 3, 4]

    def test_observation_mode_trades_nothing(self, tmp_path):
        result = make_engine(tmp_path, cycles=3, mode="observation").run()
        ledger = [e for e in iter_events(result.events_path) if e["kind"] == "ledger"]
        # resolution settlements are also skipped: no positions ever open
        assert ledger == []

    def test_flaky_agent_degrades_not_aborts(self, tmp_path):
        result = make_engine(tmp_path, agents=("flaky", "market_copier"), cycles=4, run_id="fl").run()
        events = list(iter_events(result.events_path))
        failures = [e for e in events if e["kind"] == "agent_failure"]
        assert failures  # cycle 3 fails (3 % 3 == 0)
        assert all(e["agent_id"] == "flaky" for e in failures)
        batches = [e for e in events if e["kind"] == "batch" and e["agent_id"] == "flaky"]
        # one batch or one failure per cycle
        assert len(batches) + len(failures) == 4
        assert any(e["kind"] == "run_completed" for e in events)


class TestDeterminism:
    def test_same_manifest_same_bytes(self, tmp_path):
        r1 = make_engine(tmp_path / "a", cycles=6, run_id="same").run()
        r2 = make_engine(tmp_path / "b", cycles=6, run_id="same").run()
        assert r1.event_log_sha256 == r2.event_log_sha256
        assert (tmp_path / "a/same/events.jsonl").read_bytes() == (
            tmp_path / "b/same/events.jsonl"
        ).read_bytes()

    def test_different_seed_changes_log(self, tmp_path):
        r1 = make_engine(tmp_path / "a", seed=1, run_id="x").run()
        r2 = make_engine(tmp_path / "b", seed=2, run_id="x").run()
        assert r1.event_log_sha256 != r2.event_log_sha256

    def test_copier_null_invariants(self, tmp_path):
        result = make_engine(
            tmp_path, agents=("market_copier",), markets=40, cycles=6, run_id="null"
        ).run()
        for ev in iter_events(result.events_path):
            if ev["kind"] == "drift" and ev["agent_id"] == "market_copier":
                assert abs(ev["market_divergence"]) <= 1e-12
                assert abs(ev["d_temporal_difference"]) <= 1e-12
        copier = result.final_reports["market_copier"]
        market = result.final_reports["baseline:market"]
        assert abs(copier["score"]["brier"] - market["score"]["brier"]) <= 1e-12


class TestCheckpointResume:
    def test_resume_matches_uninterrupted(self, tmp_path):
        full = make_engine(tmp_path, cycles=6, run_id="ck").run()
        # resume from an intermediate checkpoint: recompute cycles 4-6
        resumed = resume_run(tmp_path, "ck", at_cycle=3)
        assert resumed.event_log_sha256 == full.event_log_sha256

    def test_resume_every_boundary(self, tmp_path):
        full = make_engine(tmp_path, cycles=5, run_id="all").run()
        for cycle in range(1, 5):
            resumed = resume_run(tmp_path, "all", at_cycle=cycle)
            assert resumed.event_log_sha256 == full.event_log_sha256, f"cycle {cycle}"

    def test_torn_latest_checkpoint_falls_back(self, tmp_path):
        full = make_engine(tmp_path, cycles=5, run_id="torn").run()
        latest = tmp_path / "torn" / "checkpoints" / "cycle_00005.json"
        latest.write_bytes(latest.read_bytes()[:100])
        # an explicit cycle that is torn does not fall back to another one
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "torn", at_cycle=5)
        resumed = resume_run(tmp_path, "torn")
        assert resumed.event_log_sha256 == full.event_log_sha256

    def test_no_readable_checkpoint(self, tmp_path):
        make_engine(tmp_path, cycles=2, run_id="allbad").run()
        for path in (tmp_path / "allbad" / "checkpoints").iterdir():
            path.write_text("", encoding="utf-8")
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "allbad")

    def test_missing_checkpoint(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="nock").run()
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "nock", at_cycle=99)
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "never-ran")

    def test_resume_after_a_failure_mid_cycle(self, tmp_path, monkeypatch):
        """Forecasts logged before an agent_failure in the same cycle are not
        the previous forecasts of the next cycle; those of the cycle before are."""

        class FailsAfterOneForecast(agents.MarketCopier):
            def probability(self, market, cycle_index, budget):
                if cycle_index == 2:
                    if getattr(self, "forecast_once", False):
                        raise MalformedAgentOutput("garbled output mid-cycle")
                    self.forecast_once = True
                return super().probability(market, cycle_index, budget)

        monkeypatch.setitem(agents.AGENT_BUILDERS, "fails_mid_cycle", FailsAfterOneForecast)
        full = make_engine(tmp_path, agents=("fails_mid_cycle", "momentum"), cycles=4,
                           run_id="mid").run()
        cycle_2 = [
            e["kind"] for e in iter_events(full.events_path)
            if e.get("cycle") == 2 and e.get("agent_id") == "fails_mid_cycle"
        ]
        assert cycle_2 == ["forecast", "agent_failure"]
        resumed = resume_run(tmp_path, "mid", at_cycle=2)
        assert resumed.event_log_sha256 == full.event_log_sha256

    def test_checkpoint_holds_offsets_and_agent_state_only(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="keys").run()
        run_dir = tmp_path / "keys"
        names = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        # no tmp file is left beside the checkpoints
        assert names == ["cycle_00001.json", "cycle_00002.json", "cycle_00003.json"]
        events = (run_dir / "events.jsonl").read_bytes()
        for name in names:
            ckpt = json.loads((run_dir / "checkpoints" / name).read_bytes())
            assert set(ckpt) == {"next_cycle", "events_bytes", "agents"}
            assert set(ckpt["agents"]) == {"market_copier", "momentum"}
            for aid, saved in ckpt["agents"].items():
                assert set(saved) == {"state", "ledger_bytes"}
                ledger = (run_dir / "ledgers" / f"{aid}.jsonl").read_bytes()
                assert saved["ledger_bytes"] <= len(ledger)
            boundary = json.loads(events[: ckpt["events_bytes"]].splitlines()[-1])
            assert boundary["kind"] == "cycle_end"
            assert boundary["cycle"] == ckpt["next_cycle"] - 1

    def test_stray_tmp_checkpoint_ignored(self, tmp_path):
        full = make_engine(tmp_path, cycles=4, run_id="tmp").run()
        (tmp_path / "tmp" / "checkpoints" / "cycle_00009.tmp").write_text('{"next_cycle"')
        resumed = resume_run(tmp_path, "tmp")
        assert resumed.event_log_sha256 == full.event_log_sha256

    def test_old_format_checkpoint_raises_no_checkpoint(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="old").run()
        old = {
            "next_cycle": 3,
            "events_lines": 10,
            "price_history": {},
            "agents": {
                aid: {"portfolio": {}, "window": [], "state": {}, "prev_forecasts": {},
                      "ledger_lines": 0}
                for aid in ("market_copier", "momentum")
            },
        }
        for path in (tmp_path / "old" / "checkpoints").iterdir():
            path.write_text(json.dumps(old), encoding="utf-8")
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "old", at_cycle=2)
        with pytest.raises(NoCheckpoint):
            resume_run(tmp_path, "old")

    @pytest.mark.parametrize("where", ["past_end", "mid_line", "not_cycle_end"])
    def test_events_offset_off_the_boundary_raises_corrupt_log(self, tmp_path, where):
        make_engine(tmp_path, cycles=4, run_id="off").run()
        events = (tmp_path / "off" / "events.jsonl").read_bytes()
        path = tmp_path / "off" / "checkpoints" / "cycle_00002.json"
        ckpt = json.loads(path.read_bytes())
        offset = ckpt["events_bytes"]
        ckpt["events_bytes"] = {
            "past_end": len(events) + 1,
            "mid_line": offset - 5,
            # the end of the line before the boundary's cycle_end
            "not_cycle_end": events.rindex(b"\n", 0, offset - 1) + 1,
        }[where]
        path.write_text(json.dumps(ckpt), encoding="utf-8")
        with pytest.raises(CorruptLog):
            resume_run(tmp_path, "off", at_cycle=2)

    def test_cycle_end_totals_disagreeing_with_ledger_raise_corrupt_log(self, tmp_path):
        make_engine(tmp_path, cycles=4, run_id="tot").run()
        events_path = tmp_path / "tot" / "events.jsonl"
        path = tmp_path / "tot" / "checkpoints" / "cycle_00002.json"
        ckpt = json.loads(path.read_bytes())
        events = events_path.read_bytes()
        head, tail = events[: ckpt["events_bytes"]], events[ckpt["events_bytes"]:]
        lines = head.splitlines(keepends=True)
        cycle_end = json.loads(lines[-1])
        cycle_end["portfolios"]["momentum"]["open"] += 1
        lines[-1] = evalloop.event_line(cycle_end).encode()
        head = b"".join(lines)
        events_path.write_bytes(head + tail)
        ckpt["events_bytes"] = len(head)
        path.write_text(json.dumps(ckpt), encoding="utf-8")
        with pytest.raises(CorruptLog):
            resume_run(tmp_path, "tot", at_cycle=2)

    def test_live_not_resumable(self, tmp_path):
        engine = make_engine(tmp_path, cycles=3, run_id="liveck")
        engine.run()
        manifest_path = tmp_path / "liveck" / "manifest.json"
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
        data["feed_source"] = {"kind": "live", "endpoint": "http://x", "condition_ids": []}
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(LiveSourceNotResumable):
            resume_run(tmp_path, "liveck")


class TestReplaySource:
    def test_replay_feed_run(self, tmp_path):
        feed = generate_synthetic(9, 35, 4)
        feed_path = tmp_path / "feed.jsonl"
        outcome_path = tmp_path / "outcomes.jsonl"
        save_feed(feed.snapshots, feed_path)
        save_outcomes(feed.outcomes, outcome_path)
        engine = EvalEngine.create(
            tmp_path,
            seed=9,
            agent_ids=["market_copier"],
            feed_source={
                "kind": "replay",
                "feed": str(feed_path),
                "outcomes": str(outcome_path),
            },
            cycles=4,
            run_id="replayed",
        )
        result = engine.run()
        assert result.cycles_run == 4
        resolutions = [
            e for e in iter_events(result.events_path) if e["kind"] == "resolution"
        ]
        assert len(resolutions) == 35

    def test_replay_equals_synthetic_run(self, tmp_path):
        # the same markets through the replay path give the same forecasts
        feed = generate_synthetic(3, 32, 3)
        feed_path = tmp_path / "feed.jsonl"
        save_feed(feed.snapshots, feed_path)
        r_syn = EvalEngine.create(
            tmp_path / "s",
            seed=3,
            agent_ids=["market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 32},
            cycles=3,
            run_id="twin",
        ).run()
        r_rep = EvalEngine.create(
            tmp_path / "r",
            seed=3,
            agent_ids=["market_copier"],
            feed_source={"kind": "replay", "feed": str(feed_path)},
            cycles=3,
            run_id="twin2",
        ).run()
        syn_probs = [
            (e["cycle"], e["condition_id"], e["probability"])
            for e in iter_events(r_syn.events_path)
            if e["kind"] == "forecast"
        ]
        rep_probs = [
            (e["cycle"], e["condition_id"], e["probability"])
            for e in iter_events(r_rep.events_path)
            if e["kind"] == "forecast"
        ]
        assert syn_probs == rep_probs


class TestLiveSource:
    def test_live_run_via_local_endpoint(self, tmp_path):
        import threading
        from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
        from urllib.parse import parse_qs, urlparse

        cids = [f"0x{i:040x}" for i in range(31)]

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self):
                cid = parse_qs(urlparse(self.path).query)["condition_id"][0]
                idx = cids.index(cid)
                yes = 0.3 + 0.01 * idx
                body = json.dumps(
                    {
                        "condition_id": cid,
                        "question": f"Will the market index {idx:05d} close higher this period?",
                        "yes_price": yes,
                        "no_price": round(1 - yes, 10),
                        "liquidity_tier": "medium",
                        "end_time": "2030-01-01T00:00:00Z",
                    }
                ).encode()
                self.send_response(200)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def log_message(self, *args):
                pass

        from driftmark.config import LoopConfig, MarketConfig

        server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            engine = EvalEngine.create(
                tmp_path,
                seed=1,
                agent_ids=["market_copier"],
                feed_source={
                    "kind": "live",
                    "endpoint": f"http://127.0.0.1:{server.server_address[1]}/price",
                    "condition_ids": cids,
                },
                cycles=2,
                run_id="live",
                config=EngineConfig(
                    loop=LoopConfig(cycle_interval_sec=0),
                    market=MarketConfig(rate_limit_per_sec=10_000.0),
                ),
            )
            result = engine.run()
        finally:
            server.shutdown()
        forecasts = [e for e in iter_events(result.events_path) if e["kind"] == "forecast"]
        assert len(forecasts) == 31 * 2
        # live runs cannot be resumed
        with pytest.raises(LiveSourceNotResumable):
            resume_run(tmp_path, "live")


class TestVerify:
    def test_clean_run_verifies(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="v").run()
        report = verify_run(tmp_path, "v")
        assert report.ok and report.events_ok

    def test_event_log_tampering_detected(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="t").run()
        events_path = tmp_path / "t" / "events.jsonl"
        data = bytearray(events_path.read_bytes())
        data[len(data) // 2] ^= 0x01
        events_path.write_bytes(bytes(data))
        report = verify_run(tmp_path, "t")
        assert not report.ok and not report.events_ok

    def test_contract_tampering_detected(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="c").run()
        contract_file = next((tmp_path / "c" / "contracts").glob("*.contract.json"))
        raw = bytearray(contract_file.read_bytes())
        raw[40] ^= 0x02
        contract_file.write_bytes(bytes(raw))
        report = verify_run(tmp_path, "c")
        assert not report.ok
        assert not all(report.contracts.values())


class TestSignificance:
    def test_identical_scores_p_near_one(self):
        scores = list(np.linspace(0.1, 0.4, 50))
        assert significance_test(scores, scores, seed=1) > 0.9

    def test_separated_scores_tiny_p(self):
        a = [0.0] * 100
        b = [0.25] * 100
        assert significance_test(a, b, seed=1) < 0.001

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            significance_test([0.1] * 10, [0.1] * 9)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        a = list(rng.uniform(0, 1, 40))
        b = list(rng.uniform(0, 1, 40))
        assert significance_test(a, b, seed=5) == significance_test(a, b, seed=5)

    def test_moderate_difference_detected(self):
        rng = np.random.default_rng(8)
        base = rng.uniform(0.1, 0.3, 200)
        a = list(base)
        b = list(base + 0.05)
        assert significance_test(a, b, seed=2) < 0.01


class TestTokenBudgetSweep:
    def test_noise_agent_strictly_decreasing(self, tmp_path):
        report = token_budget_sweep(
            tmp_path,
            seed=11,
            agent_ids=["budget_noise", "market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 35},
            cycles=5,
            mode="observation",
        )
        noise_rows = sorted(
            (r for r in report.rows if r.agent_id == "budget_noise"), key=lambda r: r.budget
        )
        dprobs = [r.mean_abs_dprob for r in noise_rows]
        assert all(a > b for a, b in zip(dprobs, dprobs[1:]))
        d_temporals = [r.mean_d_temporal for r in noise_rows]
        assert all(a > b for a, b in zip(d_temporals, d_temporals[1:]))

    def test_insensitive_agent_identical(self, tmp_path):
        report = token_budget_sweep(
            tmp_path,
            seed=11,
            agent_ids=["market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 35},
            cycles=4,
            mode="observation",
            budgets=(500, 2000),
        )
        for row in report.rows:
            assert row.max_prob_gap_vs_first_budget == 0.0

    def test_rows_equal_rows_from_logs_on_disk(self, tmp_path, monkeypatch):
        kwargs = dict(
            seed=11,
            agent_ids=["budget_noise", "momentum"],
            feed_source={"kind": "synthetic", "n_markets": 35},
            cycles=3,
            budgets=(500, 2000),
        )

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep re-read a log")

        with monkeypatch.context() as m:
            m.setattr(evalloop.reporting, "iter_events", refuse)
            in_memory = token_budget_sweep(tmp_path / "mem", **kwargs)

        run = EvalEngine.run

        def run_then_fold_from_disk(self, *args, **kwargs):
            result = run(self, *args, **kwargs)
            disk = EventFold().consume(iter_events(result.events_path))
            return dataclasses.replace(result, fold=disk)

        monkeypatch.setattr(EvalEngine, "run", run_then_fold_from_disk)
        from_disk = token_budget_sweep(tmp_path / "disk", **kwargs)
        assert in_memory.rows == from_disk.rows
        assert len(in_memory.rows) == 4

    def test_trace_truncated_to_budget(self, tmp_path):
        report = token_budget_sweep(
            tmp_path,
            seed=11,
            agent_ids=["market_copier"],
            feed_source={"kind": "synthetic", "n_markets": 35},
            cycles=3,
            mode="observation",
            budgets=(500,),
            run_id_prefix="tb",
        )
        events_path = Path(tmp_path) / report.run_ids[0] / "events.jsonl"
        for ev in iter_events(events_path):
            if ev["kind"] == "forecast":
                assert ev["output_tokens"] <= 500


class TestRunDirectory:
    def test_entries_match_readme_tree(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        tree = readme.split("## What a run produces", 1)[1].split("```")[1]
        documented = {
            line.split()[0].split("/")[0]
            for line in tree.splitlines()
            if line.startswith("  ") and not line.lstrip().startswith("#")
        }
        make_engine(tmp_path, cycles=2, run_id="tree").run()
        assert {p.name for p in (tmp_path / "tree").iterdir()} == documented


class TestFallbackBatch:
    def test_rejected_batch_defaults_to_holds(self, tmp_path):
        # shrink the batch size so agent batches (size 30) get rejected
        from driftmark.config import AgentConfig

        config = EngineConfig(agents=AgentConfig(batch_size=30))
        engine = make_engine(tmp_path, agents=("market_copier",), cycles=2, run_id="fb")
        result = engine.run()
        batches = [e for e in iter_events(result.events_path) if e["kind"] == "batch"]
        assert all(b["accepted"] for b in batches)


class TestHotPathEquivalence:
    """The engine folds events as it writes them and renders each market once
    per cycle; both must agree with the slow forms."""

    def test_fresh_and_resumed_reports_equal_a_fold_of_the_log(self, tmp_path):
        agents = ("momentum", "mean_reversion", "flaky")
        full = make_engine(tmp_path, agents=agents, cycles=6, run_id="fold").run()

        def from_disk():
            return final_reports_from_fold(
                EventFold().consume(iter_events(full.events_path)), EngineConfig()
            )

        assert full.final_reports == from_disk()
        resumed = resume_run(tmp_path, "fold", at_cycle=3)
        assert resumed.event_log_sha256 == full.event_log_sha256
        assert resumed.final_reports == from_disk()

    def test_input_tokens_count_the_rendered_instruction(self, tmp_path, monkeypatch):
        # The summary slot appears twice and touches other text on both sides.
        template = (
            "Budget {{contract.token_budget}}:[{{portfolio.summary}}]{{market.condition_id}}\n"
            "{{market.question}} liquidity={{market.liquidity_tier}}"
            "{{ portfolio.summary }}end"
        )
        contract = lock_contract(template, "custom", 1000)
        seen = {}
        real = evalloop.sample_forecast

        def spy(agent, instruction, market, budget, **kwargs):
            seen[(agent.agent_id, kwargs["cycle_index"], market.condition_id)] = instruction
            return real(agent, instruction, market, budget, **kwargs)

        monkeypatch.setattr(evalloop, "sample_forecast", spy)
        cycles = 4
        result = EvalEngine.create(
            tmp_path,
            seed=2,
            agent_ids=["momentum", "mean_reversion"],
            feed_source={"kind": "synthetic", "n_markets": 40},
            cycles=cycles,
            contract=contract,
            run_id="tmpl",
        ).run()

        sim = EngineConfig().simulator
        snaps = {
            (c, s.condition_id): s
            for c, cycle in enumerate(generate_synthetic(2, 40, cycles).cycles(), start=1)
            for s in cycle
        }
        events = list(iter_events(result.events_path))
        forecasts = [e for e in events if e["kind"] == "forecast"]
        assert len(forecasts) == len(seen) == 2 * 40 * cycles
        for ev in forecasts:
            aid, cycle = ev["agent_id"], ev["cycle"]
            # the portfolio an agent forecasts from is its ledger up to the cycle
            entries = [
                entry_from_record({**e, "kind": e["entry_kind"]})
                for e in events
                if e["kind"] == "ledger" and e["agent_id"] == aid and e["cycle"] < cycle
            ]
            summary = replay_ledger(
                sim.initial_capital_cents, entries, sim.max_open_positions
            ).summary()
            expected = render_instruction(
                contract[0], snaps[(cycle, ev["condition_id"])], summary
            )
            assert seen[(aid, cycle, ev["condition_id"])] == expected
            assert ev["input_tokens"] == len(expected.split())
