from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import sys
import tempfile
from collections import Counter, defaultdict
from datetime import datetime, timedelta, timezone
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from driftmark.cli import main as cli_main
from driftmark.config import AgentConfig, EngineConfig, config_from_dict
from driftmark.errors import (
    CorruptLog,
    FatalFeedError,
    InvalidParameters,
    LiveSourceNotResumable,
    MalformedAgentOutput,
    NoCheckpoint,
    RunExists,
)
from driftmark.evalloop import (
    EvalEngine,
    RunManifest,
    RunPaths,
    file_sha256,
    resume_run,
    token_budget_sweep,
    verify_run,
)
from driftmark import agents, evalloop, fileio, reporting, schema
from driftmark import contract as contract_module
from driftmark.baselines import BaselineKind
from driftmark.contract import lock_contract, render_instruction
from driftmark.market_data import (
    ENDPOINT_ENV_VAR,
    MIN_POSITIVE_PRICE,
    feed_cycles,
    generate_synthetic,
    save_feed,
    save_outcomes,
)
from driftmark.reporting import EventFold, final_reports_from_fold, iter_events
from driftmark.timeutil import from_iso, to_iso
from driftmark.simulator import (
    EntryKind,
    LedgerEntry,
    Side,
    entry_from_record,
    entry_to_record,
    replay_ledger,
)

import oracles
from oracles import per_entry_events, per_row_shape
from conftest import make_snapshot
from test_golden import MANIFESTS, PINS, run_manifest


@pytest.fixture(scope="module")
def pinned_logs(tmp_path_factory):
    """The full run's events of a pinned manifest by name, each run once,
    with the directory it ran in, which holds its replay inputs."""
    logs = {}

    def full(name):
        if name not in logs:
            root = tmp_path_factory.mktemp(name)
            with contextlib.chdir(root):
                logs[name] = (root, oracles.read_events(run_manifest("out", name).events_path))
        return logs[name]

    return full


# Takes a value out of its list, for ``_damage_kept_entry``.
_DROP = object()


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


def _check_each_cycle(engine: EvalEngine, events: list[dict]) -> None:
    """Each cycle N of ``events``, the log of ``engine``'s manifest, is what
    the engine writes into memory from the state ``_state`` builds of the
    log through cycle N-1's cycle_end (its header lines for cycle 1), as a
    fresh run and a resume build it: a run is a resume from the empty log.
    Each state's previous forecasts are ``oracles.previous_forecasts``. The
    state is built without the feed, whose cycle N only the cycle reads."""
    _, cycles, _ = engine._feed(resume=False)
    lines = list(map(evalloop.event_line, events))
    starts = [i for i, ev in enumerate(events) if ev["kind"] == "cycle_start"]
    ends = [i + 1 for i, ev in enumerate(events) if ev["kind"] == "cycle_end"]
    assert len(starts) == len(ends) == events[0]["cycles"]
    for n, (start, end) in enumerate(zip(starts, ends), start=1):
        assert start == (ends[n - 2] if n > 1 else 1 + len(engine.manifest.agent_ids))
        run = evalloop._Run({}, EventFold().consume(events[:start]), events=io.StringIO())
        engine._state(run)
        assert run.fold.last_cycle_end == n - 1
        assert run.fold.previous == oracles.previous_forecasts(events[:start]), f"cycle {n}"
        engine._run_cycle(run, n, next(cycles))
        assert run.events.getvalue() == "".join(lines[start:end]), f"cycle {n}"


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
        events = per_row_shape(result.events_path)
        forecasts = [e for e in events if e["kind"] == "forecast"]
        assert len(forecasts) == 31 * 4

    def test_baselines_follow_agent_schedule(self, tmp_path):
        """Forecasts and baselines name no time of their own: both cover the
        same markets in the same cycles, whose one cycle_start records the
        time, and each baseline's market has a snapshot in its cycle."""
        result = make_engine(tmp_path, agents=("market_copier",), markets=31, cycles=3).run()
        events = per_row_shape(result.events_path)
        baselines = [e for e in events if e["kind"] == "baseline"]
        # four baseline kinds per market per cycle
        assert len(baselines) == 4 * 31 * 3
        forecast_keys = {(e["cycle"], e["condition_id"]) for e in events if e["kind"] == "forecast"}
        baseline_keys = {(e["cycle"], e["condition_id"]) for e in baselines}
        assert baseline_keys == forecast_keys
        starts = Counter(e["cycle"] for e in events if e["kind"] == "cycle_start")
        assert starts == Counter({cycle for cycle, _ in baseline_keys})
        snapshots = {(e["cycle"], e["condition_id"]) for e in events if e["kind"] == "snapshot"}
        assert baseline_keys <= snapshots

    def test_drift_starts_at_cycle_two(self, tmp_path):
        result = make_engine(tmp_path, agents=("momentum",), markets=31, cycles=4).run()
        drift = [
            e
            for e in iter_events(result.events_path)
            if e["kind"] == "drift" and e["agent_id"] == "momentum"
        ]
        assert sorted(e["cycle"] for e in drift) == [2, 3, 4]

    def test_trigger_close_logged_once_without_a_skip(self, tmp_path):
        """Stop-loss and target-win closes are the simulator step's alone, so
        no agent CLOSE of an already closed position is skipped."""
        result = make_engine(
            tmp_path, seed=7, agents=("momentum", "mean_reversion"), cycles=6, run_id="trig"
        ).run()
        events = per_entry_events(iter_events(result.events_path))
        notes = [e["note"] for e in events if e["kind"] == "ledger" and e["entry_kind"] == "CLOSE"]
        assert any(note.startswith("trigger_") for note in notes)
        assert [e for e in events if e["kind"] == "skip" and e["reason"] == "no_such_position"] == []

    def test_batches_plan_for_the_simulator_position_limit(self, tmp_path):
        config = config_from_dict({"simulator": {"max_open_positions": 5}})
        result = EvalEngine.create(
            tmp_path, seed=7, agent_ids=["momentum", "mean_reversion"],
            feed_source={"kind": "synthetic", "n_markets": 60}, cycles=4, config=config,
        ).run()
        events = per_entry_events(iter_events(result.events_path))
        opens = [e for e in events if e["kind"] == "ledger" and e["entry_kind"] == "OPEN"]
        assert opens
        assert [e for e in events if e["kind"] == "skip" and e["reason"] == "position_limit_reached"] == []
        for ev in events:
            if ev["kind"] == "cycle_end":
                assert all(p["open"] <= 5 for p in ev["portfolios"].values())

    def test_observation_mode_trades_nothing(self, tmp_path):
        result = make_engine(tmp_path, cycles=3, mode="observation").run()
        ledger = [e for e in iter_events(result.events_path) if e["kind"] in ("ledger", "ledgers")]
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

    def test_a_cycle_s_turns_share_its_holds_and_each_cycle_starts_anew(
        self, tmp_path, monkeypatch
    ):
        """Every agent's batch of a cycle, the fallback too, reads the HOLD
        texts and HOLD decisions of one pair of dicts, which start empty
        with the cycle: nothing carries over to the next."""
        build, parse = evalloop.build_decision_batch, evalloop.parse_decision_wire
        step = evalloop.step
        shared: dict = defaultdict(lambda: {"texts": [], "holds": []})

        def build_sharing(agent, records, snaps, *args, hold_texts, **kwargs):
            cycle = shared[snaps[0].observed_at]
            if not cycle["texts"]:
                assert hold_texts == {}
            cycle["texts"].append(hold_texts)
            return build(agent, records, snaps, *args, hold_texts=hold_texts, **kwargs)

        def parse_sharing(wire, *, produced_at, holds, **kwargs):
            cycle = shared[produced_at]
            if not cycle["holds"]:
                assert holds == {}
            cycle["holds"].append(holds)
            return parse(wire, produced_at=produced_at, holds=holds, **kwargs)

        fallbacks = []

        def step_noting_fallbacks(portfolio, batch, *args, **kwargs):
            if batch.overall_reasoning == "fallback after failure":
                fallbacks.append(batch)
            return step(portfolio, batch, *args, **kwargs)

        monkeypatch.setattr(evalloop, "build_decision_batch", build_sharing)
        monkeypatch.setattr(evalloop, "parse_decision_wire", parse_sharing)
        monkeypatch.setattr(evalloop, "step", step_noting_fallbacks)
        make_engine(tmp_path, agents=("market_copier", "flaky", "momentum"), cycles=4).run()
        assert len(shared) == 4
        for cycle in shared.values():
            for dicts in (cycle["texts"], cycle["holds"]):
                assert all(d is dicts[0] for d in dicts)
        firsts = [cycle[key][0] for cycle in shared.values() for key in ("texts", "holds")]
        assert len({id(d) for d in firsts}) == len(firsts)
        assert fallbacks  # cycle 3
        for batch in fallbacks:
            holds = shared[batch.produced_at]["holds"][0]
            assert all(holds[d.market_id, "fallback"] is d for d in batch.decisions)


    @pytest.mark.parametrize("mode", ["observation", "execution"])
    def test_each_ledger_fsynced_once_after_the_last_cycle_end(self, tmp_path, monkeypatch, mode):
        """Every agent's ledger is written once per run, after the log holds
        the last cycle_end; an agent that never trades gets an empty one."""
        paths = RunPaths(tmp_path, mode)
        synced = []  # (file id, cycle_end lines in the log) at each fsync
        real_fsync = os.fsync

        def fsync(fd):
            st = os.fstat(fd)
            log = paths.events.read_bytes() if paths.events.exists() else b""
            synced.append(((st.st_dev, st.st_ino), log.count(b'"kind":"cycle_end"')))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", fsync)
        agent_ids = ("momentum", "market_copier", "mean_reversion")
        result = make_engine(tmp_path, agents=agent_ids, cycles=5, run_id=mode, mode=mode).run()
        ledgers = {
            (st.st_dev, st.st_ino): p.stem
            for p in paths.ledgers.glob("*.jsonl")
            for st in [p.stat()]
        }
        assert sorted(ledgers.values()) == sorted(agent_ids)
        got = sorted((ledgers[key], ends) for key, ends in synced if key in ledgers)
        assert got == sorted((aid, 5) for aid in agent_ids)
        logged = [e for e in iter_events(result.events_path) if e["kind"] == "ledgers"]
        sizes = [p.stat().st_size for p in paths.ledgers.glob("*.jsonl")]
        if mode == "observation":
            assert logged == [] and sizes == [0, 0, 0]
        else:
            assert logged and any(sizes)


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
        latest.write_bytes(latest.read_bytes()[: latest.stat().st_size // 2])
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
            def probability(self, market, cycle_index, budget, memory):
                if cycle_index == 2:
                    if getattr(self, "forecast_once", False):
                        raise MalformedAgentOutput("garbled output mid-cycle")
                    self.forecast_once = True
                return super().probability(market, cycle_index, budget, memory)

        monkeypatch.setitem(agents.AGENT_BUILDERS, "fails_mid_cycle", FailsAfterOneForecast)
        full = make_engine(tmp_path, agents=("fails_mid_cycle", "momentum"), cycles=4,
                           run_id="mid").run()
        cycle_2 = [
            e["kind"] for e in per_row_shape(full.events_path)
            if e.get("cycle") == 2 and e.get("agent_id") == "fails_mid_cycle"
        ]
        assert cycle_2 == ["forecast", "agent_failure"]
        # The forecast it made is logged as a block of one, before its failure.
        blocks = [
            e for e in iter_events(full.events_path)
            if e.get("cycle") == 2 and e.get("agent_id") == "fails_mid_cycle"
        ]
        assert [e["kind"] for e in blocks] == ["forecasts", "agent_failure"]
        assert len(blocks[0]["probability"]) == 1
        # The state after cycle 2 takes cycle 1's 40 forecasts as the
        # agent's previous ones, in a run and a resume alike.
        events = oracles.read_events(full.events_path)
        end = 1 + [i for i, e in enumerate(events) if e["kind"] == "cycle_end"][1]
        assert len(oracles.previous_forecasts(events[:end])["fails_mid_cycle"][0]) == 40
        _check_each_cycle(
            make_engine(tmp_path, agents=("fails_mid_cycle", "momentum"), cycles=4), events
        )
        resumed = resume_run(tmp_path, "mid", at_cycle=2)
        assert resumed.event_log_sha256 == full.event_log_sha256

    def test_checkpoint_holds_log_offsets_only(self, tmp_path):
        make_engine(tmp_path, cycles=3, run_id="keys").run()
        run_dir = tmp_path / "keys"
        names = sorted(p.name for p in (run_dir / "checkpoints").iterdir())
        # no tmp file is left beside the checkpoints
        assert names == ["cycle_00001.json", "cycle_00002.json", "cycle_00003.json"]
        events = (run_dir / "events.jsonl").read_bytes()
        for name in names:
            ckpt = json.loads((run_dir / "checkpoints" / name).read_bytes())
            assert set(ckpt) == {"next_cycle", "events_bytes"}
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
        with pytest.raises(CorruptLog) as err:
            resume_run(tmp_path, "off", at_cycle=2)
        if where == "not_cycle_end":
            # the kept log's last line
            assert err.value.line_no == events[: ckpt["events_bytes"]].count(b"\n")
            assert "the kept log does not end with cycle 2's cycle_end" in str(err.value)

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
        with pytest.raises(CorruptLog, match="ledger replay disagrees with cycle 2's") as err:
            resume_run(tmp_path, "tot", at_cycle=2)
        assert err.value.line_no == len(lines)

    @pytest.mark.parametrize(
        "failure",
        [
            "torn_at_cycle", "no_readable", "missing", "old_format", "events_past_end",
            "events_mid_line", "events_not_cycle_end", "totals", "live",
            "kept_not_utf8", "kept_not_object", "kept_no_agent_id", "kept_ledger_no_price",
            "kept_ledger_overdrawn", "kept_ledger_close_unopened", "kept_huge_ledger_price",
            "kept_huge_drift", "kept_mark_unheld_last", "kept_mark_unheld_not_last",
            "kept_meta_domain",
        ],
    )
    def test_failed_resume_leaves_log_and_ledgers_untouched(self, tmp_path, failure):
        """Every check runs before the log, a ledger or a checkpoint is cut."""
        make_engine(tmp_path, cycles=4, run_id="keep").run()
        run_dir = tmp_path / "keep"
        ckpt_path = run_dir / "checkpoints" / "cycle_00002.json"
        ckpt = json.loads(ckpt_path.read_bytes())
        events_path = run_dir / "events.jsonl"
        events = events_path.read_bytes()
        ledger_path = run_dir / "ledgers" / "momentum.jsonl"
        assert ledger_path.stat().st_size > 0

        def save(ckpt):
            ckpt_path.write_text(json.dumps(ckpt), encoding="utf-8")

        at_cycle, error, match = 2, CorruptLog, None
        if failure == "torn_at_cycle":
            ckpt_path.write_bytes(ckpt_path.read_bytes()[: ckpt_path.stat().st_size // 2])
            error = NoCheckpoint
        elif failure == "no_readable":
            for path in ckpt_path.parent.iterdir():
                path.write_text("", encoding="utf-8")
            at_cycle, error = None, NoCheckpoint
        elif failure == "missing":
            at_cycle, error = 99, NoCheckpoint
        elif failure == "old_format":
            save({"next_cycle": 3, "events_lines": 10})
            error = NoCheckpoint
        elif failure.startswith("events_"):
            offset = ckpt["events_bytes"]
            ckpt["events_bytes"] = {
                "events_past_end": len(events) + 1,
                "events_mid_line": offset - 5,
                "events_not_cycle_end": events.rindex(b"\n", 0, offset - 1) + 1,
            }[failure]
            save(ckpt)
        elif failure == "kept_meta_domain":
            # A market_meta row the schema takes, whose domain no category has:
            # resume reads each market's category from its row.
            at = events.index(b'"domain":"') + len(b'"domain":"')
            edited = events[:at] + b"sports" + events[events.index(b'"', at):]
            events_path.write_bytes(edited)
            save({**ckpt, "events_bytes": ckpt["events_bytes"] + len(edited) - len(events)})
            match = "market_meta of 0x[0-9a-f]+: 'sports' is not a valid Domain"
        elif failure == "totals":
            lines = events[: ckpt["events_bytes"]].splitlines(keepends=True)
            cycle_end = json.loads(lines[-1])
            cycle_end["portfolios"]["momentum"]["open"] += 1
            lines[-1] = evalloop.event_line(cycle_end).encode()
            head = b"".join(lines)
            events_path.write_bytes(head + events[ckpt["events_bytes"]:])
            save({**ckpt, "events_bytes": len(head)})
        elif failure.startswith("kept_ledger_") and failure != "kept_ledger_no_price":
            # A well-formed ledger entry that replay cannot apply: momentum's
            # first OPEN spending more than the capital left, or turned into a
            # CLOSE of a market it never opened.
            at = events.index(b'"kind":"ledgers"')
            start, end = events.rindex(b"\n", 0, at) + 1, events.index(b"\n", at) + 1
            line = events[start:end]
            block = json.loads(line)
            assert block["agent_id"] == "momentum" and block["basis_delta_cents"][0] == 19000
            assert block["entry_kind"][0] == "OPEN" and block["seq"][0] == 1
            if failure == "kept_ledger_overdrawn":
                block["basis_delta_cents"][0] = 999999
            else:
                block["entry_kind"][0] = "CLOSE"
            edited = evalloop.event_line(block).encode()
            events_path.write_bytes(events[:start] + edited + events[end:])
            ckpt["events_bytes"] += len(edited) - len(line)
            save(ckpt)
            match = {
                "kept_ledger_overdrawn": "momentum: ledger entry cannot be replayed: available "
                "capital went negative after ledger entry seq 1$",
                "kept_ledger_close_unopened": "momentum: ledger entry seq 1 cannot be replayed: ",
            }[failure]
        elif failure.startswith("kept_mark_unheld_"):
            # A MARK of a market momentum holds no position in, put in its
            # last kept ledgers block: last, with the next seq, or first,
            # with the block's first seq and the block's entries renumbered
            # after it. Replayed as a no-op, the last one once resumed and
            # the run wrote its seq again.
            lines = events[: ckpt["events_bytes"]].splitlines(keepends=True)
            at = max(
                i for i, line in enumerate(lines)
                if b'"kind":"ledgers"' in line and json.loads(line)["agent_id"] == "momentum"
            )
            block = json.loads(lines[at])
            traded = {
                cid for line in lines if b'"kind":"ledgers"' in line
                for cid in json.loads(line)["condition_id"]
            }
            snapshots = next(json.loads(line) for line in lines if b'"kind":"snapshots"' in line)
            unheld = next(cid for cid in snapshots["condition_id"] if cid not in traded)
            place = len(block["seq"]) if failure == "kept_mark_unheld_last" else 0
            seq = block["seq"][place - 1] + 1 if place else block["seq"][0]
            mark = dict(
                basis_delta_cents=0, cash_delta_cents=0, condition_id=unheld, entry_kind="MARK",
                note="mark", price=0.5, quantity_micro=0, seq=seq, side="YES",
                timestamp=block["timestamp"][0],
            )
            for key, value in mark.items():
                block[key].insert(place, value)
            block["seq"][place + 1:] = [n + 1 for n in block["seq"][place + 1:]]
            lines[at] = evalloop.event_line(block).encode()
            head = b"".join(lines)
            events_path.write_bytes(head + events[ckpt["events_bytes"]:])
            save({**ckpt, "events_bytes": len(head)})
            match = f"momentum: ledger entry seq {seq} cannot be replayed: "
        elif failure.startswith("kept_huge_"):
            # A JSON integer too large for a float, which once escaped as an
            # OverflowError: a ledger entry's price, or a drift value.
            lines = events[: ckpt["events_bytes"]].splitlines(keepends=True)
            kind, key = ("ledgers", "price") if failure == "kept_huge_ledger_price" else (
                "drift", "d_narrative")
            at = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"'.encode() in line)
            event = json.loads(lines[at])
            event[key] = [10**400, *event[key][1:]] if kind == "ledgers" else 10**400
            lines[at] = evalloop.event_line(event).encode()
            head = b"".join(lines)
            events_path.write_bytes(head + events[ckpt["events_bytes"]:])
            save({**ckpt, "events_bytes": len(head)})
            match = f"{key} 1000000000000"
        elif failure.startswith("kept_"):
            # A line of the kept prefix that the reader, the fold or the
            # ledger replay refuses.
            lines = events[: ckpt["events_bytes"]].splitlines(keepends=True)
            kind, key = ("ledgers", "price") if failure == "kept_ledger_no_price" else (
                "forecasts", "agent_id")
            at = next(i for i, line in enumerate(lines) if f'"kind":"{kind}"'.encode() in line)
            event = json.loads(lines[at])
            del event[key]
            lines[at], match = {
                "kept_not_utf8": (lines[at].replace(b'"forecasts"', b'"fore\xffcasts"'),
                                  "not UTF-8"),
                "kept_not_object": (b"[1,2]\n", "not a JSON object"),
            }.get(failure, ((json.dumps(event) + "\n").encode(), f"no key '{key}'"))
            head = b"".join(lines)
            events_path.write_bytes(head + events[ckpt["events_bytes"]:])
            save({**ckpt, "events_bytes": len(head)})
        elif failure == "live":
            manifest_path = run_dir / "manifest.json"
            data = json.loads(manifest_path.read_text(encoding="utf-8"))
            data["feed_source"] = {
                "kind": "live", "endpoint": "http://x",
                "condition_ids": [f"0x{i:02x}" for i in range(30)],
            }
            manifest_path.write_text(json.dumps(data), encoding="utf-8")
            error = LiveSourceNotResumable
        files = [
            events_path, *sorted((run_dir / "ledgers").glob("*.jsonl")),
            *sorted((run_dir / "checkpoints").iterdir()),
        ]
        before = {p.name: file_sha256(p) for p in files}
        with pytest.raises(error, match=match):
            resume_run(tmp_path, "keep", at_cycle=at_cycle)
        assert {p.name: file_sha256(p) for p in files} == before

    @pytest.mark.parametrize(
        "damage",
        [("seq", None), ("timestamp", None), ("side", None), ("side", "LEFT"),
         ("side", ["YES"]), ("entry_kind", "SELL"), ("timestamp", "yesterday"),
         ("timestamp", "0001-01-01T00:00:00+01:00"), ("timestamp", ["2026"]), ("quantity_micro", "many"), ("price", None),
         ("price", "cheap")],
        ids=lambda d: f"{d[0]}={d[1]!r}" if d[1] is not None else f"no_{d[0]}",
    )
    def test_kept_ledger_event_that_does_not_convert(self, tmp_path, capsys, damage):
        """A kept ledger entry that does not convert, its value of ``key``
        taken out of its block's list (None) or replaced, is a
        ``CorruptLog`` naming the key, from ``report`` and from resume, by
        the block's checks; a timestamp that is a string but not a time, or
        a time before year 1 in UTC, which only resume reads, is one naming
        the agent and seq. Resume leaves every file as it was."""
        key, value = damage
        make_engine(tmp_path, cycles=4, run_id="conv").run()
        run_dir = tmp_path / "conv"
        # a MARK, so the fold itself reads no price
        entry = self._damage_kept_entry(run_dir, "MARK", key, _DROP if value is None else value)
        if value is None:
            words = f"{key} holds"
        elif key == "timestamp" and type(value) is str:
            where = f"{entry['agent_id']}: ledger entry seq {entry['seq']}"
            words = f"{where} has timestamp {value!r}"
        else:
            what = dict(
                side="one of", entry_kind="one of", timestamp="a string",
                quantity_micro="an integer", price="a finite number",
            )[key]
            words = f"{key} {value!r} is not {what}"
            assert cli_main(["--out", str(tmp_path), "report", "--run-id", "conv"]) == 1
            assert words in capsys.readouterr().err
        files = [
            run_dir / "events.jsonl", *sorted((run_dir / "ledgers").glob("*.jsonl")),
            *sorted((run_dir / "checkpoints").iterdir()),
        ]
        before = {p.name: file_sha256(p) for p in files}
        with pytest.raises(CorruptLog, match=re.escape(words)):
            resume_run(tmp_path, "conv", at_cycle=3)
        assert {p.name: file_sha256(p) for p in files} == before

    @staticmethod
    def _first_entry(run_dir, entry_kind) -> dict:
        """The log's first ledger entry of ``entry_kind``, as a per-entry event."""
        return next(
            e for e in per_entry_events(iter_events(run_dir / "events.jsonl"))
            if e["kind"] == "ledger" and e["entry_kind"] == entry_kind
        )

    @staticmethod
    def _damage_kept_entry(run_dir, entry_kind, key, value, marker=None) -> dict:
        """Set ``key`` of the first kept ledger entry of ``entry_kind`` before
        cycle 3's checkpoint, in its ledgers block, to ``value`` (``_DROP``
        takes the entry's value out of the list), and return the entry, as a
        per-entry event, before the damage. Given ``marker``, set ``key`` of
        the first kept line holding it instead, a list's first value, and
        return the damaged event. The line is written as ``json.dumps``
        writes it."""
        ckpt_path = run_dir / "checkpoints" / "cycle_00003.json"
        ckpt = json.loads(ckpt_path.read_bytes())
        events = (run_dir / "events.jsonl").read_bytes()
        lines = events[: ckpt["events_bytes"]].splitlines(keepends=True)
        if marker is None:
            at = next(
                i for i, line in enumerate(lines)
                if b'"kind":"ledgers"' in line and entry_kind in json.loads(line)["entry_kind"]
            )
            event = json.loads(lines[at])
            place = event["entry_kind"].index(entry_kind)
            damaged = per_entry_events([event])[place]
            if value is _DROP:
                del event[key][place]
            else:
                event[key][place] = value
        else:
            at = next(i for i, line in enumerate(lines) if marker.encode() in line)
            event = damaged = json.loads(lines[at])
            event[key] = [value, *event[key][1:]] if type(event[key]) is list else value
        lines[at] = (json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n").encode()
        head = b"".join(lines)
        (run_dir / "events.jsonl").write_bytes(head + events[ckpt["events_bytes"]:])
        ckpt_path.write_text(json.dumps({**ckpt, "events_bytes": len(head)}), encoding="utf-8")
        return damaged

    @pytest.mark.parametrize(
        "key, value",
        [("price", float("nan")), ("price", float("inf")), ("price", float("-inf")),
         ("condition_id", 7), ("note", 5), ("note", None)],
    )
    def test_kept_ledger_value_no_ledger_line_can_hold_is_corrupt(self, tmp_path, key, value):
        """An OPEN's replay takes each of these, so each once resumed and
        went into the agent's ledger file as it was: ``NaN`` and
        ``Infinity`` are not JSON. The block's checks refuse each, naming
        the key."""
        make_engine(tmp_path, cycles=4, run_id="kept").run()
        run_dir = tmp_path / "kept"
        self._damage_kept_entry(run_dir, "OPEN", key, value)
        files = [run_dir / "events.jsonl", *sorted((run_dir / "ledgers").glob("*.jsonl"))]
        before = {p.name: file_sha256(p) for p in files}
        what = "a finite number" if key == "price" else "a string"
        with pytest.raises(CorruptLog, match=re.escape(f"{key} {value!r} is not {what}")):
            resume_run(tmp_path, "kept", at_cycle=3)
        assert {p.name: file_sha256(p) for p in files} == before

    @pytest.mark.parametrize(
        "key, convert", [("cash_delta_cents", float), ("basis_delta_cents", float),
                         ("quantity_micro", float)],
    )
    def test_kept_ledger_numbers_of_another_json_type_are_corrupt(self, tmp_path, key, convert):
        """A kept entry's cents and quantity are exact integers: a block's
        checks convert nothing, so ``0.0`` is refused, naming the key, and
        the files are left as they were. Per-entry events, which older
        versions wrote, were read with ``int``."""
        make_engine(tmp_path, cycles=4, run_id="num").run()
        run_dir = tmp_path / "num"
        files = [run_dir / "events.jsonl", *sorted((run_dir / "ledgers").glob("*.jsonl"))]
        value = convert(self._first_entry(run_dir, "MARK")[key])
        self._damage_kept_entry(run_dir, "MARK", key, value)
        before = {p.name: file_sha256(p) for p in files}
        words = f"{key} {value!r} is not an integer"
        with pytest.raises(CorruptLog, match=re.escape(words)):
            resume_run(tmp_path, "num", at_cycle=3)
        assert {p.name: file_sha256(p) for p in files} == before

    @pytest.mark.parametrize("case", ["true", "float", "fraction", "skipped"])
    def test_kept_ledger_seq_must_be_the_agent_s_next(self, tmp_path, case):
        """A kept entry's seq is an exact ``int`` and its agent's next seq,
        or the resume is a ``CorruptLog``: one naming the key from the
        block's checks, or one naming the agent and seq. ``int`` once read
        ``true`` as 1, and the entry's ledger file line took it."""
        make_engine(tmp_path, cycles=4, run_id="seq").run()
        run_dir = tmp_path / "seq"
        files = [run_dir / "events.jsonl", *sorted((run_dir / "ledgers").glob("*.jsonl"))]
        seq = self._first_entry(run_dir, "MARK")["seq"]
        value = {"true": True, "float": float(seq), "fraction": seq + 0.5, "skipped": seq + 1}[case]
        entry = self._damage_kept_entry(run_dir, "MARK", "seq", value)
        before = {p.name: file_sha256(p) for p in files}
        if case == "skipped":
            where = f"{entry['agent_id']}: ledger entry seq {seq + 1} is not the next seq, {seq}"
        else:
            where = f"seq {value!r} is not an integer"
        with pytest.raises(CorruptLog, match=re.escape(where)):
            resume_run(tmp_path, "seq", at_cycle=3)
        assert {p.name: file_sha256(p) for p in files} == before

    @pytest.mark.parametrize("kind", ["forecasts", "baselines"])
    @pytest.mark.parametrize("probability", [float("nan"), float("inf"), 1.5])
    def test_a_logged_probability_outside_the_unit_interval_is_corrupt(
        self, tmp_path, capsys, kind, probability
    ):
        """``report`` and a resume whose kept prefix holds such a probability
        once ended in a raw ``ValueError`` from numpy's ``bincount``."""
        make_engine(tmp_path, cycles=4, run_id="prob").run()
        run_dir = tmp_path / "prob"
        self._damage_kept_entry(
            run_dir, None, "probability", probability, marker=f'"kind":"{kind}"'
        )
        assert cli_main(["--out", str(tmp_path), "report", "--run-id", "prob"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"probability {probability!r} is not in [0, 1]" in err
        with pytest.raises(CorruptLog, match=re.escape(f"probability {probability!r}")):
            resume_run(tmp_path, "prob", at_cycle=3)

    @pytest.mark.parametrize(
        "kind, key, value, reason",
        [
            ("drift", "d_narrative", "0.25", "d_narrative '0.25' is not a finite number"),
            ("drift", "d_narrative", None, "d_narrative None is not a finite number"),
            ("drift", "d_temporal", "x", "d_temporal 'x' is not a finite number"),
            ("drift", "d_temporal_product", None, "d_temporal_product None is not a finite"),
            ("drift", "d_temporal", float("nan"), "d_temporal nan is not a finite number"),
            ("drift", "d_narrative", True, "d_narrative True is not a finite number"),
            ("market_meta", "risk", 5, "risk 5 is not one of ['high', 'low', 'medium']"),
            ("market_meta", "domain", ["x"], "domain ['x'] is not a string"),
            ("agent_meta", "agent_count", "many", "agent_count 'many' is not an integer"),
            ("agent_meta", "unique_users", 1.5, "unique_users 1.5 is not an integer or null"),
            ("agent_meta", "strategy", 7, "strategy 7 is not a string"),
            ("agent_meta", "agent_id", 7, "agent_id 7 is not a string"),
            ("drift", "agent_id", None, "agent_id None is not a string"),
            ("batch", "agent_id", 7.0, "agent_id 7.0 is not a string"),
            ("batch", "accepted", "no", "accepted 'no' is not true or false"),
        ],
    )
    def test_a_kept_value_the_reports_cannot_read_is_corrupt(
        self, tmp_path, capsys, kind, key, value, reason
    ):
        """``report`` once ended each of these in a raw ``TypeError`` or
        ``ValueError``, or scored it without a word; a resume went on past
        the cut and failed in the final reports, or not at all. Now both
        name the value, and resume leaves the log as it was."""
        make_engine(tmp_path, agents=("momentum", "mean_reversion"), cycles=4, run_id="bad").run()
        run_dir = tmp_path / "bad"
        self._damage_kept_entry(run_dir, None, key, value, marker=f'"kind":"{kind}"')
        assert cli_main(["--out", str(tmp_path), "report", "--run-id", "bad"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert reason in err
        files = [run_dir / "events.jsonl", *sorted((run_dir / "ledgers").glob("*.jsonl"))]
        before = {p.name: file_sha256(p) for p in files}
        with pytest.raises(CorruptLog, match=re.escape(reason)):
            resume_run(tmp_path, "bad", at_cycle=3)
        assert {p.name: file_sha256(p) for p in files} == before

    def test_a_kept_agent_id_that_is_no_string_is_corrupt(self, tmp_path):
        """A kept ``agent_meta`` whose id, edited in place to the same
        length, is a number: resume once cut the log, settled the run
        again and died sorting the final reports' subjects with a raw
        ``TypeError``, leaving a log without its end. Now it is a
        ``CorruptLog`` naming the key and the line, and every file is left
        as it was."""
        make_engine(tmp_path, agents=("momentum", "market_copier"), cycles=4, run_id="id").run()
        run_dir = tmp_path / "id"
        log = run_dir / "events.jsonl"
        data = log.read_bytes()
        name = b'"agent_id":"market_copier","kind":"agent_meta"'
        assert data.count(name) == 1
        line_no = data[:data.index(name)].count(b"\n") + 1
        log.write_bytes(data.replace(name, b'"agent_id":100000000000007,"kind":"agent_meta"'))
        files = [p for p in sorted(run_dir.rglob("*")) if p.is_file()]
        before = {p: p.read_bytes() for p in files}
        with pytest.raises(CorruptLog, match="agent_id 100000000000007 is not a string") as err:
            resume_run(tmp_path, "id")
        assert err.value.line_no == line_no
        assert {p: p.read_bytes() for p in sorted(run_dir.rglob("*")) if p.is_file()} == before

    @pytest.mark.parametrize("portfolios", [[], "x", None])
    def test_a_kept_cycle_end_whose_portfolios_are_no_object_is_corrupt(
        self, tmp_path, portfolios
    ):
        """Resume compares the replayed portfolios with the boundary's
        cycle_end, which once ended in a raw ``AttributeError`` for
        portfolios that are not a JSON object. The schema refuses them,
        naming the key and the line, and every file is left as it was."""
        make_engine(tmp_path, cycles=4, run_id="end").run()
        run_dir = tmp_path / "end"
        self._damage_kept_entry(
            run_dir, None, "portfolios", portfolios, marker='"cycle":3,"kind":"cycle_end"'
        )
        ckpt = json.loads((run_dir / "checkpoints" / "cycle_00003.json").read_bytes())
        kept = (run_dir / "events.jsonl").read_bytes()[: ckpt["events_bytes"]]
        files = [p for p in sorted(run_dir.rglob("*")) if p.is_file()]
        before = {p: p.read_bytes() for p in files}
        words = f"portfolios {portfolios!r} is not an object"
        with pytest.raises(CorruptLog, match=re.escape(words)) as err:
            resume_run(tmp_path, "end", at_cycle=3)
        assert err.value.line_no == kept.count(b"\n")
        assert {p: p.read_bytes() for p in files} == before

    @pytest.mark.parametrize("outcome", [2, True, 1.0, "1", None])
    def test_a_logged_outcome_other_than_0_or_1_is_corrupt(self, tmp_path, capsys, outcome):
        """Such an outcome was scored as ``int`` read it (``true`` as 1, 2
        as 2); an outcomes file cannot hold one."""
        result = make_engine(tmp_path, cycles=3, run_id="res").run()
        lines = result.events_path.read_bytes().splitlines(keepends=True)
        at = next(i for i, line in enumerate(lines) if b'"kind":"resolution"' in line)
        lines[at] = evalloop.event_line({**json.loads(lines[at]), "outcome": outcome}).encode()
        result.events_path.write_bytes(b"".join(lines))
        assert cli_main(["--out", str(tmp_path), "report", "--run-id", "res"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert f"outcome {outcome!r} is not 0 or 1" in err

    def test_live_not_resumable(self, tmp_path):
        engine = make_engine(tmp_path, cycles=3, run_id="liveck")
        engine.run()
        manifest_path = tmp_path / "liveck" / "manifest.json"
        data = json.loads(manifest_path.read_text(encoding="utf-8"))
        data["feed_source"] = {
            "kind": "live", "endpoint": "http://x",
            "condition_ids": [f"0x{i:02x}" for i in range(30)],
        }
        manifest_path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(LiveSourceNotResumable):
            resume_run(tmp_path, "liveck")

    @pytest.mark.parametrize(
        "damage",
        ["manifest_torn", "manifest_no_seed", "manifest_feed_not_object", "manifest_bad_mode",
         "contract_missing", "contract_torn"],
    )
    def test_unreadable_manifest_or_contract_is_a_typed_error(self, tmp_path, capsys, damage):
        engine = make_engine(tmp_path, cycles=2, run_id="files")
        engine.run()
        paths = RunPaths(tmp_path, "files")
        contract = paths.contracts / f"{engine.contract_hash.digest}.contract.json"
        path = paths.manifest if damage.startswith("manifest") else contract
        if damage == "contract_missing":
            path.unlink()
        elif damage.endswith("_torn"):
            path.write_bytes(path.read_bytes()[:40])
        else:
            data = json.loads(path.read_text(encoding="utf-8"))
            if damage == "manifest_no_seed":
                del data["seed"]
            elif damage == "manifest_feed_not_object":
                data["feed_source"] = ["synthetic"]
            else:
                data["mode"] = "live"
            path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(NoCheckpoint, match=re.escape(path.name)):
            resume_run(tmp_path, "files")
        argv = ["--out", str(tmp_path), "run", "--agents", "momentum", "--resume", "files"]
        assert cli_main(argv) == 1
        assert path.name in capsys.readouterr().err


class TestAtomicWrites:
    def test_manifest_checkpoints_and_hash_are_renamed_into_place(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", spy)
        engine = make_engine(tmp_path, cycles=2, run_id="atomic")
        engine.run()
        assert replaced == [
            "manifest.json", f"{engine.contract_hash.digest}.contract.json",
            "cycle_00001.json", "cycle_00002.json",
            "market_copier.jsonl", "momentum.jsonl", "events.sha256",
        ]

    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "events.sha256"
        path.write_bytes(b"old\n")

        def fail(src, dst):
            raise OSError("no space left on device")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            fileio.write_atomic(path, b"new\n")
        assert path.read_bytes() == b"old\n"


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
            for e in per_row_shape(r_syn.events_path)
            if e["kind"] == "forecast"
        ]
        rep_probs = [
            (e["cycle"], e["condition_id"], e["probability"])
            for e in per_row_shape(r_rep.events_path)
            if e["kind"] == "forecast"
        ]
        assert syn_probs == rep_probs

    def test_every_cycle_must_hold_a_batch(self, tmp_path):
        """A kept cycle of fewer markets than ``agents.batch_size`` is refused
        by its number before anything is written; run, every agent's batch
        of it would be rejected for its cardinality and fall back to HOLDs."""
        cycles = list(feed_cycles(generate_synthetic(9, 31, 3).snapshots))
        cycles[1] = cycles[1][:29]
        save_feed([s for cycle in cycles for s in cycle], tmp_path / "feed.jsonl")
        engine = EvalEngine.create(
            tmp_path / "out", seed=9, agent_ids=["momentum"], cycles=3, run_id="short",
            feed_source={"kind": "replay", "feed": str(tmp_path / "feed.jsonl")},
        )
        with pytest.raises(InvalidParameters, match="30 markets per cycle, got 29 in cycle 2"):
            engine.run()
        assert not (tmp_path / "out").exists()


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
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
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
            server.server_close()
            thread.join(timeout=5)
        assert not thread.is_alive()
        forecasts = [e for e in per_row_shape(result.events_path) if e["kind"] == "forecast"]
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

    def test_torn_manifest_fails_verification(self, tmp_path, capsys):
        make_engine(tmp_path, cycles=2, run_id="m").run()
        manifest = RunPaths(tmp_path, "m").manifest
        manifest.write_bytes(manifest.read_bytes()[:40])
        report = verify_run(tmp_path, "m")
        assert report.events_ok and not report.ok
        assert [m for m in report.messages if "manifest.json" in m]
        assert cli_main(["--out", str(tmp_path), "verify", "--run-id", "m"]) == 1
        out, err = capsys.readouterr()
        assert "verify m: FAILED" in out and "manifest.json" in out
        assert "Traceback" not in out + err

    def test_verify_of_a_missing_run_leaves_out_as_it_was(self, tmp_path, capsys):
        """Verifying a run that is not there exits 1 and makes no directory
        under ``--out``, nor ``--out`` itself; ``lock`` into a store that
        does not exist yet makes it and writes its contract there."""
        out = tmp_path / "runs"
        assert cli_main(["--out", str(out), "verify", "--run-id", "nope"]) == 1
        assert "verify nope: FAILED" in capsys.readouterr().out
        assert not out.exists()
        out.mkdir()
        assert cli_main(["--out", str(out), "verify", "--run-id", "nope"]) == 1
        assert list(out.iterdir()) == []
        store = tmp_path / "new" / "store"
        assert cli_main(["lock", "--store", str(store)]) == 0
        digest, path = capsys.readouterr().out.split()[-2:]
        assert Path(path) == store / f"{digest}.contract.json"
        assert contract_module.ContractStore(store).verify_stored(digest)


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
        for ev in per_row_shape(events_path):
            if ev["kind"] == "forecast":
                assert ev["output_tokens"] <= 500


class TestRunExists:
    def test_second_fresh_run_raises_and_keeps_the_first(self, tmp_path):
        make_engine(tmp_path, agents=("momentum",), cycles=3, run_id="again").run()
        root = tmp_path / "again"
        before = {p: p.read_bytes() for p in root.rglob("*") if p.is_file()}
        with pytest.raises(RunExists):
            make_engine(tmp_path, agents=("momentum",), cycles=3, run_id="again").run()
        assert {p: p.read_bytes() for p in root.rglob("*") if p.is_file()} == before
        assert verify_run(tmp_path, "again").ok

    def test_a_manifest_alone_is_a_run(self, tmp_path):
        (tmp_path / "m").mkdir()
        (tmp_path / "m" / "manifest.json").write_text("{}", encoding="utf-8")
        with pytest.raises(RunExists):
            make_engine(tmp_path, cycles=2, run_id="m").run()
        assert [p.name for p in (tmp_path / "m").iterdir()] == ["manifest.json"]

    def test_cli_exits_1(self, tmp_path, capsys):
        argv = ["--seed", "3", "--out", str(tmp_path), "run", "--agents", "momentum",
                "--cycles", "2", "--markets", "31", "--run-id", "twice"]
        assert cli_main(argv) == 0
        assert cli_main(argv) == 1
        assert "already holds a run" in capsys.readouterr().err


class TestFeedSourceKeys:
    @pytest.mark.parametrize(
        "feed_source, key",
        [
            ({"kind": "synthetic"}, "n_markets"),
            ({"kind": "replay", "outcomes": "o.jsonl"}, "feed"),
            ({"kind": "live", "endpoint": "http://127.0.0.1:9/price"}, "condition_ids"),
        ],
    )
    def test_missing_key_is_invalid_parameters(self, tmp_path, feed_source, key):
        with pytest.raises(InvalidParameters, match=key):
            EvalEngine.create(
                tmp_path, seed=1, agent_ids=["momentum"], feed_source=feed_source, cycles=2
            )
        assert not any(tmp_path.iterdir())

    def test_live_market_listed_twice_is_invalid_parameters(self, tmp_path):
        """Each cycle would fetch the market twice, and every agent forecast
        it twice."""
        feed_source = {
            "kind": "live", "endpoint": "http://127.0.0.1:9/price",
            "condition_ids": ["0xa", "0xb", "0xa"],
        }
        with pytest.raises(InvalidParameters, match="repeat '0xa'"):
            EvalEngine.create(
                tmp_path, seed=1, agent_ids=["momentum"], feed_source=feed_source, cycles=2
            )
        assert not any(tmp_path.iterdir())

    def test_live_markets_fewer_than_a_batch_is_invalid_parameters(self, tmp_path):
        """Every live cycle holds the manifest's markets, so each must hold a
        batch of them."""
        feed_source = {
            "kind": "live", "endpoint": "http://127.0.0.1:9/price",
            "condition_ids": [f"0x{i:02x}" for i in range(29)],
        }
        with pytest.raises(InvalidParameters, match="30 markets per cycle, got 29 live"):
            EvalEngine.create(
                tmp_path, seed=1, agent_ids=["momentum"], feed_source=feed_source, cycles=2
            )
        assert not any(tmp_path.iterdir())

    def test_live_feed_without_an_endpoint_writes_nothing(self, tmp_path, monkeypatch):
        monkeypatch.delenv(ENDPOINT_ENV_VAR, raising=False)
        engine = EvalEngine.create(
            tmp_path, seed=1, agent_ids=["momentum"], cycles=2, run_id="lv",
            feed_source={"kind": "live", "condition_ids": [f"0x{i:02x}" for i in range(30)]},
        )
        with pytest.raises(FatalFeedError, match="live feed needs an endpoint"):
            engine.run()
        assert not any(tmp_path.iterdir())

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(InvalidParameters, match="unknown feed source kind"):
            EvalEngine.create(
                tmp_path, seed=1, agent_ids=["momentum"], feed_source={"kind": "csv"}, cycles=2
            )


class TestAgentIds:
    @pytest.mark.parametrize(
        "agents, message",
        [
            ("nobody", "unknown agent 'nobody'"),
            # once one agent taking two turns a cycle, folded as one subject
            ("momentum,momentum", "repeat an id or a ledger file name"),
            ("momentum#a/b,momentum#a_b", "repeat an id or a ledger file name"),
        ],
    )
    def test_bad_ids_exit_1_before_anything_is_written(self, tmp_path, capsys, agents, message):
        def run(agent_ids):
            return cli_main([
                "--out", str(tmp_path), "run", "--agents", agent_ids, "--cycles", "2",
                "--run-id", "r",
            ])

        assert run(agents) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert message in err
        assert not any(tmp_path.iterdir())
        # a second instance of a kind takes a suffix, and resumes as any run
        assert run("momentum,momentum#2") == 0
        fresh = (tmp_path / "r" / "events.sha256").read_text(encoding="utf-8").strip()
        result = resume_run(tmp_path, "r", at_cycle=1)
        assert result.event_log_sha256 == fresh
        forecasts = [e for e in per_row_shape(result.events_path) if e["kind"] == "forecast"]
        assert {e["agent_id"] for e in forecasts} == {"momentum", "momentum#2"}
        assert len(forecasts) == 2 * 40 * 2

    @pytest.mark.parametrize("agent_id", [5, None, ["momentum"]])
    def test_an_agent_id_that_is_not_a_string_is_invalid(self, tmp_path, capsys, agent_id):
        """Resuming a run whose manifest lists 5 once ended in a raw
        AttributeError from ``aid.split``."""
        with pytest.raises(InvalidParameters, match="is not a string"):
            make_engine(tmp_path, agents=("momentum", agent_id), cycles=2, run_id="fresh")
        make_engine(tmp_path, agents=("momentum",), cycles=2, run_id="r").run()
        manifest = tmp_path / "r" / "manifest.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        data["agent_ids"].append(agent_id)
        manifest.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(InvalidParameters, match="is not a string"):
            resume_run(tmp_path, "r")
        argv = ["--out", str(tmp_path), "run", "--agents", "momentum", "--resume", "r"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err


_UNIT = st.floats(0.0, 1.0)


class TestDriftMeans:
    @given(
        st.lists(
            st.tuples(
                st.lists(_UNIT, min_size=1, max_size=14),  # the market's prices so far
                _UNIT,  # this cycle's probability
                st.none() | _UNIT,  # the previous cycle's, if any
            ),
            max_size=12,
        )
    )
    @settings(max_examples=300)
    def test_equal_the_per_market_means_of_temporal_drift(self, markets):
        """Bit for bit, with markets of one price and markets without a
        previous forecast, each market's moves taken from its recent prices
        in the fold's by-cycle form, as the engine takes them."""
        recent, histories = {}, {}
        snap_map, curr, prev = {}, {}, {}
        for i, (history, p_curr, p_prev) in enumerate(markets):
            cid = f"0x{i:040x}"
            by_cycle = {cycle: price for cycle, price in enumerate(history, start=3)}
            recent[cid] = evalloop._recent_prices(by_cycle, 11)
            assert recent[cid] == history[-11:]
            histories[cid] = history
            snap_map[cid] = make_snapshot(cid=cid, yes=history[-1])
            curr[cid] = p_curr
            if p_prev is not None:
                prev[cid] = p_prev
        means, compared = evalloop._drift_means(curr, prev, evalloop._moves(snap_map, recent))
        want_means, want_compared = oracles.drift_means_oracle(curr, prev, snap_map, histories)
        assert [m.hex() for m in means] == [m.hex() for m in want_means]
        assert compared == want_compared


class TestAgentReplies:
    def test_a_reply_of_another_type_is_an_agent_failure(self, tmp_path, monkeypatch):
        """An agent whose probability is a numpy float fails each cycle, as
        an agent_failure and a batch of HOLDs; every line of the log is
        then the generic encoder's."""
        monkeypatch.setattr(
            agents.MomentumAgent, "probability",
            lambda self, m, c, b, memory: np.float64(m.yes_price),
        )
        result = make_engine(tmp_path, cycles=3, run_id="odd").run()
        lines = result.events_path.read_text(encoding="utf-8").splitlines(keepends=True)
        events = [json.loads(line) for line in lines]
        assert [evalloop.event_line(ev) for ev in events] == lines
        failures = [ev for ev in events if ev["kind"] == "agent_failure"]
        assert [(ev["agent_id"], ev["cycle"]) for ev in failures] == [
            ("momentum", c) for c in (1, 2, 3)
        ]
        assert "is not a float" in failures[0]["error"]
        assert not any(
            ev["kind"] == "forecast" and ev["agent_id"] == "momentum"
            for ev in per_row_shape(result.events_path)
        )


# Strings with non-ASCII text, quotes, backslashes, control characters and
# the separators JSON leaves alone but JavaScript does not.
_JSON_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\x00\x1f\x7f\u2028\u2029\ufeff\U0001f600 \t\n\r'), st.characters()
    ),
    max_size=60,
)
_JSON_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1.0, 1e-05, 5e-324, 2.2250738585072009e-308, 1e16, 0.1]),
)
# Each list of a ledgers block: a value of the type the engine writes, an
# integer within a float's range (counts above 2**64 too), and its entry
# kind and side are members' text.
_LEDGER_COLUMNS = {
    "basis_delta_cents": st.integers(-(2**70), 2**70),
    "cash_delta_cents": st.integers(-(2**70), 2**70),
    "condition_id": _JSON_TEXT,
    "entry_kind": st.sampled_from([k.value for k in EntryKind]),
    "note": _JSON_TEXT,
    "price": _JSON_FLOAT,
    "quantity_micro": st.integers(-(2**70), 2**70),
    "seq": st.integers(-(2**70), 2**70),
    "side": st.sampled_from([s.value for s in Side]),
    "timestamp": _JSON_TEXT,
}


@st.composite
def _ledgers_blocks(draw, cycle=st.integers(), agent_id=_JSON_TEXT, min_size=1, max_size=3):
    """A ledgers block of ``min_size`` to ``max_size`` entries, as one agent
    turn logs them: an OPEN's basis is a stake, not negative, and its price
    a win probability above 0, as the fold requires."""
    n = draw(st.integers(min_size, max_size))
    block = {"kind": "ledgers", "cycle": draw(cycle), "agent_id": draw(agent_id)}
    for key, values in _LEDGER_COLUMNS.items():
        block[key] = draw(st.lists(values, min_size=n, max_size=n))
    for i, kind in enumerate(block["entry_kind"]):
        if kind == "OPEN":
            block["basis_delta_cents"][i] = abs(block["basis_delta_cents"][i])
            block["price"][i] = draw(_OPEN_PRICE)
    return block


# An OPEN's fill price: a win probability above 0, the edge floats too.
_OPEN_PRICE = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True), st.sampled_from([5e-324, 1e-05, 1.0])
)
# Ledger entries as the simulator makes them, with any text and numbers.
_LEDGER_ENTRIES = st.builds(
    LedgerEntry,
    seq=st.integers(),
    kind=st.sampled_from(EntryKind),
    condition_id=_JSON_TEXT,
    cash_delta_cents=st.integers(),
    timestamp=st.datetimes(
        min_value=datetime(1000, 1, 1), timezones=st.just(timezone.utc)
    ),
    side=st.sampled_from(Side),
    price=_JSON_FLOAT,
    quantity_micro=st.integers(),
    basis_delta_cents=st.integers(),
    note=_JSON_TEXT,
).flatmap(
    # an OPEN's basis is a stake and its price a win probability above 0,
    # as the fold requires
    lambda e: st.builds(
        dataclasses.replace, st.just(e), basis_delta_cents=st.just(abs(e.basis_delta_cents)),
        price=_OPEN_PRICE,
    ) if e.kind is EntryKind.OPEN else st.just(e)
)
# A few market and agent ids, non-ASCII, NUL and U+2028 among them, so that
# blocks share markets and a market or an agent may come twice.
_MARKET_IDS = st.sampled_from(["0x" + "ab" * 20, "\u00e9\u2028\x00", "m\U0001f600", '"', ""])
_AGENT_IDS = st.sampled_from(["momentum", "drift_adjusted", "\u00e9\u2028\x00"])
# A probability: any float in [0, 1], the edge floats and the ints 0 and 1 too.
_UNIT = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, -0.0, 5e-324, 1e-05, 1.0, 0, 1]))
# The fold refuses a tiny positive yes price, as snapshot validation does.
_YES_PRICE = _JSON_FLOAT.filter(lambda p: not 0.0 < p < MIN_POSITIVE_PRICE)
# The agent_meta that names momentum first.
_META = {
    "kind": "agent_meta", "agent_id": "momentum", "agent_count": 1, "strategy": "MOMENTUM",
    "unique_users": None,
}


@st.composite
def _cycle_blocks(draw, unique_markets: bool = False) -> list[dict]:
    """One cycle's blocks in the engine's order: its snapshots, the forecasts
    and ledger entries of up to three agent turns (a turn that fails
    part-way has a shorter forecasts block, of the first markets, and a turn
    without entries no ledgers block), then a baselines block per kind, each
    over the cycle's markets, which the forecasts and baselines blocks take
    from the snapshots block by place."""
    cycle = draw(st.integers())
    n = draw(st.integers(0, 4))
    cids = draw(st.lists(_MARKET_IDS, min_size=n, max_size=n, unique=unique_markets))

    def column(values, size=n):
        return draw(st.lists(values, min_size=size, max_size=size))

    blocks = [{
        "kind": "snapshots", "cycle": cycle, "condition_id": cids,
        "yes_price": column(_YES_PRICE), "no_price": column(_JSON_FLOAT),
        "observed_at": column(_JSON_TEXT),
    }]
    for agent_id in draw(st.lists(_AGENT_IDS, max_size=3)):
        made = draw(st.integers(0, n))
        blocks.append({
            "kind": "forecasts", "cycle": cycle, "agent_id": agent_id,
            "probability": column(_UNIT, made),
            "confidence": column(st.integers(-5, 15), made),
            "input_tokens": column(st.integers(0, 2**70), made),
            "output_tokens": column(st.integers(0, 10**6), made),
            "trace": column(_JSON_TEXT, made),
        })
        entries = draw(_ledgers_blocks(st.just(cycle), st.just(agent_id), 0, 2))
        if entries["seq"]:
            entries["condition_id"] = draw(
                st.lists(_MARKET_IDS, min_size=len(entries["seq"]), max_size=len(entries["seq"]))
            )
            blocks.append(entries)
    for kind in BaselineKind:
        blocks.append({
            "kind": "baselines", "cycle": cycle, "baseline": kind.value,
            "probability": column(_UNIT),
        })
    return blocks


_AT = datetime(2026, 1, 1, tzinfo=timezone.utc)
_CID = "0x" + "ab" * 20
# kind -> one event of each block kind
# Numbers at every edge of the schema's ranges: ints and floats of
# either sign, NaN, the infinities, integers no float holds and the
# largest that round to one, -0.0, subnormals, the largest float, and
# bools, which are no number.
_EDGE_NUMBERS = st.one_of(
    st.integers(-3, 3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(0.0, 1.0),
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), 10**400, -(10**400), -0.0, 5e-324,
        sys.float_info.max, int(sys.float_info.max), int(sys.float_info.max) + 1,
        -int(sys.float_info.max) - 1, True, False,
    ]),
)

_SAMPLE_EVENTS = {
    "forecasts": {
        "kind": "forecasts", "cycle": 3, "agent_id": "momentum", "probability": [0.625, 0.5],
        "confidence": [7, 5], "trace": ["up 3% on volume", ""], "input_tokens": [312, 310],
        "output_tokens": [4, 0],
    },
    "baselines": {
        "kind": "baselines", "cycle": 3, "baseline": "market", "probability": [0.625, 0.5],
    },
    "snapshots": {
        "kind": "snapshots", "cycle": 3, "condition_id": [_CID, "m"], "yes_price": [0.625, 0.5],
        "no_price": [0.375, 0.5], "observed_at": ["2026-01-01T00:00:00Z"] * 2,
    },
    "ledgers": {
        "kind": "ledgers", "cycle": 3, "agent_id": "momentum", "basis_delta_cents": [15_000, 0],
        "cash_delta_cents": [0, 0], "condition_id": [_CID, "m"], "entry_kind": ["OPEN", "MARK"],
        "note": ["fill", ""], "price": [0.625, 0.5], "quantity_micro": [240_000_000, 0],
        "seq": [4, 5], "side": ["YES", "NO"],
        "timestamp": ["2026-01-01T00:00:00Z", "2026-01-01T01:00:00Z"],
    },
}


def _ledgers_block(cycle: int, agent_id: str, entries: list[LedgerEntry]) -> dict:
    """The ledgers block of a turn's entries, built from their records."""
    records = [entry_to_record(entry) for entry in entries]
    block = {"kind": "ledgers", "cycle": cycle, "agent_id": agent_id}
    for key in schema.BLOCK_LISTS["ledgers"]:
        block[key] = [record["kind" if key == "entry_kind" else key] for record in records]
    return block


def _ledger_record(ev: dict) -> dict:
    """The ledger file record of a ledger event, keys in ``entry_to_record``'s order."""
    return {
        "seq": ev["seq"], "kind": ev["entry_kind"], "condition_id": ev["condition_id"],
        "cash_delta_cents": ev["cash_delta_cents"], "timestamp": ev["timestamp"],
        "side": ev["side"], "price": ev["price"], "quantity_micro": ev["quantity_micro"],
        "basis_delta_cents": ev["basis_delta_cents"], "note": ev["note"],
    }


def _file_line(record: dict) -> str:
    return json.dumps(record, separators=(",", ":")) + "\n"


# What the sample forecasts and baselines blocks are folded after: momentum's
# agent_meta and their cycle's markets.
_CONTEXT = (_META, _SAMPLE_EVENTS["snapshots"])


def _bulk_run():
    """A run writing to a ``StringIO``, whose fold has folded ``_CONTEXT``."""
    out = io.StringIO()
    return evalloop._Run({}, EventFold().consume(_CONTEXT), events=out), out


def _emit_as_engine(run, ev: dict) -> None:
    """Log ``ev`` as the engine does: a ledgers block through ``_Run.record``,
    from the ``LedgerEntry``s it was made of, each time text that of a
    distinct timestamp in the run's ISO cache; any other block through
    ``_Run.emit``."""
    if ev["kind"] != "ledgers":
        run.emit(ev)
        return
    times = {}
    for text in ev["timestamp"]:
        at = times.setdefault(text, _AT + timedelta(seconds=len(times)))
        run.iso[at] = text
    run.record(ev["cycle"], ev["agent_id"], [
        LedgerEntry(
            e["seq"], EntryKind(e["entry_kind"]), e["condition_id"], e["cash_delta_cents"],
            times[e["timestamp"]], Side(e["side"]), e["price"], e["quantity_micro"],
            e["basis_delta_cents"], e["note"],
        )
        for e in per_entry_events([ev])
    ])


def _ledger_file_lines(fold: EventFold, agent_id: str) -> list[str]:
    """The agent's ledger file lines from the fold's rows, as the engine
    writes them, on a fresh and then a warm string cache: the two must
    agree."""
    strings = evalloop._Memo(encode_basestring_ascii)
    rows = fold.ledgers.get(agent_id, [])
    lines = list(evalloop._ledger_lines(rows, strings))
    assert list(evalloop._ledger_lines(rows, strings)) == lines
    return lines


def _by_row(events: list[dict]) -> EventFold:
    """A fold of ``events`` that takes each block a row at a time, through
    its kind's typed adder with one value per list, and every other event
    through ``EventFold.add``; a forecasts or baselines block's rows are of
    the first markets of the last snapshots block before it, and a
    forecasts block is its agent's turn."""
    fold = EventFold()
    for ev in oracles.named_markets_events(events):
        kind = ev["kind"]
        if kind not in schema.BLOCK_LISTS:
            fold.add(ev)
            continue
        keys = list(schema.BLOCK_LISTS[kind])
        if kind in ("forecasts", "baselines"):
            keys.append("condition_id")
        for row in zip(*(ev[key] for key in keys)):
            one = [[value] for value in row]
            if kind == "forecasts":
                confidence, n_in, n_out, p, _, cid = one
                fold.add_forecasts(ev["agent_id"], ev["cycle"], cid, p, confidence, n_in, n_out)
            elif kind == "baselines":
                p, cid = one
                fold.add_baselines(reporting.BASELINE_PREFIX + ev["baseline"], ev["cycle"], cid, p)
            elif kind == "snapshots":
                cid, _, _, yes = one
                fold.add_snapshots(ev["cycle"], cid, yes)
            else:
                fold.add_ledgers(ev["agent_id"], ev["cycle"], *one)
        if kind == "forecasts":
            fold.turns[ev["agent_id"]] = ev["condition_id"], ev["probability"], ev["trace"]
    return fold


def _state(fold: EventFold):
    """A fold's state, each dict as its items in insertion order, so that two
    states are equal only if their dicts were filled in the same order."""
    def ordered(value):
        if type(value) is dict:
            return [(k, ordered(v)) for k, v in value.items()]
        if type(value) in (list, tuple):
            return [ordered(v) for v in value]
        return value

    return ordered(vars(fold))


# The keys whose text is a member's.
_MEMBER_KEYS = ("kind", "baseline", "entry_kind", "side")


class TestBulkLines:
    """The engine writes each block through ``event_line`` and folds it
    through ``EventFold.add``, and writes the ledger file template's lines
    from the fold's rows as ``json.dumps`` does; a block folds as its rows,
    taken one at a time, do."""

    def _check(self, ev):
        """The engine's line of ``ev`` is the generic encoder's, and its
        fold is that of the line read back; a ledger entry's file line,
        from the fold's row, is ``json.dumps`` of its record."""
        run, out = _bulk_run()
        _emit_as_engine(run, ev)
        assert out.getvalue() == evalloop._EVENT_ENCODER.encode(ev) + "\n"
        read = EventFold().consume(_CONTEXT)
        read.add(json.loads(out.getvalue()))
        assert _state(run.fold) == _state(read)
        if ev["kind"] == "ledgers":
            lines = [_file_line(_ledger_record(e)) for e in per_entry_events([ev])]
            assert _ledger_file_lines(run.fold, ev["agent_id"]) == lines

    @staticmethod
    def _folds_as_its_rows(events: list[dict]) -> None:
        """``events``, written with ``event_line`` and read back, fold to
        the state ``_by_row`` folds them to, but for the markets of the
        last snapshots block, which only the blocks after it read."""
        read = [json.loads(evalloop.event_line(ev)) for ev in events]
        by_block = EventFold().consume(read)
        by_row = _by_row(read)
        by_row.markets = by_block.markets
        assert _state(by_block) == _state(by_row)

    @given(_ledgers_blocks())
    @settings(max_examples=300, deadline=None)
    def test_ledgers_block_line(self, ev):
        self._check(ev)

    @given(st.lists(_ledgers_blocks(agent_id=_AGENT_IDS), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_ledgers_blocks_fold_as_their_entries(self, blocks):
        """Random ledgers blocks, read back, fold as their entries do, one
        at a time, dict insertion order included: every entry kind, counts
        above 2**64, and agents that come again."""
        read = [json.loads(evalloop.event_line(block)) for block in blocks]
        assert _state(EventFold().consume(read)) == _state(_by_row(read))

    @given(st.lists(_cycle_blocks(), min_size=1, max_size=3))
    @settings(max_examples=300, deadline=None)
    def test_blocks_fold_as_their_rows(self, cycles):
        """Every field, counts above 2**64, repeated markets and agents,
        and turns that fail part-way; dict insertion order included, as
        ``score_columns`` sums in that order."""
        self._folds_as_its_rows([_META, *(block for blocks in cycles for block in blocks)])

    @given(st.lists(_cycle_blocks(), min_size=1, max_size=3), st.data())
    @settings(max_examples=300, deadline=None)
    def test_blocks_naming_their_markets_are_refused(self, cycles, data):
        """A forecasts or baselines block naming its markets in
        ``condition_id``, as the versions before wrote them, is a
        ``CorruptLog`` naming the key, among blocks that take their markets
        from their cycle's snapshots block by place."""
        blocks = [_META, *(block for blocks in cycles for block in blocks)]
        named = oracles.named_markets_events(blocks)
        some = [
            data.draw(st.sampled_from([block, named_block]))
            for block, named_block in zip(blocks, named)
        ]
        read = [json.loads(evalloop.event_line(ev)) for ev in some]
        if some == blocks:
            EventFold().consume(read)
        else:
            with pytest.raises(CorruptLog, match="holds 'condition_id', which this version"):
                EventFold().consume(read)

    @given(st.lists(_cycle_blocks(unique_markets=True), min_size=1, max_size=3))
    @settings(max_examples=200, deadline=None)
    def test_engine_writes_each_block_as_event_line_and_folds_it_as_add(self, cycles):
        """The engine's block line is ``event_line`` of the block, and what
        the engine folds as it writes is what ``EventFold.add`` folds of the
        line read back. Each cycle names a market once, as the feed does."""
        run, out = _bulk_run()
        read = EventFold().consume(_CONTEXT)
        for block in (block for blocks in cycles for block in blocks):
            out.seek(0)
            out.truncate()
            _emit_as_engine(run, block)
            assert out.getvalue() == evalloop.event_line(block)
            read.add(json.loads(out.getvalue()))
        assert _state(run.fold) == _state(read)

    @given(st.integers(), _JSON_TEXT, st.lists(_LEDGER_ENTRIES, max_size=4))
    @settings(max_examples=300, deadline=None)
    def test_ledger_lines_of_a_turn(self, cycle, agent_id, entries):
        """A turn's ledger lines, the log's block and each entry's ledger
        file line, as the engine fills them (each kind, side and time text
        from its tables and caches; the file lines from the fold's rows, on
        a fresh and then a warm string cache), for two turns; a turn without
        entries logs nothing."""
        block = _ledgers_block(cycle, agent_id, entries)
        expected = evalloop.event_line(block) if entries else ""
        files = [_file_line(entry_to_record(entry)) for entry in entries]
        run, out = _bulk_run()
        for turn in (1, 2):
            out.seek(0)
            out.truncate()
            run.record(cycle, agent_id, entries)
            assert out.getvalue() == expected
            assert _ledger_file_lines(run.fold, agent_id) == files * turn

    def test_fold_rows_hold_an_entry_s_values_in_key_order(self):
        """``EventFold.add_ledgers`` folds each entry as a row of its
        per-entry event's values in sorted key order, its cycle among them
        and its agent and kind not; resume reads the rows so."""
        block = _SAMPLE_EVENTS["ledgers"]
        fold = EventFold()
        fold.add(block)
        rows = [
            tuple(e[k] for k in sorted(e) if k not in ("agent_id", "kind"))
            for e in per_entry_events([block])
        ]
        assert fold.ledgers == {"momentum": rows}

    def test_a_kept_integer_price_is_written_as_the_float_replay_reads(self):
        """A kept log may hold a price as an integer, a number the schema
        takes; its ledger file line is that of the entry replay builds,
        whose price is a ``float``."""
        fold = EventFold()
        fold.add({**_SAMPLE_EVENTS["ledgers"], "price": [1, 0]})
        times = evalloop._Memo(from_iso)
        entries = [evalloop._kept_entry("momentum", row, times) for row in fold.ledgers["momentum"]]
        lines = _ledger_file_lines(fold, "momentum")
        assert lines == [_file_line(entry_to_record(entry)) for entry in entries]
        assert '"price":1.0,' in lines[0]

    def test_ledger_file_line_takes_entry_to_record_s_keys_in_order(self):
        entry = entry_from_record(_ledger_record(per_entry_events([_SAMPLE_EVENTS["ledgers"]])[0]))
        assert evalloop._LEDGER_FILE_FIELDS == tuple(entry_to_record(entry))

    @pytest.mark.parametrize("value", [1e-05, 1e16, -0.0, 5e-324])
    @pytest.mark.parametrize("kind", sorted(_SAMPLE_EVENTS))
    def test_edge_floats_and_non_ascii_strings(self, kind, value):
        """Each float of the event, each string that is not a member's text
        and each value of a block's lists of them, as the edge float and a
        text of non-ASCII characters, NUL and U+2028 (once more for each
        later value of a list); a probability, a yes price or an OPEN's
        price (the sample ledgers block's first) the fold refuses keeps its
        sample value. A block folds as its rows too."""
        text = "\u00e9\u2028\U0001f600\x00"

        def edged(key, v, i=0):
            if type(v) is list:
                return [edged(key, item, i) for i, item in enumerate(v)]
            if type(v) is float and (
                key == "probability" and not 0.0 <= value <= 1.0
                or key == "yes_price" and 0.0 < value < MIN_POSITIVE_PRICE
                or key == "price" and i == 0 and not 0.0 < value <= 1.0
            ):
                return v
            return value if type(v) is float else text * (i + 1) if type(v) is str else v

        ev = {
            k: v if k in _MEMBER_KEYS else edged(k, v) for k, v in _SAMPLE_EVENTS[kind].items()
        }
        self._check(ev)
        self._folds_as_its_rows([*_CONTEXT, ev])

    def test_the_fold_takes_each_kind_the_engine_writes_and_no_other(self):
        """The kinds of the engine's event dicts, read from its source, are
        ``schema.KINDS``: a kind written without a table, or a table without
        a writer, fails here and not in a user's ``report``. Each such dict
        holds exactly its kind's keys, or none other where it splats in a
        mapping (the pinned logs' lines hold the rest), and the ledgers block
        ``_Run.record`` builds from its entries holds exactly its kind's
        keys. The kinds older versions wrote are refused."""
        tree = ast.parse(Path(evalloop.__file__).read_text(encoding="utf-8"))
        written = set()
        for node in ast.walk(tree):
            if not isinstance(node, ast.Dict):
                continue
            keys = {
                k.value: v for k, v in zip(node.keys, node.values) if isinstance(k, ast.Constant)
            }
            if not isinstance(keys.get("kind"), ast.Constant):
                continue
            kind = keys.pop("kind").value
            table = schema.TABLES[kind]
            if None in node.keys:
                assert set(keys) <= {*table.keys, *table.lists}, kind
            else:
                assert set(keys) == {*table.keys, *table.lists}, kind
            written.add(kind)
        assert written == schema.KINDS
        run, out = _bulk_run()
        _emit_as_engine(run, _SAMPLE_EVENTS["ledgers"])
        assert schema.decode(json.loads(out.getvalue())) == _SAMPLE_EVENTS["ledgers"]
        for kind in ["forecast", "baseline", "snapshot", "ledger", None, 7]:
            with pytest.raises(ValueError, match="is not one this version writes"):
                schema.decode({"kind": kind})

    @pytest.mark.parametrize("kind, key", [
        ("forecasts", "input_tokens"), ("snapshots", "yes_price"), ("baselines", "probability"),
    ])
    @given(values=st.lists(_EDGE_NUMBERS, min_size=1, max_size=6))
    @settings(max_examples=300, deadline=None)
    # a NaN after a value in range, which min and max pass over
    @example(values=[0, float("nan")])
    def test_a_number_list_is_refused_exactly_when_a_value_is(self, kind, key, values):
        """An int, number or probability list, its range checked with
        built-ins over the whole list, is refused exactly when one of its
        values is out of its type, value by value, and the refusal names
        the first such value."""
        t = schema.TABLES[kind].lists[key]
        ev = {
            k: v if k not in schema.TABLES[kind].lists else (v * len(values))[: len(values)]
            for k, v in _SAMPLE_EVENTS[kind].items()
        }
        ev[key] = values
        bad = next((v for v in values if not oracles.number_type_oracle(t.name, v)), None)
        if bad is None:
            assert schema.decode(ev) is ev
        else:
            with pytest.raises(ValueError) as info:
                schema.decode(ev)
            assert str(info.value) == f"{key} {bad!r} is not {t.what}"

    def test_readme_table_is_the_schema(self):
        """README's table lists each kind, in the schema's order, with its
        keys held once and its lists, each key with its type's name."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        rows = {}
        for line in readme.splitlines():
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if line.startswith("| `") and len(cells) == 3:
                rows[cells[0].strip("`")] = tuple(
                    re.findall(r"`(\w+)` ([^,]+)", cell) for cell in cells[1:]
                )
        assert list(rows.items()) == [
            (kind, tuple(
                [(key, t.name) for key, t in keys.items()] for keys in (table.keys, table.lists)
            ))
            for kind, table in schema.TABLES.items()
        ]

    @pytest.mark.parametrize("kind", sorted(_SAMPLE_EVENTS))
    def test_engine_folds_what_its_line_reads_back(self, kind):
        """What the engine folds as it writes an event is what
        ``EventFold.add`` folds of its line read back."""
        ev = _SAMPLE_EVENTS[kind]
        run, out = _bulk_run()
        _emit_as_engine(run, ev)
        assert out.getvalue() == evalloop.event_line(ev)
        read = EventFold().consume(_CONTEXT)
        read.add(json.loads(out.getvalue()))
        assert _state(run.fold) == _state(read)

    def test_numpy_int_is_not_serializable(self):
        ev = {**_SAMPLE_EVENTS["forecasts"], "cycle": np.int64(3)}
        with pytest.raises(TypeError):
            evalloop.event_line(ev)


class TestFinalReportObjects:
    """A final report's objects are the dicts the fold writes; these hold
    them, on every pinned log, to what README says of them."""

    # Subjects whose final report is of high risk, by pinned manifest; every
    # other subject's is of low risk.
    HIGH_RISK = {"flaky": 1, "observation": 0, "replay": 2, "synthetic": 2}

    @staticmethod
    def reports(pinned_logs, name):
        return [ev for ev in pinned_logs(name)[1] if ev["kind"] == "final_report"]

    @pytest.mark.parametrize("name", sorted(MANIFESTS))
    def test_final_report_invariants(self, name, pinned_logs):
        """VaR and CVaR are numbers, CVaR at least VaR, exactly when the risk
        is high, and null otherwise; d_total is the exact float sum of its
        parts; hhis lies in [0, 1]."""
        high = []
        for ev in self.reports(pinned_logs, name):
            risk, drift = ev["risk"], ev["drift"]
            var, cvar = risk["var"], risk["cvar"]
            numbers = type(var) in (int, float) and type(cvar) in (int, float)
            assert (risk["risk_category"] == "high") == (numbers and cvar >= var), ev
            if risk["risk_category"] == "high":
                high.append(ev["subject"])
            else:
                assert risk["risk_category"] == "low" and var is None and cvar is None, ev
            assert drift["d_total"] == (
                drift["d_narrative"] + drift["d_temporal"] + drift["d_confidence"]
            ), ev
            assert 0.0 <= ev["composite"]["hhis"] <= 1.0, ev
        assert len(high) == self.HIGH_RISK[name], high

    def test_readme_lists_the_keys_of_each_object(self, pinned_logs):
        """README's list under the event table names the keys of each object
        of every pinned log's final reports, and of each reliability bin."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        listed = {}
        for line in readme.split("The objects of a `final_report` hold", 1)[1].splitlines():
            item = re.match(r"- (?:each bin of )?`(\w+)`: (.*)", line)
            if item:
                listed[item[1]] = sorted(re.findall(r"`(\w+)`", item[2]))
            elif listed:
                break
        assert list(listed) == ["score", "reliability_bins", "drift", "risk", "composite"]
        scored = 0
        for name in sorted(MANIFESTS):
            for ev in self.reports(pinned_logs, name):
                for key in ("drift", "risk", "composite"):
                    assert sorted(ev[key]) == listed[key], (name, key)
                if ev["score"] is not None:
                    scored += 1
                    assert sorted(ev["score"]) == listed["score"], name
                    for b in ev["score"]["reliability_bins"]:
                        assert sorted(b) == listed["reliability_bins"], name
        assert scored


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
    def test_rejected_batch_defaults_to_holds(self, tmp_path, monkeypatch):
        """A reply that breaks the contract, 29 decisions where it must hold
        30, is rejected: its batch event says so, the turn trades the
        fallback batch of HOLDs, so the agent opens nothing in a cycle
        where its BUYs would have opened positions, and the run completes."""

        def opens(result) -> set:
            return {
                (e["agent_id"], e["cycle"])
                for e in per_entry_events(iter_events(result.events_path))
                if e["kind"] == "ledger" and e["entry_kind"] == "OPEN"
            }

        honest = make_engine(tmp_path, cycles=3, run_id="honest").run()
        real = evalloop.build_decision_batch

        def short(agent, *args, **kwargs):
            wire = real(agent, *args, **kwargs)
            if agent.agent_id != "momentum":
                return wire
            reply = json.loads(wire)
            reply["decisions"].pop()  # HOLD padding; the BUYs come first
            return json.dumps(reply)

        monkeypatch.setattr(evalloop, "build_decision_batch", short)
        result = make_engine(tmp_path, cycles=3, run_id="fb").run()
        events = list(iter_events(result.events_path))
        batches = {(e["agent_id"], e["cycle"]): e for e in events if e["kind"] == "batch"}
        momentum = [(cycle, b) for (aid, cycle), b in batches.items() if aid == "momentum"]
        assert [b["accepted"] for _, b in momentum] == [False] * 3
        assert all(b["accepted"] for (aid, _), b in batches.items() if aid != "momentum")
        bought = {("momentum", cycle) for cycle, b in momentum if b["n_buys"]}
        assert bought & opens(honest)
        assert not {key for key in opens(result) if key[0] == "momentum"}
        assert result.cycles_run == 3 and events[-1]["kind"] == "run_completed"


class TestTheFoldIsTheMemory:
    """What a run remembers between cycles it reads from its fold."""

    def test_a_window_is_the_agent_s_last_realized_pnls(self, tmp_path, monkeypatch):
        """Each calibration window an agent's batch is validated against
        holds the P&Ls of its last ``calibration_window_size`` CLOSE and
        RESOLVE entries of the cycles before, read here from the log; with
        a window of 2, windows roll."""
        seen = []
        real = evalloop.validate_decision_batch

        def spy(batch, known, window, cfg):
            seen.append((batch.agent_id, batch.produced_at, window))
            return real(batch, known, window, cfg)

        monkeypatch.setattr(evalloop, "validate_decision_batch", spy)
        config = EngineConfig(agents=AgentConfig(calibration_window_size=2))
        result = EvalEngine.create(
            tmp_path, seed=7, agent_ids=["momentum", "mean_reversion"], cycles=8,
            feed_source={"kind": "synthetic", "n_markets": 40}, config=config,
        ).run()
        events = oracles.read_events(result.events_path)
        cycle_at = {ev["time"]: ev["cycle"] for ev in events if ev["kind"] == "cycle_start"}
        realized = [
            (e["agent_id"], e["cycle"], e["cash_delta_cents"]) for e in per_entry_events(events)
            if e["kind"] == "ledger" and e["entry_kind"] in ("CLOSE", "RESOLVE")
        ]
        rolled = 0
        for aid, at, window in seen:
            cycle = cycle_at[to_iso(at)]
            pnls = [cash for agent, c, cash in realized if agent == aid and c < cycle]
            assert window == agents.CalibrationWindow(tuple(pnls[-2:]), 2), (aid, cycle)
            rolled += len(pnls) > 2
        assert len(seen) == 2 * 8 and rolled

    @pytest.mark.parametrize("name", sorted(MANIFESTS))
    @given(data=st.data())
    @settings(max_examples=4, deadline=None)
    def test_an_agent_s_part_is_that_of_the_full_run(self, name, pinned_logs, data):
        """An agent's part of a log (``oracles.agent_part``) depends on the
        feed, the seed and its own id only: run with a subset of a pinned
        manifest's agents, in any order, each agent's part, each baseline's
        and the baselines blocks are those of the full run."""
        root, full = pinned_logs(name)
        ids = data.draw(st.permutations(MANIFESTS[name]["agent_ids"]), label="order")
        ids = ids[: data.draw(st.integers(1, len(ids)), label="agents")]
        with contextlib.chdir(root):
            result = EvalEngine.create(
                tempfile.mkdtemp(dir=root), run_id=name,
                **{**MANIFESTS[name], "agent_ids": ids},
            ).run()
        part = oracles.read_events(result.events_path)
        baselines = [reporting.BASELINE_PREFIX + kind.value for kind in BaselineKind]
        for subject in [*ids, *baselines]:
            assert list(map(evalloop.event_line, oracles.agent_part(part, subject))) == list(
                map(evalloop.event_line, oracles.agent_part(full, subject))
            ), subject
        blocks = [
            [evalloop.event_line(ev) for ev in log if ev["kind"] == "baselines"]
            for log in (part, full)
        ]
        assert blocks[0] == blocks[1]

    @pytest.mark.parametrize("name", sorted(MANIFESTS))
    def test_each_cycle_from_its_prefix(self, name, pinned_logs):
        """Each cycle of a pinned log is what the engine writes from the
        state it builds of the log before it (``_check_each_cycle``)."""
        root, events = pinned_logs(name)
        log = "".join(map(evalloop.event_line, events))
        assert hashlib.sha256(log.encode()).hexdigest() == PINS[name]["events.jsonl"]
        with contextlib.chdir(root):
            engine = EvalEngine.create(root / "unused", run_id=name, **MANIFESTS[name])
            _check_each_cycle(engine, events)


class TestNoLookahead:
    """The log through cycle c is a function of the manifest and the feed
    through cycle c: no cycle reads a later price, market or outcome. This is
    ForecastBench's rule for forecasting questions (Karger et al., ICLR 2025)."""

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_the_log_through_a_cycle_is_blind_to_the_feed_after_it(self, data):
        """A replay feed changed after cycle c (new prices, markets dropped
        down to a batch or added, in any order) with changed outcomes logs
        the same bytes through cycle c's cycle_end. The feed keeps its cycle
        count, which run_started logs."""
        n_cycles = data.draw(st.integers(3, 6), label="cycles")
        c = data.draw(st.integers(1, n_cycles - 1), label="c")
        seed = data.draw(st.integers(0, 2**32), label="seed")
        feed = generate_synthetic(seed, data.draw(st.integers(30, 36), label="markets"), n_cycles)
        agent_ids = data.draw(
            st.lists(st.sampled_from(sorted(agents.AGENT_BUILDERS)), min_size=1, max_size=4,
                     unique=True),
            label="agents",
        )
        rnd = data.draw(st.randoms(use_true_random=False))
        cycles = list(feed_cycles(feed.snapshots))
        added_end = cycles[-1][0].observed_at + timedelta(days=30)
        changed, added = cycles[:c], []
        for n, cycle in enumerate(cycles[c:], start=c + 1):
            kept = [
                dataclasses.replace(s, yes_price=yes, no_price=1.0 - yes)
                for s in rnd.sample(cycle, rnd.randint(30, len(cycle)))
                for yes in [rnd.uniform(0.01, 0.99)]
            ]
            new = [
                dataclasses.replace(
                    cycle[0], condition_id=f"0xadded{n}_{i}", yes_price=0.5, no_price=0.5,
                    question=f"Will the added market {i} close higher?", end_time=added_end,
                )
                for i in range(rnd.randint(0, 3))
            ]
            added += [s.condition_id for s in new]
            changed.append(kept + new)
        outcomes = [
            dataclasses.replace(o, outcome=1 - o.outcome)
            for o in feed.outcomes if rnd.random() < 0.8
        ]
        outcomes += [dataclasses.replace(feed.outcomes[0], condition_id=cid) for cid in added]

        def log(snapshots, outcomes) -> bytes:
            with tempfile.TemporaryDirectory() as root, contextlib.chdir(root):
                save_feed(snapshots, "feed.jsonl")
                save_outcomes(outcomes, "outcomes.jsonl")
                return EvalEngine.create(
                    "out", seed=seed, agent_ids=agent_ids, cycles=n_cycles, run_id="blind",
                    feed_source={
                        "kind": "replay", "feed": "feed.jsonl", "outcomes": "outcomes.jsonl",
                    },
                ).run().events_path.read_bytes()

        full = log(feed.snapshots, feed.outcomes)
        other = log([s for cycle in changed for s in cycle], outcomes)
        end = full.index(b'{"cycle":%d,"kind":"cycle_end"' % c)
        end = full.index(b"\n", end) + 1
        assert other[:end] == full[:end]
        assert other != full


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

    def test_the_renderer_takes_each_snapshot_s_times_from_the_run(self, tmp_path, monkeypatch):
        """The run formats each distinct time once; the renderer formats
        only the contract's own time, for the stored contract."""
        contract = lock_contract(
            "{{market.observed_at}} ends {{market.end_time}}: {{portfolio.summary}}", "t", 1000
        )
        formatted = []
        real = contract_module.to_iso
        monkeypatch.setattr(contract_module, "to_iso", lambda ts: formatted.append(ts) or real(ts))
        EvalEngine.create(
            tmp_path, seed=2, agent_ids=["momentum"],
            feed_source={"kind": "synthetic", "n_markets": 40}, cycles=3, contract=contract,
        ).run()
        assert set(formatted) == {contract[0].created_at}

    def test_input_tokens_count_the_rendered_instruction(self, tmp_path):
        # The summary slot appears twice and touches other text on both sides.
        template = (
            "Budget {{contract.token_budget}}:[{{portfolio.summary}}]{{market.condition_id}}\n"
            "{{market.question}} liquidity={{market.liquidity_tier}}"
            "{{ portfolio.summary }}end"
        )
        contract = lock_contract(template, "custom", 1000)
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
            for c, cycle in enumerate(feed_cycles(generate_synthetic(2, 40, cycles).snapshots), 1)
            for s in cycle
        }
        events = per_row_shape(result.events_path)
        forecasts = [e for e in events if e["kind"] == "forecast"]
        assert len(forecasts) == 2 * 40 * cycles
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
            assert ev["input_tokens"] == len(expected.split())
