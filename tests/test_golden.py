"""Golden pins: the sha256 of ``events.jsonl`` and of every ledger for a few
fixed manifests.

A run is a pure function of its manifest, so these digests change only when
a change is meant to alter the bytes a run writes. Such a change must say so
and update the pins; any other change that moves one is a regression.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from pathlib import Path

import pytest

from driftmark.errors import CorruptLog, IoError
from driftmark.evalloop import EvalEngine, RunPaths, file_sha256, resume_run
from driftmark.market_data import generate_synthetic, save_feed, save_outcomes
from driftmark.reporting import aggregate, emit, iter_events
from oracles import read_log_oracle

SIX_AGENTS = (
    "market_copier", "momentum", "mean_reversion", "drift_adjusted", "risk_confirmation",
    "budget_noise",
)

# name -> keyword arguments of EvalEngine.create (besides the output root)
MANIFESTS = {
    "synthetic": dict(
        seed=7, agent_ids=SIX_AGENTS, feed_source={"kind": "synthetic", "n_markets": 40},
        cycles=6,
    ),
    "observation": dict(
        seed=7, agent_ids=SIX_AGENTS, feed_source={"kind": "synthetic", "n_markets": 40},
        cycles=6, mode="observation",
    ),
    "replay": dict(
        seed=11, agent_ids=("market_copier", "momentum", "mean_reversion"),
        feed_source={"kind": "replay", "feed": "feed.jsonl", "outcomes": "outcomes.jsonl"},
        cycles=5,
    ),
    # ``flaky`` fails on cycles 3 and 6, so the failure and fallback paths run.
    "flaky": dict(
        seed=5, agent_ids=("momentum", "flaky", "risk_confirmation", "budget_noise"),
        feed_source={"kind": "synthetic", "n_markets": 40}, cycles=7,
    ),
}

# name -> {path under the run directory: sha256}. An agent that never trades
# has an empty ledger.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINS = {
    "synthetic": {
        "events.jsonl": "38442c679ead9ccee5a8d2fd8e8ce365df99d95776c1bedc29c37b7e8496e2a4",
        "ledgers/budget_noise.jsonl": EMPTY,
        "ledgers/drift_adjusted.jsonl": EMPTY,
        "ledgers/market_copier.jsonl": EMPTY,
        "ledgers/mean_reversion.jsonl": "c2ea1257000554634cfbe0898458411ddb5a93f270374be9d970375df6ea9d2e",
        "ledgers/momentum.jsonl": "c792e0f9ab3267323b1f58da56586cf2a5b0b28ab3b1189c3168fec22306e8c9",
        "ledgers/risk_confirmation.jsonl": EMPTY,
    },
    "observation": {
        "events.jsonl": "9b8e67dd4fd440387fe7437ca1a37b9c7152bcaacb22a8cb76ac73411e64fd64",
        **{f"ledgers/{aid}.jsonl": EMPTY for aid in SIX_AGENTS},
    },
    "replay": {
        "events.jsonl": "6a37c4c9fd01e10f9c05a6d71ee78aaa9329e73b43e4654effd215b8da23b33b",
        "ledgers/market_copier.jsonl": EMPTY,
        "ledgers/mean_reversion.jsonl": "e08b9a3709c8cf1da5f49fc8521bfb039ec825a19b22506465408e0759610791",
        "ledgers/momentum.jsonl": "a1f5dc2b56d8fc2bec676adcca65c21d78ed3452afa6b0f722fee7b4c4b3f0c9",
    },
    "flaky": {
        "events.jsonl": "7d4554664b6e4f8c213e4b878499d826c5b7cca91048218e78739fb9076bad81",
        "ledgers/budget_noise.jsonl": EMPTY,
        "ledgers/flaky.jsonl": EMPTY,
        "ledgers/momentum.jsonl": "007a030bb1be335b4532b4e68ec28446df748d75069b0b1dd11de1d5eed1207c",
        "ledgers/risk_confirmation.jsonl": EMPTY,
    },
}


# source -> {emit format: sha256 of emit(aggregate(events), format)}, for the
# events of each pinned manifest and for the leaderboard fixture. Computed
# before the scoring fold walked each subject once; the reports must not move.
REPORT_FORMATS = ("json", "csv", "table")
LEADERBOARD_FIXTURE = Path(__file__).parent / "fixtures" / "leaderboard_events.jsonl"
REPORT_PINS = {
    "flaky": {
        "json": "2236030e05b7b4ff31da3644d06e4b423c9847cb9c76d8141e20c728f225424e",
        "csv": "7219128924f48b94fd9438707220a4211b841d4c0c480a2be003ecd0ba7b86dd",
        "table": "8d71dc398541f245954c30aa5b4789451334701d3e4287c28ac1e416d0b4a3ee",
    },
    "observation": {
        "json": "b8d3a9ad41b77174436b74066293be8d8d3b5ede75db74a80c9eaf9a21d01ef6",
        "csv": "a182a920fb9d4e8183a851594ac271c9624b7410b174ad422bb00c3a5fa321a0",
        "table": "eaa14b4397fe6bb5c80695c7941b6de0850b530267bcc118ee0f245271b7ee94",
    },
    "replay": {
        "json": "2bf23ca7023ef09e91560217f6855413639e5df20a8b129cdf9a3e83198cb8ec",
        "csv": "b48f89ce35067cf55ef290cd36007cdbff9552b5af3fd2a772cbdfacca2fbc0f",
        "table": "47bc673852473776b5f8202fb855fca0c00872fabf16cbd722d3f0d55a7c9a61",
    },
    "synthetic": {
        "json": "353f1643063145bfab79495865d9980ea5fa36544f01bd2272d4ae554c2e756f",
        "csv": "33e92d920d66f446c43a8035e4c0dae0aed308c8ed497bdf822f549921e0ad31",
        "table": "92e2a57f4f6ebef8aa9e7f0ab2d3882ae574537057b7a914b48e8d91c982878f",
    },
    "leaderboard_fixture": {
        "json": "96645ab28fe55d4e6aad60ff2be38b10fea8e27e798ad5fa69f1392b6d9efff3",
        "csv": "88881a2c111e444f7b9279c8196db908fb568f37e032e4ca5ce80758eb747a3a",
        "table": "542094933fe2cb59ca7c641489a5327f0a7ddfcdf30454d48f1efa88f3b4905e",
    },
}


def report_digests(events) -> dict[str, str]:
    report = aggregate(events)
    return {
        fmt: hashlib.sha256(emit(report, fmt).encode()).hexdigest() for fmt in REPORT_FORMATS
    }


def run_digests(root, run_id: str) -> dict[str, str]:
    paths = RunPaths(root, run_id)
    files = [paths.events] + sorted(paths.ledgers.glob("*.jsonl"))
    return {p.relative_to(paths.root).as_posix(): file_sha256(p) for p in files}


def run_manifest(root, name: str):
    """Run one pinned manifest under ``root``; replay inputs are written to
    the working directory, which the manifest names them relative to."""
    if name == "replay":
        feed = generate_synthetic(11, 35, 5)
        save_feed(feed.snapshots, "feed.jsonl")
        save_outcomes(feed.outcomes, "outcomes.jsonl")
    return EvalEngine.create(root, run_id=name, **MANIFESTS[name]).run()


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_run_matches_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_manifest("out", name)
    digests = run_digests("out", name)
    assert digests == PINS[name]
    assert result.event_log_sha256 == PINS[name]["events.jsonl"]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_reports_match_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    assert report_digests(RunPaths("out", name).events) == REPORT_PINS[name]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_reader_matches_oracle_on_pinned_logs(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    path = RunPaths("out", name).events
    assert read_log_oracle(path.read_bytes()) == ("events", list(iter_events(path)))


def test_reader_matches_oracle_on_leaderboard_fixture():
    expected = read_log_oracle(LEADERBOARD_FIXTURE.read_bytes())
    assert expected == ("events", list(iter_events(LEADERBOARD_FIXTURE)))


def test_leaderboard_fixture_reports_match_pins():
    assert report_digests(LEADERBOARD_FIXTURE) == REPORT_PINS["leaderboard_fixture"]


@pytest.mark.parametrize("name", ["synthetic", "flaky"])
def test_resume_from_middle_matches_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    middle = MANIFESTS[name]["cycles"] // 2
    resumed = resume_run("out", name, at_cycle=middle)
    assert resumed.event_log_sha256 == PINS[name]["events.jsonl"]
    assert run_digests("out", name) == PINS[name]


def test_torn_latest_checkpoint_resumes_to_pins(tmp_path, monkeypatch):
    """A crash while the last checkpoint is written leaves it torn; resume
    falls back to the one before and still reproduces the pinned bytes."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    latest = sorted(RunPaths("out", "flaky").checkpoints.glob("cycle_*.json"))[-1]
    latest.write_bytes(latest.read_bytes()[: latest.stat().st_size // 2])
    resumed = resume_run("out", "flaky")
    assert resumed.event_log_sha256 == PINS["flaky"]["events.jsonl"]
    assert run_digests("out", "flaky") == PINS["flaky"]


def test_resume_at_every_boundary_matches_pins(tmp_path, monkeypatch):
    """Resume rebuilds its state from the kept log. ``flaky`` fails on cycles
    3 and 6, so boundaries after a failed cycle take the previous forecasts
    from the latest cycle without an agent_failure."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    for boundary in range(1, MANIFESTS["flaky"]["cycles"] + 1):
        resumed = resume_run("out", "flaky", at_cycle=boundary)
        assert resumed.event_log_sha256 == PINS["flaky"]["events.jsonl"], f"boundary {boundary}"
        assert run_digests("out", "flaky") == PINS["flaky"], f"boundary {boundary}"


def test_checkpoints_with_ledger_offsets_resume_to_pins(tmp_path, monkeypatch):
    """Checkpoints written before ledgers were derived from the log also hold
    each ledger's size at the boundary; resume ignores it."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    paths = RunPaths("out", "flaky")
    log = paths.events.read_bytes()
    ledgers = {
        p.stem: p.read_bytes().splitlines(keepends=True) for p in paths.ledgers.glob("*.jsonl")
    }
    for path in paths.checkpoints.glob("cycle_*.json"):
        ckpt = json.loads(path.read_bytes())
        kept = [json.loads(line) for line in log[: ckpt["events_bytes"]].splitlines()]
        for aid, saved in ckpt["agents"].items():
            n = sum(1 for e in kept if e["kind"] == "ledger" and e["agent_id"] == aid)
            saved["ledger_bytes"] = len(b"".join(ledgers[aid][:n]))
        path.write_text(json.dumps(ckpt), encoding="utf-8")
    for at_cycle in (MANIFESTS["flaky"]["cycles"] // 2, None):
        resumed = resume_run("out", "flaky", at_cycle=at_cycle)
        assert resumed.event_log_sha256 == PINS["flaky"]["events.jsonl"]
        assert run_digests("out", "flaky") == PINS["flaky"]


@pytest.mark.parametrize("damage", ["deleted", "edited"])
def test_resume_rewrites_damaged_ledgers_to_pins(tmp_path, monkeypatch, damage):
    """Resume never reads a ledger: it rebuilds each one from the log."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    paths = RunPaths("out", "flaky")
    if damage == "deleted":
        shutil.rmtree(paths.ledgers)
    else:
        ledger = paths.ledgers / "momentum.jsonl"
        data = bytearray(ledger.read_bytes())
        data[10] ^= 1
        ledger.write_bytes(bytes(data))
    resumed = resume_run("out", "flaky", at_cycle=MANIFESTS["flaky"]["cycles"] // 2)
    assert resumed.event_log_sha256 == PINS["flaky"]["events.jsonl"]
    assert run_digests("out", "flaky") == PINS["flaky"]


def test_resume_without_the_log_is_a_typed_error(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    RunPaths("out", "flaky").events.unlink()
    with pytest.raises((CorruptLog, IoError)):
        resume_run("out", "flaky")


def test_crash_at_any_durable_write_resumes_to_pins(tmp_path, monkeypatch):
    """A crash at each fsync or rename after the first checkpoint (the log,
    each checkpoint, each ledger and ``events.sha256``) stops the run; resume
    then writes the pinned bytes. Until the first ledger is renamed into
    place, the run has no ledger at all."""
    calls = []
    real = {"fsync": os.fsync, "replace": os.replace}

    def spy(name, fail_at=None):
        def call(*args):
            calls.append((name, Path(args[1]).name if name == "replace" else None))
            if len(calls) == fail_at:
                raise OSError(f"injected failure at {name} call {fail_at}")
            return real[name](*args)

        return call

    def patch(fail_at=None):
        calls.clear()
        monkeypatch.setattr(os, "fsync", spy("fsync", fail_at))
        monkeypatch.setattr(os, "replace", spy("replace", fail_at))

    patch()
    run_manifest(tmp_path / "clean", "flaky")
    monkeypatch.undo()
    writes = list(calls)
    first_checkpoint = writes.index(("replace", "cycle_00001.json")) + 1
    # The 1-based number of the first ledger rename.
    first_ledger = 1 + next(i for i, (_, dst) in enumerate(writes) if (dst or "").endswith(".jsonl"))
    assert writes[-1] == ("replace", "events.sha256")
    for k in range(first_checkpoint + 1, len(writes) + 1):
        root = tmp_path / f"crash{k}"
        patch(fail_at=k)
        with pytest.raises(OSError, match="injected"):
            run_manifest(root, "flaky")
        monkeypatch.undo()
        paths = RunPaths(root, "flaky")
        if k <= first_ledger:
            assert list(paths.ledgers.glob("*.jsonl")) == [], f"call {k}"
        resumed = resume_run(root, "flaky")
        assert resumed.event_log_sha256 == PINS["flaky"]["events.jsonl"], f"call {k}"
        assert run_digests(root, "flaky") == PINS["flaky"], f"call {k}"
        assert list(paths.ledgers.glob("*.tmp")) == [], f"call {k}"
