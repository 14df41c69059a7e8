"""Golden pins: the sha256 of ``events.jsonl`` and of every ledger for a few
fixed manifests.

A run is a pure function of its manifest, so these digests change only when
a change is meant to alter the bytes a run writes. Such a change must say so
and update the pins; any other change that moves one is a regression.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import math
import os
import shutil
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftmark import evalloop, reporting, schema
from driftmark.cli import main as cli_main
from driftmark.contract import instruction_shape
from driftmark.errors import CorruptLog, IoError
from driftmark.evalloop import EvalEngine, RunPaths, event_line, file_sha256, resume_run
from driftmark.market_data import (
    Domain,
    EventCategory,
    Horizon,
    Risk,
    generate_synthetic,
    save_feed,
    save_outcomes,
)
from driftmark.reporting import aggregate, decode_lines, emit, iter_events
from oracles import (
    named_markets_events,
    named_markets_shape,
    per_entry_shape,
    per_row_shape,
    read_log_oracle,
)

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
        "events.jsonl": "3902596f66c5e06db671174a394a2a4f324681c4c248b69e92d3b308a26a1a75",
        "ledgers/budget_noise.jsonl": EMPTY,
        "ledgers/drift_adjusted.jsonl": EMPTY,
        "ledgers/market_copier.jsonl": EMPTY,
        "ledgers/mean_reversion.jsonl": "c2ea1257000554634cfbe0898458411ddb5a93f270374be9d970375df6ea9d2e",
        "ledgers/momentum.jsonl": "c792e0f9ab3267323b1f58da56586cf2a5b0b28ab3b1189c3168fec22306e8c9",
        "ledgers/risk_confirmation.jsonl": EMPTY,
    },
    "observation": {
        "events.jsonl": "455c0ace2eb7452eaf5f85730cb0e21a271507e6ee5ba2f8f7f90bf519229f78",
        **{f"ledgers/{aid}.jsonl": EMPTY for aid in SIX_AGENTS},
    },
    "replay": {
        "events.jsonl": "c76d3181f92baf33c4dcd9cc1ce14d5bf58b00e7383757621f407b5d8a5a0224",
        "ledgers/market_copier.jsonl": EMPTY,
        "ledgers/mean_reversion.jsonl": "e08b9a3709c8cf1da5f49fc8521bfb039ec825a19b22506465408e0759610791",
        "ledgers/momentum.jsonl": "a1f5dc2b56d8fc2bec676adcca65c21d78ed3452afa6b0f722fee7b4c4b3f0c9",
    },
    "flaky": {
        "events.jsonl": "d6b42dd8272e5aa35c35052b01fc1532dc8b2cd3f3bf62c1074d7fb93be1626f",
        "ledgers/budget_noise.jsonl": EMPTY,
        "ledgers/flaky.jsonl": EMPTY,
        "ledgers/momentum.jsonl": "007a030bb1be335b4532b4e68ec28446df748d75069b0b1dd11de1d5eed1207c",
        "ledgers/risk_confirmation.jsonl": EMPTY,
    },
}

# name -> sha256 of the pinned log with each forecasts and baselines block
# naming its markets again (see ``oracles.named_markets_shape``), written
# with ``event_line``: these were the events pins until those blocks took
# their markets from their cycle's snapshots block, by place.
NAMED_MARKETS_SHAPE_PINS = {
    "synthetic": "75fb215133c6364940661eeeed8cf4091cd6d35bc98a65830686b346794415c4",
    "observation": "acafdac4414f9118170852e4affa994c3f8ac05580fc86a02fd8d0349cae1f7b",
    "replay": "749076476bc6b968f8e6fc1833550ea5f203935f97804c143cf730713a929262",
    "flaky": "f384e4dd7f2606529c77d208ad29cfe71e4a3b9c2a225f2399c6674c9f4a7119",
}

# name -> sha256 of that log with each ledgers block written back as one
# ledger event per entry (see ``oracles.per_entry_shape``), written with
# ``event_line``: these were the events pins before that, until each agent
# turn's ledger entries became one block.
PER_ENTRY_SHAPE_PINS = {
    "synthetic": "5a384951f7ce30ea8c34af8c61face6d46e4522b2fb5fd3dfc407d3a7a18b61d",
    "observation": "acafdac4414f9118170852e4affa994c3f8ac05580fc86a02fd8d0349cae1f7b",
    "replay": "f4d8fd5bd3715e6a6d0eda6cfc95e32fe31be6915cc5db6f0a57a3d537b4e63a",
    "flaky": "ee860ff6c507fca29091428d53962a685f22327f29ad94e84700433c999feea0",
}

# name -> sha256 of the pinned log in per-row shape (see
# ``oracles.per_row_shape``), written with ``event_line``: these were the
# events pins before that, until a cycle's snapshots, each agent turn's
# forecasts and each baseline kind's forecasts became one block each.
PER_ROW_SHAPE_PINS = {
    "synthetic": "70b4d8402205481e11b9d2c79e971388c6d51ac8391c334e65427e679b2e2748",
    "observation": "9270524bf2544f0e5cedde468b4cc4d6189922704bb5e803601fb857df879039",
    "replay": "f4d4e5f9de0467b7de5c855900639573fae36533248fb17a0a7c0d63221301d9",
    "flaky": "8fc7826d8da64874d384fe6ad332861132e9eb34df5703fea617a9a6d5d30f0f",
}

# name -> sha256 of the pinned log in the shape the previous version wrote
# (see ``previous_shape``): these were the events pins before that, until
# forecasts stopped repeating their agent's strategy and a latency of 0.
PREVIOUS_SHAPE_PINS = {
    "synthetic": "e3a8088356c824daf3a048485a588be1a57c100eb15c6e058832661c1b3405f4",
    "observation": "995c83c004288f828c51706053aa8cd9ceb5b8e7e0f6b2effbe5fd8010356fe9",
    "replay": "88d21abd1e9605c21427c22872ed8f2635a82c0b402920e3db07314f128069a0",
    "flaky": "6363281ad7e29623d89a9aca0a8415c86c4acea4a9abbd86526c7dd8ebef4a6d",
}

# name -> sha256 of the pinned log in the shape older versions wrote (see
# ``older_shape``): these were the events pins before that, until the bulk
# lines stopped repeating the run's contract digest and the cycle's time.
OLDER_SHAPE_PINS = {
    "synthetic": "38442c679ead9ccee5a8d2fd8e8ce365df99d95776c1bedc29c37b7e8496e2a4",
    "observation": "9b8e67dd4fd440387fe7437ca1a37b9c7152bcaacb22a8cb76ac73411e64fd64",
    "replay": "6a37c4c9fd01e10f9c05a6d71ee78aaa9329e73b43e4654effd215b8da23b33b",
    "flaky": "7d4554664b6e4f8c213e4b878499d826c5b7cca91048218e78739fb9076bad81",
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


# name -> (generate_synthetic arguments, sha256 of the feed file, of the
# outcomes file). Every pinned run takes its inputs from these two writers, so
# they must not move either.
SETUP_MIX = {
    EventCategory(Risk.HIGH, Domain.POLITICAL, Horizon.SHORT): 1.0,
    EventCategory(Risk.LOW, Domain.TECHNOLOGICAL, Horizon.LONG): 2.0,
    EventCategory(Risk.MEDIUM, Domain.CULTURAL, Horizon.MEDIUM): 1.5,
}
SETUP_PINS = {
    "wide": (
        dict(seed=7, n_markets=100, steps=10),
        "16ef18aea4d2307322428b453ebb33da9e11bc709fb81dd70b5a2613b110ea77",
        "1de7f85b30b0ef4a6f0a30931623b1a70faca7ed5d535de4c872af4770f3a65e",
    ),
    "long": (
        dict(seed=7, n_markets=40, steps=30),
        "42ddbcb9da93010fbcba6942f53774af9584d61107823cb029e05c41d2ccb6b0",
        "5e146ea0fc6acf3de6ec0bcd23c6cb2ba2b9c2508810202cd9af6a5efe0795c7",
    ),
    "category_mix": (
        dict(seed=7, n_markets=60, steps=8, category_mix=SETUP_MIX),
        "2a6d1dd90b25d4086ea18aacfd3d7834fb45b2cd79f6777f68ed8ae6a48693e9",
        "fd13731345fe158f930537f7406d0ecd35b2f2f06203a49be42b76a9f2c60b31",
    ),
}


# The kinds of the per-row and per-entry lines older versions wrote.
OLDER_KINDS = ("forecast", "baseline", "snapshot", "ledger")
# The block kinds that take their markets from their cycle's snapshots block.
PLACED_KINDS = ("forecasts", "baselines")


# The keys a bulk line of an older shape holds and today's do not.
OLDER_KEYS = ("as_of", "contract_digest", "latency_ms", "sampled_at", "strategy")


def previous_shape(path: Path) -> list[dict]:
    """The events of a log as the previous version wrote them: each forecast
    also holds ``latency_ms`` 0.0 and its agent's ``strategy``, which the
    agent's ``agent_meta`` does not hold."""
    events = []
    strategies: dict[str, str] = {}
    for ev in per_row_shape(path):
        if ev["kind"] == "agent_meta":
            strategies[ev["agent_id"]] = ev.pop("strategy")
        elif ev["kind"] == "forecast":
            ev.update(latency_ms=0.0, strategy=strategies[ev["agent_id"]])
        events.append(ev)
    return events


def older_shape(path: Path) -> list[str]:
    """The lines of a log as older versions wrote them: ``previous_shape``,
    and each forecast also holds ``contract_digest``, the run's contract from
    ``run_started``, and ``sampled_at``, its cycle's ``cycle_start`` time;
    each baseline holds ``as_of``, the time of its market's snapshot in the
    same cycle."""
    lines = []
    observed: dict[tuple[int, str], str] = {}
    for ev in previous_shape(path):
        kind = ev["kind"]
        if kind == "run_started":
            digest = ev["contract_hashes"][0]
        elif kind == "cycle_start":
            time = ev["time"]
        elif kind == "snapshot":
            observed[ev["cycle"], ev["condition_id"]] = ev["observed_at"]
        elif kind == "forecast":
            ev.update(contract_digest=digest, sampled_at=time)
        elif kind == "baseline":
            ev["as_of"] = observed[ev["cycle"], ev["condition_id"]]
        lines.append(event_line(ev))
    return lines


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


def test_a_run_renders_once_per_distinct_shape(tmp_path, monkeypatch):
    """Each forecast's input_tokens is the split of the text the renderer
    gives, called through the name the engine imports, once for each
    distinct instruction shape (``contract.instruction_shape`` of the
    market and the agent's portfolio summary): every other instruction of
    that shape takes its count, and the pins hold. The seed-7 questions
    hold three word counts and every portfolio summary eight tokens, so
    the run renders three instructions for its 1,440 forecasts."""
    real = evalloop.render_instruction
    real_stand_in = evalloop.summary_stand_in
    real_sample = evalloop.sample_forecast
    rendered: dict[tuple, int] = {}
    renders = []
    summaries = []
    forecast_shapes = []

    def counted(contract, market, summary="", extra=None):
        text = real(contract, market, summary, extra)
        shape = instruction_shape(contract, market, summary, extra)
        renders.append(shape)
        rendered[shape] = len(text.split())
        return text

    def stand_in(summary):
        summaries.append(summary)
        return real_stand_in(summary)

    def sample(agent, market, *args, **kwargs):
        forecast_shapes.append((market, summaries[-1]))
        return real_sample(agent, market, *args, **kwargs)

    monkeypatch.setattr(evalloop, "render_instruction", counted)
    monkeypatch.setattr(evalloop, "summary_stand_in", stand_in)
    monkeypatch.setattr(evalloop, "sample_forecast", sample)
    monkeypatch.chdir(tmp_path)
    result = run_manifest("out", "synthetic")
    assert run_digests("out", "synthetic") == PINS["synthetic"]
    contract = EvalEngine.create(tmp_path, **MANIFESTS["synthetic"]).contract
    shapes = [instruction_shape(contract, m, summary) for m, summary in forecast_shapes]
    assert len(renders) == len(set(renders)) == len(set(shapes)) == 3
    assert set(renders) == set(shapes)
    logged = [
        n for ev in iter_events(result.events_path) if ev["kind"] == "forecasts"
        for n in ev["input_tokens"]
    ]
    assert logged == [rendered[shape] for shape in shapes]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_run_matches_pins(name, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = run_manifest("out", name)
    digests = run_digests("out", name)
    assert digests == PINS[name]
    assert result.event_log_sha256 == PINS[name]["events.jsonl"]
    # Every line is the generic encoder's line, no line is a per-row or
    # per-entry one, no forecasts or baselines block names its markets, and
    # every line passes the schema's decoder: it holds exactly its kind's
    # keys, each of its type.
    for line in result.events_path.read_text(encoding="utf-8").splitlines(keepends=True):
        ev = json.loads(line)
        assert event_line(ev) == line
        assert ev["kind"] not in OLDER_KINDS, line
        assert ev["kind"] not in PLACED_KINDS or "condition_id" not in ev, line
        assert schema.decode(ev) is ev, line
    # Its forecasts and baselines blocks naming their markets are the log
    # the versions before wrote, with its ledgers blocks exploded into
    # entries too the log per-entry versions wrote, and with all its blocks
    # exploded the log per-row versions wrote.
    shapes = (
        (named_markets_shape, NAMED_MARKETS_SHAPE_PINS), (per_entry_shape, PER_ENTRY_SHAPE_PINS),
        (per_row_shape, PER_ROW_SHAPE_PINS),
    )
    for shape, pins in shapes:
        rows = "".join(map(event_line, shape(result.events_path)))
        assert hashlib.sha256(rows.encode()).hexdigest() == pins[name], shape.__name__


@pytest.mark.parametrize("name", sorted(SETUP_PINS))
def test_setup_files_match_pins(name, tmp_path):
    args, feed_pin, outcomes_pin = SETUP_PINS[name]
    feed = generate_synthetic(**args)
    save_feed(feed.snapshots, tmp_path / "feed.jsonl")
    save_outcomes(feed.outcomes, tmp_path / "outcomes.jsonl")
    assert file_sha256(tmp_path / "feed.jsonl") == feed_pin
    assert file_sha256(tmp_path / "outcomes.jsonl") == outcomes_pin


def _not_json(constant: str):
    raise ValueError(f"{constant} is not JSON")


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_logs_and_ledgers_are_strict_json(name, tmp_path, monkeypatch):
    """Every line a run writes, and a resume at cycle 2 writes again, is
    strict JSON: ``NaN`` and ``Infinity``, which ``json.loads`` reads by
    default, are refused."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    paths = RunPaths("out", name)
    for resumed in (False, True):
        if resumed:
            resume_run("out", name, at_cycle=2)
        files = [paths.events, *sorted(paths.ledgers.glob("*.jsonl"))]
        lines = [line for p in files for line in p.read_text(encoding="utf-8").splitlines()]
        assert any('"kind":"ledgers"' in line for line in lines) or name == "observation"
        for line in lines:
            json.loads(line, parse_constant=_not_json)
    with pytest.raises(ValueError, match="NaN is not JSON"):
        json.loads('{"price":NaN}', parse_constant=_not_json)


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


def older_shape_words(kind: str) -> str:
    """The words of the ``CorruptLog`` that refuses a log whose first line in
    an older shape is of ``kind``: a block naming its markets names its
    ``condition_id``, a per-row or per-entry line its kind."""
    if kind in PLACED_KINDS:
        return f"a {kind} block holds 'condition_id', which this version does not write"
    return f"kind '{kind}' is not one this version writes"


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_report_refuses_older_shape_logs(name, tmp_path, monkeypatch, capsys):
    """Putting back the keys the bulk lines no longer repeat gives the logs
    older versions wrote, byte for byte; ``report`` reads only the shape
    this version writes, so each older shape is a ``CorruptLog`` naming
    the kind or key of its first line in that shape (the previous shapes'
    is an ``agent_meta`` without ``strategy``), and the CLI exits 1 with
    one ``error:`` line."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    events = RunPaths("out", name).events
    previous = tmp_path / "previous.jsonl"
    previous.write_text("".join(map(event_line, previous_shape(events))), encoding="utf-8")
    assert file_sha256(previous) == PREVIOUS_SHAPE_PINS[name]
    older = tmp_path / "older.jsonl"
    older.write_text("".join(older_shape(events)), encoding="utf-8")
    assert file_sha256(older) == OLDER_SHAPE_PINS[name]
    shapes = {previous: "no key 'strategy'", older: "no key 'strategy'"}
    for shape, kind in (
        (per_row_shape, "snapshot"), (per_entry_shape, "forecasts"),
        (named_markets_shape, "forecasts"),
    ):
        path = tmp_path / f"{shape.__name__}.jsonl"
        path.write_text("".join(map(event_line, shape(events))), encoding="utf-8")
        shapes[path] = older_shape_words(kind)
    for path, words in shapes.items():
        with pytest.raises(CorruptLog, match=words):
            aggregate(path)
        assert cli_main(["report", "--log", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err, err


def test_reader_matches_oracle_on_leaderboard_fixture():
    expected = read_log_oracle(LEADERBOARD_FIXTURE.read_bytes())
    assert expected == ("events", list(iter_events(LEADERBOARD_FIXTURE)))


def test_leaderboard_fixture_reports_match_pins():
    assert report_digests(LEADERBOARD_FIXTURE) == REPORT_PINS["leaderboard_fixture"]


def test_fixture_script_writes_the_leaderboard_fixture(tmp_path):
    """The fixture, the one log checked in, is what its script writes,
    byte for byte, in the shape the engine writes: every line passes the
    schema's decoder."""
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_leaderboard_fixture.py"
    spec = importlib.util.spec_from_file_location("build_leaderboard_fixture", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    script.write_fixture(tmp_path / "fixture.jsonl")
    assert (tmp_path / "fixture.jsonl").read_bytes() == LEADERBOARD_FIXTURE.read_bytes()
    for line in LEADERBOARD_FIXTURE.read_text(encoding="utf-8").splitlines(keepends=True):
        ev = json.loads(line)
        assert event_line(ev) == line
        assert schema.decode(ev) is ev, line


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


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_resume_at_every_boundary_matches_pins(name, tmp_path, monkeypatch):
    """Resume rebuilds its state from the kept log, folding its blocks, and
    calls no agent: ``sample_forecast`` raises while it restores.
    ``flaky`` fails on cycles 3 and 6, so boundaries after a failed cycle
    take the previous forecasts from the latest cycle without an
    agent_failure."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    restore = EvalEngine._restore
    restored = []

    def no_agent(*args, **kwargs):
        raise AssertionError("resume called an agent")

    def restore_without_agents(engine, *args):
        with monkeypatch.context() as patched:
            patched.setattr(evalloop, "sample_forecast", no_agent)
            restore(engine, *args)
        restored.append(engine)

    monkeypatch.setattr(EvalEngine, "_restore", restore_without_agents)
    for boundary in range(1, MANIFESTS[name]["cycles"] + 1):
        resumed = resume_run("out", name, at_cycle=boundary)
        assert resumed.event_log_sha256 == PINS[name]["events.jsonl"], f"boundary {boundary}"
        assert run_digests("out", name) == PINS[name], f"boundary {boundary}"
    assert len(restored) == MANIFESTS[name]["cycles"]


@pytest.mark.parametrize("name", sorted(MANIFESTS))
def test_resume_at_every_boundary_rewrites_each_ledger(name, tmp_path, monkeypatch):
    """Resume builds each kept ledger entry from the fold's row of its event
    and writes its line again: with the ledger files removed, every
    boundary gives back each ledger file byte for byte."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", name)
    paths = RunPaths("out", name)
    full = {p.name: p.read_bytes() for p in paths.ledgers.glob("*.jsonl")}
    assert any(full.values()) or name == "observation"
    for boundary in range(1, MANIFESTS[name]["cycles"] + 1):
        shutil.rmtree(paths.ledgers)
        resume_run("out", name, at_cycle=boundary)
        ledgers = {p.name: p.read_bytes() for p in paths.ledgers.glob("*.jsonl")}
        assert ledgers == full, f"boundary {boundary}"


def older_agent_state(agent_id: str, kept: list[dict]) -> dict:
    """The state an older checkpoint held for an agent, from the events of
    the kept log: a momentum agent's is each market's last yes price, a
    drift_adjusted agent's its own last probability of each market, and
    the other agents' is empty."""
    kind = agent_id.split("#", 1)[0]
    state: dict = {}
    for ev in named_markets_events(kept):
        if kind == "momentum" and ev["kind"] == "snapshots":
            state.update(zip(ev["condition_id"], ev["yes_price"]))
        elif kind == "drift_adjusted" and ev["kind"] == "forecasts" and ev["agent_id"] == agent_id:
            state.update(zip(ev["condition_id"], ev["probability"]))
    return state


def test_checkpoints_with_ledger_offsets_resume_to_pins(tmp_path, monkeypatch):
    """Older checkpoints also hold each agent's state, and older ones still
    each ledger's size at the boundary; resume ignores both."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    paths = RunPaths("out", "flaky")
    log = paths.events.read_bytes()
    ledgers = {
        p.stem: p.read_bytes().splitlines(keepends=True) for p in paths.ledgers.glob("*.jsonl")
    }
    spec = MANIFESTS["flaky"]
    for path in paths.checkpoints.glob("cycle_*.json"):
        ckpt = json.loads(path.read_bytes())
        kept = [json.loads(line) for line in log[: ckpt["events_bytes"]].splitlines()]
        ckpt["agents"] = {}
        for aid in spec["agent_ids"]:
            n = sum(len(e["seq"]) for e in kept if e["kind"] == "ledgers" and e["agent_id"] == aid)
            ckpt["agents"][aid] = {
                "state": older_agent_state(aid, kept),
                "ledger_bytes": len(b"".join(ledgers[aid][:n])),
            }
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


def rewrite_log(paths: RunPaths, lines: list[str]) -> dict[Path, bytes]:
    """Write ``lines`` as the run's log, point each checkpoint just past its
    cycle's cycle_end in it, and return the bytes of the log, each ledger
    and each checkpoint."""
    ends = {}
    size = 0
    for line in lines:
        size += len(line.encode())
        ev = json.loads(line)
        if ev["kind"] == "cycle_end":
            ends[ev["cycle"]] = size
    for path in paths.checkpoints.glob("cycle_*.json"):
        ckpt = json.loads(path.read_bytes())
        ckpt["events_bytes"] = ends[ckpt["next_cycle"] - 1]
        path.write_text(json.dumps(ckpt), encoding="utf-8")
    paths.events.write_text("".join(lines), encoding="utf-8")
    files = [paths.events, *paths.ledgers.iterdir(), *paths.checkpoints.iterdir()]
    return {p: p.read_bytes() for p in files}


@pytest.mark.parametrize(
    "older", ["all", *OLDER_KEYS, "one_row", "one_entry", "named_markets"]
)
def test_resume_refuses_older_shape_lines(tmp_path, monkeypatch, capsys, older):
    """A run whose kept log holds a per-row bulk line, a per-entry ledger
    line or a forecasts or baselines block naming its markets, which older
    versions wrote, is neither reported nor resumed: everywhere (a run
    started before blocks, or before blocks took their markets by place),
    with a key older versions still repeated on one line, as one per-row
    forecast among blocks, or as one per-entry ledger event among blocks.
    Each is the ``CorruptLog`` of any log in an older shape, naming the
    kind or key of its first older line. Its log, ledgers and checkpoints
    are left as they were."""
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    paths = RunPaths("out", "flaky")
    # The first cycle whose boundary keeps the older line.
    kept_from = 1
    if older in ("one_row", "one_entry"):
        # The last forecasts block of cycle 1, or the last ledgers block of
        # cycle 2, the first with one, gives its last market or entry to a
        # per-row forecast or a per-entry ledger event just after it.
        kind, kept_from = ("forecasts", 1) if older == "one_row" else ("ledgers", 2)
        lines = paths.events.read_text(encoding="utf-8").splitlines(keepends=True)
        at = max(
            i for i, ev in enumerate(map(json.loads, lines))
            if ev["kind"] == kind and ev["cycle"] == kept_from
        )
        block = named_markets_events(map(json.loads, lines[: at + 1]))[-1]
        row = {k: v.pop() if type(v) is list else v for k, v in block.items()}
        row["kind"] = kind[:-1]
        if kind in PLACED_KINDS:
            del block["condition_id"]
        lines[at:at + 1] = [event_line(block), event_line(row)]
    elif older == "named_markets":
        lines = [event_line(ev) for ev in named_markets_shape(paths.events)]
    else:
        lines = older_shape(paths.events)
    if older in OLDER_KEYS:
        # Only the last line of its kind in cycle 1 keeps the key.
        events = per_row_shape(paths.events)
        kind = "baseline" if older == "as_of" else "forecast"
        at = max(i for i, ev in enumerate(events) if ev["kind"] == kind and ev["cycle"] == 1)
        events[at][older] = json.loads(lines[at])[older]
        lines = [event_line(ev) for ev in events]
    kind = next(
        ev["kind"] for ev in map(json.loads, lines)
        if ev["kind"] in OLDER_KINDS or ev["kind"] in PLACED_KINDS and "condition_id" in ev
    )
    # The older shape's first line the fold refuses is an agent_meta
    # without its strategy.
    words = "no key 'strategy'" if older == "all" else older_shape_words(kind)
    before = rewrite_log(paths, lines)
    with pytest.raises(CorruptLog, match=words):
        aggregate(paths.events)
    for at_cycle in (kept_from, MANIFESTS["flaky"]["cycles"] // 2, None):
        with pytest.raises(CorruptLog, match=words):
            resume_run("out", "flaky", at_cycle=at_cycle)
    assert cli_main(["--out", "out", "run", "--agents", "momentum", "--resume", "flaky"]) == 1
    assert words in capsys.readouterr().err
    assert {p: p.read_bytes() for p in before} == before


# name -> (block kind, key, value, the CorruptLog's words): the first block of
# that kind holds ``value`` as its ``cycle`` or ``kind``, or as the list's
# first value; None drops the list's last value, and ... repeats the last
# value of each list. A key of None takes the block out. The first ledgers
# block is momentum's 23 OPENs of cycle 2.
DAMAGED_BLOCKS = {
    "ragged": ("forecasts", "probability", None, "probability holds 39 values, confidence 40"),
    # A block that finds no markets in its cycle's snapshots block: one more
    # value than the cycle has markets, another cycle, and no snapshots
    # block before it.
    "longer_than_snapshots": (
        "forecasts", "probability", ..., "forecasts block holds 41 values, its cycle's snapshots 40"
    ),
    "other_cycle": (
        "baselines", "cycle", 2, "baselines block of cycle 2 after the snapshots of cycle 1"
    ),
    "no_snapshots": ("snapshots", None, None, "forecasts block before any snapshots block"),
    # a kind this version does not write
    "unknown_kind": (
        "snapshots", "kind", "snapshots_v2", "kind 'snapshots_v2' is not one this version writes"
    ),
    "nan_probability": ("forecasts", "probability", math.nan, "probability nan is not in "),
    "probability_above_1": ("baselines", "probability", 1.5, "probability 1.5 is not in "),
    "bool_cycle": ("snapshots", "cycle", True, "cycle True is not an integer"),
    "float_confidence": ("forecasts", "confidence", 5.0, "confidence 5.0 is not an integer"),
    "non_string_trace": ("forecasts", "trace", 7, "trace 7 is not a string"),
    # a JSON integer too large for a float, which the reports once took
    "huge_yes_price": ("snapshots", "yes_price", 10**400, "yes_price 1000000000000"),
    "huge_confidence": ("forecasts", "confidence", 10**400, "confidence 1000000000000"),
    "huge_input_tokens": ("forecasts", "input_tokens", 10**400, "input_tokens 1000000000000"),
    "huge_output_tokens": ("forecasts", "output_tokens", 10**400, "output_tokens 100000000000"),
    "huge_ledger_price": ("ledgers", "price", 10**400, "price 1000000000000"),
    "huge_basis": ("ledgers", "basis_delta_cents", 10**400, "basis_delta_cents 100000000000"),
    "ragged_ledgers": ("ledgers", "seq", None, "seq holds 22 values, basis_delta_cents 23"),
    "unknown_entry_kind": ("ledgers", "entry_kind", "SELL", "entry_kind 'SELL' is not one of"),
    "unknown_side": ("ledgers", "side", "LEFT", "side 'LEFT' is not one of"),
    "float_seq": ("ledgers", "seq", 1.0, "seq 1.0 is not an integer"),
    "nan_ledger_price": ("ledgers", "price", math.nan, "price nan is not a finite number"),
    "non_string_note": ("ledgers", "note", 5, "note 5 is not a string"),
}


@pytest.mark.parametrize("damage", sorted(DAMAGED_BLOCKS))
def test_damaged_block_is_a_corrupt_log(damage, tmp_path, monkeypatch, capsys):
    """A block the fold's checks refuse is a ``CorruptLog`` naming the key,
    from ``report`` and from a resume that keeps it, which leaves the log,
    ledgers and checkpoints as they were."""
    kind, key, value, words = DAMAGED_BLOCKS[damage]
    monkeypatch.chdir(tmp_path)
    run_manifest("out", "flaky")
    paths = RunPaths("out", "flaky")
    lines = paths.events.read_text(encoding="utf-8").splitlines(keepends=True)
    at = next(i for i, ev in enumerate(map(json.loads, lines)) if ev["kind"] == kind)
    block = json.loads(lines[at])
    kept_from = block["cycle"]
    if key is None:
        del lines[at]
    elif value is None:
        block[key].pop()
    elif value is ...:
        for values in block.values():
            if type(values) is list:
                values.append(values[-1])
    elif type(block[key]) is not list:
        block[key] = value
    else:
        block[key][0] = value
    if key is not None:
        lines[at] = event_line(block)
    before = rewrite_log(paths, lines)
    with pytest.raises(CorruptLog, match=words):
        aggregate(paths.events)
    assert cli_main(["report", "--log", str(paths.events)]) == 1
    assert words in capsys.readouterr().err
    for at_cycle in (kept_from, MANIFESTS["flaky"]["cycles"] // 2, None):
        with pytest.raises(CorruptLog, match=words):
            resume_run("out", "flaky", at_cycle=at_cycle)
    assert {p: p.read_bytes() for p in before} == before


# What one mutation puts in a value's place, by the value's type: a value of
# another JSON type, and one out of its range (a string that no member or
# id is, a number below any count, price or probability).
_OTHER_TYPE = {str: 7, bool: "true", int: "1", float: "0.5", type(None): 0, list: "x", dict: []}
_MUTATIONS = ("drop", "type", "nan", "huge", "range", "id")


def _mutated(value, how: str):
    if how == "type":
        return _OTHER_TYPE[type(value)]
    if how == "range":
        if type(value) is str:
            return value + "\x00"
        return -1 - abs(value) if type(value) in (int, float) else 2
    return {"nan": math.nan, "huge": 10**400, "id": 7}[how]


@st.composite
def one_key_mutated(draw, lines: list[bytes], size: int) -> tuple[int, bytes]:
    """One of the lines in the first ``size`` bytes of ``lines`` with one
    key mutated, and its place: the key dropped, or its value (a list's
    whole or one of its values) of another JSON type, NaN, ``10**400``,
    out of range or the non-string id 7. A dropped value of a list leaves
    it shorter than the block's others."""
    kept = sum(1 for end in accumulate(map(len, lines)) if end <= size)
    at = draw(st.integers(0, kept - 1))
    ev = json.loads(lines[at])
    key = draw(st.sampled_from(sorted(ev)))
    how = draw(st.sampled_from(_MUTATIONS))
    value = ev[key]
    if type(value) is list and value and draw(st.booleans()):
        i = draw(st.integers(0, len(value) - 1))
        if how == "drop":
            del value[i]
        else:
            value[i] = _mutated(value[i], how)
    elif how == "drop":
        del ev[key]
    else:
        ev[key] = _mutated(value, how)
    return at, json.dumps(ev, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def assert_names_the_refused_line(error: CorruptLog, lines: list[bytes], at: int) -> None:
    """``error``, from folding ``lines`` whose line ``at`` (from 0) is
    mutated, names the first line the fold refuses: the mutated one, or a
    later one that reads what the fold took from it."""
    assert error.line_no is not None and error.line_no >= at + 1, str(error)
    reporting.EventFold().consume(decode_lines(lines[:error.line_no - 1]))


@pytest.fixture(scope="module")
def flaky_run(tmp_path_factory) -> RunPaths:
    """The pinned flaky run, which every example below copies."""
    root = tmp_path_factory.mktemp("pinned")
    EvalEngine.create(root, run_id="flaky", **MANIFESTS["flaky"]).run()
    assert run_digests(root, "flaky") == PINS["flaky"]
    return RunPaths(root, "flaky")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_report_of_a_pinned_log_with_one_key_mutated(flaky_run, data):
    """``aggregate`` and ``emit`` of a pinned log with one key of one line
    mutated give a report in every format, or a ``CorruptLog`` naming the
    line refused, and never any other exception."""
    lines = flaky_run.events.read_bytes().splitlines(keepends=True)
    at, line = data.draw(one_key_mutated(lines, sum(map(len, lines))))
    mutated = [*lines[:at], line, *lines[at + 1:]]
    try:
        report = aggregate(decode_lines(mutated))
    except CorruptLog as error:
        assert_names_the_refused_line(error, mutated, at)
        return
    for fmt in REPORT_FORMATS:
        emit(report, fmt)


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_resume_of_a_pinned_log_with_one_key_mutated(flaky_run, tmp_path_factory, data):
    """A resume whose kept log has one key of one line mutated, as above,
    either runs to the end or is a ``CorruptLog`` that leaves the log, the
    ledgers and the checkpoints as they were; it never raises anything
    else. A refusal of the fold names the line refused; one that names
    none comes from the ledger replay's checks, after the fold took every
    kept line."""
    root = tmp_path_factory.mktemp("mutated")
    shutil.copytree(flaky_run.root, root / "flaky")
    paths = RunPaths(root, "flaky")
    at_cycle = data.draw(st.integers(1, MANIFESTS["flaky"]["cycles"]))
    checkpoint = paths.checkpoints / f"cycle_{at_cycle:05d}.json"
    size = json.loads(checkpoint.read_bytes())["events_bytes"]
    lines = paths.events.read_bytes().splitlines(keepends=True)
    at, line = data.draw(one_key_mutated(lines, size))
    # Each checkpoint past the mutated line moves with its end.
    start, moved = sum(map(len, lines[:at])), len(line) - len(lines[at])
    for path in paths.checkpoints.glob("cycle_*.json"):
        ckpt = json.loads(path.read_bytes())
        if ckpt["events_bytes"] > start:
            path.write_text(
                json.dumps({**ckpt, "events_bytes": ckpt["events_bytes"] + moved}),
                encoding="utf-8",
            )
    mutated = [*lines[:at], line, *lines[at + 1:]]
    paths.events.write_bytes(b"".join(mutated))
    files = [paths.events, *paths.ledgers.iterdir(), *paths.checkpoints.iterdir()]
    before = {p: p.read_bytes() for p in files}
    try:
        resume_run(root, "flaky", at_cycle=at_cycle)
    except CorruptLog as error:
        assert {p: p.read_bytes() for p in files} == before
        if error.line_no is None:
            kept = size + moved
            reporting.EventFold().consume(
                decode_lines(l for l, end in zip(mutated, accumulate(map(len, mutated)))
                             if end <= kept)
            )
        else:
            assert_names_the_refused_line(error, mutated, at)
    finally:
        shutil.rmtree(root)


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
