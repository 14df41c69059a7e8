"""Golden pins: the sha256 of ``events.jsonl`` and of every ledger for a few
fixed manifests.

A run is a pure function of its manifest, so these digests change only when
a change is meant to alter the bytes a run writes. Such a change must say so
and update the pins; any other change that moves one is a regression.
"""

from __future__ import annotations

import pytest

from driftmark.evalloop import EvalEngine, RunPaths, file_sha256, resume_run
from driftmark.market_data import generate_synthetic, save_feed, save_outcomes

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

# name -> {path under the run directory: sha256}, computed on the engine
# before its hot-path pass. An agent that never trades has an empty ledger.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
PINS = {
    "synthetic": {
        "events.jsonl": "d8d3f9255cdd8be739622172247a3f55c3c363e20862f7f42fb81b82f3256f53",
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
        "events.jsonl": "0e29075a45c5b0376ebb31f16928a69c71f8cbc8d792248b5082c0e805822e63",
        "ledgers/market_copier.jsonl": EMPTY,
        "ledgers/mean_reversion.jsonl": "e08b9a3709c8cf1da5f49fc8521bfb039ec825a19b22506465408e0759610791",
        "ledgers/momentum.jsonl": "a1f5dc2b56d8fc2bec676adcca65c21d78ed3452afa6b0f722fee7b4c4b3f0c9",
    },
    "flaky": {
        "events.jsonl": "6062e5f7ae2290dd42ecb6b90cb1c4cddfcdb1b80a5c5c0304fd42376c8e27b8",
        "ledgers/budget_noise.jsonl": EMPTY,
        "ledgers/flaky.jsonl": EMPTY,
        "ledgers/momentum.jsonl": "007a030bb1be335b4532b4e68ec28446df748d75069b0b1dd11de1d5eed1207c",
        "ledgers/risk_confirmation.jsonl": EMPTY,
    },
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
