"""One workload in one process: set up, run the timed loop, check outputs.

Started by ``run.py`` with driftmark's ``src`` on ``PYTHONPATH``, one
thread per numeric library, and the working directory set to a fresh
directory that it deletes afterwards. Prints one JSON object on its last
line of standard output.

    python3 worker.py --workload wide --seed 7 --seconds 10 --trace 0 --size full
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy

import driftmark
from driftmark import evalloop, reporting
from driftmark.config import EngineConfig
from driftmark.market_data import generate_synthetic, save_feed, save_outcomes
from driftmark.simulator import entry_from_record, replay_ledger

WIDE_AGENTS = (
    "market_copier", "momentum", "mean_reversion", "drift_adjusted", "risk_confirmation",
    "budget_noise",
)
# ``flaky`` fails on every third cycle, so the agent-failure and fallback-batch
# paths run.
LONG_AGENTS = WIDE_AGENTS[:-1] + ("flaky",)
BASELINE_SUBJECTS = tuple(
    reporting.BASELINE_PREFIX + k for k in ("market", "uniform", "historical", "heuristic")
)
RUN_ID = "bench"
REPORT_FORMATS = ("table", "json", "csv")


@dataclass(frozen=True)
class Shape:
    markets: int
    cycles: int
    agents: tuple[str, ...]

    @property
    def resume_at(self) -> int:
        return self.cycles // 2

    @property
    def forecasts(self) -> int:
        return self.markets * self.cycles * len(self.agents)


# The engine needs at least ``agents.batch_size`` (30) markets per cycle.
# Full shapes keep one engine run near one second, so a run of the benchmark
# holds enough samples for a steady fastest time (see README.md).
SHAPES = {
    "full": {
        "wide": Shape(100, 10, WIDE_AGENTS),
        "long": Shape(40, 30, LONG_AGENTS),
    },
    "smoke": {
        "wide": Shape(30, 4, WIDE_AGENTS),
        "long": Shape(30, 6, LONG_AGENTS),
    },
}


_RNG = numpy.random.default_rng(0)
REFERENCE_ROWS = [
    {"market": f"m{i:04d}", "price": float(p), "volume": int(v),
     "question": f"Will event {i} resolve YES before the deadline in region {i % 7}?"}
    for i, (p, v) in enumerate(zip(_RNG.random(400), _RNG.integers(1, 10**6, 400)))
]


def reference() -> None:
    """A fixed computation that does not use driftmark, timed before every
    operation to track the host's speed. It mixes the kinds of work the
    engine does per forecast: numpy sampling on small arrays, string
    formatting, word counting, ISO timestamps, JSON and sha256."""
    rng = numpy.random.default_rng(1)
    digest = hashlib.sha256()
    counts: dict[str, int] = {}
    for i, row in enumerate(REFERENCE_ROWS):
        prices = rng.beta(2.0, 5.0, size=16)
        at = datetime.fromtimestamp(1_700_000_000 + 60 * i, tz=timezone.utc)
        text = f"{row['question']} Current price {row['price']:.4f}; mean {prices.mean():.4f}."
        for word in text.lower().split():
            counts[word] = counts.get(word, 0) + 1
        line = json.dumps({**row, "at": at.isoformat(), "drift": float(numpy.std(prices)),
                           "text": text}, sort_keys=True)
        digest.update(line.encode())
        json.loads(line)


class Bench:
    """Runs the public entry points on one shape and checks their outputs."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self.seed = seed
        self.config = EngineConfig()
        self.tracer = None  # set once the traced worker installs its wrappers
        self.samples: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.shas: set[str] = set()

    # -- bookkeeping --

    def _sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def _op(self, name: str, fn):
        """Run one operation; an exception or failed check counts as failed."""
        self.attempted += 1
        gc.collect()  # every operation starts from the same heap state
        t0 = time.perf_counter()
        reference()
        self._sample("reference_s", time.perf_counter() - t0)
        try:
            if self.tracer is None:
                fn()
            else:
                with self.tracer.span("op." + name):
                    fn()
            return True
        except Exception:
            self.failed += 1
            self.failures.append(f"{name}: {traceback.format_exc(limit=3)}")
            print(f"operation {name} failed:\n{traceback.format_exc()}", file=sys.stderr)
            return False

    # -- operations --

    def setup(self, directory: Path) -> None:
        """Generate and write the inputs the engine will read."""
        t0 = time.perf_counter()
        feed = generate_synthetic(self.seed, self.shape.markets, self.shape.cycles)
        save_feed(feed.snapshots, directory / "feed.jsonl")
        save_outcomes(feed.outcomes, directory / "outcomes.jsonl")
        self._sample("setup_s", time.perf_counter() - t0)

    def run(self, out: Path) -> None:
        t0 = time.perf_counter()
        engine = evalloop.EvalEngine.create(
            out,
            seed=self.seed,
            agent_ids=self.shape.agents,
            feed_source={"kind": "replay", "feed": "feed.jsonl", "outcomes": "outcomes.jsonl"},
            cycles=self.shape.cycles,
            config=self.config,
            run_id=RUN_ID,
        )
        result = engine.run()
        elapsed = time.perf_counter() - t0
        self._sample("run_s", elapsed)
        root = out / RUN_ID
        self._sample("events_mb", (root / "events.jsonl").stat().st_size / 1e6)
        self._sample(
            "checkpoints_mb",
            sum(p.stat().st_size for p in (root / "checkpoints").iterdir()) / 1e6,
        )
        self._check_run(out, result)

    def resume(self, out: Path) -> None:
        full_sha = (out / RUN_ID / "events.sha256").read_text(encoding="utf-8").strip()
        t0 = time.perf_counter()
        result = evalloop.resume_run(out, RUN_ID, at_cycle=self.shape.resume_at)
        self._sample("resume_s", time.perf_counter() - t0)
        if result.event_log_sha256 != full_sha:
            raise AssertionError(
                f"resumed sha {result.event_log_sha256} differs from full run {full_sha}"
            )
        self._check_run(out, result)

    def report(self, out: Path) -> None:
        events = out / RUN_ID / "events.jsonl"
        t0 = time.perf_counter()
        agg = reporting.aggregate(events, self.config)
        texts = [reporting.emit(agg, fmt) for fmt in REPORT_FORMATS]
        verified = evalloop.verify_run(out, RUN_ID)
        self._sample("report_s", time.perf_counter() - t0)
        if not verified.ok:
            raise AssertionError(f"verify_run failed: {verified.messages}")
        listed = {row.agent_id for row in agg.leaderboard}
        missing = set(self.shape.agents + BASELINE_SUBJECTS) - listed
        if missing:
            raise AssertionError(f"leaderboard lacks {sorted(missing)}")
        for fmt, text in zip(REPORT_FORMATS, texts):
            if not all(subject in text for subject in listed):
                raise AssertionError(f"{fmt} report lacks a leaderboard subject")

    # -- output checks --

    def _check_run(self, out: Path, result) -> None:
        verified = evalloop.verify_run(out, RUN_ID)
        if not verified.ok:
            raise AssertionError(f"verify_run failed: {verified.messages}")
        self.shas.add(result.event_log_sha256)
        if len(self.shas) != 1:
            raise AssertionError(f"one manifest produced several event logs: {self.shas}")
        sim = self.config.simulator
        for aid in self.shape.agents:
            path = out / RUN_ID / "ledgers" / f"{aid}.jsonl"
            with open(path, encoding="utf-8") as fh:
                entries = [entry_from_record(json.loads(line)) for line in fh]
            folded = replay_ledger(sim.initial_capital_cents, entries, sim.max_open_positions)
            pnl = folded.total_capital_cents - sim.initial_capital_cents
            if pnl != result.final_reports[aid]["pnl_cents"]:
                raise AssertionError(
                    f"{aid}: ledger P&L {pnl} != final report {result.final_reports[aid]['pnl_cents']}"
                )
            if folded.open_positions:
                raise AssertionError(f"{aid}: {len(folded.open_positions)} positions open after settlement")


def _percentile_summary(values: list[float]) -> dict:
    """Minimum, median, and the highest percentile (nearest rank) with at
    least ten samples beyond it, with the sample count and the samples."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "min": ordered[0], "median": statistics.median(ordered)}
    for p in (99, 95, 90, 80, 75, 50):
        rank = math.ceil(n * p / 100)
        if n - rank >= 10:
            summary[f"p{p}"] = ordered[rank - 1]
            break
    summary["samples"] = values
    return summary


def _fs_type(path: Path) -> str:
    import subprocess

    try:
        done = subprocess.run(
            ["stat", "-f", "-c", "%T", str(path)], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=("wide", "long"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SHAPES), default="full")
    args = parser.parse_args()

    shape = SHAPES[args.size][args.workload]
    work = Path.cwd()
    bench = Bench(shape, args.seed)

    tracer = None
    if args.trace:
        import layers
        from spans import Tracer

        tracer = Tracer()
        layers.install(tracer)
        bench.tracer = tracer

    # The timed loop: a closed loop with one client, at least one iteration.
    # Each iteration sets up afresh in its own directory, so set-up is
    # sampled as often as the other operations and in the same host states.
    # The manifest names the feed by a path relative to that directory.
    iterations = 0
    deadline = time.perf_counter() + args.seconds
    while True:
        here = work / f"it{iterations}"
        here.mkdir()
        os.chdir(here)
        out = Path("out")
        if bench._op("setup", lambda: bench.setup(Path("."))):
            if bench._op("run", lambda: bench.run(out)):
                bench._op("resume", lambda: bench.resume(out))
                bench._op("report", lambda: bench.report(out))
        os.chdir(work)
        shutil.rmtree(here, ignore_errors=True)
        iterations += 1
        if time.perf_counter() >= deadline:
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    timings = {name: _percentile_summary(v) for name, v in bench.samples.items()}
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failures": bench.failures[:5],
        "iterations": iterations,
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "events_sha256": sorted(bench.shas),
        "meta": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "driftmark_file": driftmark.__file__,
            "fs_type": _fs_type(work),
            "shape": {"markets": shape.markets, "cycles": shape.cycles,
                      "agents": list(shape.agents), "resume_at": shape.resume_at,
                      "forecasts": shape.forecasts},
        },
    }
    if tracer is not None:
        result["spans"] = tracer.dump()
        result["counters"] = tracer.counters
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
