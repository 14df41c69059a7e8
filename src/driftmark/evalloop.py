"""The closed evaluation loop: lock, baseline, deploy, execute, measure.

A run is fully described by its manifest (seed, contracts, agents, feed,
cycle count, config snapshot). On replay and synthetic sources the event
log is a pure function of the manifest: all timestamps are virtual, agents
derive randomness from the seed, and reports are folds over the log.
Checkpoints at cycle boundaries allow byte-identical resumption.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
import time as _time
from collections import defaultdict, deque
from dataclasses import dataclass, field
from datetime import datetime
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import BinaryIO, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from . import reporting
from .agents import (
    Action,
    CalibrationWindow,
    ClosedPosition,
    Decision,
    DecisionBatch,
    ForecastRecord,
    ScriptedAgent,
    build_agent,
    build_decision_batch,
    parse_decision_wire,
    sample_forecast,
    validate_decision_batch,
)
from .baselines import (
    BaselineKind,
    heuristic_baseline,
    historical_frequency_baseline,
    market_baseline,
    uniform_baseline,
)
from .config import EngineConfig, config_from_dict
from .contract import (
    ContractHash,
    ContractStore,
    DEFAULT_TEMPLATE,
    PromptContract,
    instruction_tokens,
    lock_contract,
    render_instruction,  # noqa: F401  perfbench/layers.py wraps it here
    render_instruction_parts,
    token_span,
)
from .errors import (
    AgentTimeout,
    CorruptLog,
    FatalFeedError,
    InvalidParameters,
    IoError,
    LengthMismatch,
    LiveSourceNotResumable,
    MalformedAgentOutput,
    NoCheckpoint,
    RunExists,
)
from .fileio import write_atomic
from .market_data import (
    EventCategory,
    MarketSnapshot,
    RateLimiter,
    Risk,
    categorize_event,
    fetch_snapshot,
    generate_synthetic,
    load_outcomes,
    replay_feed,
    ResolvedOutcome,
)
from .metrics import (
    narrative_drift,  # noqa: F401  perfbench/layers.py wraps it here
    narrative_drift_sets,
    price_volatility,
    risk_category,
    temporal_drift,
    token_set,
)
from .simulator import (
    EntryKind,
    LedgerEntry,
    LedgerWriter,
    Mode,
    Portfolio,
    entry_from_record,
    entry_to_record,
    replay_ledger,
    resolve_market,
    step,
)
from .timeutil import to_iso, utc_now

_MASK64 = (1 << 64) - 1


# --- manifest -------------------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    run_id: str
    seed: int
    contract_hashes: tuple[str, ...]
    agent_ids: tuple[str, ...]
    feed_source: dict
    cycle_interval_sec: int
    cycles: int
    metric_config: dict
    started_at: str
    mode: str = "execution"

    def to_json(self) -> str:
        return json.dumps(dataclasses.asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RunManifest":
        data = json.loads(text)
        return cls(
            run_id=data["run_id"],
            seed=int(data["seed"]),
            contract_hashes=tuple(data["contract_hashes"]),
            agent_ids=tuple(data["agent_ids"]),
            feed_source=data["feed_source"],
            cycle_interval_sec=int(data["cycle_interval_sec"]),
            cycles=int(data["cycles"]),
            metric_config=data["metric_config"],
            started_at=data["started_at"],
            mode=data["mode"],
        )


class RunPaths:
    def __init__(self, out_root: str | Path, run_id: str):
        self.root = Path(out_root) / run_id
        self.manifest = self.root / "manifest.json"
        self.events = self.root / "events.jsonl"
        self.events_sha = self.root / "events.sha256"
        self.contracts = self.root / "contracts"
        self.ledgers = self.root / "ledgers"
        self.checkpoints = self.root / "checkpoints"

    def ensure(self) -> "RunPaths":
        for p in (self.root, self.contracts, self.ledgers, self.checkpoints):
            p.mkdir(parents=True, exist_ok=True)
        return self


def _safe_name(agent_id: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.-]", "_", agent_id)


_EVENT_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))

# The line ``_EVENT_ENCODER`` writes for a forecast event whose strings are
# exact ``str``, whose counts are exact ``int`` and whose two floats are
# finite exact ``float``: keys sorted, strings through
# ``encode_basestring_ascii``, ``%d`` and ``%r`` as ``int``'s and
# ``float``'s own repr.
_FORECAST_LINE = (
    '{"agent_id":%s,"condition_id":%s,"confidence":%d,"contract_digest":%s,'
    '"cycle":%d,"input_tokens":%d,"kind":"forecast","latency_ms":%r,'
    '"output_tokens":%d,"probability":%r,"sampled_at":%s,"strategy":%s,"trace":%s}\n'
)
_FORECAST_KEYS = frozenset(re.findall(r'"(\w+)":', _FORECAST_LINE))


class _JsonStrings(dict):
    """JSON text by string, for the strings a run's forecast events repeat
    (agent ids, market ids, the contract digest, timestamps, strategies):
    each is encoded once."""

    def __missing__(self, text: str) -> str:
        encoded = self[text] = encode_basestring_ascii(text)
        return encoded


def event_line(event: dict, strings: _JsonStrings | None = None) -> str:
    """One log line: ``event`` as compact JSON with sorted keys. Given a
    run's ``strings``, a forecast event is written through
    ``_FORECAST_LINE``; an event with another key set or another value type
    (a bool, a numpy number, a non-finite float) takes the generic encoder,
    so the bytes are the same either way."""
    if strings is not None and event.get("kind") == "forecast" and event.keys() == _FORECAST_KEYS:
        agent, market, digest = event["agent_id"], event["condition_id"], event["contract_digest"]
        at, strategy, trace = event["sampled_at"], event["strategy"], event["trace"]
        conf, cycle = event["confidence"], event["cycle"]
        n_in, n_out = event["input_tokens"], event["output_tokens"]
        latency, prob = event["latency_ms"], event["probability"]
        if (
            type(agent) is type(market) is type(digest) is type(at) is str
            and type(strategy) is type(trace) is str
            and type(conf) is type(cycle) is type(n_in) is type(n_out) is int
            and type(latency) is type(prob) is float
            and math.isfinite(latency)
            and math.isfinite(prob)
        ):
            return _FORECAST_LINE % (
                strings[agent], strings[market], conf, strings[digest], cycle, n_in,
                latency, n_out, prob, strings[at], strings[strategy],
                encode_basestring_ascii(trace),
            )
    return _EVENT_ENCODER.encode(event) + "\n"


class _IsoCache(dict):
    """ISO-8601 text by timestamp; each distinct timestamp is formatted once."""

    def __missing__(self, ts) -> str:
        text = self[ts] = to_iso(ts)
        return text


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


# --- engine ----------------------------------------------------------------------


def _totals(p: Portfolio) -> dict:
    """A portfolio's totals as the cycle_end event records them."""
    return {
        "total_capital_cents": p.total_capital_cents,
        "available_cents": p.available_cents,
        "deployed_cents": p.deployed_cents,
        "open": len(p.open_positions),
    }


def _lines_upto(fh: BinaryIO, size: int) -> Iterator[bytes]:
    """The lines of a binary file in its first ``size`` bytes, which end a line."""
    read = 0
    for line in fh:
        if read == size:
            return
        read += len(line)
        yield line


def _price_history(window: int) -> defaultdict[str, deque[float]]:
    """Each market's latest yes prices; the volatility of ``window`` price
    changes needs ``window + 1`` of them."""
    return defaultdict(lambda: deque(maxlen=window + 1))


# Ledger entries that realize a position's P&L, which calibration windows hold.
_REALIZED = (EntryKind.CLOSE, EntryKind.RESOLVE)


def _calibrated(window: CalibrationWindow, entry: LedgerEntry) -> CalibrationWindow:
    if entry.kind not in _REALIZED:
        return window
    return window.record(
        ClosedPosition(entry.condition_id, entry.side.value, entry.cash_delta_cents)
    )


def _mean(xs: list[float]) -> float:
    return (sum(xs) / len(xs)) if xs else 0.0


def _drift_means(
    curr: dict[str, float],
    prev: dict[str, float],
    snap_map: dict[str, MarketSnapshot],
    prices: dict[str, deque[float]],
) -> tuple[tuple[float, float, float], list[str]]:
    """Means over the probabilities ``curr`` of the temporal drift from
    ``prev`` in both forms and of the divergence from the market price, and
    the markets whose temporal drift was taken, in order."""
    compared: list[str] = []
    dt_diff: list[float] = []
    dt_prod: list[float] = []
    divergence: list[float] = []
    for cid, p_curr in curr.items():
        if cid in snap_map:
            divergence.append(abs(p_curr - snap_map[cid].yes_price))
        p_prev = prev.get(cid)
        history = prices.get(cid, ())
        if p_prev is None or len(history) < 2:
            continue
        m_prev, m_curr = history[-2], history[-1]
        compared.append(cid)
        dt_diff.append(temporal_drift(p_prev, p_curr, m_prev, m_curr, "difference"))
        dt_prod.append(temporal_drift(p_prev, p_curr, m_prev, m_curr, "product"))
    return (_mean(dt_diff), _mean(dt_prod), _mean(divergence)), compared


class _Forecast(NamedTuple):
    """The fields of a previous forecast that the next drift event reads;
    resume rebuilds them from the log in place of a ForecastRecord."""

    probability: float
    confidence: int
    reasoning_trace: str


class _Cycle(NamedTuple):
    """One cycle's snapshots and what every agent's turn reads of them."""

    number: int
    now: datetime
    snaps: list[MarketSnapshot]
    snap_map: dict[str, MarketSnapshot]
    # Each snapshot's instruction parts and their token spans.
    rendered: list[tuple[list[str], list]]
    risk_by_market: dict[str, Risk]


@dataclass
class _AgentState:
    agent: ScriptedAgent
    portfolio: Portfolio
    window: CalibrationWindow
    prev_forecasts: dict[str, ForecastRecord | _Forecast] = field(default_factory=dict)
    # Token sets of the prev_forecasts traces; one missing is computed from its trace.
    prev_tokens: dict[str, frozenset[str]] = field(default_factory=dict)


@dataclass
class _Run:
    """What a run carries from cycle to cycle: the log it appends to, and
    each agent's ledger, written once at the end of the run."""

    states: dict[str, _AgentState]
    # Folds every event of the log, for the final reports.
    fold: reporting.EventFold
    prices: dict[str, deque[float]]
    ledgers: dict[str, LedgerWriter]
    next_cycle: int = 1
    # Each market's category from its cycle-1 snapshot.
    categories: dict[str, EventCategory] = field(default_factory=dict)
    # The previous cycle's baseline probabilities by kind, for baseline drift.
    prev_baseline: dict[str, dict[str, float]] | None = None
    events: TextIO | None = None
    iso: _IsoCache = field(default_factory=_IsoCache)
    strings: _JsonStrings = field(default_factory=_JsonStrings)

    def emit(self, ev: dict) -> None:
        self.events.write(event_line(ev, self.strings))
        self.fold.add(ev)

    def record(self, cycle: int, agent_id: str, entry: LedgerEntry) -> None:
        """Add an entry to the agent's ledger, log it, and feed it to the
        agent's calibration window."""
        self.ledgers[agent_id].append(entry)
        self.emit(
            {
                "kind": "ledger",
                "cycle": cycle,
                "agent_id": agent_id,
                "entry_kind": entry.kind.value,
                **{k: v for k, v in entry_to_record(entry).items() if k != "kind"},
            }
        )
        st = self.states[agent_id]
        st.window = _calibrated(st.window, entry)


class _KeptLog:
    """Reads the kept log on resume. Feeds every event to the run's fold and
    keeps what the fold does not: the last event, each market's recent
    prices, and each agent's forecasts from its latest cycle without an
    agent_failure, which the next drift event compares against."""

    def __init__(self, fold: reporting.EventFold, prices: dict[str, deque[float]]):
        self.fold = fold
        self.last: dict | None = None
        self.prices = prices
        self.prev_forecasts: dict[str, dict[str, _Forecast]] = {}
        self._cycle: dict[str, dict[str, _Forecast]] = {}

    def add(self, ev: dict) -> None:
        self.fold.add(ev)
        self.last = ev
        kind = ev.get("kind")
        if kind == "snapshot":
            self.prices[ev["condition_id"]].append(ev["yes_price"])
        elif kind == "forecast":
            self._cycle.setdefault(ev["agent_id"], {})[ev["condition_id"]] = _Forecast(
                ev["probability"], ev["confidence"], ev["trace"]
            )
        elif kind == "agent_failure":
            self._cycle.pop(ev["agent_id"], None)
        elif kind == "cycle_end":
            self.prev_forecasts.update(self._cycle)
            self._cycle = {}


@dataclass(frozen=True)
class RunResult:
    run_id: str
    cycles_run: int
    events_path: Path
    event_log_sha256: str
    final_reports: dict[str, dict]
    # The in-memory fold of every event of the log.
    fold: reporting.EventFold = field(compare=False, repr=False)


# The key each kind of feed source needs besides ``kind``.
_FEED_KEYS = {"synthetic": "n_markets", "replay": "feed", "live": "condition_ids"}


class EvalEngine:
    """Executes one manifest end to end."""

    def __init__(
        self,
        manifest: RunManifest,
        config: EngineConfig,
        out_root: str | Path,
        contracts: dict[str, tuple[PromptContract, ContractHash]],
    ):
        if len(manifest.contract_hashes) != 1:
            raise InvalidParameters("exactly one contract per run")
        digest = manifest.contract_hashes[0]
        if digest not in contracts:
            raise InvalidParameters(f"contract {digest} not supplied")
        kind = manifest.feed_source.get("kind")
        if kind not in _FEED_KEYS:
            raise InvalidParameters(f"unknown feed source kind {kind!r}")
        if _FEED_KEYS[kind] not in manifest.feed_source:
            raise InvalidParameters(f"a {kind} feed source needs {_FEED_KEYS[kind]!r}")
        self.manifest = manifest
        self.config = config
        self.paths = RunPaths(out_root, manifest.run_id)
        self.contract, self.contract_hash = contracts[digest]
        if not self.contract.locked:
            raise InvalidParameters("contract must be locked")
        self.mode = Mode(manifest.mode)

    # -- construction helpers --

    @classmethod
    def create(
        cls,
        out_root: str | Path,
        *,
        seed: int,
        agent_ids: Sequence[str],
        feed_source: dict,
        cycles: int,
        config: EngineConfig | None = None,
        contract: tuple[PromptContract, ContractHash] | None = None,
        run_id: str | None = None,
        mode: str = "execution",
        token_budget: int = 1000,
    ) -> "EvalEngine":
        config = config or EngineConfig()
        if contract is None:
            contract = lock_contract(
                DEFAULT_TEMPLATE,
                "v1",
                token_budget,
                horizon_cycles=cycles,
                allowed_budgets=tuple(config.contract.allowed_token_budgets),
                allow_any_budget=config.contract.allow_any_budget,
                algorithm_id=config.contract.hash_algorithm,
            )
        locked, chash = contract
        if run_id is None:
            run_id = f"{feed_source.get('kind', 'run')}-s{seed}-c{cycles}-{mode}"
        manifest = RunManifest(
            run_id=run_id,
            seed=int(seed) & _MASK64,
            contract_hashes=(chash.digest,),
            agent_ids=tuple(agent_ids),
            feed_source=dict(feed_source),
            cycle_interval_sec=config.loop.cycle_interval_sec,
            cycles=cycles,
            metric_config=config.to_dict(),
            started_at=to_iso(utc_now()),
            mode=mode,
        )
        return cls(manifest, config, out_root, {chash.digest: (locked, chash)})

    # -- feed loading --

    def _load_feed(self) -> tuple[list[list[MarketSnapshot]], list[ResolvedOutcome]]:
        src = self.manifest.feed_source
        kind = src.get("kind")
        if kind == "synthetic":
            feed = generate_synthetic(
                seed=self.manifest.seed,
                n_markets=int(src["n_markets"]),
                steps=self.manifest.cycles,
                interval_seconds=self.manifest.cycle_interval_sec,
            )
            return feed.cycles(), feed.outcomes
        if kind == "replay":
            try:
                snapshots = list(
                    replay_feed(src["feed"], spread_tolerance=self.config.market.spread_tolerance)
                )
            except OSError as exc:
                raise FatalFeedError(f"cannot read feed {src['feed']}: {exc}") from exc
            grouped: dict = {}
            for s in snapshots:
                grouped.setdefault(s.observed_at, []).append(s)
            cycles = [grouped[ts] for ts in sorted(grouped)][: self.manifest.cycles]
            outcomes = load_outcomes(src["outcomes"]) if src.get("outcomes") else []
            return cycles, outcomes
        return [], []  # live: fetched lazily inside run()

    def _live_cycle(self, limiter: RateLimiter) -> list[MarketSnapshot]:
        from .market_data import ENDPOINT_ENV_VAR

        src = self.manifest.feed_source
        endpoint = src.get("endpoint") or os.environ.get(ENDPOINT_ENV_VAR)
        if not endpoint:
            raise FatalFeedError(
                f"live feed needs an endpoint in the manifest or ${ENDPOINT_ENV_VAR}"
            )
        snaps = []
        for cid in src["condition_ids"]:
            snaps.append(
                fetch_snapshot(
                    endpoint,
                    cid,
                    rate_limiter=limiter,
                    spread_tolerance=self.config.market.spread_tolerance,
                    timeout=self.config.market.request_timeout_sec,
                )
            )
        return snaps

    # -- checkpointing --

    def _checkpoint_path(self, cycle: int) -> Path:
        return self.paths.checkpoints / f"cycle_{cycle:05d}.json"

    def _ledger_path(self, agent_id: str) -> Path:
        return self.paths.ledgers / f"{_safe_name(agent_id)}.jsonl"

    def _write_checkpoint(self, cycle: int, states: dict[str, _AgentState],
                          events_bytes: int) -> None:
        """Record where the boundary after ``cycle`` falls in the log, and
        each agent's own state; resume rebuilds everything else from the log."""
        payload = {
            "next_cycle": cycle + 1,
            "events_bytes": events_bytes,
            "agents": {aid: {"state": st.agent.get_state()} for aid, st in states.items()},
        }
        write_atomic(
            self._checkpoint_path(cycle),
            json.dumps(payload, sort_keys=True, separators=(",", ":")).encode(),
        )

    def _latest_checkpoint(self, at_cycle: int | None = None) -> dict:
        """The checkpoint at ``at_cycle``, else the newest one that parses: a
        crash while one is written leaves it torn, and resume falls back."""
        if at_cycle is not None:
            ckpt = _read_checkpoint(self._checkpoint_path(at_cycle))
            if ckpt is None:
                raise NoCheckpoint(f"no readable checkpoint at cycle {at_cycle}")
            return ckpt
        for path in sorted(self.paths.checkpoints.glob("cycle_*.json"), reverse=True):
            ckpt = _read_checkpoint(path)
            if ckpt is not None:
                return ckpt
        raise NoCheckpoint(f"no readable checkpoints under {self.paths.checkpoints}")

    @staticmethod
    def _read_prefix(path: Path, size: int, kept: _KeptLog) -> None:
        """Check that the first ``size`` bytes of the log end a line and feed
        each of those lines, read by ``reporting.decode_lines``, to
        ``kept.add``. The log is left as it is."""
        try:
            fh = open(path, "rb")
        except OSError as exc:
            raise IoError(f"cannot read event log {path}: {exc.strerror or exc}") from exc
        with fh:
            end = fh.seek(0, os.SEEK_END)
            fh.seek(max(size - 1, 0))
            if size > end or (size and fh.read(1) != b"\n"):
                raise CorruptLog(None, f"{path.name}: byte {size} is not the end of a line")
            fh.seek(0)
            reporting.fold_events(kept.add, reporting.decode_lines(_lines_upto(fh, size)))

    @staticmethod
    def _truncate_lines(path: Path, size: int) -> None:
        """Cut a file to its first ``size`` bytes, checked by ``_read_prefix``."""
        with open(path, "ab") as fh:
            fh.truncate(size)

    def _restore(self, ckpt: dict, fold: reporting.EventFold) -> _Run:
        """Rebuild the run state at the checkpoint from the kept log:
        portfolios replayed from the ledger events, each agent's ledger so
        far, calibration windows, price history, previous forecasts and
        baseline probabilities. The rebuilt portfolios must match the
        boundary's cycle_end. The log is cut back to the checkpoint only once
        every check has passed, so a resume that fails leaves it as it was;
        no ledger file is read or written."""
        cfg = self.config
        boundary = ckpt["next_cycle"] - 1
        kept = _KeptLog(fold, _price_history(cfg.metrics.volatility_window))
        self._read_prefix(self.paths.events, ckpt["events_bytes"], kept)
        last = kept.last or {}
        if last.get("kind") != "cycle_end" or last.get("cycle") != boundary:
            raise CorruptLog(None, f"the kept log does not end with cycle {boundary}'s cycle_end")
        states: dict[str, _AgentState] = {}
        ledgers: dict[str, LedgerWriter] = {}
        for aid in self.manifest.agent_ids:
            saved = ckpt["agents"].get(aid)
            if saved is None:
                raise NoCheckpoint(f"checkpoint has no state for agent {aid}")
            entries: list[LedgerEntry] = []
            reporting.fold_events(
                lambda e: entries.append(entry_from_record({**e, "kind": e["entry_kind"]})),
                fold.ledgers.get(aid, []),
            )
            portfolio = replay_ledger(
                cfg.simulator.initial_capital_cents, entries, cfg.simulator.max_open_positions
            )
            if last.get("portfolios", {}).get(aid) != _totals(portfolio):
                raise CorruptLog(
                    None, f"{aid}: ledger replay disagrees with cycle {boundary}'s cycle_end"
                )
            window = CalibrationWindow(size=cfg.agents.calibration_window_size)
            ledger = ledgers[aid] = LedgerWriter(self._ledger_path(aid))
            for entry in entries:
                window = _calibrated(window, entry)
                ledger.append(entry)
            agent = build_agent(aid, self.manifest.seed)
            agent.set_state(saved["state"])
            states[aid] = _AgentState(
                agent=agent,
                portfolio=portfolio,
                window=window,
                prev_forecasts=kept.prev_forecasts.get(aid, {}),
            )
        self._truncate_lines(self.paths.events, ckpt["events_bytes"])
        # Baseline drift at the resume boundary compares with the boundary
        # cycle's baseline probabilities.
        prev_baseline = {
            k.value: {
                cid: rows[-1][1]
                for cid, rows in fold.forecasts.get(reporting.BASELINE_PREFIX + k.value, {}).items()
                if rows[-1][0] == boundary
            }
            for k in BaselineKind
        }
        return _Run(
            states, fold, kept.prices, ledgers, ckpt["next_cycle"], prev_baseline=prev_baseline
        )

    # -- the run --

    def run(self, resume: bool = False, resume_cycle: int | None = None) -> RunResult:
        if not resume and (self.paths.events.exists() or self.paths.manifest.exists()):
            raise RunExists(
                f"{self.paths.root} already holds a run; resume it or choose another run id"
            )
        self.paths.ensure()
        live = self.manifest.feed_source.get("kind") == "live"
        if resume and live:
            raise LiveSourceNotResumable("live feeds cannot be resumed deterministically")
        cycles_data, outcomes = self._load_feed()
        if live:
            total_cycles = self.manifest.cycles
        else:
            batch_size = self.config.agents.batch_size
            n_markets = len(cycles_data[0]) if cycles_data else 0
            if n_markets < batch_size:
                raise InvalidParameters(
                    f"need at least {batch_size} markets per cycle, got {n_markets}"
                )
            total_cycles = min(self.manifest.cycles, len(cycles_data))
        run = self._setup(resume, resume_cycle, cycles_data[0] if cycles_data else [])
        try:
            if not resume:
                self._start(run, total_cycles)
            limiter = RateLimiter(self.config.market.rate_limit_per_sec) if live else None
            for cycle in range(run.next_cycle, total_cycles + 1):
                if not live:
                    snaps = cycles_data[cycle - 1]
                else:
                    if cycle > run.next_cycle and self.manifest.cycle_interval_sec > 0:
                        _time.sleep(self.manifest.cycle_interval_sec)
                    snaps = self._live_cycle(limiter)
                self._run_cycle(run, cycle, snaps)
                self._end_cycle(run, cycle, checkpoint=not live)
            self._settle(run, outcomes, total_cycles + 1)
            # Final reports are a fold over the log written so far.
            final = reporting.final_reports_from_fold(run.fold, self.config)
            for subject in sorted(final):
                run.emit({"kind": "final_report", "subject": subject, **final[subject]})
            run.emit({"kind": "run_completed", "cycles_run": total_cycles})
        finally:
            run.events.close()
        sha = file_sha256(self.paths.events)
        write_atomic(self.paths.events_sha, f"{sha}\n".encode())
        return RunResult(
            run_id=self.manifest.run_id,
            cycles_run=total_cycles,
            events_path=self.paths.events,
            event_log_sha256=sha,
            final_reports=final,
            fold=run.fold,
        )

    def _setup(
        self, resume: bool, resume_cycle: int | None, first_snaps: list[MarketSnapshot]
    ) -> _Run:
        """The run state before its next cycle, with the log open for
        appending: restored from a checkpoint (the log kept up to it, each
        ledger refilled from it), or fresh after the manifest and the
        contract are saved."""
        fold = reporting.EventFold()
        if resume:
            run = self._restore(self._latest_checkpoint(resume_cycle), fold)
            run.categories = {s.condition_id: self._categorize(s) for s in first_snaps}
        else:
            write_atomic(self.paths.manifest, self.manifest.to_json().encode())
            ContractStore(self.paths.contracts).save(self.contract, self.contract_hash)
            sim = self.config.simulator
            states = {
                aid: _AgentState(
                    agent=build_agent(aid, self.manifest.seed),
                    portfolio=Portfolio.fresh(sim.initial_capital_cents, sim.max_open_positions),
                    window=CalibrationWindow(size=self.config.agents.calibration_window_size),
                )
                for aid in self.manifest.agent_ids
            }
            ledgers = {aid: LedgerWriter(self._ledger_path(aid)) for aid in states}
            prices = _price_history(self.config.metrics.volatility_window)
            run = _Run(states, fold, prices, ledgers)
        run.events = open(self.paths.events, "a" if resume else "w", encoding="utf-8")
        return run

    def _start(self, run: _Run, total_cycles: int) -> None:
        m = self.manifest
        run.emit(
            {
                "kind": "run_started",
                "run_id": m.run_id,
                "seed": m.seed,
                "cycles": total_cycles,
                "mode": m.mode,
                "agent_ids": list(m.agent_ids),
                "contract_hashes": list(m.contract_hashes),
                "feed_source": m.feed_source,
                "cycle_interval_sec": m.cycle_interval_sec,
            }
        )
        for aid in m.agent_ids:
            run.emit({"kind": "agent_meta", "agent_id": aid, "agent_count": 1, "unique_users": None})

    def _run_cycle(self, run: _Run, cycle: int, snaps: list[MarketSnapshot]) -> None:
        """Log one cycle: its snapshots, each agent's turn, the baselines and
        the portfolios at its end."""
        if not snaps:
            raise FatalFeedError(f"cycle {cycle} produced no snapshots")
        cfg = self.config.metrics
        iso = run.iso
        now_iso = iso[snaps[0].observed_at]
        run.emit({"kind": "cycle_start", "cycle": cycle, "time": now_iso})
        if cycle == 1:
            run.categories.update((s.condition_id, self._categorize(s)) for s in snaps)
            for s in snaps:
                cat = run.categories[s.condition_id]
                run.emit(
                    {
                        "kind": "market_meta",
                        "condition_id": s.condition_id,
                        "question": s.question,
                        "liquidity": s.liquidity_tier.value,
                        "risk": cat.risk.value,
                        "domain": cat.domain.value,
                        "horizon": cat.horizon.value,
                        "end_time": iso[s.end_time],
                    }
                )
        for s in snaps:
            run.emit(
                {
                    "kind": "snapshot",
                    "cycle": cycle,
                    "condition_id": s.condition_id,
                    "yes_price": s.yes_price,
                    "no_price": s.no_price,
                    "observed_at": iso[s.observed_at],
                }
            )
            run.prices[s.condition_id].append(s.yes_price)
        snap_map = {s.condition_id: s for s in snaps}
        # Each market is rendered once; agents differ only in the portfolio
        # summary that fills the gaps.
        rendered = []
        for s in snaps:
            parts = render_instruction_parts(self.contract, s)
            rendered.append((parts, [token_span(part) for part in parts]))
        c = _Cycle(
            number=cycle,
            now=snaps[0].observed_at,
            snaps=snaps,
            snap_map=snap_map,
            rendered=rendered,
            risk_by_market={
                cid: risk_category(
                    self._category(run, s),
                    price_volatility(run.prices[cid], cfg.volatility_window),
                    cfg.volatility_threshold,
                )
                for cid, s in snap_map.items()
            },
        )
        for aid in self.manifest.agent_ids:
            self._agent_turn(run, c, aid)
        self._baselines(run, c)
        run.emit(
            {
                "kind": "cycle_end",
                "cycle": cycle,
                "time": now_iso,
                "portfolios": {
                    aid: _totals(run.states[aid].portfolio) for aid in self.manifest.agent_ids
                },
            }
        )

    def _end_cycle(self, run: _Run, cycle: int, checkpoint: bool) -> None:
        """Make the cycle durable: the log flushed, and a checkpoint when one
        is due."""
        run.events.flush()
        every = self.config.loop.checkpoint_every
        if checkpoint and every and cycle % every == 0:
            # The checkpoint points into the log, so the log is made durable first.
            os.fsync(run.events.fileno())
            self._write_checkpoint(cycle, run.states, os.fstat(run.events.fileno()).st_size)

    def _agent_turn(self, run: _Run, c: _Cycle, aid: str) -> None:
        """One agent's cycle: forecasts, drift, its decision batch and the
        simulator step. A failing agent trades a batch of HOLDs."""
        st = run.states[aid]
        sim = self.config.simulator
        curr_tokens: dict[str, frozenset[str]] = {}
        try:
            records = self._forecasts(run, c, aid)
            if st.prev_forecasts:
                run.emit(self._agent_drift(run, c, aid, records, curr_tokens))
            batch = self._decide(run, c, aid, records)
        except (MalformedAgentOutput, AgentTimeout) as exc:
            run.emit(
                {"kind": "agent_failure", "cycle": c.number, "agent_id": aid, "error": str(exc)}
            )
            records = {}
            batch = self._fallback_batch(aid, c.now, c.snaps)
        result = step(
            st.portfolio,
            batch,
            c.snap_map,
            self.mode,
            sim.edge_delta,
            now=c.now,
            stop_loss=sim.stop_loss_ratio,
            target_win=sim.target_win_ratio,
        )
        st.portfolio = result.portfolio
        for entry in result.entries:
            run.record(c.number, aid, entry)
        for skip in result.skipped:
            run.emit(
                {
                    "kind": "skip",
                    "cycle": c.number,
                    "agent_id": aid,
                    "market_id": skip.market_id,
                    "action": skip.action,
                    "reason": skip.reason,
                }
            )
        if records:
            st.prev_forecasts = records
            st.prev_tokens = curr_tokens

    def _forecasts(self, run: _Run, c: _Cycle, aid: str) -> dict[str, ForecastRecord]:
        """Sample and log the agent's forecast of every market."""
        st = run.states[aid]
        summary = st.portfolio.summary()
        summary_span = token_span(summary)
        records: dict[str, ForecastRecord] = {}
        for s, (parts, spans) in zip(c.snaps, c.rendered):
            rec = sample_forecast(
                st.agent,
                summary.join(parts),
                s,
                self.contract.token_budget,
                contract_hash=self.contract_hash,
                sampled_at=c.now,
                cycle_index=c.number,
                input_tokens=instruction_tokens(summary_span, spans),
            )
            records[s.condition_id] = rec
            run.emit(
                {
                    "kind": "forecast",
                    "cycle": c.number,
                    "agent_id": aid,
                    "condition_id": s.condition_id,
                    "probability": rec.probability,
                    "confidence": rec.confidence,
                    "trace": rec.reasoning_trace,
                    "strategy": rec.strategy.value,
                    "input_tokens": rec.input_tokens,
                    "output_tokens": rec.output_tokens,
                    "latency_ms": rec.latency_ms,
                    "sampled_at": run.iso[rec.sampled_at],
                    "contract_digest": rec.contract_hash.digest,
                }
            )
        return records

    def _decide(
        self, run: _Run, c: _Cycle, aid: str, records: dict[str, ForecastRecord]
    ) -> DecisionBatch:
        """Build, parse, validate and log the agent's decision batch; a
        rejected batch falls back to HOLDs."""
        cfg = self.config.agents
        st = run.states[aid]
        open_ids = {p.condition_id for p in st.portfolio.open_positions}
        wire = build_decision_batch(
            st.agent,
            records,
            c.snaps,
            st.window,
            open_ids,
            risk_by_market=c.risk_by_market,
            max_open_positions=self.config.simulator.max_open_positions,
            cfg=cfg,
            produced_at=c.now,
        )
        batch, violations = parse_decision_wire(
            wire, agent_id=aid, produced_at=c.now, lenient=cfg.lenient_json
        )
        validation = validate_decision_batch(batch, set(c.snap_map) | open_ids, st.window, cfg)
        run.emit(
            {
                "kind": "batch",
                "cycle": c.number,
                "agent_id": aid,
                "accepted": validation.ok,
                "issues": [{"code": i.code, "detail": i.detail} for i in validation.issues],
                "wire_violations": violations,
                "n_decisions": len(batch.decisions),
                "n_buys": sum(
                    1 for d in batch.decisions if d.action in (Action.BUY_YES, Action.BUY_NO)
                ),
            }
        )
        return batch if validation.ok else self._fallback_batch(aid, c.now, c.snaps)

    def _agent_drift(
        self,
        run: _Run,
        c: _Cycle,
        aid: str,
        records: dict[str, ForecastRecord],
        curr_tokens: dict[str, frozenset[str]],
    ) -> dict:
        """The agent's drift against its previous forecasts; fills
        ``curr_tokens`` with the token sets of the traces it compares."""
        st = run.states[aid]
        prev = st.prev_forecasts
        means, compared = _drift_means(
            {cid: rec.probability for cid, rec in records.items()},
            {cid: rec.probability for cid, rec in prev.items()},
            c.snap_map,
            run.prices,
        )
        dn_parts: list[float] = []
        for cid in compared:
            prev_tokens = st.prev_tokens.get(cid)
            if prev_tokens is None:
                prev_tokens = token_set(prev[cid].reasoning_trace)
            tokens = curr_tokens[cid] = token_set(records[cid].reasoning_trace)
            dn_parts.append(narrative_drift_sets(prev_tokens, tokens))
        return self._drift_event(c.number, aid, means, _mean(dn_parts))

    def _baselines(self, run: _Run, c: _Cycle) -> None:
        """Log every baseline's forecast from the snapshots and timestamps the
        agents saw, then each baseline's drift."""
        cfg = self.config.baselines
        probs: dict[str, dict[str, float]] = {k.value: {} for k in BaselineKind}
        for s in c.snaps:
            forecasts = (
                market_baseline(s, cfg.market_use_mid),
                uniform_baseline(s),
                # Outcomes settle only after the last cycle, so none has resolved.
                historical_frequency_baseline(self._category(run, s), (), snapshot=s),
                heuristic_baseline(s, cfg.heuristic_favorite_prob, cfg.heuristic_longshot_prob),
            )
            for bf in forecasts:
                probs[bf.kind.value][s.condition_id] = bf.probability
                run.emit(
                    {
                        "kind": "baseline",
                        "cycle": c.number,
                        "baseline": bf.kind.value,
                        "condition_id": bf.condition_id,
                        "probability": bf.probability,
                        "as_of": run.iso[bf.as_of],
                    }
                )
        if run.prev_baseline:
            for kind, curr in probs.items():
                prev = run.prev_baseline.get(kind, {})
                means, _ = _drift_means(curr, prev, c.snap_map, run.prices)
                run.emit(self._drift_event(c.number, reporting.BASELINE_PREFIX + kind, means))
        run.prev_baseline = probs

    def _drift_event(
        self, cycle: int, subject: str, means: tuple[float, float, float], d_narrative: float = 0.0
    ) -> dict:
        """A drift event from ``_drift_means``; only agents drift in narrative.
        Nothing resolves mid-run, so ``d_confidence`` is 0 (see the post-hoc
        fold)."""
        dt_diff, dt_prod, divergence = means
        dt = dt_diff if self.config.metrics.temporal_drift_form == "difference" else dt_prod
        return {
            "kind": "drift",
            "cycle": cycle,
            "agent_id": subject,
            "d_narrative": d_narrative,
            "d_temporal": dt,
            "d_temporal_difference": dt_diff,
            "d_temporal_product": dt_prod,
            "d_confidence": 0.0,
            "d_total": d_narrative + dt,
            "market_divergence": divergence,
            "low_evidence": True,
        }

    def _settle(self, run: _Run, outcomes: list[ResolvedOutcome], cycle: int) -> None:
        """Log each outcome and settle every agent's position in its market,
        after the last cycle; then write each agent's ledger, whole."""
        for outcome in outcomes:
            run.emit(
                {
                    "kind": "resolution",
                    "condition_id": outcome.condition_id,
                    "outcome": outcome.outcome,
                    "resolved_at": run.iso[outcome.resolved_at],
                }
            )
            for aid in self.manifest.agent_ids:
                st = run.states[aid]
                st.portfolio, entry = resolve_market(st.portfolio, outcome)
                if entry is not None:
                    run.record(cycle, aid, entry)
        for writer in run.ledgers.values():
            writer.sync()

    # -- helpers --

    def _categorize(self, snap: MarketSnapshot) -> EventCategory:
        m = self.config.market
        return categorize_event(
            snap.question,
            snap.end_time,
            snap.observed_at,
            snap.yes_price,
            risk_high_below=m.risk_high_below,
            risk_low_at_least=m.risk_low_at_least,
            horizon_short_days=m.horizon_short_days,
            horizon_medium_days=m.horizon_medium_days,
        )

    def _category(self, run: _Run, snap: MarketSnapshot) -> EventCategory:
        """The market's cycle-1 category; a market first seen later is
        categorized from this snapshot."""
        cat = run.categories.get(snap.condition_id)
        return cat if cat is not None else self._categorize(snap)

    def _fallback_batch(
        self, agent_id: str, now, snaps: Sequence[MarketSnapshot]
    ) -> DecisionBatch:
        """30 HOLDs on known markets; triggers still fire inside step()."""
        size = self.config.agents.batch_size
        holds = tuple(
            Decision(market_id=s.condition_id, action=Action.HOLD, reasoning="fallback")
            for s in snaps[:size]
        )
        return DecisionBatch(
            decisions=holds,
            overall_reasoning="fallback after failure",
            agent_id=agent_id,
            produced_at=now,
        )



def _read_checkpoint(path: Path) -> dict | None:
    """A checkpoint's payload, or None if it is missing, torn, or written
    before checkpoints held byte offsets (it cannot be resumed). Other keys,
    such as the ledger offsets that older checkpoints hold, are ignored."""
    try:
        ckpt = json.loads(path.read_bytes())
        valid = (
            isinstance(ckpt["next_cycle"], int)
            and isinstance(ckpt["events_bytes"], int)
            and all(isinstance(a["state"], dict) for a in ckpt["agents"].values())
        )
    except (OSError, ValueError, LookupError, TypeError, AttributeError):
        return None
    return ckpt if valid else None


# --- statistics ----------------------------------------------------------------------


def significance_test(
    scores_a: Sequence[float],
    scores_b: Sequence[float],
    resamples: int = 10_000,
    seed: int = 0,
) -> float:
    """Two-sided paired bootstrap p-value for a difference in mean scores.

    The null distribution resamples the mean of centered paired differences;
    add-one smoothing keeps the p-value strictly positive.
    """
    if len(scores_a) != len(scores_b):
        raise LengthMismatch(f"paired scores differ in length: {len(scores_a)} vs {len(scores_b)}")
    if len(scores_a) == 0:
        raise LengthMismatch("need at least one paired score")
    diffs = np.asarray(scores_a, dtype=float) - np.asarray(scores_b, dtype=float)
    observed = float(diffs.mean())
    centered = diffs - observed
    rng = np.random.default_rng([int(seed) & _MASK64, 0x51F7])
    n = len(diffs)
    hits = 0
    chunk = max(1, min(resamples, 2_000_000 // max(n, 1)))
    remaining = resamples
    while remaining > 0:
        take = min(chunk, remaining)
        idx = rng.integers(0, n, size=(take, n))
        means = centered[idx].mean(axis=1)
        hits += int(np.sum(np.abs(means) >= abs(observed)))
        remaining -= take
    return (1 + hits) / (resamples + 1)


# --- token budget sweep -----------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    budget: int
    agent_id: str
    mean_abs_dprob: float | None
    mean_d_temporal: float
    avg_output_tokens: float | None
    max_prob_gap_vs_first_budget: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class SweepReport:
    budgets: tuple[int, ...]
    rows: tuple[SweepRow, ...]
    run_ids: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "budgets": list(self.budgets),
            "run_ids": list(self.run_ids),
            "rows": [r.to_dict() for r in self.rows],
        }


def token_budget_sweep(
    out_root: str | Path,
    *,
    seed: int,
    agent_ids: Sequence[str],
    feed_source: dict,
    cycles: int,
    config: EngineConfig | None = None,
    budgets: Sequence[int] | None = None,
    mode: str = "execution",
    run_id_prefix: str = "sweep",
) -> SweepReport:
    """One full run per token budget on an identical seed and feed.

    Reports per-agent probability adjustment depth and drift per budget,
    plus each run's maximum probability gap against the first budget
    (zero for budget-insensitive agents).
    """
    config = config or EngineConfig()
    budgets = tuple(budgets or config.loop.sweep_budgets)
    rows: list[SweepRow] = []
    run_ids: list[str] = []
    prob_tables: dict[int, dict[str, dict[tuple[str, int], float]]] = {}

    for budget in budgets:
        engine = EvalEngine.create(
            out_root,
            seed=seed,
            agent_ids=agent_ids,
            feed_source=feed_source,
            cycles=cycles,
            config=config,
            run_id=f"{run_id_prefix}-b{budget}",
            mode=mode,
            token_budget=budget,
        )
        result = engine.run()
        run_ids.append(result.run_id)
        fold = result.fold
        table: dict[str, dict[tuple[str, int], float]] = {}
        for aid in agent_ids:
            table[aid] = {
                (cid, c): p
                for cid, rows_ in fold.forecasts.get(aid, {}).items()
                for (c, p, *_rest) in rows_
            }
        prob_tables[budget] = table
        for aid in agent_ids:
            dprob, _, _ = fold.adjustment_depth(aid)
            dn, dt, _ = fold.drift_means(aid)
            _, avg_out = fold.token_averages(aid)
            first_table = prob_tables[budgets[0]][aid]
            gap = 0.0
            for key, p in table[aid].items():
                if key in first_table:
                    gap = max(gap, abs(p - first_table[key]))
            rows.append(
                SweepRow(
                    budget=budget,
                    agent_id=aid,
                    mean_abs_dprob=dprob,
                    mean_d_temporal=dt,
                    avg_output_tokens=avg_out,
                    max_prob_gap_vs_first_budget=gap,
                )
            )
    return SweepReport(budgets=budgets, rows=tuple(rows), run_ids=tuple(run_ids))


# --- resumption and verification -----------------------------------------------------------


def resume_run(out_root: str | Path, run_id: str, at_cycle: int | None = None) -> RunResult:
    """Resume an interrupted run from its latest (or given) checkpoint."""
    paths = RunPaths(out_root, run_id)
    if not paths.manifest.exists():
        raise NoCheckpoint(f"no manifest for run {run_id}")
    manifest = RunManifest.from_json(paths.manifest.read_text(encoding="utf-8"))
    if manifest.feed_source.get("kind") == "live":
        raise LiveSourceNotResumable("live feeds cannot be resumed deterministically")
    config = config_from_dict(manifest.metric_config)
    store = ContractStore(paths.contracts)
    contracts = {}
    for digest in manifest.contract_hashes:
        contract, chash = store.load(digest)
        contracts[digest] = (contract, chash)
    engine = EvalEngine(manifest, config, out_root, contracts)
    return engine.run(resume=True, resume_cycle=at_cycle)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    events_ok: bool
    contracts: dict[str, bool]
    messages: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "events_ok": self.events_ok,
            "contracts": self.contracts,
            "messages": list(self.messages),
        }


def verify_run(out_root: str | Path, run_id: str) -> VerifyReport:
    """Recompute the event-log hash and every stored contract digest."""
    paths = RunPaths(out_root, run_id)
    messages: list[str] = []
    events_ok = False
    if not paths.events.exists() or not paths.events_sha.exists():
        messages.append("event log or recorded hash missing")
    else:
        recorded = paths.events_sha.read_text(encoding="utf-8").strip()
        actual = file_sha256(paths.events)
        events_ok = recorded == actual
        if not events_ok:
            messages.append(f"event log hash mismatch: recorded {recorded[:12]}…, actual {actual[:12]}…")

    contracts: dict[str, bool] = {}
    store = ContractStore(paths.contracts)
    for digest in store.digests():
        contracts[digest] = store.verify_stored(digest)
        if not contracts[digest]:
            messages.append(f"contract {digest[:12]}… failed verification")
    if paths.manifest.exists():
        manifest = RunManifest.from_json(paths.manifest.read_text(encoding="utf-8"))
        for digest in manifest.contract_hashes:
            if digest not in contracts:
                contracts[digest] = False
                messages.append(f"manifest contract {digest[:12]}… not stored")
    ok = events_ok and all(contracts.values()) and bool(contracts)
    return VerifyReport(ok=ok, events_ok=events_ok, contracts=contracts, messages=tuple(messages))
