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
import os
import re
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple, Sequence

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
    lock_contract,
    render_instruction,  # noqa: F401  perfbench/layers.py wraps it here
    render_instruction_parts,
)
from .errors import (
    AgentTimeout,
    CorruptLog,
    FatalFeedError,
    InvalidParameters,
    LengthMismatch,
    LiveSourceNotResumable,
    MalformedAgentOutput,
    NoCheckpoint,
)
from .market_data import (
    EventCategory,
    MarketSnapshot,
    RateLimiter,
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
    LedgerWriter,
    Mode,
    Portfolio,
    Trigger,
    _value_cents,
    entry_from_record,
    entry_to_record,
    evaluate_triggers,
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


def event_line(event: dict) -> str:
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


class _Forecast(NamedTuple):
    """The fields of a previous forecast that the next drift event reads;
    resume rebuilds them from the log in place of a ForecastRecord."""

    probability: float
    confidence: int
    reasoning_trace: str


@dataclass
class _AgentState:
    agent: ScriptedAgent
    portfolio: Portfolio
    window: CalibrationWindow
    prev_forecasts: dict[str, ForecastRecord | _Forecast] = field(default_factory=dict)
    # Token sets of the prev_forecasts traces; one missing is computed from its trace.
    prev_tokens: dict[str, frozenset[str]] = field(default_factory=dict)
    # Ledger size at the last cycle boundary, recorded in the checkpoint.
    ledger_bytes: int = 0


class _KeptLog:
    """Reads the kept log on resume. Feeds every event to the run's fold and
    keeps what the fold does not: the last event, each market's recent
    prices, and each agent's forecasts from its latest cycle without an
    agent_failure, which the next drift event compares against."""

    def __init__(self, fold: reporting.EventFold, history_len: int):
        self.fold = fold
        self.history_len = history_len
        self.last: dict | None = None
        self.price_history: dict[str, list[float]] = {}
        self.prev_forecasts: dict[str, dict[str, _Forecast]] = {}
        self._cycle: dict[str, dict[str, _Forecast]] = {}

    def add(self, ev: dict) -> None:
        self.fold.add(ev)
        self.last = ev
        kind = ev.get("kind")
        if kind == "snapshot":
            history = self.price_history.setdefault(ev["condition_id"], [])
            history.append(ev["yes_price"])
            if len(history) > self.history_len:
                del history[0]
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
        self.manifest = manifest
        self.config = config
        self.paths = RunPaths(out_root, manifest.run_id)
        self.contract, self.contract_hash = contracts[digest]
        if not self.contract.locked:
            raise InvalidParameters("contract must be locked")
        self.mode = Mode(manifest.mode)
        # Previous cycle's baseline probabilities, for baseline drift events.
        self._prev_baseline_probs_map: dict[str, dict[str, float]] | None = None

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
        if kind == "live":
            return [], []  # fetched lazily inside run()
        raise InvalidParameters(f"unknown feed source kind {kind!r}")

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
        """Record where the boundary after ``cycle`` falls in the log and the
        ledgers, and each agent's own state; resume rebuilds everything else
        from the log. Written to a tmp file that ``cycle_*.json`` does not
        match, fsynced, then renamed, so a crash never leaves it torn."""
        payload = {
            "next_cycle": cycle + 1,
            "events_bytes": events_bytes,
            "agents": {
                aid: {"state": st.agent.get_state(), "ledger_bytes": st.ledger_bytes}
                for aid, st in states.items()
            },
        }
        path = self._checkpoint_path(cycle)
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write(json.dumps(payload, sort_keys=True, separators=(",", ":")).encode())
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)

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
    def _truncate_lines(path: Path, size: int, fold: _KeptLog | None = None) -> None:
        """Cut a JSONL file to its first ``size`` bytes, which must end a
        line, feeding each kept line to ``fold.add`` on the way."""
        with open(path, "ab+") as fh:
            fh.seek(max(size - 1, 0))
            if size > os.fstat(fh.fileno()).st_size or (size and fh.read(1) != b"\n"):
                raise CorruptLog(None, f"{path.name}: byte {size} is not the end of a line")
            if fold is not None:
                fh.seek(0)
                kept = 0
                for line_no, line in enumerate(fh, start=1):
                    if kept == size:
                        break
                    kept += len(line)
                    try:
                        fold.add(json.loads(line))
                    except ValueError as exc:
                        raise CorruptLog(line_no, str(exc)) from exc
            fh.truncate(size)

    def _restore(
        self, ckpt: dict, fold: reporting.EventFold
    ) -> tuple[dict[str, _AgentState], dict[str, list[float]]]:
        """Cut the log and the ledgers back to the checkpoint and rebuild the
        run state there from the kept log: portfolios replayed from the
        ledger events, calibration windows, price history, previous
        forecasts and baseline probabilities. The rebuilt portfolios must
        match the boundary's cycle_end before any cycle runs."""
        cfg = self.config
        boundary = ckpt["next_cycle"] - 1
        kept = _KeptLog(fold, cfg.metrics.volatility_window + 1)
        self._truncate_lines(self.paths.events, ckpt["events_bytes"], kept)
        last = kept.last or {}
        if last.get("kind") != "cycle_end" or last.get("cycle") != boundary:
            raise CorruptLog(None, f"the kept log does not end with cycle {boundary}'s cycle_end")
        states: dict[str, _AgentState] = {}
        for aid in self.manifest.agent_ids:
            saved = ckpt["agents"].get(aid)
            if saved is None:
                raise NoCheckpoint(f"checkpoint has no state for agent {aid}")
            ledger = fold.ledgers.get(aid, [])
            portfolio = replay_ledger(
                cfg.simulator.initial_capital_cents,
                (entry_from_record({**e, "kind": e["entry_kind"]}) for e in ledger),
                cfg.simulator.max_open_positions,
            )
            if last.get("portfolios", {}).get(aid) != _totals(portfolio):
                raise CorruptLog(
                    None, f"{aid}: ledger replay disagrees with cycle {boundary}'s cycle_end"
                )
            size = cfg.agents.calibration_window_size
            closed = [
                ClosedPosition(e["condition_id"], e["side"], e["cash_delta_cents"])
                for e in ledger
                if e["entry_kind"] in ("CLOSE", "RESOLVE")
            ]
            agent = build_agent(aid, self.manifest.seed)
            agent.set_state(saved["state"])
            states[aid] = _AgentState(
                agent=agent,
                portfolio=portfolio,
                window=CalibrationWindow(entries=tuple(closed[-size:]), size=size),
                prev_forecasts=kept.prev_forecasts.get(aid, {}),
                ledger_bytes=saved["ledger_bytes"],
            )
        for aid, st in states.items():
            self._truncate_lines(self._ledger_path(aid), st.ledger_bytes)
        # Baseline drift at the resume boundary compares with the boundary
        # cycle's baseline probabilities.
        self._prev_baseline_probs_map = {
            k.value: {
                cid: rows[-1][1]
                for cid, rows in fold.forecasts.get(reporting.BASELINE_PREFIX + k.value, {}).items()
                if rows[-1][0] == boundary
            }
            for k in BaselineKind
        }
        return states, kept.price_history

    # -- the run --

    def run(self, resume: bool = False, resume_cycle: int | None = None) -> RunResult:
        self.paths.ensure()
        live = self.manifest.feed_source.get("kind") == "live"
        if resume and live:
            raise LiveSourceNotResumable("live feeds cannot be resumed deterministically")
        cycles_data, outcomes = self._load_feed()
        cfg = self.config
        batch_size = cfg.agents.batch_size
        if not live:
            n_markets = len(cycles_data[0]) if cycles_data else 0
            if n_markets < batch_size:
                raise InvalidParameters(
                    f"need at least {batch_size} markets per cycle, got {n_markets}"
                )
        total_cycles = min(self.manifest.cycles, len(cycles_data)) if not live else self.manifest.cycles

        # Mutable run state.
        states: dict[str, _AgentState] = {}
        price_history: dict[str, list[float]] = {}
        categories: dict[str, EventCategory] = {}
        start_cycle = 1
        events_mode = "w"
        # Final reports fold every event of the log; the engine folds them as
        # it writes them, and on resume folds the kept prefix as it cuts it.
        fold = reporting.EventFold()

        if resume:
            ckpt = self._latest_checkpoint(resume_cycle)
            start_cycle = ckpt["next_cycle"]
            events_mode = "a"
            states, price_history = self._restore(ckpt, fold)
            # Rebuild static categories deterministically from cycle 1.
            if cycles_data:
                for snap in cycles_data[0]:
                    categories[snap.condition_id] = self._categorize(snap)
        else:
            if not self.paths.manifest.exists():
                self.paths.manifest.write_text(self.manifest.to_json(), encoding="utf-8")
            store = ContractStore(self.paths.contracts)
            store.save(self.contract, self.contract_hash)
            for aid in self.manifest.agent_ids:
                states[aid] = _AgentState(
                    agent=build_agent(aid, self.manifest.seed),
                    portfolio=Portfolio.fresh(
                        cfg.simulator.initial_capital_cents, cfg.simulator.max_open_positions
                    ),
                    window=CalibrationWindow(size=cfg.agents.calibration_window_size),
                )

        ledgers = {aid: LedgerWriter(self._ledger_path(aid)) for aid in self.manifest.agent_ids}
        events = open(self.paths.events, events_mode, encoding="utf-8")
        iso = _IsoCache()

        def emit(ev: dict) -> None:
            events.write(event_line(ev))
            fold.add(ev)

        try:
            if not resume:
                emit(
                    {
                        "kind": "run_started",
                        "run_id": self.manifest.run_id,
                        "seed": self.manifest.seed,
                        "cycles": total_cycles,
                        "mode": self.manifest.mode,
                        "agent_ids": list(self.manifest.agent_ids),
                        "contract_hashes": list(self.manifest.contract_hashes),
                        "feed_source": self.manifest.feed_source,
                        "cycle_interval_sec": self.manifest.cycle_interval_sec,
                    }
                )
                for aid in self.manifest.agent_ids:
                    emit(
                        {
                            "kind": "agent_meta",
                            "agent_id": aid,
                            "agent_count": 1,
                            "unique_users": None,
                        }
                    )

            limiter = RateLimiter(cfg.market.rate_limit_per_sec) if live else None
            resolved_so_far: list[tuple[ResolvedOutcome, EventCategory]] = []

            cycle = start_cycle
            while cycle <= total_cycles:
                if live:
                    if cycle > start_cycle and self.manifest.cycle_interval_sec > 0:
                        _time.sleep(self.manifest.cycle_interval_sec)
                    snaps = self._live_cycle(limiter)
                else:
                    snaps = cycles_data[cycle - 1]
                if not snaps:
                    raise FatalFeedError(f"cycle {cycle} produced no snapshots")
                now = snaps[0].observed_at
                now_iso = iso[now]
                snap_map = {s.condition_id: s for s in snaps}
                known = set(snap_map)

                emit({"kind": "cycle_start", "cycle": cycle, "time": now_iso})
                if cycle == 1:
                    for s in snaps:
                        categories[s.condition_id] = self._categorize(s)
                        cat = categories[s.condition_id]
                        emit(
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
                elif not categories:
                    for s in snaps:
                        categories.setdefault(s.condition_id, self._categorize(s))

                for s in snaps:
                    emit(
                        {
                            "kind": "snapshot",
                            "cycle": cycle,
                            "condition_id": s.condition_id,
                            "yes_price": s.yes_price,
                            "no_price": s.no_price,
                            "observed_at": iso[s.observed_at],
                        }
                    )
                    price_history.setdefault(s.condition_id, []).append(s.yes_price)
                    # Volatility window only needs the recent tail.
                    if len(price_history[s.condition_id]) > cfg.metrics.volatility_window + 1:
                        price_history[s.condition_id] = price_history[s.condition_id][
                            -(cfg.metrics.volatility_window + 1):
                        ]

                risk_by_market = {
                    cid: risk_category(
                        categories.get(cid, self._categorize(snap_map[cid])),
                        price_volatility(price_history.get(cid, []), cfg.metrics.volatility_window),
                        cfg.metrics.volatility_threshold,
                    )
                    for cid in snap_map
                }

                # Each market is rendered once; agents differ only in the
                # portfolio summary that fills the gaps.
                rendered = [render_instruction_parts(self.contract, s) for s in snaps]
                budget = self.contract.token_budget
                for aid in self.manifest.agent_ids:
                    st = states[aid]
                    records: dict[str, ForecastRecord] = {}
                    curr_tokens: dict[str, frozenset[str]] = {}
                    batch: DecisionBatch | None = None
                    try:
                        summary = st.portfolio.summary()
                        for s, parts in zip(snaps, rendered):
                            rec = sample_forecast(
                                st.agent,
                                summary.join(parts),
                                s,
                                budget,
                                contract_hash=self.contract_hash,
                                sampled_at=now,
                                cycle_index=cycle,
                            )
                            records[s.condition_id] = rec
                            emit(
                                {
                                    "kind": "forecast",
                                    "cycle": cycle,
                                    "agent_id": aid,
                                    "condition_id": s.condition_id,
                                    "probability": rec.probability,
                                    "confidence": rec.confidence,
                                    "trace": rec.reasoning_trace,
                                    "strategy": rec.strategy.value,
                                    "input_tokens": rec.input_tokens,
                                    "output_tokens": rec.output_tokens,
                                    "latency_ms": rec.latency_ms,
                                    "sampled_at": iso[rec.sampled_at],
                                    "contract_digest": rec.contract_hash.digest,
                                }
                            )
                        if cycle >= 2 and st.prev_forecasts:
                            emit(
                                self._drift_event(
                                    aid, cycle, st, records, curr_tokens, snap_map, price_history
                                )
                            )
                        trigger_closes = self._trigger_closes(st.portfolio, snap_map)
                        wire = build_decision_batch(
                            st.agent,
                            records,
                            snaps,
                            st.window,
                            {p.condition_id for p in st.portfolio.open_positions},
                            risk_by_market=risk_by_market,
                            trigger_closes=trigger_closes,
                            cfg=cfg.agents,
                            produced_at=now,
                        )
                        batch, violations = parse_decision_wire(
                            wire, agent_id=aid, produced_at=now, lenient=cfg.agents.lenient_json
                        )
                        validation = validate_decision_batch(
                            batch,
                            known | {p.condition_id for p in st.portfolio.open_positions},
                            st.window,
                            cfg.agents,
                        )
                        emit(
                            {
                                "kind": "batch",
                                "cycle": cycle,
                                "agent_id": aid,
                                "accepted": validation.ok,
                                "issues": [
                                    {"code": i.code, "detail": i.detail} for i in validation.issues
                                ],
                                "wire_violations": violations,
                                "n_decisions": len(batch.decisions),
                                "n_buys": sum(
                                    1
                                    for d in batch.decisions
                                    if d.action in (Action.BUY_YES, Action.BUY_NO)
                                ),
                            }
                        )
                        if not validation.ok:
                            batch = self._fallback_batch(aid, now, snaps)
                    except (MalformedAgentOutput, AgentTimeout) as exc:
                        emit(
                            {
                                "kind": "agent_failure",
                                "cycle": cycle,
                                "agent_id": aid,
                                "error": str(exc),
                            }
                        )
                        records = {}
                        batch = self._fallback_batch(aid, now, snaps)

                    result = step(
                        st.portfolio,
                        batch,
                        snap_map,
                        self.mode,
                        cfg.simulator.edge_delta,
                        now=now,
                        stop_loss=cfg.simulator.stop_loss_ratio,
                        target_win=cfg.simulator.target_win_ratio,
                    )
                    st.portfolio = result.portfolio
                    for entry in result.entries:
                        ledgers[aid].append(entry)
                        emit(
                            {
                                "kind": "ledger",
                                "cycle": cycle,
                                "agent_id": aid,
                                "entry_kind": entry.kind.value,
                                **{
                                    k: v
                                    for k, v in entry_to_record(entry).items()
                                    if k != "kind"
                                },
                            }
                        )
                        if entry.kind == EntryKind.CLOSE:
                            st.window = st.window.record(
                                ClosedPosition(
                                    entry.condition_id, entry.side.value, entry.cash_delta_cents
                                )
                            )
                    for skip in result.skipped:
                        emit(
                            {
                                "kind": "skip",
                                "cycle": cycle,
                                "agent_id": aid,
                                "market_id": skip.market_id,
                                "action": skip.action,
                                "reason": skip.reason,
                            }
                        )
                    if records:
                        st.prev_forecasts = records
                        st.prev_tokens = curr_tokens

                # Baselines observe the exact same snapshots and timestamps.
                baseline_probs: dict[str, dict[str, float]] = {k.value: {} for k in BaselineKind}
                for s in snaps:
                    cat = categories.get(s.condition_id) or self._categorize(s)
                    forecasts = (
                        market_baseline(s, cfg.baselines.market_use_mid),
                        uniform_baseline(s),
                        historical_frequency_baseline(cat, resolved_so_far, snapshot=s),
                        heuristic_baseline(
                            s,
                            cfg.baselines.heuristic_favorite_prob,
                            cfg.baselines.heuristic_longshot_prob,
                        ),
                    )
                    for bf in forecasts:
                        baseline_probs[bf.kind.value][s.condition_id] = bf.probability
                        emit(
                            {
                                "kind": "baseline",
                                "cycle": cycle,
                                "baseline": bf.kind.value,
                                "condition_id": bf.condition_id,
                                "probability": bf.probability,
                                "as_of": iso[bf.as_of],
                            }
                        )
                self._emit_baseline_drift(emit, cycle, baseline_probs, snap_map, price_history)

                emit(
                    {
                        "kind": "cycle_end",
                        "cycle": cycle,
                        "time": now_iso,
                        "portfolios": {
                            aid: _totals(states[aid].portfolio) for aid in self.manifest.agent_ids
                        },
                    }
                )
                for aid, writer in ledgers.items():
                    states[aid].ledger_bytes = writer.sync()
                events.flush()
                if cfg.loop.checkpoint_every and cycle % cfg.loop.checkpoint_every == 0 and not live:
                    # The checkpoint points into the log, so the log is made
                    # durable first.
                    os.fsync(events.fileno())
                    self._write_checkpoint(cycle, states, os.fstat(events.fileno()).st_size)
                cycle += 1

            # Resolution and settlement after the last cycle.
            resolution_cycle = total_cycles + 1
            for outcome in outcomes:
                emit(
                    {
                        "kind": "resolution",
                        "condition_id": outcome.condition_id,
                        "outcome": outcome.outcome,
                        "resolved_at": iso[outcome.resolved_at],
                    }
                )
                cat = categories.get(outcome.condition_id)
                if cat is not None:
                    resolved_so_far.append((outcome, cat))
                for aid in self.manifest.agent_ids:
                    st = states[aid]
                    st.portfolio, entry = resolve_market(st.portfolio, outcome)
                    if entry is not None:
                        ledgers[aid].append(entry)
                        emit(
                            {
                                "kind": "ledger",
                                "cycle": resolution_cycle,
                                "agent_id": aid,
                                "entry_kind": entry.kind.value,
                                **{
                                    k: v
                                    for k, v in entry_to_record(entry).items()
                                    if k != "kind"
                                },
                            }
                        )
                        st.window = st.window.record(
                            ClosedPosition(
                                entry.condition_id, entry.side.value, entry.cash_delta_cents
                            )
                        )
            for writer in ledgers.values():
                writer.sync()

            # Final reports are a fold over the log written so far.
            final = reporting.final_reports_from_fold(fold, cfg)
            for subject in sorted(final):
                emit({"kind": "final_report", "subject": subject, **final[subject]})
            emit({"kind": "run_completed", "cycles_run": total_cycles})
        finally:
            events.close()
            for writer in ledgers.values():
                writer.close()

        sha = file_sha256(self.paths.events)
        self.paths.events_sha.write_text(sha + "\n", encoding="utf-8")
        return RunResult(
            run_id=self.manifest.run_id,
            cycles_run=total_cycles,
            events_path=self.paths.events,
            event_log_sha256=sha,
            final_reports=final,
            fold=fold,
        )

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

    def _trigger_closes(
        self, portfolio: Portfolio, snap_map: dict[str, MarketSnapshot]
    ) -> list[str]:
        triggered = []
        for p in portfolio.open_positions:
            snap = snap_map.get(p.condition_id)
            if snap is None:
                continue
            value = _value_cents(p.quantity_micro, p.side_price(snap))
            marked = replace(p, unrealized_pnl_cents=value - p.cost_basis_cents)
            if (
                evaluate_triggers(
                    marked,
                    self.config.simulator.stop_loss_ratio,
                    self.config.simulator.target_win_ratio,
                )
                != Trigger.NONE
            ):
                triggered.append(p.condition_id)
        return triggered

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

    def _drift_event(
        self,
        agent_id: str,
        cycle: int,
        st: _AgentState,
        curr: dict[str, ForecastRecord],
        curr_tokens: dict[str, frozenset[str]],
        snap_map: dict[str, MarketSnapshot],
        price_history: dict[str, list[float]],
    ) -> dict:
        """Drift of ``curr`` against ``st.prev_forecasts``; fills
        ``curr_tokens`` with the token sets of the traces it compares."""
        form = self.config.metrics.temporal_drift_form
        prev = st.prev_forecasts
        dn_parts: list[float] = []
        dt_diff_parts: list[float] = []
        dt_prod_parts: list[float] = []
        for cid, rec in curr.items():
            prev_rec = prev.get(cid)
            history = price_history.get(cid, [])
            if prev_rec is None or len(history) < 2:
                continue
            m_prev, m_curr = history[-2], history[-1]
            prev_tokens = st.prev_tokens.get(cid)
            if prev_tokens is None:
                prev_tokens = token_set(prev_rec.reasoning_trace)
            tokens = curr_tokens[cid] = token_set(rec.reasoning_trace)
            dn_parts.append(narrative_drift_sets(prev_tokens, tokens))
            dt_diff_parts.append(
                temporal_drift(
                    prev_rec.probability, rec.probability, m_prev, m_curr, "difference"
                )
            )
            dt_prod_parts.append(
                temporal_drift(prev_rec.probability, rec.probability, m_prev, m_curr, "product")
            )
        divergence_parts = [
            abs(rec.probability - snap_map[cid].yes_price)
            for cid, rec in curr.items()
            if cid in snap_map
        ]
        mean = lambda xs: (sum(xs) / len(xs)) if xs else 0.0  # noqa: E731
        dn = mean(dn_parts)
        dt_diff = mean(dt_diff_parts)
        dt_prod = mean(dt_prod_parts)
        dt = dt_diff if form == "difference" else dt_prod
        dc = 0.0  # nothing resolved mid-run; see the post-hoc fold
        return {
            "kind": "drift",
            "cycle": cycle,
            "agent_id": agent_id,
            "d_narrative": dn,
            "d_temporal": dt,
            "d_temporal_difference": dt_diff,
            "d_temporal_product": dt_prod,
            "d_confidence": dc,
            "d_total": dn + dt + dc,
            "market_divergence": mean(divergence_parts),
            "low_evidence": True,
        }

    def _emit_baseline_drift(
        self,
        emit,
        cycle: int,
        baseline_probs: dict[str, dict[str, float]],
        snap_map: dict[str, MarketSnapshot],
        price_history: dict[str, list[float]],
    ) -> None:
        prev = self._prev_baseline_probs_map
        if cycle >= 2 and prev:
            form = self.config.metrics.temporal_drift_form
            for bkind, probs in baseline_probs.items():
                prev_probs = prev.get(bkind, {})
                dt_diff_parts: list[float] = []
                dt_prod_parts: list[float] = []
                divergence_parts: list[float] = []
                for cid, p_curr in probs.items():
                    if cid in snap_map:
                        divergence_parts.append(abs(p_curr - snap_map[cid].yes_price))
                    p_prev = prev_probs.get(cid)
                    history = price_history.get(cid, [])
                    if p_prev is None or len(history) < 2:
                        continue
                    m_prev, m_curr = history[-2], history[-1]
                    dt_diff_parts.append(
                        temporal_drift(p_prev, p_curr, m_prev, m_curr, "difference")
                    )
                    dt_prod_parts.append(
                        temporal_drift(p_prev, p_curr, m_prev, m_curr, "product")
                    )
                mean = lambda xs: (sum(xs) / len(xs)) if xs else 0.0  # noqa: E731
                dt_diff = mean(dt_diff_parts)
                dt_prod = mean(dt_prod_parts)
                dt = dt_diff if form == "difference" else dt_prod
                emit(
                    {
                        "kind": "drift",
                        "cycle": cycle,
                        "agent_id": reporting.BASELINE_PREFIX + bkind,
                        "d_narrative": 0.0,
                        "d_temporal": dt,
                        "d_temporal_difference": dt_diff,
                        "d_temporal_product": dt_prod,
                        "d_confidence": 0.0,
                        "d_total": dt,
                        "market_divergence": mean(divergence_parts),
                        "low_evidence": True,
                    }
                )
        self._prev_baseline_probs_map = baseline_probs


def _read_checkpoint(path: Path) -> dict | None:
    """A checkpoint's payload, or None if it is missing, torn, or written
    before checkpoints held byte offsets (it cannot be resumed)."""
    try:
        ckpt = json.loads(path.read_bytes())
        valid = (
            isinstance(ckpt["next_cycle"], int)
            and isinstance(ckpt["events_bytes"], int)
            and all(
                isinstance(a["state"], dict) and isinstance(a["ledger_bytes"], int)
                for a in ckpt["agents"].values()
            )
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
