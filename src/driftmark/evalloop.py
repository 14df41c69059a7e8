"""The closed evaluation loop: lock, baseline, deploy, execute, measure.

A run is fully described by its manifest (seed, contracts, agents, feed,
cycle count, config snapshot). On replay and synthetic sources the event
log is a pure function of the manifest: all timestamps are virtual, agents
derive randomness from the seed, and reports are folds over the log.

One feed source gives a run its cycles, one at a time, whatever its kind.
The state a cycle starts from is built from the log before it alone, so
cycle N's lines are a function of the log through cycle N-1 and cycle N's
snapshots. Every cycle end is checkpointed: a resume cuts the log back to
a checkpoint and builds the state from the kept log, as a fresh run builds
it from its header lines, and the two write the same bytes.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import re
import time as _time
from dataclasses import dataclass, field
from datetime import datetime
from itertools import islice
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Callable, Iterator, NamedTuple, Sequence, TextIO, TypeVar

from . import reporting
from .agents import (
    AGENT_BUILDERS,
    Action,
    CalibrationWindow,
    Decision,
    DecisionBatch,
    ForecastRecord,
    Memory,
    build_agent,
    build_decision_batch,
    hold_decision,
    parse_decision_wire,
    sample_forecast,
    validate_decision_batch,
)
from .baselines import (
    BaselineKind,
    HistoricalFrequency,
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
    contract_from_json,
    instruction_shape,
    lock_contract,
    render_instruction,
    summary_stand_in,
)
from .errors import (
    AlreadyOpen,
    CorruptLog,
    FatalFeedError,
    InvalidParameters,
    IoError,
    LiveSourceNotResumable,
    MalformedAgentOutput,
    NoCheckpoint,
    NoSuchPosition,
    RunExists,
)
from .fileio import write_atomic
from .market_data import (
    ENDPOINT_ENV_VAR,
    Domain,
    EventCategory,
    Horizon,
    MarketSnapshot,
    RateLimiter,
    Risk,
    categorize_event,
    feed_cycles,
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
    temporal_drifts,
    token_set,
)
from .simulator import (
    EntryKind,
    LedgerEntry,
    LedgerWriter,
    Mode,
    Portfolio,
    Side,
    apply_entries,
    resolve_market,
    step,
)
from .timeutil import from_iso, to_iso, utc_now

_MASK64 = (1 << 64) - 1
_T = TypeVar("_T")


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
            feed_source=dict(data["feed_source"]),
            cycle_interval_sec=int(data["cycle_interval_sec"]),
            cycles=int(data["cycles"]),
            metric_config=data["metric_config"],
            started_at=data["started_at"],
            mode=Mode(data["mode"]).value,
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

# A ledger file's line: ``entry_to_record``'s keys in its order, as
# ``json.dumps`` writes them with ``_EVENT_ENCODER``'s separators: strings
# through ``encode_basestring_ascii``, ``%d`` and ``%r`` as ``int``'s and
# ``float``'s own repr. It holds the same bytes because every string is an
# exact ``str``, every count an exact ``int`` and every price a finite
# ``float``: each value is checked where it enters the program (feed, agent
# reply, config, manifest, kept log). ``_LEDGER_FILE_FIELDS`` are the keys
# of its ``%`` fields, in order.
_LEDGER_FILE_LINE = (
    '{"seq":%d,"kind":%s,"condition_id":%s,"cash_delta_cents":%d,"timestamp":%s,'
    '"side":%s,"price":%r,"quantity_micro":%d,"basis_delta_cents":%d,"note":%s}\n'
)
_LEDGER_FILE_FIELDS = tuple(re.findall(r'"(\w+)":%', _LEDGER_FILE_LINE))


# Each baseline kind's, entry kind's and side's text. ``.value`` goes through
# a Python-level descriptor on every read; the members hash and compare as
# their text, so a lookup here does not.
_BASELINE_TEXT = {k: k.value for k in BaselineKind}
_ENTRY_KIND_TEXT = {k: k.value for k in EntryKind}
_SIDE_TEXT = {s: s.value for s in Side}


class _Memo(dict):
    """``fn`` of each key, computed the first time the key is looked up: a
    run's ISO texts of timestamps, timestamps of kept ISO texts, and the JSON
    texts of the strings its ledger file lines repeat."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def event_line(event: dict) -> str:
    """One log line: ``event`` as compact JSON with sorted keys."""
    return _EVENT_ENCODER.encode(event) + "\n"


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


def _kept_entry(agent_id: str, row: tuple, times: _Memo) -> LedgerEntry:
    """The entry of a kept ledgers block's row, whose values the schema has
    checked, with each entry kind, side and timestamp text looked up. A
    timestamp that does not parse, or does not convert to UTC, is a
    ``CorruptLog`` naming its agent and seq."""
    basis, cash, cid, _, kind, note, price, qty, seq, side, ts = row
    try:
        timestamp = times[ts]
    except (ValueError, OverflowError) as exc:
        raise CorruptLog(
            None, f"{agent_id}: ledger entry seq {seq} has timestamp {ts!r}: {exc}"
        ) from exc
    return LedgerEntry(
        seq, EntryKind(kind), cid, cash, timestamp, Side(side), float(price), qty, basis, note,
    )


def _replay(aid: str, portfolio: Portfolio, entries: list[LedgerEntry]) -> Portfolio:
    """``portfolio`` after an agent's kept ledger entries, by one
    ``apply_entries`` call, each entry's seq checked to be the agent's next
    as it is applied. An entry out of order, or one that does not apply, is
    a ``CorruptLog`` naming the agent and the entry's seq, which a broken
    capital invariant's message names itself."""
    seq = portfolio.next_seq

    def in_order() -> Iterator[LedgerEntry]:
        nonlocal seq
        for seq, entry in enumerate(entries, start=portfolio.next_seq):
            if entry.seq != seq:
                raise CorruptLog(
                    None, f"{aid}: ledger entry seq {entry.seq} is not the next seq, {seq}"
                )
            yield entry

    try:
        return apply_entries(portfolio, in_order())
    except AssertionError as exc:
        raise CorruptLog(None, f"{aid}: ledger entry cannot be replayed: {exc}") from exc
    # apply_entries' own errors, or a price it cannot value
    except (AlreadyOpen, NoSuchPosition, ArithmeticError, ValueError) as exc:
        raise CorruptLog(None, f"{aid}: ledger entry seq {seq} cannot be replayed: {exc}") from exc


def _recent_prices(by_cycle: dict[int, float], n: int) -> list[float]:
    """A market's last ``n`` yes prices, oldest first, from the fold's
    prices of it by cycle."""
    recent = list(islice(reversed(by_cycle.values()), n))
    recent.reverse()
    return recent


def _mean(xs: list[float]) -> float:
    return (sum(xs) / len(xs)) if xs else 0.0


def _moves(
    snap_map: dict[str, MarketSnapshot], prices: dict[str, list[float]]
) -> dict[str, tuple[float, float | None]]:
    """Each of the cycle's markets' yes price and its previous price (None
    for a market's first price), from its recent prices, this cycle's last."""
    moves = {}
    for cid, s in snap_map.items():
        history = prices[cid]
        moves[cid] = (s.yes_price, history[-2] if len(history) > 1 else None)
    return moves


def _drift_means(
    curr: dict[str, float],
    prev: dict[str, float],
    moves: dict[str, tuple[float, float | None]],
) -> tuple[tuple[float, float, float], list[str]]:
    """Means over the probabilities ``curr`` of the temporal drift from
    ``prev`` in both forms and of the divergence from the market price, and
    the markets whose temporal drift was taken, in order. ``moves`` is
    ``_moves`` of the cycle, which holds every market of ``curr``."""
    compared: list[str] = []
    dt_diff: list[float] = []
    dt_prod: list[float] = []
    divergence: list[float] = []
    for cid, p_curr in curr.items():
        yes, yes_prev = moves[cid]
        divergence.append(abs(p_curr - yes))
        p_prev = prev.get(cid)
        if p_prev is None or yes_prev is None:
            continue
        compared.append(cid)
        difference, product = temporal_drifts(abs(p_curr - p_prev), abs(yes - yes_prev))
        dt_diff.append(difference)
        dt_prod.append(product)
    return (_mean(dt_diff), _mean(dt_prod), _mean(divergence)), compared


class _Cycle(NamedTuple):
    """One cycle's snapshots and what every agent's turn reads of them."""

    number: int
    now: datetime
    snaps: list[MarketSnapshot]
    snap_map: dict[str, MarketSnapshot]
    # Each snapshot's time texts, and the stand-ins of its instruction's
    # values: its instruction_shape but for the summary's stand-in.
    times: list[dict[str, str]]
    shapes: list[tuple[str, ...]]
    # Each market's yes price and its previous price.
    moves: dict[str, tuple[float, float | None]]
    risk_by_market: dict[str, Risk]
    # Each market's HOLD wire text, and the HOLD decisions by (market,
    # reasoning), which every agent's batch shares.
    hold_texts: dict[str, str]
    holds: dict[tuple[str, str], Decision]


@dataclass
class _Run:
    """What a run carries from cycle to cycle: the log it appends to, and
    the fold of every event written to it, which is all the run remembers
    of what it logged (each market's prices, each subject's forecasts, each
    agent's previous forecasts block, ledger rows and realized P&L) and
    holds each of them once. ``EvalEngine._state`` builds the portfolios and
    categories from the fold, for a fresh run and a resume alike."""

    portfolios: dict[str, Portfolio]
    fold: reporting.EventFold
    # Each agent's token sets of the traces of its last completed turn, by
    # trace text; a trace missing is tokenized from its text.
    trace_tokens: dict[str, dict[str, frozenset[str]]] = field(default_factory=dict)
    # Each market's category, as its market_meta row logs it.
    categories: dict[str, EventCategory] = field(default_factory=dict)
    # The outcomes the historical baseline has seen: none, since outcomes
    # settle only after the last cycle.
    history: HistoricalFrequency = field(default_factory=HistoricalFrequency)
    events: TextIO | None = None
    # ISO text by timestamp. ``to_iso`` is looked up as each run starts, so a
    # wrapper installed on the module's name is the one called.
    iso: _Memo = field(default_factory=lambda: _Memo(to_iso))
    # Each instruction shape's token count: the split of the first
    # instruction rendered of that shape.
    tokens: dict[tuple[tuple[str, ...], str], int] = field(default_factory=dict)

    def emit(self, ev: dict) -> None:
        """Write one event, a block or any other, and fold it."""
        self.events.write(event_line(ev))
        self.fold.add(ev)

    def record(self, cycle: int, agent_id: str, entries: Sequence[LedgerEntry]) -> None:
        """Log an agent turn's entries as one ledgers block; a turn without
        entries logs none."""
        if not entries:
            return
        iso = self.iso
        self.emit({
            "kind": "ledgers", "cycle": cycle, "agent_id": agent_id,
            "basis_delta_cents": [e.basis_delta_cents for e in entries],
            "cash_delta_cents": [e.cash_delta_cents for e in entries],
            "condition_id": [e.condition_id for e in entries],
            "entry_kind": [_ENTRY_KIND_TEXT[e.kind] for e in entries],
            "note": [e.note for e in entries], "price": [e.price for e in entries],
            "quantity_micro": [e.quantity_micro for e in entries],
            "seq": [e.seq for e in entries], "side": [_SIDE_TEXT[e.side] for e in entries],
            "timestamp": [iso[e.timestamp] for e in entries],
        })


def _ledger_lines(rows: list[tuple], strings: _Memo) -> Iterator[str]:
    """The ledger file lines of an agent's ledger rows in the fold, through
    ``_LEDGER_FILE_LINE``. A kept log may hold a price as an integer; it is
    written as the ``float`` its replayed entry holds."""
    for basis, cash, cid, _, kind, note, price, qty, seq, side, ts in rows:
        yield _LEDGER_FILE_LINE % (
            seq, strings[kind], strings[cid], cash, strings[ts], strings[side], float(price),
            qty, basis, strings[note],
        )


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
        if kind == "live":
            ids = list(manifest.feed_source["condition_ids"])
            repeated = next((cid for i, cid in enumerate(ids) if cid in ids[:i]), None)
            if repeated is not None:
                raise InvalidParameters(
                    f"live condition_ids repeat {repeated!r}; a cycle holds each market once"
                )
            if len(ids) < config.agents.batch_size:
                raise InvalidParameters(
                    f"need at least {config.agents.batch_size} markets per cycle, "
                    f"got {len(ids)} live condition_ids"
                )
        for aid in manifest.agent_ids:
            if type(aid) is not str:
                raise InvalidParameters(f"agent id {aid!r} is not a string")
            if aid.split("#", 1)[0] not in AGENT_BUILDERS:
                raise InvalidParameters(f"unknown agent {aid!r}; known: {sorted(AGENT_BUILDERS)}")
        if len({_safe_name(aid) for aid in manifest.agent_ids}) < len(manifest.agent_ids):
            raise InvalidParameters(
                f"agents {','.join(manifest.agent_ids)} repeat an id or a ledger file name; "
                "a second agent of one kind takes a suffix, as in momentum#2"
            )
        self.manifest = manifest
        self.config = config
        self.paths = RunPaths(out_root, manifest.run_id)
        self.contract, self.contract_hash = contracts[digest]
        if not self.contract.locked:
            raise InvalidParameters("contract must be locked")
        self.mode = Mode(manifest.mode)
        # An agent keeps no state: each is built from its id and the seed.
        self.agents = {aid: build_agent(aid, manifest.seed) for aid in manifest.agent_ids}

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

    # -- the feed --

    def _feed(
        self, resume: bool
    ) -> tuple[int, Iterator[list[MarketSnapshot]], list[ResolvedOutcome]]:
        """The run's cycle count, its cycles, each one list of snapshots, and
        the outcomes that settle after the last. A replay or synthetic feed
        is read and checked whole before anything is written: up to the
        manifest's cycle count of its cycles are kept, and each must hold a
        batch of markets. A live feed needs an endpoint, fetches each cycle
        as the run reaches it, and cannot be resumed: its past cycles cannot
        be fetched again."""
        src = self.manifest.feed_source
        if src["kind"] == "live":
            if resume:
                raise LiveSourceNotResumable("live feeds cannot be resumed deterministically")
            endpoint = src.get("endpoint") or os.environ.get(ENDPOINT_ENV_VAR)
            if not endpoint:
                raise FatalFeedError(
                    f"live feed needs an endpoint in the manifest or ${ENDPOINT_ENV_VAR}"
                )
            return self.manifest.cycles, self._live_cycles(endpoint), []
        if src["kind"] == "synthetic":
            feed = generate_synthetic(
                seed=self.manifest.seed,
                n_markets=int(src["n_markets"]),
                steps=self.manifest.cycles,
                interval_seconds=self.manifest.cycle_interval_sec,
            )
            snapshots, outcomes = feed.snapshots, feed.outcomes
        else:
            try:
                snapshots = list(
                    replay_feed(src["feed"], spread_tolerance=self.config.market.spread_tolerance)
                )
            except (OSError, UnicodeDecodeError) as exc:
                raise FatalFeedError(f"cannot read feed {src['feed']}: {exc}") from exc
            try:
                outcomes = load_outcomes(src["outcomes"]) if src.get("outcomes") else []
            except (OSError, UnicodeDecodeError) as exc:
                raise FatalFeedError(f"cannot read outcomes {src['outcomes']}: {exc}") from exc
        cycles = list(islice(feed_cycles(snapshots), self.manifest.cycles))
        batch_size = self.config.agents.batch_size
        # An empty feed's first cycle is as short as can be.
        for n, cycle in enumerate(cycles or [[]], start=1):
            if len(cycle) < batch_size:
                raise InvalidParameters(
                    f"need at least {batch_size} markets per cycle, got {len(cycle)} in cycle {n}"
                )
        return len(cycles), iter(cycles), outcomes

    def _live_cycles(self, endpoint: str) -> Iterator[list[MarketSnapshot]]:
        """Each cycle's snapshots of the manifest's markets, fetched from
        ``endpoint`` through one rate limiter, the manifest's interval apart."""
        market = self.config.market
        limiter = RateLimiter(market.rate_limit_per_sec)
        while True:
            yield [
                fetch_snapshot(
                    endpoint, cid, rate_limiter=limiter,
                    spread_tolerance=market.spread_tolerance, timeout=market.request_timeout_sec,
                )
                for cid in self.manifest.feed_source["condition_ids"]
            ]
            if self.manifest.cycle_interval_sec > 0:
                _time.sleep(self.manifest.cycle_interval_sec)

    # -- checkpointing --

    def _checkpoint_path(self, cycle: int) -> Path:
        return self.paths.checkpoints / f"cycle_{cycle:05d}.json"

    def _ledger_path(self, agent_id: str) -> Path:
        return self.paths.ledgers / f"{_safe_name(agent_id)}.jsonl"

    def _write_checkpoint(self, cycle: int, events_bytes: int) -> None:
        """Record where the boundary after ``cycle`` falls in the log; resume
        rebuilds everything else from the log and the manifest."""
        payload = {"next_cycle": cycle + 1, "events_bytes": events_bytes}
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
    def _read_prefix(path: Path, size: int, add: Callable[[dict], None]) -> tuple[dict, int]:
        """Check that the first ``size`` bytes of the log end a line, feed
        each of those lines, read by ``reporting.decode_lines``, to ``add``
        and return the last one's event ({} for none) and its number. The
        log is left as it is."""
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
            line_no = 0

            def kept() -> Iterator[bytes]:
                nonlocal line_no
                read = 0
                for line in fh:
                    if read == size:
                        return
                    read += len(line)
                    line_no += 1
                    yield line

            last = reporting.fold_events(add, reporting.decode_lines(kept()))
            return last or {}, line_no

    @staticmethod
    def _truncate_lines(path: Path, size: int) -> None:
        """Cut a file to its first ``size`` bytes, checked by ``_read_prefix``."""
        with open(path, "ab") as fh:
            fh.truncate(size)

    def _restore(self, ckpt: dict, run: _Run) -> None:
        """Bring a run with an empty fold to the checkpoint from the kept log
        alone: fold it, check that it ends with the boundary's cycle_end,
        build the state from the fold as a fresh run does (``_state``) and
        check each agent's portfolio against that cycle_end. No agent is
        called. The log is cut back to the checkpoint only once every check
        has passed, so a resume that fails leaves it as it was; no ledger
        file is read, and each is written again at the end of the run."""
        boundary = ckpt["next_cycle"] - 1
        last, line_no = self._read_prefix(self.paths.events, ckpt["events_bytes"], run.fold.add)
        if last.get("kind") != "cycle_end" or last["cycle"] != boundary:
            raise CorruptLog(
                line_no or None, f"the kept log does not end with cycle {boundary}'s cycle_end"
            )
        self._state(run)
        for aid, portfolio in run.portfolios.items():
            if last["portfolios"].get(aid) != _totals(portfolio):
                raise CorruptLog(
                    line_no, f"{aid}: ledger replay disagrees with cycle {boundary}'s cycle_end"
                )
        self._truncate_lines(self.paths.events, ckpt["events_bytes"])

    def _state(self, run: _Run) -> None:
        """Build what the run's next cycle reads beside its fold from the
        fold alone, for a fresh run (the fold of its header lines) and a
        resume (of the kept log) alike: each agent's portfolio, its ledger
        rows replayed by one ``apply_entries`` call with each seq checked
        (``_replay``), and each market's category from its market_meta row,
        which cycle 1 logs. The fold itself gives the next cycle, the one
        after its last cycle_end, and each agent's previous forecasts
        (``EventFold.previous``). No cycle of the feed is read."""
        fold = run.fold
        for cid, meta in fold.meta.items():
            try:
                run.categories[cid] = EventCategory(
                    Risk(meta["risk"]), Domain(meta["domain"]), Horizon(meta["horizon"])
                )
            except ValueError as exc:
                raise CorruptLog(None, f"market_meta of {cid}: {exc}") from exc
        sim = self.config.simulator
        times = _Memo(from_iso)
        for aid in self.manifest.agent_ids:
            # Every row converts before any is replayed.
            entries = [_kept_entry(aid, row, times) for row in fold.ledgers.get(aid, [])]
            fresh = Portfolio.fresh(sim.initial_capital_cents, sim.max_open_positions)
            run.portfolios[aid] = _replay(aid, fresh, entries)

    # -- the run --

    def run(self, resume: bool = False, resume_cycle: int | None = None) -> RunResult:
        if not resume and (self.paths.events.exists() or self.paths.manifest.exists()):
            raise RunExists(
                f"{self.paths.root} already holds a run; resume it or choose another run id"
            )
        total_cycles, cycles, outcomes = self._feed(resume)
        self.paths.ensure()
        # A resume builds its state from the kept log; a fresh run, once the
        # manifest and the contract are saved, from its header lines.
        run = _Run({}, reporting.EventFold())
        if resume:
            self._restore(self._latest_checkpoint(resume_cycle), run)
        else:
            write_atomic(self.paths.manifest, self.manifest.to_json().encode())
            ContractStore(self.paths.contracts).save(self.contract, self.contract_hash)
        run.events = open(self.paths.events, "a" if resume else "w", encoding="utf-8")
        try:
            if not resume:
                self._start(run, total_cycles)
                self._state(run)
            first = run.fold.last_cycle_end + 1
            kept = islice(cycles, first - 1, None)
            for cycle, snaps in zip(range(first, total_cycles + 1), kept):
                self._run_cycle(run, cycle, snaps)
                self._end_cycle(run, cycle)
            self._settle(run, outcomes, total_cycles + 1)
            # Final reports are a fold over the log written so far.
            final = reporting.final_reports_from_fold(run.fold, self.config)
            for subject in sorted(final):
                run.emit({"kind": "final_report", "subject": subject, **final[subject]})
            run.emit({"kind": "run_completed", "cycles_run": total_cycles})
            # Durable before the ledgers and events.sha256 that derive from it.
            run.events.flush()
            os.fsync(run.events.fileno())
        finally:
            run.events.close()
        self._write_ledgers(run.fold)
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

    def _write_ledgers(self, fold: reporting.EventFold) -> None:
        """Write each agent's ledger file, whole, from its rows in the fold;
        an agent that never traded gets an empty one."""
        strings = _Memo(encode_basestring_ascii)
        for aid in self.manifest.agent_ids:
            writer = LedgerWriter(self._ledger_path(aid))
            for line in _ledger_lines(fold.ledgers.get(aid, []), strings):
                writer.append(line)
            writer.sync()

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
            run.emit({
                "kind": "agent_meta", "agent_id": aid, "agent_count": 1,
                "strategy": self.agents[aid].strategy.value, "unique_users": None,
            })

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
        run.emit({
            "kind": "snapshots", "cycle": cycle, "condition_id": [s.condition_id for s in snaps],
            "no_price": [s.no_price for s in snaps],
            "observed_at": [iso[s.observed_at] for s in snaps],
            "yes_price": [s.yes_price for s in snaps],
        })
        snap_map = {s.condition_id: s for s in snaps}
        prices = {
            cid: _recent_prices(run.fold.prices[cid], cfg.volatility_window + 1)
            for cid in snap_map
        }
        times = [
            {"market.end_time": iso[s.end_time], "market.observed_at": iso[s.observed_at]}
            for s in snaps
        ]
        c = _Cycle(
            number=cycle,
            now=snaps[0].observed_at,
            snaps=snaps,
            snap_map=snap_map,
            times=times,
            shapes=[instruction_shape(self.contract, s, "", t)[0] for s, t in zip(snaps, times)],
            moves=_moves(snap_map, prices),
            risk_by_market={
                cid: risk_category(
                    self._category(run, s),
                    price_volatility(prices[cid], cfg.volatility_window),
                    cfg.volatility_threshold,
                )
                for cid, s in snap_map.items()
            },
            hold_texts={},
            holds={},
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
                    aid: _totals(run.portfolios[aid]) for aid in self.manifest.agent_ids
                },
            }
        )

    def _end_cycle(self, run: _Run, cycle: int) -> None:
        """Make the cycle durable: the log flushed, fsynced and checkpointed."""
        run.events.flush()
        # The checkpoint points into the log, so the log is made durable first.
        os.fsync(run.events.fileno())
        self._write_checkpoint(cycle, os.fstat(run.events.fileno()).st_size)

    def _agent_turn(self, run: _Run, c: _Cycle, aid: str) -> None:
        """One agent's cycle: forecasts, drift, its decision batch and the
        simulator step. A failing agent trades a batch of HOLDs."""
        sim = self.config.simulator
        tokens: dict[str, frozenset[str]] = {}
        try:
            records = self._forecasts(run, c, aid)
            previous = run.fold.previous.get(aid)
            if previous and previous[0]:  # a turn with forecasts
                run.emit(self._agent_drift(run, c, aid, records, previous, tokens))
            batch = self._decide(run, c, aid, records)
        except MalformedAgentOutput as exc:
            run.emit(
                {"kind": "agent_failure", "cycle": c.number, "agent_id": aid, "error": str(exc)}
            )
            records = {}
            batch = self._fallback_batch(aid, c)
        result = step(
            run.portfolios[aid],
            batch,
            c.snap_map,
            self.mode,
            sim.edge_delta,
            now=c.now,
            stop_loss=sim.stop_loss_ratio,
            target_win=sim.target_win_ratio,
        )
        run.portfolios[aid] = result.portfolio
        run.record(c.number, aid, result.entries)
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
            run.trace_tokens[aid] = tokens

    def _forecasts(self, run: _Run, c: _Cycle, aid: str) -> dict[str, ForecastRecord]:
        """Sample the agent's forecast of every market, given its memory of
        it, and log them as one block; a turn that fails part-way logs the
        forecasts it made. The fold takes the block after the turn, so it
        still holds the agent's previous probabilities."""
        previous = run.fold.forecasts.get(aid, {})
        # Instructions of one shape split alike, so the run renders one of
        # each shape and looks the count up for the others.
        stand_in = summary_stand_in(run.portfolios[aid].summary())
        tokens = run.tokens
        records: dict[str, ForecastRecord] = {}
        try:
            for s, times, values in zip(c.snaps, c.times, c.shapes):
                shape = values, stand_in  # instruction_shape(contract, s, summary, times)
                n_in = tokens.get(shape)
                if n_in is None:
                    n_in = tokens[shape] = len(
                        render_instruction(self.contract, s, stand_in, times).split()
                    )
                cid = s.condition_id
                rows = previous.get(cid)
                memory = Memory(c.moves[cid][1], rows[-1][1] if rows else None)
                records[cid] = sample_forecast(
                    self.agents[aid], s, self.contract.token_budget, cycle_index=c.number,
                    input_tokens=n_in, memory=memory,
                )
        finally:
            if records:
                made = records.values()
                run.emit({
                    "kind": "forecasts", "cycle": c.number, "agent_id": aid,
                    "confidence": [r.confidence for r in made],
                    "input_tokens": [r.input_tokens for r in made],
                    "output_tokens": [r.output_tokens for r in made],
                    "probability": [r.probability for r in made],
                    "trace": [r.reasoning_trace for r in made],
                })
        return records

    def _decide(
        self, run: _Run, c: _Cycle, aid: str, records: dict[str, ForecastRecord]
    ) -> DecisionBatch:
        """Build, parse, validate and log the agent's decision batch; a
        rejected batch falls back to HOLDs. The agent's calibration window
        is its last realized P&Ls in the fold."""
        cfg = self.config.agents
        realized = run.fold.realized.get(aid, [])
        window = CalibrationWindow(
            tuple(cash for _, _, cash in realized[-cfg.calibration_window_size:]),
            cfg.calibration_window_size,
        )
        open_ids = {p.condition_id for p in run.portfolios[aid].open_positions}
        wire = build_decision_batch(
            self.agents[aid],
            records,
            c.snaps,
            window,
            open_ids,
            risk_by_market=c.risk_by_market,
            max_open_positions=self.config.simulator.max_open_positions,
            cfg=cfg,
            hold_texts=c.hold_texts,
        )
        batch, violations = parse_decision_wire(
            wire, agent_id=aid, produced_at=c.now, lenient=cfg.lenient_json, holds=c.holds
        )
        validation = validate_decision_batch(batch, set(c.snap_map) | open_ids, window, cfg)
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
        return batch if validation.ok else self._fallback_batch(aid, c)

    def _agent_drift(
        self,
        run: _Run,
        c: _Cycle,
        aid: str,
        records: dict[str, ForecastRecord],
        previous: tuple[list[str], list[float], list[str]],
        tokens: dict[str, frozenset[str]],
    ) -> dict:
        """The agent's drift against its ``previous`` forecasts, the fold's;
        fills ``tokens`` with the token sets of the traces it compares, by
        trace text."""
        cached = run.trace_tokens.get(aid, {})
        markets, probabilities, traces = previous
        means, compared = _drift_means(
            {cid: rec.probability for cid, rec in records.items()},
            dict(zip(markets, probabilities)),
            c.moves,
        )
        trace_of = dict(zip(markets, traces))
        dn_parts: list[float] = []
        for cid in compared:
            trace = trace_of[cid]
            prev_set = cached.get(trace)
            if prev_set is None:
                prev_set = token_set(trace)
            trace = records[cid].reasoning_trace
            curr_set = tokens[trace] = token_set(trace)
            dn_parts.append(narrative_drift_sets(prev_set, curr_set))
        return self._drift_event(c.number, aid, means, _mean(dn_parts))

    def _baselines(self, run: _Run, c: _Cycle) -> None:
        """Log every baseline's forecasts from the snapshots and timestamps
        the agents saw, one block per baseline kind, then each baseline's
        drift from its forecasts of the previous cycle, which the fold
        holds."""
        cfg = self.config.baselines
        probs: dict[str, dict[str, float]] = {k.value: {} for k in BaselineKind}
        folded = run.fold.forecasts
        prev = {
            kind: {
                cid: rows[-1][1]
                for cid, rows in folded.get(reporting.BASELINE_PREFIX + kind, {}).items()
                if rows[-1][0] == c.number - 1
            }
            for kind in probs
        }
        for s in c.snaps:
            forecasts = (
                market_baseline(s, cfg.market_use_mid),
                uniform_baseline(s),
                historical_frequency_baseline(self._category(run, s), run.history, snapshot=s),
                heuristic_baseline(s, cfg.heuristic_favorite_prob, cfg.heuristic_longshot_prob),
            )
            for bf in forecasts:
                probs[_BASELINE_TEXT[bf.kind]][s.condition_id] = bf.probability
        for kind, curr in probs.items():
            run.emit({
                "kind": "baselines", "cycle": c.number, "baseline": kind,
                "probability": list(curr.values()),
            })
        if c.number > 1:
            for kind, curr in probs.items():
                means, _ = _drift_means(curr, prev[kind], c.moves)
                run.emit(self._drift_event(c.number, reporting.BASELINE_PREFIX + kind, means))

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
        """Log each outcome, then settle every agent's positions in their
        markets, in the outcomes' order, as one ledgers block per agent,
        after the last cycle."""
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
            entries = []
            for outcome in outcomes:
                run.portfolios[aid], entry = resolve_market(run.portfolios[aid], outcome)
                if entry is not None:
                    entries.append(entry)
            run.record(cycle, aid, entries)

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

    def _fallback_batch(self, agent_id: str, c: _Cycle) -> DecisionBatch:
        """``agents.batch_size`` HOLDs on known markets, the cycle's shared
        ones; triggers still fire inside step()."""
        size = self.config.agents.batch_size
        return DecisionBatch(
            decisions=tuple(
                hold_decision(c.holds, s.condition_id, "fallback") for s in c.snaps[:size]
            ),
            overall_reasoning="fallback after failure",
            agent_id=agent_id,
            produced_at=c.now,
        )



def _read_checkpoint(path: Path) -> dict | None:
    """A checkpoint's payload, or None if it is missing, torn, or written
    before checkpoints held byte offsets (it cannot be resumed). Other keys,
    such as the agent states and ledger offsets that older checkpoints
    hold, are ignored."""
    try:
        ckpt = json.loads(path.read_bytes())
        valid = isinstance(ckpt["next_cycle"], int) and isinstance(ckpt["events_bytes"], int)
    except (OSError, ValueError, LookupError, TypeError):
        return None
    return ckpt if valid else None


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


def _read_run_file(path: Path, parse: Callable[[str], _T]) -> _T:
    """``parse`` of the text of a file resume and ``verify`` start from: the
    manifest or a stored contract. A missing, unreadable or malformed one is
    a ``NoCheckpoint`` naming it."""
    try:
        return parse(path.read_text(encoding="utf-8"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise NoCheckpoint(f"cannot read {path}: {exc}") from exc


def resume_run(out_root: str | Path, run_id: str, at_cycle: int | None = None) -> RunResult:
    """Resume an interrupted run from its latest (or given) checkpoint."""
    paths = RunPaths(out_root, run_id)
    manifest = _read_run_file(paths.manifest, RunManifest.from_json)
    config = config_from_dict(manifest.metric_config)
    store = ContractStore(paths.contracts)
    contracts = {
        digest: _read_run_file(store.path_for(digest), contract_from_json)
        for digest in manifest.contract_hashes
    }
    engine = EvalEngine(manifest, config, out_root, contracts)
    return engine.run(resume=True, resume_cycle=at_cycle)


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    events_ok: bool
    contracts: dict[str, bool]
    messages: tuple[str, ...]


def verify_run(out_root: str | Path, run_id: str) -> VerifyReport:
    """Recompute the event-log hash and every stored contract digest."""
    paths = RunPaths(out_root, run_id)
    messages: list[str] = []
    events_ok = False
    if not paths.events.exists() or not paths.events_sha.exists():
        messages.append("event log or recorded hash missing")
    else:
        # bytes that are not UTF-8 are a hash that cannot match
        recorded = paths.events_sha.read_bytes().decode("utf-8", "replace").strip()
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
    manifest_ok = True
    if paths.manifest.exists():
        try:
            manifest = _read_run_file(paths.manifest, RunManifest.from_json)
        except NoCheckpoint as exc:
            manifest_ok = False
            messages.append(str(exc))
        else:
            for digest in manifest.contract_hashes:
                if digest not in contracts:
                    contracts[digest] = False
                    messages.append(f"manifest contract {digest[:12]}… not stored")
    ok = events_ok and manifest_ok and all(contracts.values()) and bool(contracts)
    return VerifyReport(ok=ok, events_ok=events_ok, contracts=contracts, messages=tuple(messages))
