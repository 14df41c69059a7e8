"""Event-log aggregation: leaderboards, diagnostics, category breakdowns.

The event log is the source of truth; everything here is a pure fold over
its lines, so re-running aggregation on the same log always reproduces the
same reports. Scoring uses every resolved market without filtering;
unresolved markets contribute only to drift and divergence.
"""

from __future__ import annotations

import json
from collections.abc import Generator
from dataclasses import dataclass, fields
from itertools import repeat
from pathlib import Path
from typing import Callable, ClassVar, Iterable, Iterator

from .agents import expected_return
from .config import EngineConfig
from .errors import CorruptLog, DegenerateInput, IoError, LengthMismatch
from .market_data import MIN_POSITIVE_PRICE
from .metrics import (
    confidence_drifts,
    confidence_reasoning_alignment,
    hhis,
    reasoning_quality,
    risk_adjusted_return,
    score_forecasts,
    var_cvar,
)
from .schema import BLOCK_LISTS, decode

BASELINE_PREFIX = "baseline:"


def format_cents(cents: int) -> str:
    """Currency with two decimals and thousands separators, sign after $."""
    return f"${cents / 100:,.2f}"


# The C scanner behind ``json.loads``, called without its per-line wrapper.
_scan_once = json.JSONDecoder().scan_once


def decode_lines(lines: Iterable[bytes]) -> Iterator[dict]:
    """Decode JSONL lines, as a binary file yields them, to event dicts.

    A line is strict UTF-8. A value the C scanner reads up to nothing or
    exactly ``"\\n"`` is taken as is; every other line goes to
    ``json.loads``, so each value and error message is that of
    ``json.loads`` on the line. Blank lines are skipped but counted. A
    line that is not UTF-8, not JSON or not a JSON object is a
    ``CorruptLog`` naming it; so is one whose event the consumer refuses
    by throwing a ``CorruptLog`` that names no line into this generator,
    as ``fold_events`` does."""
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode()
        except UnicodeDecodeError as exc:
            raise CorruptLog(line_no, f"not UTF-8: {exc}") from exc
        try:
            ev, end = _scan_once(line, 0)
            exact = line[end:] == "\n" or end == len(line)
        except (StopIteration, ValueError, RecursionError):
            exact = False
        if not exact:
            if not line.strip():
                continue
            try:
                ev = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise CorruptLog(line_no, str(exc)) from exc
        if type(ev) is not dict:
            raise CorruptLog(line_no, f"a {type(ev).__name__}, not a JSON object")
        try:
            yield ev
        except CorruptLog as exc:
            if exc.line_no is not None:
                raise
            raise CorruptLog(line_no, exc.reason) from exc.__cause__


def iter_events(source: str | Path | Iterable[dict]) -> Iterator[dict]:
    """Yield event dicts from a JSONL path, read by ``decode_lines``, or
    pass an iterable through. A path that cannot be opened is an
    ``IoError`` naming it."""
    if isinstance(source, (str, Path)):
        try:
            fh = open(source, "rb")
        except OSError as exc:
            raise IoError(f"cannot read event log {source}: {exc.strerror or exc}") from exc
        with fh:
            yield from decode_lines(fh)
    else:
        yield from source


def fold_events(add: Callable[[dict], None], events: Iterable[dict]) -> dict | None:
    """Check each event against its kind's table (``schema.decode``), feed
    it to ``add`` and return the last one (None for none). An event the
    schema or the fold refuses with a ``ValueError`` is a ``CorruptLog``
    naming the event, thrown into ``events`` when it is a generator, so that
    one reading a log (``decode_lines``, and ``iter_events`` of a path)
    names its line; events passed in any other way name none."""
    ev = None
    for ev in events:
        try:
            add(decode(ev))
        except ValueError as exc:
            event = json.dumps(ev, default=repr)[:200]
            error = CorruptLog(None, f"{exc} in event {event}")
            error.__cause__ = exc
            if isinstance(events, Generator):
                events.throw(error)
            raise error from exc
    return ev


@dataclass
class LeaderboardRow:
    agent_id: str
    pnl_cents: int
    unique_users: int | None
    agent_count: int
    avg_input_tokens: float | None
    avg_output_tokens: float | None
    mean_brier: float | None
    ece: float | None
    d_total: float | None
    hhis: float | None

    FIELDS: ClassVar[tuple[str, ...]]  # the fields' names, in order

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


LeaderboardRow.FIELDS = tuple(f.name for f in fields(LeaderboardRow))


@dataclass
class AgentDiagnostics:
    agent_id: str
    strategy_freq: dict[str, float]
    mean_abs_dprob: float | None
    mean_abs_dedge: float | None
    mean_abs_der_cents: float | None
    success_cycles: int
    failure_cycles: int


@dataclass
class CategoryRow:
    agent_id: str
    dimension: str  # risk | domain | horizon | liquidity
    value: str
    n_scored: int
    mean_brier: float | None
    pnl_cents: int


@dataclass
class AggregateReport:
    leaderboard: list[LeaderboardRow]
    diagnostics: list[AgentDiagnostics]
    categories: list[CategoryRow]
    final_reports: dict[str, dict]
    sort_key: str = "hhis"

    def to_dict(self) -> dict:
        return {
            "sort_key": self.sort_key,
            "leaderboard": [r.to_dict() for r in self.leaderboard],
            "diagnostics": [dict(vars(d)) for d in self.diagnostics],
            "categories": [dict(vars(c)) for c in self.categories],
            "final_reports": self.final_reports,
        }


# Reference bet for the expected-return adjustment-depth diagnostic.
_REFERENCE_BET_CENTS = 15_000


class EventFold:
    """Single pass over the event log gathering per-subject state."""

    def __init__(self):
        self.meta: dict[str, dict] = {}  # condition_id -> market_meta
        self.agent_meta: dict[str, dict] = {}
        self.prices: dict[str, dict[int, float]] = {}  # cid -> cycle -> yes price
        # subject -> cid -> [(cycle, prob, confidence, in_tok, out_tok)]
        self.forecasts: dict[str, dict[str, list[tuple]]] = {}
        # subject -> [(d_narrative, d_temporal, d_temporal_product)]
        self.drifts: dict[str, list[tuple]] = {}
        # subject -> a row per ledger entry: its values and its cycle, in the
        # sorted order of their keys
        self.ledgers: dict[str, list[tuple]] = {}
        # subject -> [(condition_id, basis_delta_cents, price)] of its OPEN entries
        self.opens: dict[str, list[tuple]] = {}
        # subject -> [(cycle, condition_id, cash_delta_cents)] of its CLOSE and RESOLVE entries
        self.realized: dict[str, list[tuple]] = {}
        self.accepted: dict[str, list[bool]] = {}  # subject -> each batch's accepted
        self.failures: dict[str, int] = {}
        self.outcomes: dict[str, int] = {}
        self.cycles_seen: set[int] = set()
        self.agents_seen: list[str] = []
        self.baselines_seen: list[str] = []
        # (cycle, condition_ids) of the last snapshots block: the markets a
        # forecasts or baselines block's values are of, by place
        self.markets: tuple[int, list[str]] | None = None
        # agent -> (markets, probabilities, traces) of its last forecasts
        # block of a cycle that ended without an agent_failure from it: what
        # its drift compares against; and of the cycle being folded
        self.previous: dict[str, tuple[list[str], list[float], list[str]]] = {}
        self.turns: dict[str, tuple[list[str], list[float], list[str]]] = {}
        self.last_cycle_end = 0  # the cycle of the last cycle_end

    def consume(self, events: Iterable[dict]) -> "EventFold":
        fold_events(self.add, events)
        return self

    def add(self, ev: dict) -> None:
        """Fold one event of the shape ``schema.decode`` checks. This is the
        one way into the fold: the engine calls it for each event it writes,
        blocks included, and ``report`` and resume for each event they read.
        Kinds are tested from the most frequent down. The fold refuses only
        values that do not fit others: an OPEN's (below) and a block's
        markets (``block_markets``). A cycle_end makes each agent's
        forecasts block of its cycle, which an agent_failure drops, the
        agent's ``previous`` one, in a run and a resume alike."""
        kind = ev["kind"]
        if kind == "ledgers":
            # An OPEN's basis and price are a stake and a win probability.
            for basis, entry_kind, price in zip(
                ev["basis_delta_cents"], ev["entry_kind"], ev["price"]
            ):
                if entry_kind == "OPEN" and not (basis >= 0 and 0.0 < price <= 1.0):
                    raise ValueError(f"an OPEN of basis {basis!r} at price {price!r}")
            self.add_ledgers(
                ev["agent_id"], ev["cycle"], *map(ev.__getitem__, BLOCK_LISTS["ledgers"])
            )
        elif kind == "forecasts":
            markets = self.block_markets(ev)
            self.add_forecasts(
                ev["agent_id"], ev["cycle"], markets, ev["probability"],
                ev["confidence"], ev["input_tokens"], ev["output_tokens"],
            )
            self.turns[ev["agent_id"]] = markets, ev["probability"], ev["trace"]
        elif kind == "baselines":
            self.add_baselines(
                BASELINE_PREFIX + ev["baseline"], ev["cycle"], self.block_markets(ev),
                ev["probability"],
            )
        elif kind == "snapshots":
            self.add_snapshots(ev["cycle"], ev["condition_id"], ev["yes_price"])
        elif kind == "drift":
            self.drifts.setdefault(ev["agent_id"], []).append(
                (ev["d_narrative"], ev["d_temporal"], ev["d_temporal_product"])
            )
        elif kind == "batch":
            self.accepted.setdefault(ev["agent_id"], []).append(ev["accepted"])
        elif kind == "market_meta":
            self.meta[ev["condition_id"]] = ev
        elif kind == "resolution":
            self.outcomes[ev["condition_id"]] = ev["outcome"]
        elif kind == "cycle_end":
            self.previous.update(self.turns)
            self.turns.clear()
            self.last_cycle_end = ev["cycle"]
        elif kind == "agent_failure":
            agent = ev["agent_id"]
            self.failures[agent] = self.failures.get(agent, 0) + 1
            self.turns.pop(agent, None)
        elif kind == "agent_meta":
            agent = ev["agent_id"]
            self.agent_meta[agent] = ev
            if agent not in self.agents_seen:
                self.agents_seen.append(agent)

    def block_markets(self, block: dict) -> list[str]:
        """The markets of a forecasts or baselines block: the first of the
        last snapshots block's, one per value. A block with no snapshots
        block before it, of another cycle than that block's, or with more
        values than that block has markets is a ``ValueError``."""
        kind, cycle, n = block["kind"], block["cycle"], len(block["probability"])
        if self.markets is None:
            raise ValueError(f"a {kind} block before any snapshots block")
        snapshot_cycle, cids = self.markets
        if cycle != snapshot_cycle:
            raise ValueError(
                f"a {kind} block of cycle {cycle} after the snapshots of cycle {snapshot_cycle}"
            )
        if n > len(cids):
            raise ValueError(
                f"a {kind} block holds {n} values, its cycle's snapshots {len(cids)} markets"
            )
        return cids[:n]

    # The blocks, from their lists: only ``add`` calls these. Each folds its
    # rows in order, and a block without rows folds to nothing. A yes price
    # above 0 but below the feed's floor is refused here, as it always was.

    def add_forecasts(
        self, subject: str, cycle: int, condition_ids: list[str], probabilities: list[float],
        confidences: list[int], input_tokens: list[int], output_tokens: list[int],
    ) -> None:
        if not condition_ids:
            return
        if subject not in self.agents_seen:
            self.agents_seen.append(subject)
        by_market = self.forecasts.setdefault(subject, {})
        for cid, p, conf, n_in, n_out in zip(
            condition_ids, probabilities, confidences, input_tokens, output_tokens
        ):
            by_market.setdefault(cid, []).append((cycle, p, conf, n_in, n_out))
        self.cycles_seen.add(cycle)

    def add_baselines(
        self, subject: str, cycle: int, condition_ids: list[str], probabilities: list[float]
    ) -> None:
        if not condition_ids:
            return
        if subject not in self.baselines_seen:
            self.baselines_seen.append(subject)
        by_market = self.forecasts.setdefault(subject, {})
        for cid, p in zip(condition_ids, probabilities):
            by_market.setdefault(cid, []).append((cycle, p, 5, 0, 0))

    def add_ledgers(
        self, subject: str, cycle: int, basis_delta_cents: list[int],
        cash_delta_cents: list[int], condition_ids: list[str], entry_kinds: list[str],
        notes: list[str], prices: list[float], quantities_micro: list[int], seqs: list[int],
        sides: list[str], timestamps: list[str],
    ) -> None:
        """One agent turn's ledger entries, each folded as one row."""
        if not condition_ids:
            return
        rows = self.ledgers.setdefault(subject, [])
        for row in zip(
            basis_delta_cents, cash_delta_cents, condition_ids, repeat(cycle), entry_kinds, notes,
            prices, quantities_micro, seqs, sides, timestamps,
        ):
            basis, cash, cid, _, entry_kind, _, price, *_ = row
            if entry_kind == "OPEN":
                self.opens.setdefault(subject, []).append((cid, basis, price))
            elif entry_kind in ("CLOSE", "RESOLVE"):
                self.realized.setdefault(subject, []).append((cycle, cid, cash))
            rows.append(row)

    def add_snapshots(self, cycle: int, condition_ids: list[str], yes_prices: list[float]) -> None:
        self.markets = (cycle, condition_ids)
        if not condition_ids:
            return
        prices = self.prices
        for cid, yes in zip(condition_ids, yes_prices):
            if 0.0 < yes < MIN_POSITIVE_PRICE:
                raise ValueError(f"yes_price {yes} is positive but below {MIN_POSITIVE_PRICE}")
            prices.setdefault(cid, {})[cycle] = yes
        self.cycles_seen.add(cycle)

    # -- per-subject derivations --

    def strategy(self, subject: str) -> str:
        """The strategy the subject's agent_meta records; "NONE" without one."""
        return self.agent_meta.get(subject, {}).get("strategy", "NONE")

    def score_columns(
        self, subject: str
    ) -> tuple[list[float], list[int], list[float], list[float]]:
        """A subject's forecasts as columns, in log order: probability,
        outcome and confidence of each resolved forecast, and the gap
        |probability - market price| of each forecast with a snapshot."""
        forecasts = self.forecasts.get(subject, {})
        prices = self.prices
        gaps = [
            abs(row[1] - m)
            for cid, rows in forecasts.items()
            if (by_cycle := prices.get(cid)) is not None
            for row in rows
            if (m := by_cycle.get(row[0])) is not None
        ]
        resolved = [
            (rows, outcome)
            for cid, rows in forecasts.items()
            if (outcome := self.outcomes.get(cid)) is not None
        ]
        probs = [row[1] for rows, _ in resolved for row in rows]
        outcomes = [outcome for rows, outcome in resolved for _ in rows]
        confidences = [float(row[2]) for rows, _ in resolved for row in rows]
        return probs, outcomes, confidences, gaps

    def drift_means(self, subject: str) -> tuple[float, float, float]:
        """(mean d_narrative, mean d_temporal, mean product-form d_temporal)."""
        drifts = self.drifts.get(subject, [])
        if not drifts:
            return 0.0, 0.0, 0.0
        dn = sum(d[0] for d in drifts) / len(drifts)
        dt = sum(d[1] for d in drifts) / len(drifts)
        dtp = sum(d[2] for d in drifts) / len(drifts)
        return dn, dt, dtp

    def pnl_cents(self, subject: str) -> int:
        return sum(cash for _, _, cash in self.realized.get(subject, []))

    def pnl_by_cycle(self, subject: str) -> list[int]:
        by_cycle: dict[int, int] = {}
        for cycle, _, cash in self.realized.get(subject, []):
            by_cycle[cycle] = by_cycle.get(cycle, 0) + cash
        for c in self.cycles_seen:
            by_cycle.setdefault(c, 0)
        return [by_cycle[c] for c in sorted(by_cycle)]

    def token_averages(self, subject: str) -> tuple[float | None, float | None]:
        n = 0
        in_sum = 0
        out_sum = 0
        for rows in self.forecasts.get(subject, {}).values():
            for (_, _, _, in_tok, out_tok) in rows:
                n += 1
                in_sum += in_tok
                out_sum += out_tok
        if n == 0:
            return None, None
        return in_sum / n, out_sum / n

    def adjustment_depth(self, subject: str) -> tuple[float | None, float | None, float | None]:
        """Mean |change| between consecutive cycles of probability, yes-side
        edge, and expected return on a fixed reference bet."""
        dprobs: list[float] = []
        dedges: list[float] = []
        ders: list[float] = []
        for cid, rows in self.forecasts.get(subject, {}).items():
            ordered = sorted(rows)
            prices = self.prices.get(cid, {})
            er1 = None  # a priced pair's second return is the next pair's first
            for prev, row in zip(ordered, ordered[1:]):
                p0, p1 = prev[1], row[1]
                dprobs.append(abs(p1 - p0))
                m0, m1 = prices.get(prev[0]), prices.get(row[0])
                if m0 is not None and m1 is not None and 0.0 < m0 and 0.0 < m1:
                    dedges.append(abs((p1 - m1) - (p0 - m0)))
                    # The later return first, as in the per-pair form: a price
                    # expected_return cannot take fails with the same error.
                    er2 = expected_return(p1, _REFERENCE_BET_CENTS, m1)
                    er0 = er1 if er1 is not None else expected_return(p0, _REFERENCE_BET_CENTS, m0)
                    er1 = er2
                    ders.append(abs(er1 - er0))
                else:
                    er1 = None
        mean = lambda xs: (sum(xs) / len(xs)) if xs else None  # noqa: E731
        return mean(dprobs), mean(dedges), mean(ders)


def _risk_rank(risk: str) -> int:
    return {"low": 0, "medium": 1, "high": 2}.get(risk, 1)


def final_reports_from_fold(fold: EventFold, config: EngineConfig) -> dict[str, dict]:
    """Score/drift/risk/composite report per agent and per baseline."""
    out: dict[str, dict] = {}
    for subject in fold.agents_seen + fold.baselines_seen:
        probs, outcomes, confidences, gaps = fold.score_columns(subject)
        score = None
        # Confidence drift of each resolved forecast against the subject's
        # own resolved history (computable only after resolution).
        drifts: list[float] = []
        if probs:
            score = score_forecasts(
                list(zip(probs, outcomes)),
                bins=config.metrics.ece_bins,
                eps=config.metrics.log_likelihood_eps,
            )
            drifts = confidence_drifts(probs, outcomes)
        dn, dt, dtp = fold.drift_means(subject)
        dc = sum(drifts) / len(drifts) if drifts else 0.0
        # d_total must be the exact float sum of its parts; never recompute
        # it from aggregated values elsewhere.
        d_total = dn + dt + dc

        buys = fold.opens.get(subject, [])
        high_buys = [b for b in buys if fold.meta.get(b[0], {}).get("risk") == "high"]
        if buys:
            worst = max(
                (fold.meta.get(b[0], {}).get("risk", "medium") for b in buys),
                key=_risk_rank,
            )
        else:
            worst = "low"
        # VaR and CVaR accompany high risk only.
        var = cvar = None
        if worst == "high":
            var, cvar = 0.0, 0.0
            for _, basis, price in high_buys:
                # Stake-level risk at entry; the fill price is the market's
                # implied win probability for the chosen side.
                v, cv = var_cvar(basis, price, price, config.metrics.var_alpha)
                var += v
                cvar += cv

        correctness = 1.0 - score["brier"] if score else 0.5
        calibration = 1.0 - score["ece"] if score else 0.5
        risk_score = 1.0 - (len(high_buys) / len(buys)) if buys else 1.0
        quality = reasoning_quality(dn, dc)
        alignment: float | None
        try:
            alignment = confidence_reasoning_alignment(
                confidences, [1.0 - value for value in drifts]
            )
        except (DegenerateInput, LengthMismatch):
            alignment = None
        out[subject] = {
            "score": score,
            "drift": {
                "d_narrative": dn,
                "d_temporal": dt,
                "d_confidence": dc,
                "d_total": d_total,
                "market_divergence": sum(gaps) / len(gaps) if gaps else 0.0,
                "d_temporal_product": dtp,
                "low_evidence": False,
            },
            "risk": {
                "risk_category": worst,
                "var": var,
                "cvar": cvar,
                "risk_adjusted_return": risk_adjusted_return(
                    fold.pnl_cents(subject), fold.pnl_by_cycle(subject)
                ),
            },
            "composite": {
                "hhis": hhis(
                    correctness,
                    calibration,
                    d_total,
                    risk_score,
                    quality,
                    config.metrics.hhis_weights,
                ),
                "reasoning_quality": quality,
                "confidence_reasoning_alignment": alignment,
            },
            "pnl_cents": fold.pnl_cents(subject),
        }
    return out


def aggregate(
    source: str | Path | Iterable[dict],
    config: EngineConfig | None = None,
    sort_key: str = "hhis",
) -> AggregateReport:
    """Fold an event log into leaderboard, diagnostics, and category rows."""
    config = config or EngineConfig()
    fold = EventFold().consume(iter_events(source))
    reports = final_reports_from_fold(fold, config)

    rows: list[LeaderboardRow] = []
    diagnostics: list[AgentDiagnostics] = []
    categories: list[CategoryRow] = []

    for subject in fold.agents_seen + fold.baselines_seen:
        rep = reports.get(subject, {})
        score = rep.get("score") or {}
        avg_in, avg_out = fold.token_averages(subject)
        meta = fold.agent_meta.get(subject, {})
        rows.append(
            LeaderboardRow(
                agent_id=subject,
                pnl_cents=rep.get("pnl_cents", 0),
                unique_users=meta.get("unique_users"),
                agent_count=meta.get("agent_count", 1),
                avg_input_tokens=avg_in,
                avg_output_tokens=avg_out,
                mean_brier=score.get("brier"),
                ece=score.get("ece"),
                d_total=rep.get("drift", {}).get("d_total"),
                hhis=rep.get("composite", {}).get("hhis"),
            )
        )
        if subject.startswith(BASELINE_PREFIX):
            continue

        # Every forecast of an agent is of its one strategy.
        freq = {fold.strategy(subject): 1.0} if subject in fold.forecasts else {}
        dprob, dedge, der = fold.adjustment_depth(subject)
        accepted = fold.accepted.get(subject, [])
        success = sum(accepted)
        failure = len(accepted) - success + fold.failures.get(subject, 0)
        diagnostics.append(
            AgentDiagnostics(
                agent_id=subject,
                strategy_freq=freq,
                mean_abs_dprob=dprob,
                mean_abs_dedge=dedge,
                mean_abs_der_cents=der,
                success_cycles=success,
                failure_cycles=failure,
            )
        )

        # Per-category partition of scored forecasts and realized P&L.
        pnl_by_cid: dict[str, int] = {}
        for _, cid, cash in fold.realized.get(subject, []):
            pnl_by_cid[cid] = pnl_by_cid.get(cid, 0) + cash
        # Each market's Brier scores, built once for all four dimensions.
        briers_by_cid: dict[str, list[float]] = {}
        for cid, rows_ in fold.forecasts.get(subject, {}).items():
            outcome = fold.outcomes.get(cid)
            if outcome is not None:
                briers_by_cid[cid] = [(row[1] - outcome) ** 2 for row in rows_]
        for dimension, meta_key in (
            ("risk", "risk"),
            ("domain", "domain"),
            ("horizon", "horizon"),
            ("liquidity", "liquidity"),
        ):
            cells: dict[str, dict] = {}
            for cid in fold.forecasts.get(subject, {}):
                value = fold.meta.get(cid, {}).get(meta_key)
                if value is None:
                    continue
                cell = cells.setdefault(value, {"briers": [], "pnl": 0, "counted": set()})
                cell["briers"].extend(briers_by_cid.get(cid, ()))
                if cid not in cell["counted"]:
                    cell["pnl"] += pnl_by_cid.get(cid, 0)
                    cell["counted"].add(cid)
            for value, cell in sorted(cells.items()):
                briers = cell["briers"]
                categories.append(
                    CategoryRow(
                        agent_id=subject,
                        dimension=dimension,
                        value=value,
                        n_scored=len(briers),
                        mean_brier=(sum(briers) / len(briers)) if briers else None,
                        pnl_cents=cell["pnl"],
                    )
                )

    rows.sort(key=_leaderboard_key(sort_key))
    return AggregateReport(
        leaderboard=rows,
        diagnostics=diagnostics,
        categories=categories,
        final_reports=reports,
        sort_key=sort_key,
    )


def _leaderboard_key(sort_key: str):
    if sort_key == "hhis":
        return lambda r: (-(r.hhis if r.hhis is not None else float("-inf")), r.agent_id)
    if sort_key == "pnl":
        return lambda r: (-r.pnl_cents, r.agent_id)
    if sort_key == "brier":
        return lambda r: (
            r.mean_brier if r.mean_brier is not None else float("inf"),
            r.agent_id,
        )
    raise ValueError(f"unknown sort key {sort_key!r}; use hhis, pnl, or brier")


# --- emission --------------------------------------------------------------------


def emit(report: AggregateReport, fmt: str, destination=None) -> str:
    """Serialize a report as json, csv (leaderboard), or a text table.

    ``destination`` may be a path or a file-like object; None returns the
    string only.
    """
    if fmt == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"
    elif fmt == "csv":
        lines = [",".join(LeaderboardRow.FIELDS)]
        for row in report.leaderboard:
            data = row.to_dict()
            lines.append(
                ",".join("" if data[f] is None else str(data[f]) for f in LeaderboardRow.FIELDS)
            )
        text = "\n".join(lines) + "\n"
    elif fmt == "table":
        text = _text_table(report)
    else:
        raise ValueError(f"unknown format {fmt!r}; use json, csv, or table")

    if destination is None:
        return text
    if hasattr(destination, "write"):
        destination.write(text)
        return text
    try:
        Path(destination).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write report to {destination}: {exc}") from exc
    return text


def _fmt_opt(value, spec: str = ".4f") -> str:
    return "-" if value is None else format(value, spec)


def _text_table(report: AggregateReport) -> str:
    header = (
        f"{'agent':<28} {'pnl':>18} {'users':>8} {'agents':>8} "
        f"{'in_tok':>8} {'out_tok':>8} {'brier':>8} {'ece':>8} {'drift':>8} {'hhis':>8}"
    )
    lines = [f"leaderboard (sorted by {report.sort_key})", header, "-" * len(header)]
    for r in report.leaderboard:
        lines.append(
            f"{r.agent_id:<28} {format_cents(r.pnl_cents):>18} "
            f"{'-' if r.unique_users is None else f'{r.unique_users:,}':>8} "
            f"{r.agent_count:>8,} "
            f"{_fmt_opt(r.avg_input_tokens, ',.0f'):>8} "
            f"{_fmt_opt(r.avg_output_tokens, ',.0f'):>8} "
            f"{_fmt_opt(r.mean_brier):>8} {_fmt_opt(r.ece):>8} "
            f"{_fmt_opt(r.d_total):>8} {_fmt_opt(r.hhis):>8}"
        )
    if report.diagnostics:
        lines.append("")
        lines.append(f"{'agent':<28} {'ok':>5} {'fail':>5} {'|dP|':>9} {'strategies'}")
        for d in report.diagnostics:
            strategies = ", ".join(f"{k}:{v:.2f}" for k, v in d.strategy_freq.items())
            lines.append(
                f"{d.agent_id:<28} {d.success_cycles:>5} {d.failure_cycles:>5} "
                f"{_fmt_opt(d.mean_abs_dprob):>9} {strategies}"
            )
    return "\n".join(lines) + "\n"
