"""Event-log aggregation: leaderboards, diagnostics, category breakdowns.

The event log is the source of truth; everything here is a pure fold over
its lines, so re-running aggregation on the same log always reproduces the
same reports. Scoring uses every resolved market without filtering;
unresolved markets contribute only to drift and divergence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator

from .agents import expected_return
from .config import EngineConfig
from .errors import CorruptLog, DegenerateInput, IoError, LengthMismatch
from .market_data import Risk
from .metrics import (
    CompositeScores,
    DriftReport,
    RiskReport,
    ScoreReport,
    confidence_drifts,
    confidence_reasoning_alignment,
    drift_report,
    hhis,
    reasoning_quality,
    risk_adjusted_return,
    score_forecasts,
    var_cvar,
)

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
    ``CorruptLog`` naming it."""
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
        yield ev


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


def fold_events(add: Callable[[dict], None], events: Iterable[dict]) -> None:
    """Feed each event to ``add``. An event it cannot take, for a missing
    key or a value of the wrong type, is a ``CorruptLog`` naming the event."""
    for ev in events:
        try:
            add(ev)
        except (KeyError, TypeError, ValueError) as exc:
            what = f"no key {exc}" if isinstance(exc, KeyError) else str(exc)
            event = json.dumps(ev, default=repr)[:200]
            raise CorruptLog(None, f"{what} in event {event}") from exc


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

    FIELDS = (
        "agent_id",
        "pnl_cents",
        "unique_users",
        "agent_count",
        "avg_input_tokens",
        "avg_output_tokens",
        "mean_brier",
        "ece",
        "d_total",
        "hhis",
    )

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


@dataclass
class AgentDiagnostics:
    agent_id: str
    strategy_freq: dict[str, float]
    mean_abs_dprob: float | None
    mean_abs_dedge: float | None
    mean_abs_der_cents: float | None
    success_cycles: int
    failure_cycles: int

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "strategy_freq": self.strategy_freq,
            "mean_abs_dprob": self.mean_abs_dprob,
            "mean_abs_dedge": self.mean_abs_dedge,
            "mean_abs_der_cents": self.mean_abs_der_cents,
            "success_cycles": self.success_cycles,
            "failure_cycles": self.failure_cycles,
        }


@dataclass
class CategoryRow:
    agent_id: str
    dimension: str  # risk | domain | horizon | liquidity
    value: str
    n_scored: int
    mean_brier: float | None
    pnl_cents: int

    def to_dict(self) -> dict:
        return {
            "agent_id": self.agent_id,
            "dimension": self.dimension,
            "value": self.value,
            "n_scored": self.n_scored,
            "mean_brier": self.mean_brier,
            "pnl_cents": self.pnl_cents,
        }


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
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "categories": [c.to_dict() for c in self.categories],
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
        # subject -> cid -> [(cycle, prob, confidence, in_tok, out_tok, strategy)]
        self.forecasts: dict[str, dict[str, list[tuple]]] = {}
        # subject -> [(d_narrative, d_temporal, d_temporal_product)]
        self.drifts: dict[str, list[tuple]] = {}
        self.ledgers: dict[str, list[dict]] = {}
        # subject -> [(condition_id, basis_delta_cents, price)] of its OPEN entries
        self.opens: dict[str, list[tuple]] = {}
        # subject -> [(cycle, condition_id, cash_delta_cents)] of its CLOSE and RESOLVE entries
        self.realized: dict[str, list[tuple]] = {}
        self.batches: dict[str, list[dict]] = {}
        self.failures: dict[str, int] = {}
        self.outcomes: dict[str, int] = {}
        self.cycles_seen: set[int] = set()
        self.agents_seen: list[str] = []
        self.baselines_seen: list[str] = []

    def _subject_forecasts(self, subject: str) -> dict[str, list[tuple]]:
        return self.forecasts.setdefault(subject, {})

    def consume(self, events: Iterable[dict]) -> "EventFold":
        fold_events(self.add, events)
        return self

    def add(self, ev: dict) -> None:
        """Fold one event; the engine calls this as it writes each event.
        Kinds are tested from the most frequent down. Every key the reports
        read later is read here, so an event without one fails in
        ``fold_events``."""
        kind = ev.get("kind")
        if kind == "forecast":
            subject = ev["agent_id"]
            if subject not in self.agents_seen:
                self.agents_seen.append(subject)
            cycle = int(ev["cycle"])
            self._subject_forecasts(subject).setdefault(ev["condition_id"], []).append(
                (
                    cycle,
                    float(ev["probability"]),
                    int(ev.get("confidence", 5)),
                    int(ev.get("input_tokens", 0)),
                    int(ev.get("output_tokens", 0)),
                    ev.get("strategy", "NONE"),
                )
            )
            self.cycles_seen.add(cycle)
        elif kind == "baseline":
            subject = BASELINE_PREFIX + ev["baseline"]
            if subject not in self.baselines_seen:
                self.baselines_seen.append(subject)
            self._subject_forecasts(subject).setdefault(ev["condition_id"], []).append(
                (int(ev["cycle"]), float(ev["probability"]), 5, 0, 0, "NONE")
            )
        elif kind == "ledger":
            agent, entry_kind, cid = ev["agent_id"], ev["entry_kind"], ev["condition_id"]
            cycle, cash = int(ev["cycle"]), ev["cash_delta_cents"]
            if entry_kind == "OPEN":
                self.opens.setdefault(agent, []).append((cid, ev["basis_delta_cents"], ev["price"]))
            elif entry_kind in ("CLOSE", "RESOLVE"):
                self.realized.setdefault(agent, []).append((cycle, cid, cash))
            self.ledgers.setdefault(agent, []).append(ev)
        elif kind == "snapshot":
            cycle = int(ev["cycle"])
            self.prices.setdefault(ev["condition_id"], {})[cycle] = float(ev["yes_price"])
            self.cycles_seen.add(cycle)
        elif kind == "drift":
            self.drifts.setdefault(ev["agent_id"], []).append(
                (ev["d_narrative"], ev["d_temporal"], ev.get("d_temporal_product", 0.0))
            )
        elif kind == "batch":
            self.batches.setdefault(ev["agent_id"], []).append(ev)
        elif kind == "market_meta":
            self.meta[ev["condition_id"]] = ev
        elif kind == "resolution":
            self.outcomes[ev["condition_id"]] = int(ev["outcome"])
        elif kind == "agent_failure":
            self.failures[ev["agent_id"]] = self.failures.get(ev["agent_id"], 0) + 1
        elif kind == "agent_meta":
            self.agent_meta[ev["agent_id"]] = ev
            if ev["agent_id"] not in self.agents_seen:
                self.agents_seen.append(ev["agent_id"])

    # -- per-subject derivations --

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
            for (_, _, _, in_tok, out_tok, _) in rows:
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
        score: ScoreReport | None = None
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
        divergence = sum(gaps) / len(gaps) if gaps else 0.0
        drift = drift_report(dn, dt, dc, divergence, dtp)

        buys = fold.opens.get(subject, [])
        high_buys = [b for b in buys if fold.meta.get(b[0], {}).get("risk") == "high"]
        if buys:
            worst = max(
                (fold.meta.get(b[0], {}).get("risk", "medium") for b in buys),
                key=_risk_rank,
            )
        else:
            worst = "low"
        risk_cat = Risk(worst)
        var = cvar = None
        if risk_cat == Risk.HIGH:
            var, cvar = 0.0, 0.0
            for _, basis, price in high_buys:
                # Stake-level risk at entry; the fill price is the market's
                # implied win probability for the chosen side.
                v, cv = var_cvar(basis, price, price, config.metrics.var_alpha)
                var += v
                cvar += cv
        rar = risk_adjusted_return(fold.pnl_cents(subject), fold.pnl_by_cycle(subject))
        risk = RiskReport(
            risk_category=risk_cat, var=var, cvar=cvar, risk_adjusted_return=rar
        )

        correctness = 1.0 - score.brier if score else 0.5
        calibration = 1.0 - score.ece if score else 0.5
        risk_score = 1.0 - (len(high_buys) / len(buys)) if buys else 1.0
        quality = reasoning_quality(dn, dc)
        alignment: float | None
        try:
            alignment = confidence_reasoning_alignment(
                confidences, [1.0 - value for value in drifts]
            )
        except (DegenerateInput, LengthMismatch):
            alignment = None
        composite = CompositeScores(
            hhis=hhis(
                correctness,
                calibration,
                drift.d_total,
                risk_score,
                quality,
                config.metrics.hhis_weights,
            ),
            reasoning_quality=quality,
            confidence_reasoning_alignment=alignment,
        )
        out[subject] = {
            "score": score.to_dict() if score else None,
            "drift": drift.to_dict(),
            "risk": risk.to_dict(),
            "composite": composite.to_dict(),
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

        strat_counts: dict[str, int] = {}
        total_forecasts = 0
        for rows_ in fold.forecasts.get(subject, {}).values():
            for row in rows_:
                strategy = row[5]
                strat_counts[strategy] = strat_counts.get(strategy, 0) + 1
                total_forecasts += 1
        freq = (
            {k: v / total_forecasts for k, v in sorted(strat_counts.items())}
            if total_forecasts
            else {}
        )
        dprob, dedge, der = fold.adjustment_depth(subject)
        success = sum(1 for b in fold.batches.get(subject, []) if b.get("accepted"))
        failure = (
            sum(1 for b in fold.batches.get(subject, []) if not b.get("accepted"))
            + fold.failures.get(subject, 0)
        )
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
