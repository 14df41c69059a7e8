"""Market snapshots from live HTTP, recorded replay, or seeded synthesis.

All three sources emit the same immutable ``MarketSnapshot`` value, so the
rest of the engine never knows where prices came from. Replay and synthesis
are deterministic; live fetching is rate-limited and validates prices
instead of clamping them.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import time
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import (
    CorruptRecord,
    InvalidParameters,
    MalformedResponse,
    NetworkError,
    PriceOutOfRange,
    UnsortedFeed,
)
from .timeutil import SYNTHETIC_START, from_iso, to_iso

_MASK64 = (1 << 64) - 1

AUTH_ENV_VAR = "DRIFTMARK_MARKET_AUTH"
ENDPOINT_ENV_VAR = "DRIFTMARK_MARKET_ENDPOINT"


class Liquidity(str, Enum):
    HIGH = "high"
    MEDIUM = "medium"
    LOW = "low"


class Risk(str, Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"


class Domain(str, Enum):
    POLITICAL = "political"
    ECONOMIC = "economic"
    CULTURAL = "cultural"
    TECHNOLOGICAL = "technological"


class Horizon(str, Enum):
    SHORT = "short"
    MEDIUM = "medium"
    LONG = "long"


@dataclass(frozen=True)
class EventCategory:
    risk: Risk
    domain: Domain
    horizon: Horizon


# A quoted price is 0 or at least this: a bet's expected return scales with
# 1/price, which must stay finite.
MIN_POSITIVE_PRICE = 1e-6


@dataclass(frozen=True)
class MarketSnapshot:
    condition_id: str
    question: str
    yes_price: float
    no_price: float
    liquidity_tier: Liquidity
    end_time: datetime
    observed_at: datetime

    def validate(self, spread_tolerance: float = 0.02, resolved: bool = False) -> "MarketSnapshot":
        for name, price in (("yes_price", self.yes_price), ("no_price", self.no_price)):
            if not (0.0 <= price <= 1.0):
                raise PriceOutOfRange(f"{name} {price} outside [0,1]")
            if 0.0 < price < MIN_POSITIVE_PRICE:
                raise PriceOutOfRange(
                    f"{name} {price} is positive but below {MIN_POSITIVE_PRICE}"
                )
        if abs(self.yes_price + self.no_price - 1.0) > spread_tolerance:
            raise PriceOutOfRange(
                f"yes+no = {self.yes_price + self.no_price:.4f} deviates from 1 "
                f"beyond tolerance {spread_tolerance}"
            )
        if not resolved and self.observed_at > self.end_time:
            raise PriceOutOfRange("observed_at is after end_time for an unresolved market")
        return self


@dataclass(frozen=True)
class ResolvedOutcome:
    condition_id: str
    outcome: int  # 1 = YES, 0 = NO
    resolved_at: datetime


def snapshot_to_record(s: MarketSnapshot) -> dict:
    return {
        "condition_id": s.condition_id,
        "question": s.question,
        "yes_price": s.yes_price,
        "no_price": s.no_price,
        "liquidity_tier": s.liquidity_tier.value,
        "end_time": to_iso(s.end_time),
        "observed_at": to_iso(s.observed_at),
    }


def snapshot_from_record(data: dict) -> MarketSnapshot:
    """The snapshot of a feed record; a ``condition_id`` or ``question``
    that is not a string is a ``TypeError``."""
    cid, question = data["condition_id"], data["question"]
    if type(cid) is not str or type(question) is not str:
        raise TypeError(f"condition_id {cid!r} and question {question!r} must be strings")
    return MarketSnapshot(
        condition_id=cid,
        question=question,
        yes_price=float(data["yes_price"]),
        no_price=float(data["no_price"]),
        liquidity_tier=Liquidity(data["liquidity_tier"]),
        end_time=from_iso(data["end_time"]),
        observed_at=from_iso(data["observed_at"]),
    )


# --- live fetch ---------------------------------------------------------------


class RateLimiter:
    """Token bucket; ``acquire`` blocks until a token is available."""

    def __init__(self, rate_per_sec: float = 2.0, capacity: int = 2):
        self.rate = rate_per_sec
        self.capacity = capacity
        self._tokens = float(capacity)
        self._last = time.monotonic()

    def acquire(self) -> None:
        while True:
            now = time.monotonic()
            self._tokens = min(self.capacity, self._tokens + (now - self._last) * self.rate)
            self._last = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return
            time.sleep((1.0 - self._tokens) / self.rate)


def fetch_snapshot(
    endpoint: str,
    condition_id: str,
    *,
    rate_limiter: RateLimiter | None = None,
    spread_tolerance: float = 0.02,
    timeout: float = 10.0,
) -> MarketSnapshot:
    """GET one snapshot from a price API.

    The response body must be a JSON object with the feed-record fields
    (``observed_at`` is overridden with receipt time). The auth header, if
    any, comes from the ``DRIFTMARK_MARKET_AUTH`` environment variable. A
    refused connection, a timeout or a status of 500 or above is a
    ``NetworkError``; any other status but 200, or a bad body, is a
    ``MalformedResponse``.
    """
    # Imported here: they pull in ssl, socket and email, which no other
    # source needs.
    import http.client
    import urllib.error
    import urllib.request
    from urllib.parse import urlencode, urlsplit

    if rate_limiter is not None:
        rate_limiter.acquire()
    headers = {}
    auth = os.environ.get(AUTH_ENV_VAR)
    if auth:
        headers["Authorization"] = auth
    query = urlencode({"condition_id": condition_id})
    url = f"{endpoint}{'&' if urlsplit(endpoint).query else '?'}{query}"
    try:
        with urllib.request.urlopen(
            urllib.request.Request(url, headers=headers), timeout=timeout
        ) as resp:
            status, body = resp.status, resp.read()
    except urllib.error.HTTPError as exc:
        with exc:
            status, body = exc.code, b""
    except (OSError, http.client.HTTPException) as exc:
        raise NetworkError(f"fetch failed: {exc}") from exc
    if status >= 500:
        raise NetworkError(f"server error {status}")
    if status != 200:
        raise MalformedResponse(f"unexpected status {status}")
    try:
        data = json.loads(body)
        snapshot = MarketSnapshot(
            condition_id=str(data["condition_id"]),
            question=str(data["question"]),
            yes_price=float(data["yes_price"]),
            no_price=float(data["no_price"]),
            liquidity_tier=Liquidity(data["liquidity_tier"]),
            end_time=from_iso(data["end_time"]),
            observed_at=datetime.now(tz=SYNTHETIC_START.tzinfo),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise MalformedResponse(f"bad response body: {exc}") from exc
    return snapshot.validate(spread_tolerance)


# --- replay -------------------------------------------------------------------


def _is_multinomial(record: dict) -> bool:
    if record.get("outcome_count", 2) != 2:
        return True
    outcomes = record.get("outcomes")
    return isinstance(outcomes, list) and len(outcomes) != 2


def replay_feed(
    feed_file: str | Path,
    *,
    spread_tolerance: float = 0.02,
    skipped_multinomial: list[int] | None = None,
) -> Iterator[MarketSnapshot]:
    """Yield snapshots from a JSONL feed in timestamp order.

    Deterministic: two replays of the same file produce identical streams.
    Raises ``UnsortedFeed`` on a timestamp regression and ``CorruptRecord``
    (with the 1-based line number) on anything unparseable or on a market
    listed twice at one ``observed_at``. The agent protocol is binary
    YES/NO, so multinomial records are skipped; pass a list as
    ``skipped_multinomial`` to collect their line numbers.
    """
    prev: datetime | None = None
    # The markets seen at ``prev``.
    seen: set[str] = set()
    with open(feed_file, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
                if not isinstance(record, dict):
                    raise TypeError("not a JSON object")
                if _is_multinomial(record):
                    if skipped_multinomial is not None:
                        skipped_multinomial.append(line_no)
                    continue
                snapshot = snapshot_from_record(record)
                snapshot.validate(spread_tolerance)
            except (json.JSONDecodeError, KeyError, ValueError, TypeError, PriceOutOfRange) as exc:
                raise CorruptRecord(line_no, str(exc)) from exc
            if prev is not None and snapshot.observed_at < prev:
                raise UnsortedFeed(f"timestamp regression at line {line_no}")
            if snapshot.observed_at != prev:
                prev, seen = snapshot.observed_at, set()
            elif snapshot.condition_id in seen:
                raise CorruptRecord(
                    line_no, f"market {snapshot.condition_id} is listed twice at {to_iso(prev)}"
                )
            seen.add(snapshot.condition_id)
            yield snapshot


# A feed line and an outcomes line as ``json.dumps`` with compact separators
# writes ``snapshot_to_record`` and the outcome's record: keys in their order,
# strings through ``encode_basestring_ascii``, and ``%r`` and ``%d`` as a finite
# ``float``'s and an ``int``'s own repr. The writers check that each value is
# one of those before they open the file.
_FEED_LINE = (
    '{"condition_id":%s,"question":%s,"yes_price":%r,"no_price":%r,'
    '"liquidity_tier":%s,"end_time":%s,"observed_at":%s}\n'
)
_OUTCOME_LINE = '{"condition_id":%s,"outcome":%d,"resolved_at":%s}\n'
_LIQUIDITY_TEXT = {tier: encode_basestring_ascii(tier.value) for tier in Liquidity}


class _JsonText(dict):
    """JSON text by string or timestamp, each encoded once per file."""

    def __missing__(self, value: str | datetime) -> str:
        text = value if type(value) is str else to_iso(value)
        encoded = self[value] = encode_basestring_ascii(text)
        return encoded


def feed_lines(snapshots: Iterable[MarketSnapshot]) -> Iterator[str]:
    """Each snapshot's feed line, ``snapshot_to_record`` of it. A
    ``condition_id`` or ``question`` that is not a ``str``, or a price that
    is not a finite ``float``, is a ``ValueError`` naming the snapshot."""
    text = _JsonText()
    for n, s in enumerate(snapshots):
        cid, question, yes, no = s.condition_id, s.question, s.yes_price, s.no_price
        if not (
            type(cid) is str and type(question) is str
            and type(yes) is float and type(no) is float
            and math.isfinite(yes) and math.isfinite(no)
        ):
            raise ValueError(
                f"snapshot {n}: condition_id {cid!r} and question {question!r} must be "
                f"strings, and yes_price {yes!r} and no_price {no!r} finite floats"
            )
        yield _FEED_LINE % (
            text[cid], text[question], yes, no, _LIQUIDITY_TEXT[s.liquidity_tier],
            text[s.end_time], text[s.observed_at],
        )


def save_feed(snapshots: Iterable[MarketSnapshot], path: str | Path) -> None:
    """Write ``snapshots`` as a JSONL feed through ``feed_lines``; a snapshot
    it refuses is a ``ValueError`` raised before the file is opened."""
    text = "".join(feed_lines(snapshots))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def save_outcomes(outcomes: Iterable[ResolvedOutcome], path: str | Path) -> None:
    """Write ``outcomes`` as JSONL. A ``condition_id`` that is not a ``str``,
    or an ``outcome`` that is not the ``int`` 0 or 1, is a ``ValueError``
    naming the outcome, raised before the file is opened."""
    text = _JsonText()
    lines = []
    for n, o in enumerate(outcomes):
        cid, outcome = o.condition_id, o.outcome
        if type(cid) is not str or type(outcome) is not int or outcome not in (0, 1):
            raise ValueError(
                f"outcome {n}: condition_id {cid!r} must be a string and outcome "
                f"{outcome!r} the int 0 or 1"
            )
        lines.append(_OUTCOME_LINE % (text[cid], outcome, text[o.resolved_at]))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(lines))


def load_outcomes(path: str | Path) -> list[ResolvedOutcome]:
    """One outcome per market: a line that is not an object whose
    ``outcome`` is the JSON integer 0 or 1, or that names a market an
    earlier line resolved, is a ``CorruptRecord`` naming it."""
    outcomes = []
    seen: dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                data = json.loads(line)
                outcome = data.get("outcome") if isinstance(data, dict) else None
                if type(outcome) is not int or outcome not in (0, 1):
                    raise ValueError("not an object whose outcome is 0 or 1")
                cid = data["condition_id"]
                if cid in seen:
                    raise ValueError(f"condition_id {cid!r} already resolved on line {seen[cid]}")
                seen[cid] = line_no
                outcomes.append(
                    ResolvedOutcome(
                        condition_id=cid,
                        outcome=outcome,
                        resolved_at=from_iso(data["resolved_at"]),
                    )
                )
            except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                raise CorruptRecord(line_no, str(exc)) from exc
    return outcomes


# --- synthesis ------------------------------------------------------------------

_QUESTION_TEMPLATES = {
    Domain.POLITICAL: "Will the election in district {i:05d} be won by the incumbent?",
    Domain.ECONOMIC: "Will the market index {i:05d} close higher this period?",
    Domain.CULTURAL: "Will the award {i:05d} go to the favorite nominee?",
    Domain.TECHNOLOGICAL: "Will the product launch {i:05d} ship on schedule?",
}

_HORIZON_SPAN = {
    Horizon.SHORT: timedelta(days=3),
    Horizon.MEDIUM: timedelta(days=30),
    Horizon.LONG: timedelta(days=365),
}

_RISK_BANDS = {
    # Bands of yes_price consistent with the risk classification on
    # min(yes, 1-yes): low >= 0.45, high < 0.15, medium in between.
    # Margins of 0.035 keep the class stable under the price-walk noise.
    Risk.LOW: ((0.485, 0.515),),
    Risk.MEDIUM: ((0.19, 0.41), (0.59, 0.81)),
    Risk.HIGH: ((0.02, 0.11), (0.89, 0.98)),
}


@dataclass(frozen=True)
class SyntheticFeed:
    snapshots: list[MarketSnapshot]
    outcomes: list[ResolvedOutcome]
    # Latent per-market truth, keyed by condition_id; exposed for calibration
    # checks, never written to feed files.
    true_probs: dict[str, float] = field(default_factory=dict)


def feed_cycles(snapshots: Iterable[MarketSnapshot]) -> Iterator[list[MarketSnapshot]]:
    """A feed's cycles in order, each a run of snapshots that share their
    ``observed_at``. ``replay_feed`` refuses a timestamp regression and
    ``generate_synthetic`` emits its snapshots step by step, so each run is a
    whole cycle."""
    for _, cycle in groupby(snapshots, attrgetter("observed_at")):
        yield list(cycle)


def _condition_id(seed: int, index: int) -> str:
    import hashlib

    h = hashlib.sha256(f"synthetic:{seed}:{index}".encode()).hexdigest()
    return "0x" + h[:40]


def _choice_cdf(p: list[float]) -> tuple[float, ...]:
    """The CDF numpy's ``Generator.choice(len(p), p=p)`` searches,
    ``cumsum(p) / cumsum(p)[-1]``. For one draw, choice takes
    ``searchsorted(cdf, rng.random(), side="right")``, which is
    ``bisect_right`` of this: the same index and the same next draw, without
    choice's checks of ``p`` on every call."""
    cdf = np.cumsum(p)
    return tuple(float(x) for x in cdf / cdf[-1])


_LIQUIDITY_TIERS = (Liquidity.HIGH, Liquidity.MEDIUM, Liquidity.LOW)
_LIQUIDITY_CDF = _choice_cdf([0.5, 0.3, 0.2])


def _draw_yes_band(rng: np.random.Generator, risk: Risk) -> float:
    bands = _RISK_BANDS[risk]
    band = bands[int(rng.integers(len(bands)))] if len(bands) > 1 else bands[0]
    return float(rng.uniform(band[0], band[1]))


def generate_synthetic(
    seed: int,
    n_markets: int,
    steps: int,
    category_mix: dict[EventCategory, float] | None = None,
    *,
    interval_seconds: int = 3600,
    start: datetime = SYNTHETIC_START,
) -> SyntheticFeed:
    """Seeded synthetic market feed with resolved outcomes.

    Each market draws a latent probability p*; quotes follow a bounded
    mean-reverting walk around p* and the outcome is Bernoulli(p*) at the
    end. Per-market substreams make the feed invariant to n_markets order
    and identical across calls with the same seed.

    Without a ``category_mix``, p* is uniform on [0.02, 0.98] and risk falls
    out of the price bands; with a mix, the category triple is drawn first
    and p* is sampled inside the matching risk band.
    """
    if n_markets < 1 or steps < 2:
        raise InvalidParameters(f"need n_markets >= 1 and steps >= 2, got {n_markets}, {steps}")
    if interval_seconds < 1:
        raise InvalidParameters("interval_seconds must be positive")
    mix: list[tuple[EventCategory, float]] | None = None
    if category_mix:
        total = float(sum(category_mix.values()))
        if total <= 0:
            raise InvalidParameters("category_mix weights must sum to a positive value")
        mix = [(cat, w / total) for cat, w in category_mix.items()]

    seed = int(seed) & _MASK64
    interval = timedelta(seconds=interval_seconds)
    domains = list(Domain)
    horizons = list(Horizon)
    snapshots_by_step: list[list[MarketSnapshot]] = [[] for _ in range(steps)]
    times = [start + t * interval for t in range(steps)]
    outcomes: list[ResolvedOutcome] = []
    true_probs: dict[str, float] = {}

    for i in range(n_markets):
        rng = np.random.default_rng([seed, i])
        if mix is None:
            p_star = float(rng.uniform(0.02, 0.98))
            domain = domains[int(rng.integers(len(domains)))]
            horizon = horizons[int(rng.integers(len(horizons)))]
        else:
            u = float(rng.random())
            acc = 0.0
            cat = mix[-1][0]
            for candidate, w in mix:
                acc += w
                if u < acc:
                    cat = candidate
                    break
            p_star = _draw_yes_band(rng, cat.risk)
            domain, horizon = cat.domain, cat.horizon

        cid = _condition_id(seed, i)
        true_probs[cid] = p_star
        question = _QUESTION_TEMPLATES[domain].format(i=i)
        liquidity = _LIQUIDITY_TIERS[bisect.bisect_right(_LIQUIDITY_CDF, rng.random())]
        end_time = max(start + _HORIZON_SPAN[horizon], times[-1] + interval)

        # ``min(max(x, lo), hi)`` clips a float as numpy's clip does, but for
        # NaN and a signed zero at a bound; no draw here yields either.
        eps = 0.0
        for step, observed_at in zip(snapshots_by_step, times):
            eps = min(max(0.8 * eps + rng.normal(0.0, 0.015), -0.03), 0.03)
            yes = min(max(p_star + eps, 0.01), 0.99)
            spread = rng.uniform(-0.004, 0.004)
            no = min(max(1.0 - yes + spread, 0.0), 1.0)
            step.append(
                MarketSnapshot(
                    condition_id=cid,
                    question=question,
                    yes_price=yes,
                    no_price=no,
                    liquidity_tier=liquidity,
                    end_time=end_time,
                    observed_at=observed_at,
                )
            )
        outcome = 1 if float(rng.random()) < p_star else 0
        outcomes.append(ResolvedOutcome(condition_id=cid, outcome=outcome, resolved_at=end_time))

    flat = [s for step in snapshots_by_step for s in step]
    return SyntheticFeed(snapshots=flat, outcomes=outcomes, true_probs=true_probs)


# --- categorization -------------------------------------------------------------

# First keyword match wins; scan order below is the rule order.
DEFAULT_DOMAIN_KEYWORDS: tuple[tuple[str, Domain], ...] = (
    ("election", Domain.POLITICAL),
    ("senate", Domain.POLITICAL),
    ("president", Domain.POLITICAL),
    ("policy", Domain.POLITICAL),
    ("market", Domain.ECONOMIC),
    ("inflation", Domain.ECONOMIC),
    ("index", Domain.ECONOMIC),
    ("gdp", Domain.ECONOMIC),
    ("award", Domain.CULTURAL),
    ("film", Domain.CULTURAL),
    ("music", Domain.CULTURAL),
    ("celebrity", Domain.CULTURAL),
    ("launch", Domain.TECHNOLOGICAL),
    ("rocket", Domain.TECHNOLOGICAL),
    ("chip", Domain.TECHNOLOGICAL),
    (" ai ", Domain.TECHNOLOGICAL),
)


def categorize_event(
    question: str,
    end_time: datetime,
    now: datetime,
    yes_price: float,
    rules: tuple[tuple[str, Domain], ...] = DEFAULT_DOMAIN_KEYWORDS,
    *,
    risk_high_below: float = 0.15,
    risk_low_at_least: float = 0.45,
    horizon_short_days: float = 7.0,
    horizon_medium_days: float = 90.0,
) -> EventCategory:
    """Deterministic, total classification of one market.

    Domain: first keyword match in ``rules`` wins, default economic.
    Horizon: end-now under 7 days short, under 90 medium, else long.
    Risk on min(yes, no): under 0.15 high, at least 0.45 low, else medium.
    """
    if not rules:
        raise InvalidParameters("rules table must be non-empty")
    lowered = question.lower()
    domain = Domain.ECONOMIC
    for keyword, dom in rules:
        if keyword in lowered:
            domain = dom
            break

    remaining = end_time - now
    if remaining < timedelta(days=horizon_short_days):
        horizon = Horizon.SHORT
    elif remaining < timedelta(days=horizon_medium_days):
        horizon = Horizon.MEDIUM
    else:
        horizon = Horizon.LONG

    tail = min(yes_price, 1.0 - yes_price)
    if tail < risk_high_below:
        risk = Risk.HIGH
    elif tail >= risk_low_at_least:
        risk = Risk.LOW
    else:
        risk = Risk.MEDIUM
    return EventCategory(risk=risk, domain=domain, horizon=horizon)
