"""Locked forecasting instructions.

A contract freezes the instruction template an evaluation run is bound to.
Locking returns an immutable value plus a digest over its canonical
serialization; any later byte change to the stored contract is detectable.

Hashing uses a length-prefixed field encoding (field order fixed below) so
no formatting choice can produce colliding serializations. The stored file
``<digest>.contract.json`` holds the same fields as compact JSON in the
same order.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from datetime import datetime
from functools import lru_cache
from pathlib import Path

from .errors import (
    BudgetNotAllowed,
    EmptyTemplate,
    MissingPlaceholderValue,
    NonPositiveBudget,
    UnlockedContract,
)
from .fileio import write_atomic
from .timeutil import EPOCH, from_iso, to_iso

# Field order is part of the hash contract; never reorder.
_HASH_FIELDS = (
    "template_text",
    "version",
    "target_kind",
    "horizon_cycles",
    "token_budget",
    "probability_format",
    "created_at",
)

DEFAULT_ALGORITHM = "sha256"
DEFAULT_TOKEN_BUDGETS = (500, 1000, 2000, 4000)

_PLACEHOLDER = re.compile(r"\{\{\s*([A-Za-z0-9_.]+)\s*\}\}")


@dataclass(frozen=True)
class PromptContract:
    template_text: str
    version: str
    target_kind: str = "binary"
    horizon_cycles: int = 1
    token_budget: int = 1000
    probability_format: str = "scalar_0_1"
    created_at: datetime = EPOCH
    locked: bool = False


@dataclass(frozen=True)
class ContractHash:
    digest: str  # 64 lowercase hex chars
    algorithm_id: str = DEFAULT_ALGORITHM


def canonical_bytes(contract: PromptContract) -> bytes:
    """Length-prefixed UTF-8 encoding of the hash fields in fixed order."""
    parts: list[bytes] = []
    for name in _HASH_FIELDS:
        value = getattr(contract, name)
        if isinstance(value, datetime):
            value = to_iso(value)
        raw = str(value).encode("utf-8")
        parts.append(f"{len(raw)}:".encode("ascii") + raw)
    return b"".join(parts)


def compute_hash(contract: PromptContract, algorithm_id: str = DEFAULT_ALGORITHM) -> ContractHash:
    h = hashlib.new(algorithm_id)
    h.update(canonical_bytes(contract))
    return ContractHash(digest=h.hexdigest(), algorithm_id=algorithm_id)


def lock_contract(
    template_text: str,
    version: str,
    token_budget: int,
    *,
    horizon_cycles: int = 1,
    created_at: datetime | None = None,
    algorithm_id: str = DEFAULT_ALGORITHM,
    allowed_budgets: tuple[int, ...] = DEFAULT_TOKEN_BUDGETS,
    allow_any_budget: bool = False,
) -> tuple[PromptContract, ContractHash]:
    """Freeze a template and return (locked contract, digest).

    ``created_at`` defaults to the epoch sentinel so repeated locks of the
    same content yield the same digest; pass a real timestamp to bind the
    contract to its creation time (which then participates in the hash).
    """
    if not template_text:
        raise EmptyTemplate("template_text must be non-empty")
    if token_budget <= 0:
        raise NonPositiveBudget(f"token_budget must be positive, got {token_budget}")
    if not allow_any_budget and token_budget not in allowed_budgets:
        raise BudgetNotAllowed(
            f"token_budget {token_budget} not in {allowed_budgets}; "
            "set allow_any_budget to override"
        )
    if horizon_cycles <= 0:
        raise NonPositiveBudget(f"horizon_cycles must be positive, got {horizon_cycles}")
    contract = PromptContract(
        template_text=template_text,
        version=version,
        horizon_cycles=horizon_cycles,
        token_budget=token_budget,
        created_at=created_at if created_at is not None else EPOCH,
        locked=True,
    )
    return contract, compute_hash(contract, algorithm_id)


# The placeholder ``render_instruction_parts`` leaves open.
_SUMMARY_KEY = "portfolio.summary"


def render_instruction(
    contract: PromptContract,
    market,
    portfolio_summary: str = "",
    extra: dict[str, str] | None = None,
) -> str:
    """Substitute ``{{key}}`` placeholders; pure function of its inputs.

    Available keys: ``market.*`` snapshot fields, ``portfolio.summary``,
    ``contract.version`` / ``contract.token_budget``, plus any ``extra``.
    """
    if extra and _SUMMARY_KEY in extra:
        portfolio_summary = extra[_SUMMARY_KEY]
    return portfolio_summary.join(render_instruction_parts(contract, market, extra))


def render_instruction_parts(
    contract: PromptContract, market, extra: dict[str, str] | None = None
) -> list[str]:
    """Render every placeholder except ``{{portfolio.summary}}``, which is
    left as a gap between the returned parts.

    ``summary.join(parts)`` is byte for byte the instruction
    ``render_instruction`` gives for that summary, for any template. The
    market's times are formatted only when ``extra`` does not hold their
    text.
    """
    values = _values(contract, market, extra)
    pieces = _pieces(contract.template_text)
    parts: list[str] = []
    current = [pieces[0]]
    for i in range(1, len(pieces), 2):
        key = pieces[i]
        if key == _SUMMARY_KEY:
            parts.append("".join(current))
            current = []
        elif key in values:
            current.append(values[key])
        else:
            raise MissingPlaceholderValue(key)
        current.append(pieces[i + 1])
    parts.append("".join(current))
    return parts


@lru_cache(maxsize=64)
def _pieces(template_text: str) -> tuple[str, ...]:
    """The template's literal texts and placeholder keys, alternating."""
    return tuple(_PLACEHOLDER.split(template_text))


def _values(contract: PromptContract, market, extra: dict[str, str] | None) -> dict[str, str]:
    """Each placeholder's text but the summary's: the market's and the
    contract's fields, overridden by ``extra``."""
    if not contract.locked:
        raise UnlockedContract("render requires a locked contract")
    values = {
        "market.condition_id": market.condition_id,
        "market.question": market.question,
        "market.yes_price": f"{market.yes_price:.4f}",
        "market.no_price": f"{market.no_price:.4f}",
        "market.liquidity_tier": market.liquidity_tier.value,
        "contract.version": contract.version,
        "contract.token_budget": str(contract.token_budget),
        **(extra or {}),
    }
    if "market.end_time" not in values:
        values["market.end_time"] = to_iso(market.end_time)
    if "market.observed_at" not in values:
        values["market.observed_at"] = to_iso(market.observed_at)
    return values


def summary_stand_in(text: str) -> str:
    """A text that splits as ``text`` does wherever it is put: one ``x``
    per whitespace token, joined by spaces, with a space before or after
    where ``text`` starts or ends with whitespace ("" for ""). Any template
    rendered with it holds as many tokens as with ``text``."""
    if not text:
        return ""
    head = " " if text[0].isspace() else ""
    tail = " " if text[-1].isspace() else ""
    return head + " ".join(["x"] * len(text.split())) + tail


def instruction_shape(
    contract: PromptContract,
    market,
    summary: str = "",
    extra: dict[str, str] | None = None,
) -> tuple[tuple[str, ...], str]:
    """The instruction's shape: the ``summary_stand_in`` of every value
    ``render_instruction_parts`` substitutes, in the template's order, and
    the summary's (``extra``'s summary, as ``render_instruction`` takes it).

    The template rendered with each value's stand-in in its place holds as
    many whitespace tokens as rendered with the values: a stand-in is
    empty, starts with whitespace and ends with whitespace exactly when its
    value does, and holds as many tokens. That text is a function of the
    contract and the shape, so two instructions of one contract with equal
    shapes split into as many tokens. An unknown placeholder is the
    ``MissingPlaceholderValue`` ``render_instruction`` raises.
    """
    if extra and _SUMMARY_KEY in extra:
        summary = extra[_SUMMARY_KEY]
    values = _values(contract, market, extra)
    stand_ins = []
    for key in _pieces(contract.template_text)[1::2]:
        if key == _SUMMARY_KEY:
            continue
        if key not in values:
            raise MissingPlaceholderValue(key)
        stand_ins.append(summary_stand_in(values[key]))
    return tuple(stand_ins), summary_stand_in(summary)


# --- storage ----------------------------------------------------------------


def contract_to_json(contract: PromptContract, algorithm_id: str = DEFAULT_ALGORITHM) -> str:
    """Compact JSON with the hash fields in canonical order."""
    payload = {name: getattr(contract, name) for name in _HASH_FIELDS}
    payload["created_at"] = to_iso(contract.created_at)
    payload["algorithm_id"] = algorithm_id
    return json.dumps(payload, separators=(",", ":"))


def contract_from_json(text: str) -> tuple[PromptContract, ContractHash]:
    data = json.loads(text)
    expected = set(_HASH_FIELDS) | {"algorithm_id"}
    if set(data) != expected:
        raise ValueError(f"contract file keys {sorted(data)} do not match {sorted(expected)}")
    # Reject non-canonical spellings that would round-trip to the same
    # digest (hashlib is case-insensitive; fromisoformat accepts any
    # date-time separator).
    if not re.fullmatch(r"[a-z0-9_]+", data["algorithm_id"]):
        raise ValueError(f"non-canonical algorithm_id {data['algorithm_id']!r}")
    if to_iso(from_iso(data["created_at"])) != data["created_at"]:
        raise ValueError(f"non-canonical created_at {data['created_at']!r}")
    contract = PromptContract(
        template_text=data["template_text"],
        version=data["version"],
        target_kind=data["target_kind"],
        horizon_cycles=int(data["horizon_cycles"]),
        token_budget=int(data["token_budget"]),
        probability_format=data["probability_format"],
        created_at=from_iso(data["created_at"]),
        locked=True,
    )
    return contract, compute_hash(contract, data["algorithm_id"])


class ContractStore:
    """Append-only directory of locked contracts, one file per digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)

    def path_for(self, digest: str) -> Path:
        return self.root / f"{digest}.contract.json"

    def save(self, contract: PromptContract, chash: ContractHash) -> Path:
        if not contract.locked:
            raise UnlockedContract("only locked contracts can be stored")
        path = self.path_for(chash.digest)
        if not path.exists():
            self.root.mkdir(parents=True, exist_ok=True)
            write_atomic(path, contract_to_json(contract, chash.algorithm_id).encode())
        return path

    def load(self, digest: str) -> tuple[PromptContract, ContractHash]:
        text = self.path_for(digest).read_text(encoding="utf-8")
        return contract_from_json(text)

    def verify_stored(self, digest: str) -> bool:
        """Recompute the digest from file bytes; False on any tampering."""
        try:
            contract, recomputed = self.load(digest)
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            return False
        return recomputed.digest == digest and contract.locked

    def digests(self) -> list[str]:
        return sorted(p.name.split(".")[0] for p in self.root.glob("*.contract.json"))


# Default instruction shipped with the engine. Double-brace placeholders are
# substituted per market and cycle; everything else is locked verbatim.
DEFAULT_TEMPLATE = """You are a trading agent operating on binary prediction markets.

Reply with ONE raw JSON object and nothing else (no markdown fences, no prose):
{"decisions":[{"marketId":"<conditionId>","action":"BUY_YES|BUY_NO|CLOSE|HOLD","amount":<dollars>,"reasoning":"<why>"}],"reasoning":"<overall>"}

Hard rules:
- The decisions array holds EXACTLY 30 items each reply; pad with HOLD on distinct known markets.
- marketId must be a conditionId given in context; no market may appear twice.
- amount (dollars) is required for BUY_YES/BUY_NO and must be between 100 and 200.
- closeAmount (1-100, percent) is optional for CLOSE; omitted means close all.
- Probabilities are scalars in [0,1]. Respect the token budget of {{contract.token_budget}} tokens.

Sizing and selection:
- edge = calibrated_probability - market_price; expected_return = prob*bet*(1/price-1) - (1-prob)*bet.
- Rank candidate trades by holistic score, then expected_return, then edge, then confidence.
- Close any position whose pnl/cost ratio hits -0.05 (stop) or +0.50 (target).

Market under review:
  [{{market.condition_id}}] {{market.question}}
  YES={{market.yes_price}} NO={{market.no_price}} ends {{market.end_time}} liquidity={{market.liquidity_tier}}

Portfolio state:
  {{portfolio.summary}}
"""
