"""The event log's shape, declared once: one table per event kind, naming
every key the engine writes for it besides ``kind`` and each key's type.
``decode`` checks each event read from outside the program before the fold
takes it (``reporting.fold_events``). The engine's own events are not
checked as it writes them: a test holds each one to its kind's table."""

from __future__ import annotations

import math
import sys
from typing import Callable, NamedTuple

from .market_data import Risk
from .simulator import EntryKind, Mode, Side


class Range(NamedTuple):
    """A test of one value, and the same test of every value of a list,
    taken with built-ins over the whole list; both are made from one
    definition of the range."""

    one: Callable[[object], bool]
    every: Callable[[list], bool]


def _between(low: float, high: float, floats: bool = True) -> Range:
    """Numbers in [``low``, ``high``], ints and, unless ``floats`` is
    False, floats. Comparisons refuse NaN, and compare an integer no float
    holds without converting it. Over a list, ``min`` and ``max`` skip a
    NaN, or keep it when it comes first, which the comparisons then refuse;
    once they pass, ``math.isfinite`` finds any NaN left among floats,
    converting only integers a float holds."""

    def every(values: list) -> bool:
        return not values or (
            low <= min(values)
            and max(values) <= high
            and (not floats or all(map(math.isfinite, values)))
        )

    return Range(lambda value: low <= value <= high, every)


def _or_null(r: Range) -> Range:
    """``r``, or null."""
    return Range(
        lambda value: value is None or r.one(value),
        lambda values: r.every([v for v in values if v is not None]),
    )


class Type(NamedTuple):
    """A value is exactly one of ``types`` (a bool is no int) and is
    ``within`` its range (None for any). ``what`` says what a value must be
    in a refusal, and ``name`` names the type in README's table."""

    types: frozenset
    within: Range | None
    what: str
    name: str

    def holds(self, value) -> bool:
        return type(value) in self.types and (self.within is None or self.within.one(value))

    def holds_for_all(self, values: list) -> bool:
        """``holds`` of every value of a list."""
        return self.types.issuperset(map(type, values)) and (
            self.within is None or self.within.every(values)
        )


def one_of(values, what: str | None = None) -> Type:
    """One of ``values``, each of its own type exactly."""
    members = frozenset(values)
    what = what or f"one of {sorted(members)}"
    name = "/".join(sorted(map(str, members)))
    return Type(
        frozenset(map(type, members)), Range(members.__contains__, members.issuperset), what, name
    )


# The largest number a float holds.
_FLOAT_MAX = sys.float_info.max
STR = Type(frozenset((str,)), None, "a string", "str")
INT = Type(
    frozenset((int,)), _between(-_FLOAT_MAX, _FLOAT_MAX, floats=False),
    "an integer within a float's range", "int",
)
NUMBER = Type(
    frozenset((int, float)), _between(-_FLOAT_MAX, _FLOAT_MAX), "a finite number", "number"
)
PROBABILITY = Type(frozenset((int, float)), _between(0.0, 1.0), "in [0, 1]", "probability")
BOOL = Type(frozenset((bool,)), None, "true or false", "bool")
LIST = Type(frozenset((list,)), None, "a list", "list")
OBJECT = Type(frozenset((dict,)), None, "an object", "object")
OBJECT_OR_NULL = Type(frozenset((dict, type(None))), None, "an object or null", "object or null")
INT_OR_NULL = Type(
    frozenset((int, type(None))), _or_null(INT.within), "an integer or null", "int or null"
)


class Table(NamedTuple):
    """A kind's keys held once, in the order ``decode`` checks them, and a
    block kind's parallel lists, one value per market or ledger entry, in
    sorted order, the order its adder in ``reporting.EventFold`` takes."""

    keys: dict[str, Type]
    lists: dict[str, Type] = {}


# Every kind the engine writes, in the order a run first writes each.
TABLES = {
    "run_started": Table({
        "run_id": STR, "seed": INT, "cycles": INT, "mode": one_of(m.value for m in Mode),
        "agent_ids": LIST, "contract_hashes": LIST, "feed_source": OBJECT,
        "cycle_interval_sec": INT,
    }),
    "agent_meta": Table(
        {"agent_id": STR, "agent_count": INT, "strategy": STR, "unique_users": INT_OR_NULL}
    ),
    "cycle_start": Table({"cycle": INT, "time": STR}),
    "market_meta": Table({
        "condition_id": STR, "question": STR, "liquidity": STR,
        "risk": one_of(r.value for r in Risk), "domain": STR, "horizon": STR, "end_time": STR,
    }),
    "snapshots": Table({"cycle": INT}, {
        "condition_id": STR, "no_price": NUMBER, "observed_at": STR, "yes_price": NUMBER,
    }),
    "forecasts": Table({"cycle": INT, "agent_id": STR}, {
        "confidence": INT, "input_tokens": INT, "output_tokens": INT, "probability": PROBABILITY,
        "trace": STR,
    }),
    "drift": Table({
        "cycle": INT, "agent_id": STR, "d_narrative": NUMBER, "d_temporal": NUMBER,
        "d_temporal_difference": NUMBER, "d_temporal_product": NUMBER, "d_confidence": NUMBER,
        "d_total": NUMBER, "market_divergence": NUMBER, "low_evidence": BOOL,
    }),
    "batch": Table({
        "cycle": INT, "agent_id": STR, "accepted": BOOL, "issues": LIST, "wire_violations": LIST,
        "n_decisions": INT, "n_buys": INT,
    }),
    "agent_failure": Table({"cycle": INT, "agent_id": STR, "error": STR}),
    "ledgers": Table({"cycle": INT, "agent_id": STR}, {
        "basis_delta_cents": INT, "cash_delta_cents": INT, "condition_id": STR,
        "entry_kind": one_of(k.value for k in EntryKind), "note": STR, "price": NUMBER,
        "quantity_micro": INT, "seq": INT, "side": one_of(s.value for s in Side), "timestamp": STR,
    }),
    "skip": Table({"cycle": INT, "agent_id": STR, "market_id": STR, "action": STR, "reason": STR}),
    "baselines": Table({"cycle": INT, "baseline": STR}, {"probability": PROBABILITY}),
    "cycle_end": Table({"cycle": INT, "time": STR, "portfolios": OBJECT}),
    # an outcome as ``market_data.load_outcomes`` reads one
    "resolution": Table(
        {"condition_id": STR, "outcome": one_of((0, 1), "0 or 1"), "resolved_at": STR}
    ),
    "final_report": Table({
        "subject": STR, "score": OBJECT_OR_NULL, "drift": OBJECT, "risk": OBJECT,
        "composite": OBJECT, "pnl_cents": INT,
    }),
    "run_completed": Table({"cycles_run": INT}),
}
KINDS = frozenset(TABLES)
BLOCK_LISTS = {kind: table.lists for kind, table in TABLES.items() if table.lists}


def decode(ev: dict) -> dict:
    """``ev``, an event read from outside the program, if it holds exactly
    its kind's keys, each of its type, with a block's lists of one length;
    anything else is a ``ValueError`` naming the kind, the missing or extra
    key, or the key and its value. Nothing is converted: ``"0.5"``, ``5.0``
    for an integer and ``true`` for a number are refused."""
    kind = ev.get("kind")
    table = TABLES.get(kind) if type(kind) is str else None
    if table is None:
        raise ValueError(f"kind {kind!r} is not one this version writes")
    try:
        for key, t in table.keys.items():
            value = ev[key]
            if not t.holds(value):
                raise ValueError(f"{key} {value!r} is not {t.what}")
        first = next(iter(table.lists), None)
        for key, t in table.lists.items():
            values = ev[key]
            if type(values) is not list:
                raise ValueError(f"{key} is not a list")
            if len(values) != len(ev[first]):
                raise ValueError(f"{key} holds {len(values)} values, {first} {len(ev[first])}")
            if not t.holds_for_all(values):
                # Only a refusal looks at each value, to name the first.
                bad = next(v for v in values if not t.holds(v))
                raise ValueError(f"{key} {bad!r} is not {t.what}")
    except KeyError as exc:
        raise ValueError(f"no key {exc}") from None
    if len(ev) > 1 + len(table.keys) + len(table.lists):
        extra = next(k for k in ev if k != "kind" and k not in table.keys and k not in table.lists)
        noun = "block" if table.lists else "event"
        raise ValueError(f"a {kind} {noun} holds {extra!r}, which this version does not write")
    return ev
