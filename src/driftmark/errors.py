"""Exception taxonomy shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine-raised errors."""


# --- configuration ----------------------------------------------------------

class ConfigError(EngineError, ValueError):
    """Config file missing or unreadable, not YAML, or with unknown keys."""


# --- contract ---------------------------------------------------------------

class EmptyTemplate(EngineError):
    pass


class NonPositiveBudget(EngineError):
    pass


class BudgetNotAllowed(EngineError):
    """Token budget outside the configured allowed set and no override given."""


class UnlockedContract(EngineError):
    pass


class MissingPlaceholderValue(EngineError):
    def __init__(self, key: str):
        super().__init__(f"no value for placeholder {{{{{key}}}}}")
        self.key = key


# --- market data ------------------------------------------------------------

class NetworkError(EngineError):
    """Transport-level failure; safe to retry."""

    retryable = True


class MalformedResponse(EngineError):
    pass


class PriceOutOfRange(EngineError):
    pass


class UnsortedFeed(EngineError):
    pass


class CorruptRecord(EngineError):
    def __init__(self, line_no: int, reason: str = ""):
        super().__init__(f"corrupt feed record at line {line_no}: {reason}")
        self.line_no = line_no


class InvalidParameters(EngineError):
    pass


# --- agents -----------------------------------------------------------------

class AgentTimeout(EngineError):
    pass


class MalformedAgentOutput(EngineError):
    pass


class ZeroPrice(EngineError):
    pass


# --- metrics ----------------------------------------------------------------

class EmptyInput(EngineError):
    pass


class LengthMismatch(EngineError):
    pass


class InvalidAlpha(EngineError):
    pass


class WeightsNotNormalized(EngineError):
    pass


class DegenerateInput(EngineError):
    pass


# --- simulator --------------------------------------------------------------

class InsufficientCapital(EngineError):
    pass


class PositionLimitReached(EngineError):
    pass


class AlreadyOpen(EngineError):
    pass


class NoSuchPosition(EngineError):
    pass


class MissingSnapshot(EngineError):
    def __init__(self, condition_id: str):
        super().__init__(f"no snapshot for open position {condition_id}")
        self.condition_id = condition_id


# --- evaluation loop --------------------------------------------------------

class FatalFeedError(EngineError):
    pass


class NoCheckpoint(EngineError):
    pass


class LiveSourceNotResumable(EngineError):
    pass


# --- reporting --------------------------------------------------------------

class CorruptLog(EngineError):
    """An unparseable log line, or a log or ledger that disagrees with the
    checkpoint resume starts from (``line_no`` is then None)."""

    def __init__(self, line_no: int | None, reason: str = ""):
        where = "" if line_no is None else f" at line {line_no}"
        super().__init__(f"corrupt log{where}: {reason}")
        self.line_no = line_no


class IoError(EngineError):
    """Wraps OS-level failures when emitting reports."""
