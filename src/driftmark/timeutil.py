"""UTC timestamp helpers.

All timestamps in feeds, logs, and reports are timezone-aware UTC datetimes
serialized as ISO-8601 with a trailing ``Z``. Replay and synthetic runs use
virtual time derived from the feed, never the wall clock, so serialized
output is reproducible byte for byte.
"""

from __future__ import annotations

from datetime import datetime, timezone

UTC = timezone.utc

# Virtual-time origin for synthetic feeds and the default contract timestamp.
EPOCH = datetime(1970, 1, 1, tzinfo=UTC)
SYNTHETIC_START = datetime(2026, 1, 1, tzinfo=UTC)


def utc_now() -> datetime:
    return datetime.now(UTC)


def to_iso(ts: datetime) -> str:
    """Render as ``YYYY-MM-DDTHH:MM:SSZ`` (seconds precision)."""
    if ts.tzinfo is None:
        raise ValueError("naive datetime; timestamps must be UTC-aware")
    return ts.astimezone(UTC).strftime("%Y-%m-%dT%H:%M:%SZ")


def from_iso(text: str) -> datetime:
    """Parse ISO-8601; accepts both ``Z`` and explicit offsets."""
    cleaned = text.replace("Z", "+00:00")
    ts = datetime.fromisoformat(cleaned)
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=UTC)
    return ts.astimezone(UTC)
