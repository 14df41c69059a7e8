"""The one durable write: a whole file at once, or not at all."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path: Path, data: bytes) -> None:
    """Write ``data`` to a tmp file beside ``path``, fsync it, then rename it
    over ``path``: a crash leaves the old file or the new one, never a torn
    one. The tmp name ends in ``.tmp``, which neither ``cycle_*.json`` nor
    ``*.jsonl`` matches."""
    tmp = path.with_suffix(".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
