"""In-memory span tracer that wraps driftmark's public names from outside.

Only the traced worker imports this module, so untraced runs load no
wrappers. A span has a name, a start, an end and a parent (the span that
was open when it started); spans are aggregated per (name, parent) as a
call count, total time and self time (total minus the time covered by child
spans). Generator functions get one span per generator, whose time is the
sum of the intervals spent inside ``next()``, so it covers iteration and
not only the call that creates the generator. The consumer's own work
between items is not charged to the generator.
"""

from __future__ import annotations

import time


class Tracer:
    def __init__(self) -> None:
        # Open spans, innermost last: [name, time covered by children].
        self.stack: list[list] = []
        # (name, parent) -> [calls, total_s, self_s]
        self.stats: dict[tuple[str, str], list] = {}
        self.counters: dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    def _record(self, name: str, parent: str, calls: int, total: float, child: float) -> None:
        row = self.stats.get((name, parent))
        if row is None:
            row = self.stats[(name, parent)] = [0, 0.0, 0.0]
        row[0] += calls
        row[1] += total
        row[2] += total - child

    def span(self, name: str):
        """Context manager for a span around a block of the benchmark's own code."""
        return _Span(self, name)

    def wrap(self, name: str, fn, after=None, on_error=None):
        """Return ``fn`` wrapped in a span. ``after(result, args)`` runs on
        return, outside the span; ``on_error(exc)`` runs on an exception."""
        stack = self.stack
        clock = time.perf_counter
        record = self._record

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                record(name, parent, 1, dt, frame[1])
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn):
        """Wrap a generator function so its span covers every ``next()``."""
        tracer = self

        def traced(*args, **kwargs):
            parent = tracer.stack[-1][0] if tracer.stack else ""
            return tracer._iterate(name, parent, fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _iterate(self, name: str, parent: str, inner):
        stack = self.stack
        clock = time.perf_counter
        total = 0.0
        child = 0.0
        try:
            while True:
                frame = [name, 0.0]
                stack.append(frame)
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    dt = clock() - t0
                    stack.pop()
                    if stack:
                        stack[-1][1] += dt
                    total += dt
                    child += frame[1]
                yield item
        finally:
            inner.close()
            self._record(name, parent, 1, total, child)

    def absorb(self, rows: list[dict], counters: dict) -> None:
        """Add another tracer's ``dump()`` and counters to this one."""
        for r in rows:
            self._record(r["name"], r["parent"], r["calls"], r["total_s"],
                         r["total_s"] - r["self_s"])
        for name, n in counters.items():
            self.count(name, n)

    # -- read-out --

    def self_s(self, *names: str) -> float:
        return sum(row[2] for (n, _), row in self.stats.items() if n in names)

    def calls(self, *names: str) -> int:
        return sum(row[0] for (n, _), row in self.stats.items() if n in names)

    def dump(self) -> list[dict]:
        return [
            {"name": n, "parent": p, "calls": row[0], "total_s": row[1], "self_s": row[2]}
            for (n, p), row in sorted(self.stats.items())
        ]


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        stack = self.tracer.stack
        self.parent = stack[-1][0] if stack else ""
        self.frame = [self.name, 0.0]
        stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        dt = time.perf_counter() - self.t0
        stack = self.tracer.stack
        stack.pop()
        if stack:
            stack[-1][1] += dt
        self.tracer._record(self.name, self.parent, 1, dt, self.frame[1])
        return False
