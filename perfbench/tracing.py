"""Span aggregation for the traced run.

The benchmark never edits the library.  It replaces, for the length of one
traced pass, the bindings that callers actually use (a module attribute such
as ``perpetua.cli.existence_report`` or a class attribute such as
``RandomStream.generator``) with a timing wrapper, and restores them after.

Spans are aggregated in memory per name as (count, total seconds, self
seconds), where self time is the span's duration minus the time covered by
its child spans.  Counters are plain sums recorded at the same boundaries.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Per-name span aggregates plus named counters, kept in memory."""

    def __init__(self):
        self.spans: dict[str, list] = {}
        self.counters: dict[str, float] = {}
        self._child_time: list[float] = []

    def add(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name, fn, on_call=None):
        """Return ``fn`` wrapped in a span.

        ``name`` is a string or a function of the call's arguments that
        returns one; ``on_call(args, kwargs)`` may record counters.
        """
        stack = self._child_time
        spans = self.spans

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            if on_call is not None:
                on_call(args, kwargs)
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                agg = spans.get(label)
                if agg is None:
                    agg = spans[label] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dt
                agg[2] += dt - child

        return wrapper

    @contextmanager
    def patched(self, targets):
        """Install wrappers for ``(owner, attribute, name, on_call)`` targets."""
        saved = []
        try:
            for owner, attr, name, on_call in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, on_call))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def count(self, name: str) -> int:
        return self.spans.get(name, (0, 0.0, 0.0))[0]

    def total(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[1]

    def self_time(self, name: str) -> float:
        return self.spans.get(name, (0, 0.0, 0.0))[2]

    def to_json(self) -> dict:
        return {
            "spans": {k: {"count": c, "total_s": t, "self_s": s}
                      for k, (c, t, s) in sorted(self.spans.items())},
            "counters": dict(sorted(self.counters.items())),
        }
