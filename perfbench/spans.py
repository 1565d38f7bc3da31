"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (perf_counter seconds), the span that
was open when it started, and the id of its root span; every span under
one root (a scene, a CLI cycle, a set-up pass) shares that root id.
Spans around the program's layers come from replacing the program's
public functions with timing wrappers (`Tracer.wrap`); the program's
own code is not touched. Spans stay in memory and are written out once,
at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import time


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "root", "attrs", "error")

    def __init__(self, span_id, name, parent, root):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.root = root
        self.start = self.end = 0.0
        self.attrs = {}
        self.error = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "root": self.root,
            "attrs": self.attrs, "error": self.error,
        }


class Tracer:
    """Records spans; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []
        self._child_time: dict | None = None

    @contextlib.contextmanager
    def _record(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(
            len(self.spans), name,
            parent.id if parent else None,
            parent.root if parent else len(self.spans),
        )
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except Exception as exc:
            span.error = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def span(self, name):
        """Context manager yielding the open Span (None when disabled)."""
        if not self.enabled:
            return contextlib.nullcontext()
        return self._record(name)

    def wrap(self, module, attr: str, name: str, after=None) -> None:
        """Replace `module.attr` with a wrapper that records a span.

        `after(span, args, result)` runs once the span has closed, to
        attach counts without timing them.
        """
        if not self.enabled:
            return
        original = getattr(module, attr)

        def traced(*args, **kwargs):
            with self._record(name) as span:
                result = original(*args, **kwargs)
            if after is not None:
                after(span, args, result)
            return result

        setattr(module, attr, traced)
        self._patches.append((module, attr, original))

    def unwrap_all(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([s.to_dict() for s in self.spans], fh)

    # -- aggregation (call once recording has finished) ---------------------

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_time(self, span: Span) -> float:
        """Duration minus the time its direct children cover."""
        if self._child_time is None:
            self._child_time = {}
            for s in self.spans:
                self._child_time[s.parent] = self._child_time.get(s.parent, 0.0) + s.duration
        return span.duration - self._child_time.get(span.id, 0.0)

    def per_ancestor(self, name: str, ancestor: str) -> list[list[Span]]:
        """For every `ancestor` span, the `name` spans nested below it."""
        groups = {s.id: [] for s in self.named(ancestor)}
        for s in self.named(name):
            parent = s.parent
            while parent is not None and self.spans[parent].name != ancestor:
                parent = self.spans[parent].parent
            if parent is not None:
                groups[parent].append(s)
        return list(groups.values())


def median_or_zero(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def mean_or_zero(values) -> float:
    values = list(values)
    return float(statistics.fmean(values)) if values else 0.0
