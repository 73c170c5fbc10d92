"""In-memory span recorder and the self-time arithmetic of the traced run.

A span is (name, start, end, parent, unit, items): ``parent`` is the index of
the enclosing span (-1 at top level), ``unit`` names the unit of work the
span belongs to (an optimizer step, an evaluation round, a set-up
repetition), and ``items`` is an optional count read from the wrapped
call's return value (graph nodes for ``tensor.toposort``).

Spans are recorded by replacing a function where the program looks it up
(a module attribute or a class attribute) with a wrapper; ``Patches``
restores every replaced attribute on exit, so an in-process run leaves the
library as it found it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    unit: str
    items: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Spans of the current process, kept in memory until the run ends.

    Recording happens only while ``enabled``; a disabled wrapper costs one
    attribute test and one call.
    """

    def __init__(self):
        self.spans: list = []
        self.enabled = False
        self.unit = ""
        self._stack: list = []

    def wrap(self, name: str, fn, count=None):
        """``fn`` recorded as span ``name``; ``count(result)`` fills ``items``."""

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.unit)
            self.spans.append(span)
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span.items = count(out)
                return out
            finally:
                self._stack.pop()
                span.end = time.perf_counter()

        wrapper.__wrapped__ = fn
        return wrapper

    def to_json(self) -> list:
        return [[s.name, s.start, s.end, s.parent, s.unit, s.items] for s in self.spans]


class Patches:
    """Replace attributes for the lifetime of a ``with`` block."""

    def __init__(self):
        self._saved: list = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()
        return False


def covered(interval: tuple, pieces: list) -> float:
    """Length of the part of ``interval`` that the union of ``pieces`` covers."""
    lo, hi = interval
    total = 0.0
    reach = lo
    for start, end in sorted(pieces):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: list = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    return [s.duration - covered((s.start, s.end), kids)
            for s, kids in zip(spans, children)]
