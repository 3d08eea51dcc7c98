"""Stage spans and counters, recorded on demand.

Inside ``with recording() as rec:`` every span(name) that the package opens
appends a Span (name, start, end, parent) to rec.spans, in the order the
spans open, and count(name, value) adds value to rec.counters[name].
Outside such a block span returns one shared no-op context and count does
nothing, so a stage costs a context-variable read and a call when nobody
records.  The active recording is a context variable, so a block records
the spans of its own thread (or asyncio task) only.  Times are
time.perf_counter() seconds; parent is the index in rec.spans of the
innermost span open when this one opened, or None.

    from repdual import trace
    with trace.recording() as rec:
        verify_all(code, ct)
    for s in rec.spans:
        print(s.name, s.end - s.start)
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float | None
    parent: int | None


@dataclass
class Recording:
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        i = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), None, parent))
        self._open.append(i)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[i].end = time.perf_counter()


_active: ContextVar[Recording | None] = ContextVar("repdual_trace", default=None)
_NOOP = nullcontext()


def span(name: str):
    """A context that records the stage name while a recording is active,
    else the shared no-op context."""
    rec = _active.get()
    return _NOOP if rec is None else rec.span(name)


def count(name: str, value: int = 1) -> None:
    """Add value to the counter name while a recording is active."""
    rec = _active.get()
    if rec is not None:
        rec.counters[name] = rec.counters.get(name, 0) + value


@contextmanager
def recording():
    """Record every span and counter until the block ends; a nested block
    records on its own and then hands back to the outer one."""
    rec = Recording()
    token = _active.set(rec)
    try:
        yield rec
    finally:
        _active.reset(token)
