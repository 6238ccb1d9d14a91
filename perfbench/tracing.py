"""In-memory spans around calls into the program's public functions.

The benchmark never edits the program: :func:`instrument` swaps a
module or class attribute for a wrapper that records one span per call
and restores the original on exit.  Spans nest per thread and per
asyncio task (the open span lives in a context variable), so a span's
self time is its duration minus the time its direct children cover.
A span without a request id of its own takes its parent's.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[str]
    attrs: Dict[str, object]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; thread-safe; written once at exit."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        #: (span id, request id) of the open span in this thread / task.
        self._open: contextvars.ContextVar = contextvars.ContextVar("open_span", default=None)

    @contextlib.contextmanager
    def span(self, name: str, request_id: Optional[str] = None,
             attrs: Optional[Dict] = None) -> Iterator[Dict]:
        """Record ``name`` around the block; the yielded dict takes attributes."""
        attrs = {} if attrs is None else attrs
        with self._lock:
            span_id = next(self._ids)
        parent, inherited = self._open.get() or (None, None)
        if request_id is None:
            request_id = inherited
        token = self._open.set((span_id, request_id))
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            self._open.reset(token)
            with self._lock:
                self.spans.append(Span(span_id, name, start, end, parent, request_id, attrs))

    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self, name: str) -> List[float]:
        """Self time (seconds) of every span called ``name``."""
        child_time: Dict[int, float] = {}
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
        return [s.duration - child_time.get(s.span_id, 0.0) for s in self.named(name)]

    def write(self, path: str, provenance: Dict) -> None:
        records = [
            {"id": s.span_id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, "request_id": s.request_id, "attrs": s.attrs}
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        with open(path, "w") as fh:
            json.dump({"provenance": provenance, "spans": records}, fh, default=repr)


#: (owner, attribute, span name, hook).  A hook receives the call's
#: args/kwargs and the span's attribute dict before the span opens; it
#: may set the span's ``request_id`` there, and may return a
#: zero-argument callable to run after the call, inside the span.
Target = Tuple[object, str, str, Optional[Callable]]


@contextlib.contextmanager
def instrument(tracer: Tracer, targets: Sequence[Target]) -> Iterator[None]:
    """Wrap each ``owner.attribute`` in a span for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, hook in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrapped(tracer, original, name, hook))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _wrapped(tracer: Tracer, fn: Callable, name: str, hook: Optional[Callable]) -> Callable:
    def opened(args, kwargs):
        attrs: Dict[str, object] = {}
        after = hook(args, kwargs, attrs) if hook is not None else None
        return tracer.span(name, attrs.pop("request_id", None), attrs), after

    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def call_async(*args, **kwargs):
            span, after = opened(args, kwargs)
            with span:
                result = await fn(*args, **kwargs)
                if after is not None:
                    after()
                return result

        return call_async

    @functools.wraps(fn)
    def call(*args, **kwargs):
        span, after = opened(args, kwargs)
        with span:
            result = fn(*args, **kwargs)
            if after is not None:
                after()
            return result

    return call
