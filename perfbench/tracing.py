"""In-memory wall-clock spans recorded from outside the program.

The benchmark never edits ``repro``: a :class:`Tracer` wraps public
functions and methods of the package for the duration of a traced phase
(``install`` / ``restore``) and records one span per call — name, start,
end, parent span and request id.  Parents come from a per-thread stack;
the first span a service worker thread opens has no local parent, so it
is linked to the client request that caused it through a key the client
bound beforehand (a session id or a job-spec digest).

Counts that the layer hands back in its return value (PUT batches in a
transmission plan, SLT hits in a pipeline report) are taken in an
``on_result`` hook at the same boundary, so ratios are measured where
the work happens.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple


@dataclass
class Span:
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request: Optional[str]
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        #: binding key -> (request id, parent span id) of the client
        #: request that will cause work on another thread.
        self._bound: Dict[object, Tuple[str, Optional[int]]] = {}
        self._patches: List[Tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, request: Optional[str] = None,
              binding: Optional[object] = None) -> Span:
        """Open a span on this thread (parent: the innermost open one)."""
        stack = self._stack()
        if stack:
            parent, request = stack[-1].span_id, stack[-1].request
        else:
            request, parent = self._resolve(binding, request)
        span = Span(next(self._ids), name, time.perf_counter(), 0.0, parent,
                    request, threading.get_ident())
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self.spans.append(span)

    def _resolve(self, binding, request) -> Tuple[Optional[str], Optional[int]]:
        if binding is not None and binding in self._bound:
            # Later root spans on this worker thread (the job's hybrid
            # loop after its platform build) belong to the same request.
            self._local.current = self._bound[binding]
            return self._local.current
        if request is not None:
            return request, None
        return getattr(self._local, "current", (None, None))

    def bind(self, key: object, request: str, parent: Optional[Span]) -> None:
        """Attribute root spans keyed ``key`` on any thread to ``request``."""
        with self._lock:
            self._bound[key] = (request, parent.span_id if parent else None)

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + int(n)

    # -- patching ------------------------------------------------------
    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        binding: Optional[Callable[..., object]] = None,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        original = vars(owner)[attr]
        tracer = self

        def traced(*args, **kwargs):
            key = binding(*args, **kwargs) if binding is not None else None
            span = tracer.begin(name, binding=key)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(span)
            if on_result is not None:
                on_result(tracer, result)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- analysis ------------------------------------------------------
    def totals(self) -> Dict[str, float]:
        """Inclusive seconds per span name."""
        out: Dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.duration
        return out


def _covered(start: float, end: float, intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of ``intervals``."""
    clipped = sorted(
        (max(start, a), min(end, b)) for a, b in intervals if b > start and a < end
    )
    total, cursor = 0.0, start
    for a, b in clipped:
        if b > cursor:
            total += b - max(a, cursor)
            cursor = b
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return [
        span.duration - _covered(span.start, span.end, children.get(span.span_id, ()))
        for span in spans
    ]


def chrome_trace(spans: List[Span], metadata: Dict[str, object]) -> str:
    """Chrome/Perfetto ``traceEvents`` JSON (complete events, µs)."""
    if not spans:
        return json.dumps({"traceEvents": [], "metadata": metadata})
    origin = min(span.start for span in spans)
    threads = {tid: i for i, tid in enumerate(sorted({s.thread for s in spans}))}
    events = [
        {
            "name": span.name,
            "ph": "X",
            "pid": 1,
            "tid": threads[span.thread],
            "ts": (span.start - origin) * 1e6,
            "dur": span.duration * 1e6,
            "args": {"span": span.span_id, "parent": span.parent,
                     "request": span.request},
        }
        for span in sorted(spans, key=lambda s: (s.start, s.span_id))
    ]
    return json.dumps({"traceEvents": events, "metadata": metadata})
