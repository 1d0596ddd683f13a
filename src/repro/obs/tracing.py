"""Nested tracing spans with JSONL export and an in-memory ring buffer.

A :class:`Span` records a name, free-form attributes, the wall-clock start
time and a ``perf_counter``-based duration.  Spans nest through the
:class:`Tracer`'s per-thread stack::

    with tracer.span("oodb.query", query=text) as span:
        with tracer.span("irs.query", model="vector"):
            ...
        span.set_attribute("rows", len(rows))

When a *root* span finishes, the completed tree is appended to a bounded
ring buffer (:meth:`Tracer.finished_traces`) and, when an exporter is
attached, written to a JSONL file — one flat record per span, linked by
``parent_id``, reconstructable with :func:`load_spans`.

:class:`NoopTracer` is the disabled path: ``span()`` hands out a shared
do-nothing context manager, so call sites pay only a method call and a
kwargs dict when tracing is off.

Traces are bounded two ways: the ring keeps the last ``ring_size`` roots,
and a single trace stops recording descendants past ``max_spans_per_trace``
(the root is then annotated with ``dropped_spans``), so pathological queries
cannot grow memory without bound.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional


def trim(text: str, limit: int = 100) -> str:
    """Shorten attribute values so spans stay cheap to keep and export."""
    text = str(text)
    if len(text) <= limit:
        return text
    return text[: limit - 1] + "…"


class Span:
    """One timed operation; children are spans opened while it was active."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "trace_id",
        "attributes",
        "start_time",
        "duration",
        "children",
        "_start_perf",
    )

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        trace_id: int,
        attributes: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.attributes: Dict[str, Any] = dict(attributes or {})
        self.start_time = time.time()
        self._start_perf = time.perf_counter()
        self.duration = 0.0
        self.children: List["Span"] = []

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value

    def finish(self) -> None:
        self.duration = time.perf_counter() - self._start_perf

    def iter_spans(self) -> Iterator["Span"]:
        """This span and all descendants, pre-order."""
        yield self
        for child in self.children:
            yield from child.iter_spans()

    def span_count(self) -> int:
        return sum(1 for _ in self.iter_spans())

    def to_record(self) -> Dict[str, Any]:
        """Flat, JSON-encodable form (children linked via ``parent_id``)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "trace_id": self.trace_id,
            "name": self.name,
            "start": self.start_time,
            "duration": self.duration,
            "attributes": self.attributes,
        }

    @classmethod
    def from_record(cls, record: Dict[str, Any]) -> "Span":
        span = cls(
            record["name"],
            record["span_id"],
            record.get("parent_id"),
            record["trace_id"],
            record.get("attributes") or {},
        )
        span.start_time = record["start"]
        span.duration = record["duration"]
        return span

    def __repr__(self) -> str:
        return f"<Span {self.name!r} {self.duration * 1000:.3f}ms children={len(self.children)}>"


class _ActiveSpan:
    """Context manager handed out by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self._span.attributes.setdefault("error", trim(repr(exc)))
        self._tracer._finish(self._span)
        return False


class _NoopSpan:
    """Shared do-nothing span for the disabled path."""

    __slots__ = ()
    name = ""
    attributes: Dict[str, Any] = {}
    duration = 0.0
    children: List[Span] = []

    def set_attribute(self, key: str, value: Any) -> None:
        pass


class _NoopContext:
    __slots__ = ()

    def __enter__(self) -> _NoopSpan:
        return NOOP_SPAN

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        return False


NOOP_SPAN = _NoopSpan()
_NOOP_CONTEXT = _NoopContext()


class Tracer:
    """Produces nested spans; finished roots land in a ring buffer.

    Thread-safe: each thread nests through its own span stack; the ring of
    finished traces is shared.
    """

    def __init__(
        self,
        exporter: Optional["JsonlSpanExporter"] = None,
        ring_size: int = 32,
        max_spans_per_trace: int = 5000,
    ) -> None:
        self._local = threading.local()
        self._ring: "deque[Span]" = deque(maxlen=max(1, ring_size))
        self._exporter = exporter
        self._ids = itertools.count(1)
        self._max_spans_per_trace = max(1, max_spans_per_trace)

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- span lifecycle -----------------------------------------------------

    def span(self, name: str, **attributes: Any):
        """Open a span nested under the thread's current span (if any)."""
        stack = self._stack()
        local = self._local
        if stack:
            count = local.count = getattr(local, "count", 0) + 1
            if count > self._max_spans_per_trace:
                local.dropped = getattr(local, "dropped", 0) + 1
                return _NOOP_CONTEXT
            parent = stack[-1]
            span = Span(name, next(self._ids), parent.span_id, parent.trace_id, attributes)
        else:
            local.count = 1
            local.dropped = 0
            span_id = next(self._ids)
            span = Span(name, span_id, None, span_id, attributes)
        stack.append(span)
        return _ActiveSpan(self, span)

    def _finish(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        span.finish()
        if stack:
            stack[-1].children.append(span)
            return
        dropped = getattr(self._local, "dropped", 0)
        if dropped:
            span.attributes["dropped_spans"] = dropped
        self._ring.append(span)
        if self._exporter is not None:
            self._exporter.export(span)

    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- finished traces ----------------------------------------------------

    def finished_traces(self) -> List[Span]:
        """Finished root spans, oldest first (bounded by ``ring_size``)."""
        return list(self._ring)

    def last_trace(self) -> Optional[Span]:
        return self._ring[-1] if self._ring else None

    def clear(self) -> None:
        self._ring.clear()


class NoopTracer(Tracer):
    """The disabled path: spans cost one call and record nothing."""

    def __init__(self) -> None:  # no state beyond the shared singletons
        pass

    def span(self, name: str, **attributes: Any):
        return _NOOP_CONTEXT

    def _finish(self, span: Span) -> None:
        pass

    def current_span(self) -> Optional[Span]:
        return None

    def finished_traces(self) -> List[Span]:
        return []

    def last_trace(self) -> Optional[Span]:
        return None

    def clear(self) -> None:
        pass


NOOP_TRACER = NoopTracer()


class JsonlSpanExporter:
    """Writes finished traces as newline-delimited JSON, one span per line.

    Records are flat (children linked by ``parent_id``) and written
    pre-order per root, so a partially written file is still a valid prefix
    of the trace stream.  :func:`load_spans` round-trips the file back into
    span trees.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._lock = threading.Lock()
        self._file = open(path, "a", encoding="utf-8")

    def export(self, root: Span) -> None:
        lines = [
            json.dumps(span.to_record(), sort_keys=True, default=str)
            for span in root.iter_spans()
        ]
        with self._lock:
            self._file.write("\n".join(lines) + "\n")
            self._file.flush()

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()

    def __enter__(self) -> "JsonlSpanExporter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


def load_spans(path: str) -> List[Span]:
    """Rebuild root span trees from a JSONL file written by the exporter."""
    spans: Dict[int, Span] = {}
    order: List[Span] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            span = Span.from_record(json.loads(line))
            spans[span.span_id] = span
            order.append(span)
    roots: List[Span] = []
    for span in order:
        parent = spans.get(span.parent_id) if span.parent_id is not None else None
        if parent is not None:
            parent.children.append(span)
        else:
            roots.append(span)
    return roots
