"""Nested tracing spans for the query lifecycle.

A :class:`Span` records one timed stage (``query.parse``, ``isla.iteration``,
``sample.draw``, ...) with free-form tags and child spans.  The
:class:`Tracer` maintains the current span through a :class:`contextvars`
stack, so nesting works across ``with`` blocks and — when the caller copies
its context, as the parallel extension does — across worker threads.

Finished **root** spans land in a bounded ring buffer and are handed to the
configured exporters.  Two exporters ship with the library:

* :class:`InMemorySpanExporter` — a ring buffer, used by tests and
  ``EXPLAIN ANALYZE``;
* :class:`JsonlSpanExporter` — appends one JSON object per trace to a file.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from collections import deque
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = [
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "Tracer",
    "InMemorySpanExporter",
    "JsonlSpanExporter",
    "summarize_trace",
]

#: guards child-list appends (spans may gain children from worker threads)
_TREE_LOCK = threading.Lock()


class Span:
    """One timed, tagged stage of a query; may contain child spans."""

    __slots__ = ("name", "tags", "children", "_start", "_end")

    is_recording = True

    def __init__(self, name: str, tags: Optional[Dict[str, Any]] = None) -> None:
        self.name = name
        self.tags: Dict[str, Any] = dict(tags) if tags else {}
        self.children: List["Span"] = []
        self._start = time.perf_counter()
        self._end: Optional[float] = None

    # ------------------------------------------------------------------ state
    def set_tag(self, key: str, value: Any) -> "Span":
        """Attach (or overwrite) one tag; returns self for chaining."""
        self.tags[key] = value
        return self

    def finish(self) -> None:
        """Mark the span as ended (idempotent)."""
        if self._end is None:
            self._end = time.perf_counter()

    def add_child(self, child: "Span") -> None:
        """Append a finished child span (thread-safe)."""
        with _TREE_LOCK:
            self.children.append(child)

    @property
    def finished(self) -> bool:
        """Whether :meth:`finish` has been called."""
        return self._end is not None

    @property
    def duration_seconds(self) -> float:
        """Elapsed seconds (live value while the span is still open)."""
        end = self._end if self._end is not None else time.perf_counter()
        return end - self._start

    # -------------------------------------------------------------- traversal
    def iter(self) -> Iterator["Span"]:
        """Depth-first iteration over this span and all descendants."""
        yield self
        for child in self.children:
            yield from child.iter()

    def find_all(self, name: str) -> List["Span"]:
        """Every descendant span (including self) called ``name``."""
        return [span for span in self.iter() if span.name == name]

    def find(self, name: str) -> Optional["Span"]:
        """The first descendant span called ``name``, or None."""
        for span in self.iter():
            if span.name == name:
                return span
        return None

    # --------------------------------------------------------------- reporting
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-friendly dictionary of the whole subtree."""
        return {
            "name": self.name,
            "duration_ms": self.duration_seconds * 1000.0,
            "tags": dict(self.tags),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self) -> str:
        """The subtree rendered as an indented tree with millisecond timings."""
        lines: List[str] = []
        self._render_into(lines, prefix="", is_last=True, is_root=True)
        return "\n".join(lines)

    def _render_into(self, lines: List[str], prefix: str, is_last: bool,
                     is_root: bool = False) -> None:
        tag_text = " ".join(f"{key}={_format_tag(value)}"
                            for key, value in self.tags.items())
        label = self.name if not tag_text else f"{self.name}  [{tag_text}]"
        duration = f"{self.duration_seconds * 1000.0:10.3f} ms"
        if is_root:
            lines.append(f"{duration}  {label}")
            child_prefix = ""
        else:
            connector = "└─ " if is_last else "├─ "
            lines.append(f"{duration}  {prefix}{connector}{label}")
            child_prefix = prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(self.children):
            child._render_into(lines, child_prefix, index == len(self.children) - 1)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Span({self.name!r}, {self.duration_seconds * 1000.0:.3f} ms, "
                f"{len(self.children)} children)")


def _format_tag(value: Any) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


class NullSpan:
    """The shared no-op span returned when telemetry is disabled.

    Works both as a span (``set_tag`` is a no-op) and as its own context
    manager, so ``with obs.span("x") as sp: sp.set_tag(...)`` costs almost
    nothing on the disabled path.
    """

    __slots__ = ()

    is_recording = False
    name = ""
    tags: Dict[str, Any] = {}
    children: Tuple[()] = ()

    def set_tag(self, key: str, value: Any) -> "NullSpan":
        return self

    def finish(self) -> None:
        return None

    @property
    def duration_seconds(self) -> float:
        return 0.0

    def iter(self):
        return iter(())

    def find_all(self, name: str) -> List[Span]:
        return []

    def find(self, name: str) -> None:
        return None

    def __enter__(self) -> "NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: the singleton no-op span
NULL_SPAN = NullSpan()


class _SpanContext:
    """Context manager created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "_name", "_tags", "_span", "_token", "_parent")

    def __init__(self, tracer: "Tracer", name: str, tags: Dict[str, Any]) -> None:
        self._tracer = tracer
        self._name = name
        self._tags = tags
        self._span: Optional[Span] = None
        self._token = None
        self._parent: Optional[Span] = None

    def __enter__(self) -> Span:
        self._parent = self._tracer._current.get(None)
        self._span = Span(self._name, self._tags)
        self._token = self._tracer._current.set(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self._span
        assert span is not None
        span.finish()
        if exc is not None:
            span.set_tag("error", f"{exc_type.__name__}: {exc}")
        self._tracer._current.reset(self._token)
        if self._parent is not None:
            self._parent.add_child(span)
        else:
            self._tracer._record_root(span)
        return False


class Tracer:
    """Creates spans, tracks nesting and collects finished root traces."""

    def __init__(self, exporters: Tuple = (), max_traces: int = 64) -> None:
        self.exporters = list(exporters)
        self._traces: deque = deque(maxlen=max_traces)
        self._lock = threading.Lock()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "repro_obs_current_span", default=None
        )

    # ------------------------------------------------------------------- API
    def span(self, name: str, **tags: Any) -> _SpanContext:
        """Open a nested span; use as a context manager."""
        return _SpanContext(self, name, tags)

    def current_span(self) -> Optional[Span]:
        """The innermost open span of the calling context (None at top level)."""
        return self._current.get(None)

    @property
    def traces(self) -> Tuple[Span, ...]:
        """The finished root spans, oldest first."""
        with self._lock:
            return tuple(self._traces)

    def last_trace(self) -> Optional[Span]:
        """The most recently finished root span, or None."""
        with self._lock:
            return self._traces[-1] if self._traces else None

    def add_exporter(self, exporter) -> None:
        """Register another exporter for future root spans."""
        self.exporters.append(exporter)

    def reset(self) -> None:
        """Drop every recorded trace."""
        with self._lock:
            self._traces.clear()

    # ------------------------------------------------------------- internals
    def _record_root(self, span: Span) -> None:
        with self._lock:
            self._traces.append(span)
        for exporter in self.exporters:
            exporter.export(span)


class InMemorySpanExporter:
    """Keeps the last ``capacity`` root spans in a ring buffer."""

    def __init__(self, capacity: int = 256) -> None:
        self._spans: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        """Record one finished root span."""
        with self._lock:
            self._spans.append(span)

    @property
    def spans(self) -> Tuple[Span, ...]:
        """The exported spans, oldest first."""
        with self._lock:
            return tuple(self._spans)

    def clear(self) -> None:
        """Drop every exported span."""
        with self._lock:
            self._spans.clear()


class JsonlSpanExporter:
    """Appends each finished root span to a JSONL file (one trace per line)."""

    def __init__(self, path) -> None:
        self.path = str(path)
        self._lock = threading.Lock()

    def export(self, span: Span) -> None:
        """Serialise one root span and append it to the file."""
        line = json.dumps(span.to_dict(), sort_keys=True)
        with self._lock:
            with open(self.path, "a", encoding="utf-8") as handle:
                handle.write(line + "\n")


def summarize_trace(root: Span) -> Dict[str, Any]:
    """Per-query aggregates derived by walking one span tree.

    Returns ``{"counters": {...}, "stage_seconds": {...}}`` where counters
    accumulate the well-known tags (``rows`` on ``sample.draw`` spans,
    ``iterations`` on ``isla.iteration`` spans), count one ISLA block per
    ``isla.block`` span, and ``stage_seconds`` sums the wall-clock duration
    of every span name.
    """
    counters: Dict[str, float] = {"spans": 0}
    stage_seconds: Dict[str, float] = {}
    for span in root.iter():
        counters["spans"] += 1
        stage_seconds[span.name] = (
            stage_seconds.get(span.name, 0.0) + span.duration_seconds
        )
        if span.name == "sample.draw":
            counters["sample.rows"] = (
                counters.get("sample.rows", 0.0) + float(span.tags.get("rows", 0) or 0)
            )
            counters["sample.draws"] = counters.get("sample.draws", 0.0) + 1
        elif span.name == "isla.iteration":
            counters["isla.iterations"] = (
                counters.get("isla.iterations", 0.0)
                + float(span.tags.get("iterations", 0) or 0)
            )
        elif span.name == "isla.block":
            counters["isla.blocks"] = counters.get("isla.blocks", 0.0) + 1
    return {"counters": counters, "stage_seconds": stage_seconds}
