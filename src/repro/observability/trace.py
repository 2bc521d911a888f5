"""Nestable phase spans emitting a structured JSON trace.

A :class:`PhaseTracer` turns ``with tracer.phase("sentinel"):`` blocks into
a tree of spans.  Each span records

* wall-clock seconds,
* the *counter deltas* accrued inside it — the difference between the
  attached registry's totals at exit and at entry, so generator work done
  by nested code is attributed to every enclosing span,
* the ``rr_pool_bytes`` gauge at exit (RR-pool memory high-water as of the
  span's end).

Spans nest arbitrarily; a child's wall time is part of its parent's, and a
parent's counter deltas are the sum of its children's plus whatever it did
itself — the invariant ``tests/test_observability.py`` pins down.

:data:`NULL_TRACER` is a singleton whose ``phase()`` returns a reusable
no-op context manager, so instrumented code never branches on "is tracing
on" — the off path costs two trivial method calls per *phase*, not per
edge.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Dict, List, Optional

from repro.observability.registry import MetricsRegistry


class PhaseSpan:
    """One node of the phase tree."""

    __slots__ = (
        "name",
        "wall_seconds",
        "counter_deltas",
        "rr_pool_bytes",
        "annotations",
        "children",
        "_started_at",
        "_counters_at_entry",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.wall_seconds = 0.0
        self.counter_deltas: Dict[str, int] = {}
        self.rr_pool_bytes = 0.0
        #: caller-supplied span facts (round theta, bound ratio, ...) —
        #: emitted verbatim under ``"annotations"``.
        self.annotations: Dict[str, Any] = {}
        self.children: List["PhaseSpan"] = []
        self._started_at = 0.0
        self._counters_at_entry: Dict[str, int] = {}

    def annotate(self, **facts: Any) -> None:
        """Attach structured facts to this span (merged, last write wins)."""
        self.annotations.update(facts)

    def as_dict(self) -> Dict[str, Any]:
        payload = {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "counters": dict(self.counter_deltas),
            "rr_pool_bytes": self.rr_pool_bytes,
            "children": [child.as_dict() for child in self.children],
        }
        if self.annotations:
            payload["annotations"] = dict(self.annotations)
        return payload


class _SpanContext:
    """Context manager driving one span's enter/exit bookkeeping."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "PhaseTracer", span: PhaseSpan) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> PhaseSpan:
        self._tracer._enter(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> None:
        self._tracer._exit(self._span)


class PhaseTracer:
    """Builds the span tree; optionally attributes registry counter deltas."""

    def __init__(
        self,
        metrics: Optional[MetricsRegistry] = None,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.metrics = metrics
        self._clock = clock
        self.roots: List[PhaseSpan] = []
        self._stack: List[PhaseSpan] = []

    # ------------------------------------------------------------------
    def phase(self, name: str) -> _SpanContext:
        """Open a span named ``name`` nested under the current span."""
        return _SpanContext(self, PhaseSpan(name))

    def _totals(self) -> Dict[str, int]:
        if self.metrics is None:
            return {}
        return self.metrics.counter_totals()

    def _enter(self, span: PhaseSpan) -> None:
        span._started_at = self._clock()
        span._counters_at_entry = self._totals()
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)

    def _exit(self, span: PhaseSpan) -> None:
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"phase {span.name!r} exited out of nesting order")
        self._stack.pop()
        span.wall_seconds = self._clock() - span._started_at
        exit_totals = self._totals()
        span.counter_deltas = {
            name: delta
            for name, total in exit_totals.items()
            if (delta := total - span._counters_at_entry.get(name, 0)) != 0
        }
        if self.metrics is not None:
            span.rr_pool_bytes = self.metrics.gauge("rr_pool_bytes")

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The finished trace as a JSON-able phase tree."""
        if self._stack:
            raise RuntimeError(
                f"cannot serialize a trace with open spans: "
                f"{[span.name for span in self._stack]}"
            )
        return {"phases": [span.as_dict() for span in self.roots]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)


class _NullSpanContext:
    """Reusable no-op span; allocation-free on every use."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class NullTracer:
    """Tracer stand-in used when tracing is off: every phase is a no-op."""

    __slots__ = ()

    _SPAN = _NullSpanContext()

    def phase(self, name: str) -> _NullSpanContext:
        return self._SPAN

    def to_dict(self) -> Dict[str, Any]:
        return {"phases": []}


#: shared no-op tracer: attach-nothing default for every RunControl
NULL_TRACER = NullTracer()
