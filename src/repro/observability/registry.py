"""Metrics registry: counters, gauges, and deterministic histogram sketches.

The registry is the single aggregation point for a run's machine-independent
spend.  Two kinds of data flow into it:

* **Own metrics** — pushed explicitly (``inc`` / ``set_gauge`` / ``observe``)
  by instrumented code: runtime budget tallies, checkpoint saves, RR-size
  histograms, shard-pool call counts.
* **Sources** — live :class:`~repro.rrsets.base.GenerationCounters` owners
  (generators, or the counter shims a checkpoint resume restores) attached
  with :meth:`attach_source`.  Their plain-int fields stay the storage the
  hot loops bump; the registry reads them *at snapshot time* under
  ``generation.*`` names, so attaching a registry adds zero per-edge work.

Everything is mergeable by addition (histograms bucket-wise, gauges by
``max``), which makes merging child-process payloads commutative — the
property the shard pool's rank-order merge point and its tests rely on.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

#: registry names of the per-generator counter fields (see
#: :class:`~repro.rrsets.base.GenerationCounters`)
GENERATION_COUNTER_FIELDS = (
    "edges_examined",
    "rng_draws",
    "nodes_added",
    "sets_generated",
    "sentinel_hits",
)


class HistogramSketch:
    """Power-of-two bucketed histogram of non-negative integers.

    Bucket ``0`` counts exact zeros; bucket ``b >= 1`` counts values in
    ``[2**(b-1), 2**b)`` — i.e. the bucket index is the value's bit length.
    The bucketing is a pure function of the value, so two sketches built
    from the same multiset are identical regardless of observation order or
    process boundaries, and merging is bucket-wise addition.  ``total`` and
    ``sum`` are tracked exactly, so the mean survives sketching.
    """

    __slots__ = ("counts", "total", "sum")

    def __init__(self) -> None:
        self.counts: List[int] = []
        self.total = 0
        self.sum = 0

    def _ensure(self, bucket: int) -> None:
        if bucket >= len(self.counts):
            self.counts.extend([0] * (bucket + 1 - len(self.counts)))

    def observe(self, value: int) -> None:
        """Record one value (non-negative integer)."""
        value = int(value)
        if value < 0:
            raise ValueError(f"histogram values must be >= 0, got {value}")
        bucket = value.bit_length()
        self._ensure(bucket)
        self.counts[bucket] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: np.ndarray) -> None:
        """Record an array of values with one vectorized pass."""
        values = np.asarray(values)
        if len(values) == 0:
            return
        if values.min() < 0:
            raise ValueError("histogram values must be >= 0")
        # frexp writes v = m * 2**e with m in [0.5, 1), so e is exactly the
        # bit length for every integer a float64 represents exactly (far
        # beyond any RR-set size); zeros get e = 0, which is bucket 0.
        _, exponents = np.frexp(values.astype(np.float64))
        fold = np.bincount(exponents.astype(np.int64))
        self._ensure(len(fold) - 1)
        for bucket, count in enumerate(fold):
            self.counts[bucket] += int(count)
        self.total += len(values)
        self.sum += int(values.sum())

    def merge(self, other: "HistogramSketch") -> None:
        """Fold another sketch in (bucket-wise addition; commutative)."""
        if other.counts:
            self._ensure(len(other.counts) - 1)
        for bucket, count in enumerate(other.counts):
            self.counts[bucket] += count
        self.total += other.total
        self.sum += other.sum

    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-able payload; buckets are trimmed of trailing zeros."""
        counts = list(self.counts)
        while counts and counts[-1] == 0:
            counts.pop()
        return {"counts": counts, "total": self.total, "sum": self.sum}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "HistogramSketch":
        sketch = cls()
        sketch.counts = [int(c) for c in payload.get("counts", [])]
        sketch.total = int(payload.get("total", 0))
        sketch.sum = int(payload.get("sum", 0))
        return sketch

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HistogramSketch):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"HistogramSketch(total={self.total}, sum={self.sum}, "
            f"buckets={len(self.counts)})"
        )


class MetricsRegistry:
    """Aggregation point for one run's counters, gauges, and histograms."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, HistogramSketch] = {}
        self._sources: List[Any] = []

    # ------------------------------------------------------------------
    # own metrics
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: int = 1) -> None:
        """Bump a monotonic counter."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def value(self, name: str) -> int:
        """Current value of an own counter (0 if never bumped)."""
        return self._counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Record a point-in-time measurement (last write wins)."""
        self._gauges[name] = float(value)

    def gauge(self, name: str, default: float = 0.0) -> float:
        return self._gauges.get(name, default)

    def histogram(self, name: str) -> HistogramSketch:
        """The named sketch, created on first use."""
        sketch = self._histograms.get(name)
        if sketch is None:
            sketch = self._histograms[name] = HistogramSketch()
        return sketch

    def observe(self, name: str, value: int) -> None:
        self.histogram(name).observe(value)

    def observe_many(self, name: str, values: np.ndarray) -> None:
        self.histogram(name).observe_many(values)

    # ------------------------------------------------------------------
    # live sources
    # ------------------------------------------------------------------
    def attach_source(self, owner: Any) -> None:
        """Track a live counters owner (anything with a ``counters`` attr).

        Idempotent per object: attaching the same owner twice counts once.
        An owner whose ``counters`` object is already tracked replaces the
        old owner (a bank repair rebuilds its generator on the same
        counters), so the counters are not summed twice and the retired
        owner is not kept alive.  Sources are read at snapshot time, so
        restoring ``owner.counters`` from a checkpoint after attachment is
        safe.
        """
        if not hasattr(owner, "counters"):
            raise TypeError(
                f"source {type(owner).__name__} has no 'counters' attribute"
            )
        for i, existing in enumerate(self._sources):
            if existing is owner:
                return
            if existing.counters is owner.counters:
                self._sources[i] = owner
                return
        self._sources.append(owner)

    def detach_source(self, owner: Any) -> None:
        """Stop tracking ``owner``, folding its counters into own counters.

        The ``generation.*`` totals are unchanged by the move, so an owner
        that outlives its use (a per-query generator inside a long-lived
        session) can be released without its spend vanishing from
        snapshots.  Detaching an untracked owner is a no-op.
        """
        for i, existing in enumerate(self._sources):
            if existing is owner:
                del self._sources[i]
                counters = owner.counters
                for field in GENERATION_COUNTER_FIELDS:
                    self.inc(f"generation.{field}", getattr(counters, field))
                return

    def generation_totals(self) -> Dict[str, int]:
        """Summed generator counters across every attached source."""
        totals = dict.fromkeys(GENERATION_COUNTER_FIELDS, 0)
        for owner in self._sources:
            counters = owner.counters
            for field in GENERATION_COUNTER_FIELDS:
                # int() guards against numpy scalars the vectorized loops
                # accumulate — snapshots must stay JSON-able.
                totals[field] += int(getattr(counters, field))
        return totals

    # ------------------------------------------------------------------
    # snapshots and merging
    # ------------------------------------------------------------------
    def counter_totals(self) -> Dict[str, int]:
        """Own counters plus ``generation.*`` source aggregates, sorted."""
        merged = dict(self._counters)
        for field, value in self.generation_totals().items():
            key = f"generation.{field}"
            merged[key] = merged.get(key, 0) + value
        return {name: merged[name] for name in sorted(merged)}

    def snapshot(self) -> Dict[str, Any]:
        """Full JSON-able state: counters, gauges, histograms."""
        return {
            "counters": self.counter_totals(),
            "gauges": {name: self._gauges[name] for name in sorted(self._gauges)},
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def merge_snapshot(self, payload: Dict[str, Any]) -> None:
        """Fold a serialized snapshot in (commutative, order-independent).

        Counters and histograms add; gauges take the maximum, so merging
        worker payloads in any rank order produces the same registry.
        """
        for name, value in payload.get("counters", {}).items():
            self.inc(name, value)
        for name, value in payload.get("gauges", {}).items():
            current = self._gauges.get(name)
            self._gauges[name] = (
                float(value) if current is None else max(current, float(value))
            )
        for name, sketch_payload in payload.get("histograms", {}).items():
            self.histogram(name).merge(HistogramSketch.from_dict(sketch_payload))

    def merge_snapshots(self, payloads: Iterable[Dict[str, Any]]) -> None:
        for payload in payloads:
            self.merge_snapshot(payload)

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def own_state(self) -> Dict[str, Any]:
        """Checkpointable *pushed* state: own counters and histograms.

        Source aggregates are excluded (generator counters are persisted
        alongside their pools and re-attached on resume) and gauges are
        excluded (point-in-time readings, not spend).
        """
        return {
            "counters": {
                name: self._counters[name] for name in sorted(self._counters)
            },
            "histograms": {
                name: self._histograms[name].as_dict()
                for name in sorted(self._histograms)
            },
        }

    def restore_own_state(
        self, payload: Dict[str, Any], skip_prefixes: tuple = ()
    ) -> None:
        """Overwrite own counters/histograms from an ``own_state`` payload.

        ``skip_prefixes`` lets the caller keep selected namespaces at their
        live values (the runtime budget tallies restart at zero on resume —
        budgets are per-process by design).
        """
        for name, value in payload.get("counters", {}).items():
            if skip_prefixes and name.startswith(skip_prefixes):
                continue
            self._counters[name] = int(value)
        for name, sketch in payload.get("histograms", {}).items():
            self._histograms[name] = HistogramSketch.from_dict(sketch)
