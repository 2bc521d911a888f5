"""Common interface and cost accounting for RR-set generators."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.graphs.csr import CSRGraph


@dataclass
class GenerationCounters:
    """Machine-independent cost counters accumulated across generations.

    ``edges_examined`` counts edge *inspections* — the quantity the paper's
    complexity analysis bounds.  Under vanilla generation every incoming edge
    of an activated node is inspected; under SUBSIM only the edges that the
    geometric jumps land on are.  ``rng_draws`` counts random numbers
    consumed, and ``nodes_added`` the total RR-set mass produced.
    """

    edges_examined: int = 0
    rng_draws: int = 0
    nodes_added: int = 0
    sets_generated: int = 0
    sentinel_hits: int = 0

    def reset(self) -> None:
        self.edges_examined = 0
        self.rng_draws = 0
        self.nodes_added = 0
        self.sets_generated = 0
        self.sentinel_hits = 0

    def average_size(self) -> float:
        """Mean RR-set size over everything generated since the last reset."""
        if self.sets_generated == 0:
            return 0.0
        return self.nodes_added / self.sets_generated


class RRGenerator:
    """Base class: owns the graph, a scratch visited-mask, and counters.

    Subclasses implement :meth:`generate`, returning the RR set as a list of
    node ids (the uniformly drawn root always comes first).  Passing a
    boolean ``stop_mask`` makes generation terminate as soon as any flagged
    node is activated — Algorithm 5's sentinel early stop.

    ``control`` optionally points at a :class:`~repro.runtime.control
    .RunControl`; when set, the generation loop reports progress and polls
    for budget expiry / cancellation cooperatively (see :meth:`_begin`,
    :meth:`_tick`, :meth:`_finish`).  Subclass loops must clear the scratch
    visited-mask before re-raising ``ExecutionInterrupted`` so an aborted
    generation never corrupts the next one — use :meth:`_abandon`.

    **Batched execution.**  ``batch_size`` selects the execution strategy
    consumed by :meth:`RRCollection.extend
    <repro.rrsets.collection.RRCollection.extend>`: the default (1) keeps
    the sequential per-set loop and its exact RNG schedule (bit-identical
    seeds, counters and checkpoints), while larger values route through
    :meth:`generate_batch` — the level-synchronous vectorized engine.
    Generators whose model has a vectorized kernel declare it via
    :attr:`batched_mode`.
    """

    #: human-readable name used by benchmark tables
    name = "base"
    #: batched-engine kernel for this model: ``"ic"`` (vectorized coin
    #: flips), ``"subsim"`` (vectorized geometric/segment skipping),
    #: ``"lt"`` (level-synchronous live-edge walks), or ``None`` — no
    #: kernel, ``generate_batch`` falls back to the sequential loop.  The
    #: kernel belongs to the generator: the vanilla and SUBSIM samplers
    #: (Algorithms 2 and 3) are distinct generators, picked by name.
    batched_mode: Optional[str] = None

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph
        self.counters = GenerationCounters()
        self.control = None
        #: optional :class:`~repro.observability.registry.MetricsRegistry`
        #: sink; when attached, finished RR sets feed the ``rr_size``
        #: histogram.  ``None`` (the default) keeps the hot path a plain
        #: counter bump plus one ``is None`` branch per finished set.
        self.metrics = None
        #: execution knob read by ``RRCollection.extend`` (see class docs)
        self.batch_size = 1
        self._reported_edges = 0
        self._visited = np.zeros(graph.n, dtype=bool)

    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        raise NotImplementedError

    def generate_batch(
        self,
        rng: np.random.Generator,
        count: int,
        stop_mask: Optional[np.ndarray] = None,
    ):
        """Generate ``count`` RR sets; returns flat ``(nodes, sizes)`` arrays.

        Dispatches to the vectorized engine when :attr:`batched_mode` names
        a kernel; otherwise loops :meth:`generate` sequentially (identical
        RNG schedule to ``batch_size=1``), so every generator supports the
        batched call surface.
        """
        if self.batched_mode is not None:
            from repro.rrsets.batched import generate_batch

            return generate_batch(self, rng, count, stop_mask=stop_mask)
        chunks = []
        sizes = np.empty(count, dtype=np.int64)
        for i in range(count):
            rr = np.asarray(self.generate(rng, stop_mask=stop_mask), dtype=np.int64)
            chunks.append(rr)
            sizes[i] = len(rr)
        nodes = (
            np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)
        )
        return nodes, sizes

    def _pick_root(self, rng: np.random.Generator, root: Optional[int]) -> int:
        if root is None:
            self.counters.rng_draws += 1
            return int(rng.integers(0, self.graph.n))
        if not 0 <= root < self.graph.n:
            raise ValueError(f"root {root} out of range [0, {self.graph.n})")
        return int(root)

    def _begin(self) -> None:
        """Gate the next generation on the run control (budget, cancel)."""
        if self.control is not None:
            self.control.on_rr_start()

    def _tick(self) -> None:
        """Report the examined-edge delta since the last tick and poll.

        Called once per activated node inside the generation loops, so a
        deadline or edge cap stops even a single enormous RR set promptly.
        """
        control = self.control
        if control is None:
            return
        delta = self.counters.edges_examined - self._reported_edges
        self._reported_edges = self.counters.edges_examined
        control.on_edges(delta if delta > 0 else 0)

    def _abandon(self, rr: List[int]) -> None:
        """Clear the scratch mask after an interrupted generation."""
        visited = self._visited
        for node in rr:
            visited[node] = False

    def _finish(self, rr: List[int], hit_sentinel: bool = False) -> List[int]:
        """Clear the scratch mask and update counters; returns ``rr``."""
        visited = self._visited
        for node in rr:
            visited[node] = False
        self.counters.nodes_added += len(rr)
        self.counters.sets_generated += 1
        if hit_sentinel:
            self.counters.sentinel_hits += 1
        if self.metrics is not None:
            self.metrics.observe("rr_size", len(rr))
        if self.control is not None:
            self._tick()
            self.control.on_rr_complete(len(rr))
        return rr
