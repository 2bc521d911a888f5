"""Vanilla IC RR-set generation (paper Algorithm 2).

Reverse BFS from a uniformly random root: when a node is activated, *every*
one of its incoming edges is examined with an independent coin flip.  This is
the generator all prior RR-based IM algorithms (TIM+, IMM, SSA, OPIM-C)
share, and the baseline SUBSIM improves on — its cost per activated node is
``O(d_in)`` regardless of how small the edge probabilities are.

The hot loop deliberately draws one random number per examined edge, exactly
as Algorithm 2 specifies, so wall-clock comparisons against SUBSIM reflect
the paper's cost model.  Both loops take their uniforms from the same
draw-exact :class:`~repro.rrsets.base.UniformStream` and read the graph
through memoryviews, so they pay the same interpreted per-draw and
per-examined-edge constants; the values, counters and final RNG state are
those of one scalar ``rng.random()`` per examined edge.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator, UniformStream
from repro.utils.exceptions import ExecutionInterrupted


class VanillaICGenerator(RRGenerator):
    """Algorithm 2: per-edge coin-flip reverse BFS under the IC model."""

    name = "vanilla"
    batched_mode = "ic"

    def __init__(self, graph: CSRGraph) -> None:
        super().__init__(graph)
        self._resolve()

    def _resolve(self) -> None:
        """Memoryviews of the reverse CSR, refreshed after a delta."""
        graph = self.graph
        self._views = tuple(
            memoryview(np.ascontiguousarray(a))
            for a in (graph.in_indptr, graph.in_indices, graph.in_probs)
        )
        self._epoch = graph.delta_epoch

    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        if self._epoch != self.graph.delta_epoch:
            self._resolve()
        indptr, indices, probs = self._views
        visited = self._seen
        stop = (
            None if stop_mask is None
            else memoryview(np.ascontiguousarray(stop_mask, dtype=bool))
        )

        self._begin()
        v = self._pick_root(rng, root)
        rr = [v]
        visited[v] = True
        if stop is not None and stop[v]:
            return self._finish(rr, hit_sentinel=True)

        counters = self.counters
        control = self.control
        stream = UniformStream(rng)
        draw = stream.next
        add = rr.append
        queue = deque(rr)
        push = queue.append
        pop = queue.popleft
        # One draw per examined edge, so ``total`` counts both.  A sentinel
        # stop mid-block still counts the whole block, as Algorithm 2's
        # accounting always has, while the stream rewinds to the draws
        # actually taken.
        total = 0
        flushed = 0  # the part of ``total`` already in the counters
        while queue:
            u = pop()
            lo = indptr[u]
            hi = indptr[u + 1]
            total += hi - lo
            if control is not None:
                counters.edges_examined += total - flushed
                counters.rng_draws += total - flushed
                flushed = total
                try:
                    self._tick()
                except ExecutionInterrupted:
                    stream.sync(total - (hi - lo))
                    self._abandon(rr)
                    raise
            for j in range(lo, hi):
                if draw() < probs[j]:
                    w = indices[j]
                    if not visited[w]:
                        visited[w] = True
                        add(w)
                        if stop is not None and stop[w]:
                            return self._close(
                                rr, stream, total - flushed, total - flushed,
                                total - (hi - j - 1), True,
                            )
                        push(w)
        return self._close(
            rr, stream, total - flushed, total - flushed, total
        )
