"""Vanilla IC RR-set generation (paper Algorithm 2).

Reverse BFS from a uniformly random root: when a node is activated, *every*
one of its incoming edges is examined with an independent coin flip.  This is
the generator all prior RR-based IM algorithms (TIM+, IMM, SSA, OPIM-C)
share, and the baseline SUBSIM improves on — its cost per activated node is
``O(d_in)`` regardless of how small the edge probabilities are.

The hot loop deliberately draws one random number per examined edge, exactly
as Algorithm 2 specifies, so wall-clock comparisons against SUBSIM reflect
the paper's cost model (both implementations pay the same interpreted
per-examined-edge constant).
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

import numpy as np

from repro.rrsets.base import RRGenerator
from repro.utils.exceptions import ExecutionInterrupted


class VanillaICGenerator(RRGenerator):
    """Algorithm 2: per-edge coin-flip reverse BFS under the IC model."""

    name = "vanilla"
    batched_mode = "ic"

    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        graph = self.graph
        indptr = graph.in_indptr
        indices = graph.in_indices
        probs = graph.in_probs
        visited = self._visited
        counters = self.counters
        random = rng.random

        self._begin()
        v = self._pick_root(rng, root)
        rr = [v]
        visited[v] = True
        if stop_mask is not None and stop_mask[v]:
            return self._finish(rr, hit_sentinel=True)

        queue = deque(rr)
        try:
            while queue:
                u = queue.popleft()
                lo = indptr[u]
                hi = indptr[u + 1]
                counters.edges_examined += hi - lo
                counters.rng_draws += hi - lo
                self._tick()
                for j in range(lo, hi):
                    if random() < probs[j]:
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return self._finish(rr, hit_sentinel=True)
                            queue.append(w)
        except ExecutionInterrupted:
            self._abandon(rr)
            raise
        return self._finish(rr)
