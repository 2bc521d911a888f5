"""Linear-threshold RR-set generation.

Under the LT model's live-edge interpretation, each node keeps at most one
incoming edge: edge ``(u, v)`` survives with probability ``p(u, v)`` and no
edge survives with probability ``1 - sum of incoming weights``.  A reverse
reachable set is therefore a simple backward *walk*: from the root, repeatedly
step to the single live in-neighbor until the walk stops or revisits a node.

The cost of sampling the live edge at a node is proportional to the incoming
weight mass (cf. paper Section 3.2, "Extensions to LT model"), which is what
gives LT-based IM its ``O(k n log n / eps^2)`` bound without any changes to
the generator.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.rrsets.base import RRGenerator
from repro.utils.exceptions import ExecutionInterrupted


class LTGenerator(RRGenerator):
    """Backward live-edge walk producing LT RR sets.

    Requires each node's incoming probabilities to sum to at most 1 (apply
    :func:`repro.graphs.weights.lt_normalized_weights` first); construction
    validates this.
    """

    name = "lt"
    batched_mode = "lt"

    def __init__(self, graph) -> None:
        super().__init__(graph)
        if graph.n and float(graph.in_prob_sums.max()) > 1.0 + 1e-9:
            raise ValueError(
                "LT model requires per-node incoming probabilities summing "
                "to at most 1; apply lt_normalized_weights() first"
            )

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

        current = v
        try:
            while True:
                self._tick()
                lo = indptr[current]
                hi = indptr[current + 1]
                if lo == hi:
                    break
                counters.rng_draws += 1
                draw = random()
                acc = 0.0
                nxt = -1
                for j in range(lo, hi):
                    counters.edges_examined += 1
                    acc += probs[j]
                    if draw < acc:
                        nxt = indices[j]
                        break
                if nxt < 0:  # the "no live in-edge" outcome
                    break
                if visited[nxt]:  # walked into a cycle; everything ahead is known
                    break
                visited[nxt] = True
                rr.append(nxt)
                if stop_mask is not None and stop_mask[nxt]:
                    return self._finish(rr, hit_sentinel=True)
                current = nxt
        except ExecutionInterrupted:
            self._abandon(rr)
            raise
        return self._finish(rr)
