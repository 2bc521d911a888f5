"""SUBSIM RR-set generation (paper Algorithm 3 + Section 3.3).

When a node ``u`` is activated during the reverse traversal, activating its
in-neighbors is an independent subset-sampling problem over ``d_in(u)``
elements.  Instead of flipping one coin per incoming edge (Algorithm 2),
SUBSIM draws the gap to the next success from the geometric distribution and
*jumps* over the failures, so the expected work at ``u`` is
``O(1 + sum of incoming probabilities)``.

Per-node dispatch:

* all incoming probabilities equal (WC, WC-variant below the cap, uniform
  IC) — pure geometric skipping (Algorithm 3);
* otherwise (exponential / Weibull / trivalency weights) — one of the
  general-IC samplers from Section 3.3, selected by ``general_mode``:

  - ``"sorted"`` (default): index-free positional bucketing over the
    descending-sorted in-adjacency block; no preprocessing.
  - ``"bucket"``: Bringmann–Panagiotou probability-scale buckets,
    preprocessed lazily per node.
  - ``"indexed"``: bucket sampler plus the bucket-jump alias table, the
    paper's ``O(1 + mu)`` construction.

The equal-probability and sorted paths are inlined in the hot loop so that
vanilla and SUBSIM pay comparable interpreted per-operation constants and
wall-clock ratios track the paper's cost model.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.sampling.bucket import BucketSampler, IndexedBucketSampler
from repro.sampling.precompute import node_sampler_dict, uniform_arrays
from repro.utils.exceptions import ExecutionInterrupted

_TINY = 2.2250738585072014e-308  # smallest positive normal double

_GENERAL_MODES = ("sorted", "bucket", "indexed")


class SubsimICGenerator(RRGenerator):
    """Subset-sampling RR-set generator under the IC model."""

    name = "subsim"
    batched_mode = "subsim"

    def __init__(self, graph: CSRGraph, general_mode: str = "sorted") -> None:
        super().__init__(graph)
        if general_mode not in _GENERAL_MODES:
            raise ValueError(
                f"general_mode must be one of {_GENERAL_MODES}, got {general_mode!r}"
            )
        self.general_mode = general_mode
        # Per-node uniform-rate arrays, cached on the graph: every generator
        # instance over this graph (bank roles, shard workers, repeated
        # queries) shares one build.  The arrays are never mutated here.
        arrays = uniform_arrays(graph)
        self._is_uniform = arrays.is_uniform
        self._uniform_p = arrays.p
        self._log_one_minus_p = arrays.log1mp
        # Lazily built per-node samplers for the "bucket"/"indexed" modes,
        # shared across instances through the graph cache as well.
        self._node_samplers: Dict[int, BucketSampler] = node_sampler_dict(
            graph, general_mode
        )

    # ------------------------------------------------------------------
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
        is_uniform = self._is_uniform
        uniform_p = self._uniform_p
        log1mp = self._log_one_minus_p
        sorted_mode = self.general_mode == "sorted"

        self._begin()
        v = self._pick_root(rng, root)
        rr = [v]
        visited[v] = True
        if stop_mask is not None and stop_mask[v]:
            return self._finish(rr, hit_sentinel=True)

        queue = deque(rr)
        try:
            return self._traverse(
                rr, queue, indptr, indices, probs, visited, counters,
                random, is_uniform, uniform_p, log1mp, sorted_mode,
                stop_mask, rng,
            )
        except ExecutionInterrupted:
            self._abandon(rr)
            raise

    def _traverse(
        self, rr, queue, indptr, indices, probs, visited, counters,
        random, is_uniform, uniform_p, log1mp, sorted_mode, stop_mask, rng,
    ) -> List[int]:
        while queue:
            u = queue.popleft()
            self._tick()
            lo = int(indptr[u])
            hi = int(indptr[u + 1])
            if lo == hi:
                continue
            if is_uniform[u]:
                p = uniform_p[u]
                if p <= 0.0:
                    continue
                if p >= 1.0:
                    # Every in-neighbor activates deterministically.
                    counters.edges_examined += hi - lo
                    for j in range(lo, hi):
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return self._finish(rr, hit_sentinel=True)
                            queue.append(w)
                    continue
                # Algorithm 3: geometric skipping at rate p.
                lg = log1mp[u]
                counters.rng_draws += 1
                uval = random()
                if uval <= 0.0:
                    uval = _TINY
                jump = math.log(uval) / lg
                if jump >= hi - lo:
                    continue
                pos = lo + int(jump)
                while pos < hi:
                    counters.edges_examined += 1
                    w = indices[pos]
                    if not visited[w]:
                        visited[w] = True
                        rr.append(w)
                        if stop_mask is not None and stop_mask[w]:
                            return self._finish(rr, hit_sentinel=True)
                        queue.append(w)
                    counters.rng_draws += 1
                    uval = random()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = math.log(uval) / lg
                    if jump >= hi - pos:
                        break
                    pos += int(jump) + 1
                continue

            # General (skewed) in-probabilities.
            if sorted_mode:
                hit = self._scan_sorted_block(
                    lo, hi, indices, probs, visited, rr, queue,
                    stop_mask, rng, counters,
                )
            else:
                hit = self._scan_with_sampler(
                    u, lo, indices, visited, rr, queue, stop_mask, rng, counters
                )
            if hit:
                return self._finish(rr, hit_sentinel=True)
        return self._finish(rr)

    # ------------------------------------------------------------------
    @staticmethod
    def _scan_sorted_block(
        lo, hi, indices, probs, visited, rr, queue, stop_mask, rng, counters
    ) -> bool:
        """Index-free sampler over one descending-sorted in-adjacency block.

        Returns True when a sentinel node was activated (caller must stop).
        """
        random = rng.random
        lo = int(lo)
        hi = int(hi)
        start = lo
        while start < hi:
            end = min(lo + 2 * (start - lo) + 1, hi)
            q = probs[start]
            if not q > 0.0:  # catches 0, negatives, and NaN
                break
            if q >= 1.0:
                # Ceiling is certain: examine each slot, accept w.p. p.
                for j in range(start, end):
                    counters.edges_examined += 1
                    pj = probs[j]
                    if pj < 1.0:
                        counters.rng_draws += 1
                        if random() >= pj:
                            continue
                    w = indices[j]
                    if not visited[w]:
                        visited[w] = True
                        rr.append(w)
                        if stop_mask is not None and stop_mask[w]:
                            return True
                        queue.append(w)
            else:
                lg = math.log1p(-q)
                counters.rng_draws += 1
                uval = random()
                if uval <= 0.0:
                    uval = _TINY
                jump = math.log(uval) / lg
                if jump >= end - start:
                    start = end
                    continue
                pos = start + int(jump)
                while pos < end:
                    counters.edges_examined += 1
                    pj = probs[pos]
                    accept = True
                    if pj < q:
                        counters.rng_draws += 1
                        accept = random() < pj / q
                    if accept:
                        w = indices[pos]
                        if not visited[w]:
                            visited[w] = True
                            rr.append(w)
                            if stop_mask is not None and stop_mask[w]:
                                return True
                            queue.append(w)
                    counters.rng_draws += 1
                    uval = random()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = math.log(uval) / lg
                    if jump >= end - pos:
                        break
                    pos += int(jump) + 1
            start = end
        return False

    # ------------------------------------------------------------------
    def _scan_with_sampler(
        self, u, lo, indices, visited, rr, queue, stop_mask, rng, counters
    ) -> bool:
        """Bucket / indexed-bucket sampling of node ``u``'s in-neighbors."""
        sampler = self._node_samplers.get(u)
        if sampler is None:
            block = self.graph.in_probs[lo: self.graph.in_indptr[u + 1]]
            cls = (
                IndexedBucketSampler
                if self.general_mode == "indexed"
                else BucketSampler
            )
            sampler = cls(block)
            self._node_samplers[u] = sampler
        positions = sampler.sample(rng)
        counters.edges_examined += len(positions)
        counters.rng_draws += len(positions) + 1
        for offset in positions:
            w = indices[lo + offset]
            if not visited[w]:
                visited[w] = True
                rr.append(w)
                if stop_mask is not None and stop_mask[w]:
                    return True
                queue.append(w)
        return False
