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
    descending-sorted in-adjacency block.  Each skewed node's bucket
    bounds, ``log1p(-q)`` and skip threshold are built on its first visit
    and cached on the graph (:func:`~repro.sampling.precompute
    .bucket_table_dict`); a bucket whose draw falls below its threshold is
    skipped without a ``log``.
  - ``"bucket"``: Bringmann–Panagiotou probability-scale buckets,
    preprocessed lazily per node.
  - ``"indexed"``: bucket sampler plus the bucket-jump alias table, the
    paper's ``O(1 + mu)`` construction.

  Only ``"sorted"`` has a batched kernel; the batched engine refuses the
  other two.

The equal-probability and sorted paths are inlined in the hot loop, which
reads the graph through memoryviews, counts edges and draws in locals and
takes its uniforms from a :class:`~repro.rrsets.base.UniformStream`: the
values, counters and final RNG state are exactly those of one scalar
``rng.random()`` per draw, at a tenth of the per-draw cost.  The vanilla
loop (:mod:`repro.rrsets.vanilla`) draws the same way, so both pay
comparable interpreted per-operation constants and wall-clock ratios track
the paper's cost model.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Dict, List, Optional

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator, UniformStream
from repro.sampling.bucket import BucketSampler, IndexedBucketSampler
from repro.sampling.precompute import (
    bucket_table_dict,
    build_bucket_table,
    node_sampler_dict,
    uniform_arrays,
)
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
        self._resolve()

    def _resolve(self) -> None:
        """Fetch the graph's caches and views once per delta epoch.

        The per-node uniform-rate arrays, the bucket tables and the
        ``"bucket"``/``"indexed"`` samplers are cached on the graph, so
        every generator instance over it (bank roles, shard workers,
        repeated queries) shares one build; none is mutated here.  Looking
        them up hashes the fingerprint, so it happens here and again only
        after :meth:`CSRGraph.apply_delta` replaced the arrays.  The loop
        reads the arrays through memoryviews, whose indexing returns
        Python scalars and costs less than NumPy's.
        """
        graph = self.graph
        arrays = uniform_arrays(graph)
        self._is_uniform = arrays.is_uniform
        self._uniform_p = arrays.p
        self._log_one_minus_p = arrays.log1mp
        self._node_samplers: Dict[int, BucketSampler] = node_sampler_dict(
            graph, self.general_mode
        )
        self._tables = bucket_table_dict(graph)
        self._views = tuple(
            memoryview(np.ascontiguousarray(a))
            for a in (
                graph.in_indptr, graph.in_indices, graph.in_probs,
                arrays.is_uniform, arrays.p, arrays.log1mp,
            )
        )
        self._epoch = graph.delta_epoch

    # ------------------------------------------------------------------
    def generate(
        self,
        rng: np.random.Generator,
        root: Optional[int] = None,
        stop_mask: Optional[np.ndarray] = None,
    ) -> List[int]:
        if self._epoch != self.graph.delta_epoch:
            self._resolve()
        indptr, indices, probs, is_uniform, uniform_p, log1mp = self._views
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
        tables = self._tables
        sorted_mode = self.general_mode == "sorted"
        stream = UniformStream(rng)
        draw = stream.next
        log = math.log
        add = rr.append
        queue = deque(rr)
        push = queue.append
        pop = queue.popleft
        edges = 0  # flushed to the counters before every tick and at the end
        draws = 0  # uniforms taken from ``stream`` since its last sync
        while queue:
            u = pop()
            if control is not None:
                counters.edges_examined += edges
                edges = 0
                try:
                    self._tick()
                except ExecutionInterrupted:
                    counters.rng_draws += draws
                    stream.sync(draws)
                    self._abandon(rr)
                    raise
            lo = indptr[u]
            hi = indptr[u + 1]
            if lo == hi:
                continue
            if is_uniform[u]:
                p = uniform_p[u]
                if p <= 0.0:
                    continue
                if p >= 1.0:
                    # Every in-neighbor activates deterministically.
                    edges += hi - lo
                    for j in range(lo, hi):
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            add(w)
                            if stop is not None and stop[w]:
                                return self._close(
                                    rr, stream, edges, draws, draws, True
                                )
                            push(w)
                    continue
                # Algorithm 3: geometric skipping at rate p.
                lg = log1mp[u]
                draws += 1
                uval = draw()
                if uval <= 0.0:
                    uval = _TINY
                jump = log(uval) / lg
                if jump >= hi - lo:
                    continue
                pos = lo + int(jump)
                while pos < hi:
                    edges += 1
                    w = indices[pos]
                    if not visited[w]:
                        visited[w] = True
                        add(w)
                        if stop is not None and stop[w]:
                            return self._close(
                                rr, stream, edges, draws, draws, True
                            )
                        push(w)
                    draws += 1
                    uval = draw()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = log(uval) / lg
                    if jump >= hi - pos:
                        break
                    pos += int(jump) + 1
                continue

            # General (skewed) in-probabilities.
            if not sorted_mode:
                # The bucket samplers draw from ``rng`` themselves.
                counters.rng_draws += draws
                stream.sync(draws)
                draws = 0
                draw = stream.next
                if self._scan_with_sampler(
                    u, lo, indices, visited, rr, queue, stop, rng, counters
                ):
                    return self._close(rr, stream, edges, 0, 0, True)
                continue
            # Index-free positional buckets over the descending-sorted
            # block: geometric skips at each bucket's ceiling q, thinned
            # by an acceptance coin where p < q.
            table = tables.get(u)
            if table is None:
                table = tables[u] = build_bucket_table(probs, lo, hi)
            for start, end, q, lg, skip in table:
                if q >= 1.0:
                    # Ceiling is certain: examine each slot, accept w.p. p.
                    for j in range(start, end):
                        edges += 1
                        pj = probs[j]
                        if pj < 1.0:
                            draws += 1
                            if draw() >= pj:
                                continue
                        w = indices[j]
                        if not visited[w]:
                            visited[w] = True
                            add(w)
                            if stop is not None and stop[w]:
                                return self._close(
                                    rr, stream, edges, draws, draws, True
                                )
                            push(w)
                    continue
                draws += 1
                uval = draw()
                if uval <= 0.0:
                    uval = _TINY
                if uval < skip:
                    continue  # the first jump lands past the bucket
                jump = log(uval) / lg
                if jump >= end - start:
                    continue
                pos = start + int(jump)
                while pos < end:
                    edges += 1
                    pj = probs[pos]
                    accept = True
                    if pj < q:
                        draws += 1
                        accept = draw() < pj / q
                    if accept:
                        w = indices[pos]
                        if not visited[w]:
                            visited[w] = True
                            add(w)
                            if stop is not None and stop[w]:
                                return self._close(
                                    rr, stream, edges, draws, draws, True
                                )
                            push(w)
                    draws += 1
                    uval = draw()
                    if uval <= 0.0:
                        uval = _TINY
                    jump = log(uval) / lg
                    if jump >= end - pos:
                        break
                    pos += int(jump) + 1
        return self._close(rr, stream, edges, draws, draws)

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
