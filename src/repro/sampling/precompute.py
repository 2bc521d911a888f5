"""Per-graph sampler preprocessing, cached on :class:`CSRGraph`.

Every sampler in this package derives small immutable structures from a
node's in-adjacency block before it can draw: the uniform path needs the
per-node rate and its ``log1p``, the sorted path needs the positional
bucket boundaries of Section 3.3, and the batched LT kernel needs a Walker
alias table per node.  Rebuilding those per *generator instance* wastes
work — algorithms construct many generators over one graph (one per bank
role, one per shard worker, one per query) — so the builders here are
designed to be memoised on the graph via :meth:`CSRGraph.cached
<repro.graphs.csr.CSRGraph.cached>`, keyed by the graph fingerprint.

All builders are pure functions of the graph arrays: they consume no
randomness and return arrays that are never mutated afterwards, so sharing
them across generators cannot change any sampled value or counter.
"""

from __future__ import annotations

import math
from typing import Dict, NamedTuple, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph
from repro.sampling.alias import build_alias_arrays

#: cache keys on :meth:`CSRGraph.cached`
UNIFORM_KEY = "sampling.uniform_arrays"
SEGMENTS_KEY = "sampling.sorted_segments"
LT_ALIAS_KEY = "sampling.lt_alias"
SAMPLER_DICT_KEY = "sampling.node_samplers"
BUCKET_TABLES_KEY = "sampling.bucket_tables"

#: relative margin under which a bucket's skip threshold sits below the
#: exact ``exp(L * log1p(-q))``; it absorbs the rounding of ``exp``,
#: ``log`` and the division, so a uniform below the threshold passes the
#: exact ``log(u) / lg >= L`` test (see :func:`build_bucket_table`)
SKIP_MARGIN = 1e-9

#: one positional bucket of a sorted in-block: ``(start, end, q, lg, skip)``
Bucket = Tuple[int, int, float, float, float]


class UniformArrays(NamedTuple):
    """Per-node uniform-rate arrays for the equal-probability fast path.

    ``is_uniform`` marks nodes whose (non-empty) in-block carries one
    probability; ``p`` holds that rate (0 elsewhere, and 0 for degenerate
    rates whose ``log1p`` underflows); ``log1mp`` holds ``log(1 - p)`` for
    rates strictly inside (0, 1).
    """

    is_uniform: np.ndarray
    p: np.ndarray
    log1mp: np.ndarray


def build_uniform_arrays(graph: CSRGraph) -> UniformArrays:
    deg = graph.in_degree()
    nonempty = deg > 0
    first = np.zeros(graph.n, dtype=np.float64)
    first[nonempty] = graph.in_probs[graph.in_indptr[:-1][nonempty]]
    is_uniform = graph.uniform_in & nonempty
    p = np.where(is_uniform, first, 0.0)
    log1mp = np.zeros(graph.n, dtype=np.float64)
    mid = is_uniform & (p > 0.0) & (p < 1.0)
    log1mp[mid] = np.log1p(-p[mid])
    # Probabilities below ~1e-300 underflow log1p to a denormal whose
    # reciprocal overflows; such nodes are unsampleable in practice, so
    # fold them into the p == 0 fast path.
    degenerate = mid & (log1mp > -1e-300)
    p[degenerate] = 0.0
    return UniformArrays(is_uniform, p, log1mp)


class SortedSegments(NamedTuple):
    """Flat positional-bucket boundaries of every skewed node (Section 3.3).

    Node ``u``'s buckets are segment ids ``node_indptr[u]:node_indptr[u+1]``;
    segment ``s`` spans edge positions ``[start[s], end[s])`` of the
    descending-sorted in-block, with ceiling probability ``q[s]`` (the
    probability at its first slot) and ``log1mq[s] = log(1 - q[s])`` for
    ceilings strictly below 1 (0 where the ceiling is certain).  Buckets
    whose ceiling is 0 — and everything after them, since blocks are sorted
    descending — are omitted, matching the sequential sampler's early
    ``break``.  Only non-uniform nodes get segments; uniform nodes take the
    geometric fast path.
    """

    node_indptr: np.ndarray
    start: np.ndarray
    end: np.ndarray
    q: np.ndarray
    log1mq: np.ndarray


def build_sorted_segments(graph: CSRGraph) -> SortedSegments:
    indptr = graph.in_indptr
    probs = graph.in_probs
    deg = graph.in_degree()
    skewed = np.flatnonzero(~graph.uniform_in & (deg > 0))
    counts = np.zeros(graph.n, dtype=np.int64)
    starts: list = []
    ends: list = []
    qs: list = []
    for u in skewed:
        lo = int(indptr[u])
        hi = int(indptr[u + 1])
        s = lo
        c = 0
        while s < hi:
            e = min(lo + 2 * (s - lo) + 1, hi)
            qv = float(probs[s])
            if not qv > 0.0:  # catches 0, negatives, and NaN
                break
            if qv < 1.0 and math.log1p(-qv) > -1e-300:
                break  # degenerate rate: geometric jumps would overflow
            starts.append(s)
            ends.append(e)
            qs.append(qv)
            c += 1
            s = e
        counts[u] = c
    node_indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(counts, out=node_indptr[1:])
    q = np.asarray(qs, dtype=np.float64)
    log1mq = np.zeros(len(q), dtype=np.float64)
    partial = q < 1.0
    log1mq[partial] = np.log1p(-q[partial])
    return SortedSegments(
        node_indptr,
        np.asarray(starts, dtype=np.int64),
        np.asarray(ends, dtype=np.int64),
        q,
        log1mq,
    )


def build_bucket_table(
    probs: Sequence[float], lo: int, hi: int
) -> Tuple[Bucket, ...]:
    """Positional buckets of one descending-sorted in-block (Section 3.3).

    Bucket ``j`` spans positions ``[lo + 2**j - 1, lo + 2**(j+1) - 1)``,
    clipped to ``hi``, with ceiling ``q`` (its first probability).  Each
    entry is ``(start, end, q, lg, skip)``: ``lg = log1p(-q)`` and ``skip =
    exp((end - start) * lg) * (1 - SKIP_MARGIN)`` for ceilings below 1,
    and ``lg = skip = 0`` for certain ceilings (``q >= 1``).  A clamped
    uniform below ``skip`` lands past the bucket, so the sequential sampler
    skips it without a ``log``; any other uniform takes the exact test.
    Where the exact bound is below the smallest normal double, ``skip`` is
    below every clamped uniform, so the shortcut never fires.  The table
    stops at the
    first ceiling that is not positive (0, negative or NaN), as the
    sampler's scan does; unlike :class:`SortedSegments` it keeps
    degenerate rates, which the sequential scan still visits.
    """
    table = []
    start = lo
    while start < hi:
        end = min(lo + 2 * (start - lo) + 1, hi)
        q = float(probs[start])
        if not q > 0.0:  # catches 0, negatives, and NaN
            break
        if q >= 1.0:
            table.append((start, end, q, 0.0, 0.0))
        else:
            lg = math.log1p(-q)
            skip = math.exp((end - start) * lg) * (1.0 - SKIP_MARGIN)
            table.append((start, end, q, lg, skip))
        start = end
    return tuple(table)


class LTAliasTables(NamedTuple):
    """Flat per-node Walker tables for the batched LT live-edge pick.

    Node ``u``'s table occupies ``indptr[u]:indptr[u+1]`` (size
    ``d_in(u) + 1`` for nodes with in-edges, 0 otherwise).  Local outcomes
    ``0..d_in(u)-1`` select the corresponding slot of the in-block; the
    last outcome is "no live in-edge" with weight ``1 - in_prob_sums[u]``.
    One uniform slot pick plus one coin per draw, regardless of degree.
    """

    indptr: np.ndarray
    prob: np.ndarray
    alias: np.ndarray


def build_lt_alias_tables(graph: CSRGraph) -> LTAliasTables:
    in_indptr = graph.in_indptr
    probs = graph.in_probs
    deg = graph.in_degree()
    sizes = np.where(deg > 0, deg + 1, 0)
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    total = int(indptr[-1])
    prob = np.empty(total, dtype=np.float64)
    alias = np.empty(total, dtype=np.int64)
    for u in np.flatnonzero(deg > 0):
        lo = int(in_indptr[u])
        hi = int(in_indptr[u + 1])
        block = probs[lo:hi]
        stop_weight = max(0.0, 1.0 - float(block.sum()))
        weights = np.empty(hi - lo + 1, dtype=np.float64)
        weights[:-1] = block
        weights[-1] = stop_weight
        p_row, a_row = build_alias_arrays(weights)
        off = int(indptr[u])
        prob[off: off + len(p_row)] = p_row
        alias[off: off + len(a_row)] = a_row
    return LTAliasTables(indptr, prob, alias)


def uniform_arrays(graph: CSRGraph) -> UniformArrays:
    """The graph's cached :class:`UniformArrays` (built on first use)."""
    return graph.cached(UNIFORM_KEY, build_uniform_arrays)


def sorted_segments(graph: CSRGraph) -> SortedSegments:
    """The graph's cached :class:`SortedSegments` (built on first use)."""
    return graph.cached(SEGMENTS_KEY, build_sorted_segments)


def lt_alias_tables(graph: CSRGraph) -> LTAliasTables:
    """The graph's cached :class:`LTAliasTables` (built on first use)."""
    return graph.cached(LT_ALIAS_KEY, build_lt_alias_tables)


def node_sampler_dict(graph: CSRGraph, general_mode: str) -> Dict[int, object]:
    """The shared lazily-filled per-node sampler dict for ``general_mode``.

    The ``"bucket"`` / ``"indexed"`` sequential paths build one
    :class:`~repro.sampling.bucket.BucketSampler` per visited skewed node;
    keying the dict on the graph lets every generator instance reuse the
    samplers earlier instances already built.
    """
    table: Dict[str, Dict[int, object]] = graph.cached(
        SAMPLER_DICT_KEY, lambda _g: {}
    )
    return table.setdefault(general_mode, {})


def bucket_table_dict(graph: CSRGraph) -> Dict[int, Tuple[Bucket, ...]]:
    """The graph's lazily filled ``node -> bucket table`` dict.

    The sequential sorted sampler fills it one skewed node at a time with
    :func:`build_bucket_table`, so its size is bounded by the skewed nodes
    actually visited, and every generator over the graph shares it.  Like
    every :meth:`CSRGraph.cached` entry it is fingerprint-guarded: a delta
    starts an empty dict.
    """
    return graph.cached(BUCKET_TABLES_KEY, lambda _g: {})


__all__: Tuple[str, ...] = (
    "Bucket",
    "LTAliasTables",
    "SortedSegments",
    "UniformArrays",
    "bucket_table_dict",
    "build_bucket_table",
    "build_lt_alias_tables",
    "build_sorted_segments",
    "build_uniform_arrays",
    "lt_alias_tables",
    "node_sampler_dict",
    "sorted_segments",
    "uniform_arrays",
)
