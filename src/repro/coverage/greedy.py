"""Greedy maximum coverage (paper Algorithms 1 and 6).

The greedy algorithm repeatedly selects the node with the largest *marginal
coverage* — the number of not-yet-covered RR sets it belongs to — giving the
classic ``(1 - 1/e)`` approximation of the best size-k cover, and, through
Lemma 1, of the influence-maximizing seed set.

This implementation keeps marginal gains **exact** at every step with the
decremental trick: when a node is selected, each newly covered RR set
decrements the gain of every node it contains.  Total maintenance cost is
bounded by the pool's total mass, and exact gains let us evaluate the
OPIM upper bound (Eq. 2) — ``min_i (Lambda(S_i) + sum of the k largest
marginals w.r.t. S_i)`` — at *every* prefix at O(n) extra cost per step.

Algorithm 6's revision for HIST is the ``out_degree`` tie-break: among nodes
with equal maximal marginal coverage, prefer the one with the largest
out-degree, since high-out-degree sentinels are hit sooner by later RR sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.rrsets.collection import RRCollection
from repro.utils.exceptions import ConfigurationError


@dataclass
class GreedyResult:
    """Outcome of one greedy max-coverage run.

    ``coverage_history[i]`` is the absolute coverage of the first ``i``
    selections (including any initially covered sets), so it has length
    ``len(seeds) + 1``.  ``upper_bound_coverage`` is the Eq. 2 coverage upper
    bound on the optimal size-``topk`` seed set (``inf`` when tracking was
    disabled).
    """

    seeds: List[int]
    coverage: int
    coverage_history: List[int] = field(repr=False)
    upper_bound_coverage: float
    #: boolean per-set membership mask
    covered: np.ndarray = field(repr=False)


def max_coverage_greedy(
    collection: RRCollection,
    select: int,
    topk: Optional[int] = None,
    out_degree: Optional[np.ndarray] = None,
    initial_covered: Optional[np.ndarray] = None,
    track_upper_bound: bool = True,
    excluded: Optional[List[int]] = None,
    metrics=None,
) -> GreedyResult:
    """Select ``select`` seeds greedily by marginal coverage.

    Parameters
    ----------
    collection:
        The RR-set pool to cover.
    select:
        Number of seeds to pick (1 <= select <= n).
    topk:
        Size of the optimal set the Eq. 2 upper bound refers to; defaults to
        ``select``.  HIST's IM-Sentinel phase selects ``k - b`` seeds but
        still bounds the size-``k`` optimum, hence the separate knob.
    out_degree:
        When given, enables Algorithm 6's tie-break: ties in marginal
        coverage resolve toward the larger out-degree.
    initial_covered:
        Boolean mask of RR sets to treat as already covered (HIST removes
        sentinel-hit sets this way); the returned coverages are absolute,
        i.e. include these.
    track_upper_bound:
        Disable to skip the per-step top-k scan when the bound is not needed.
    excluded:
        Nodes greedy must never select (HIST bars the sentinels from
        re-selection in the IM-Sentinel phase).  They still participate in
        the Eq. 2 top-k sums — excluding them there would invalidate the
        bound on the unconstrained optimum... except their marginal gains
        are zero by construction (their RR sets are initially covered), so
        nothing changes.
    metrics:
        Optional :class:`~repro.observability.registry.MetricsRegistry`;
        when given, records ``coverage.selections`` and the decremental
        maintenance mass ``coverage.gain_decrements``.
    """
    if getattr(collection, "is_sharded", False):
        # Shard-resident pool: scatter-gather selection (identical seed
        # sequence; see repro.coverage.sharded).
        from repro.coverage.sharded import sharded_max_coverage_greedy

        return sharded_max_coverage_greedy(
            collection,
            select,
            topk=topk,
            out_degree=out_degree,
            initial_covered=initial_covered,
            track_upper_bound=track_upper_bound,
            excluded=excluded,
            metrics=metrics,
        )
    n = collection.n
    excluded = excluded or []
    if not 1 <= select <= n - len(set(excluded)):
        raise ConfigurationError(
            f"select must lie in [1, {n - len(set(excluded))}] "
            f"(n minus excluded), got {select}"
        )
    if topk is None:
        topk = select
    if topk < 1:
        raise ConfigurationError(f"topk must be positive, got {topk}")

    num_rr = collection.num_rr

    # The gain vector starts from the pool's cached per-node coverage
    # counts (maintained incrementally on append — no index rebuild here).
    gains = collection.coverage_counts()
    covered = (
        initial_covered.copy()
        if initial_covered is not None
        else np.zeros(num_rr, dtype=bool)
    )
    if initial_covered is not None and covered.any():
        if len(covered) != num_rr:
            raise ConfigurationError(
                f"initial_covered has {len(covered)} entries for {num_rr} RR sets"
            )
        members = collection.nodes_of_sets(np.flatnonzero(covered))
        np.subtract.at(gains, members, 1)

    base_coverage = int(covered.sum())
    coverage = base_coverage
    coverage_history = [coverage]
    # No seed set can cover more than the pool itself; the per-step sums
    # below may double-count RR sets shared by the top-k candidates, so
    # the pool size is a valid (and sometimes binding) cap on Eq. 2.
    upper_bound = float(num_rr) if track_upper_bound else float("inf")
    seeds: List[int] = []
    decrements = 0

    barred = np.zeros(n, dtype=bool)
    if excluded:
        barred[list(excluded)] = True

    for _ in range(select):
        if track_upper_bound:
            upper_bound = min(upper_bound, coverage + _topk_sum(gains, topk))
        if excluded:
            selectable = np.where(barred, np.int64(-1), gains)
            best = _argmax(selectable, out_degree)
        else:
            best = _argmax(gains, out_degree)
        seeds.append(best)
        coverage += int(gains[best])
        coverage_history.append(coverage)
        # Decremental maintenance, vectorized: every RR set newly covered by
        # ``best`` decrements the gain of each of its members in one
        # ``np.subtract.at`` over the flat pool (duplicates across sets are
        # exactly the multiplicities the decrement needs).
        containing = collection.rrs_containing(best)
        newly = containing[~covered[containing]]
        if len(newly):
            covered[newly] = True
            members = collection.nodes_of_sets(newly)
            np.subtract.at(gains, members, 1)
            decrements += len(members)
        gains[best] = -1  # never reselect
    if track_upper_bound:
        upper_bound = min(upper_bound, coverage + _topk_sum(gains, topk))
    if metrics is not None:
        metrics.inc("coverage.selections", len(seeds))
        metrics.inc("coverage.gain_decrements", decrements)

    return GreedyResult(
        seeds=seeds,
        coverage=coverage,
        coverage_history=coverage_history,
        upper_bound_coverage=upper_bound,
        covered=covered,
    )


def _topk_sum(gains: np.ndarray, topk: int) -> int:
    """Sum of the ``topk`` largest non-negative gains."""
    if topk >= len(gains):
        top = gains
    else:
        top = np.partition(gains, len(gains) - topk)[len(gains) - topk:]
    return int(np.maximum(top, 0).sum())


def _argmax(gains: np.ndarray, out_degree: Optional[np.ndarray]) -> int:
    """Best node by gain; optional out-degree tie-break (Algorithm 6)."""
    if out_degree is None:
        return int(np.argmax(gains))
    best_gain = gains.max()
    candidates = np.flatnonzero(gains == best_gain)
    if len(candidates) == 1:
        return int(candidates[0])
    return int(candidates[np.argmax(out_degree[candidates])])
