"""Scatter-gather seed selection over shard-resident RR pools.

This is a line-for-line mirror of
:func:`~repro.coverage.greedy.max_coverage_greedy` that keeps the RR sets
in the shard workers and moves only per-node gain vectors.  The selection
sequence is **provably identical** to the single-pool implementation:

* The global gain of a node is the number of uncovered sets containing it;
  because the pool is *partitioned* across shards, that count is the plain
  sum of per-shard counts — no set is double-counted, so the gathered gain
  vector equals the single-pool gain vector entry for entry.
* Marking a selected node covers, on each shard, exactly the shard's slice
  of the sets the single-pool run would cover, and the returned members
  (with multiplicity) are the same decrement mass, merely shard-grouped —
  and ``np.subtract.at`` is order-independent.
* Argmax, tie-breaks (:func:`~repro.coverage.greedy._argmax`) and the
  Eq. 2 top-k bound (:func:`~repro.coverage.greedy._topk_sum`) operate on
  those identical gain vectors, so every selection decision — and every
  ``coverage.*`` metric — matches.

The entry point accepts ``initial_covered`` either as a
:class:`~repro.engine.shards.ShardedSeedMask` (the sharded view's
``covered_mask``) or ``None``; arbitrary boolean masks have no global
meaning for a distributed pool and are rejected.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.utils.exceptions import ConfigurationError


def _begin_selection(view, initial_covered):
    """Open a selection session; mark initial seeds; return base coverage."""
    from repro.engine.shards import ShardedSeedMask

    pool, role = view.shard_pool, view.role
    pool.select_begin(role, view.limits)
    base = 0
    seeds: List[int] = []
    if initial_covered is not None:
        if not isinstance(initial_covered, ShardedSeedMask):
            raise ConfigurationError(
                "sharded selection accepts initial_covered only as the "
                "view's own covered_mask(seeds); a raw boolean mask has no "
                "global meaning for a distributed pool"
            )
        seeds = initial_covered.seeds
        for s in seeds:
            newly, _ = pool.select_mark(role, s, want_decrements=False)
            base += newly
    return base, seeds


def _gather_covered(view) -> np.ndarray:
    """Assemble the distributed covered mask in global set order."""
    per_rank = view.shard_pool.select_covered(view.role)
    return view.assemble_global(per_rank).astype(bool, copy=False)


def sharded_max_coverage_greedy(
    view,
    select: int,
    topk: Optional[int] = None,
    out_degree: Optional[np.ndarray] = None,
    initial_covered=None,
    track_upper_bound: bool = True,
    excluded: Optional[List[int]] = None,
    metrics=None,
):
    """Exact-gain greedy over a :class:`~repro.engine.shards.ShardedPoolView`.

    Same parameters, result object, and selection sequence as
    :func:`~repro.coverage.greedy.max_coverage_greedy`.
    """
    from repro.coverage.greedy import GreedyResult, _argmax, _topk_sum

    n = view.n
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

    pool, role = view.shard_pool, view.role
    num_rr = view.num_rr
    gains = view.coverage_counts()
    try:
        base_coverage, initial_seeds = _begin_selection(view, initial_covered)
        if initial_seeds:
            # The single-pool version subtracts the members of every
            # initially covered set from the raw coverage counts; the
            # uncovered counts after marking the seeds are the same vector
            # (each covered set decrements each member exactly once).
            gains = pool.select_uncovered(role, np.arange(n, dtype=np.int64))

        coverage = base_coverage
        coverage_history = [coverage]
        upper_bound = float(num_rr) if track_upper_bound else float("inf")
        seeds: List[int] = []
        decrements = 0

        barred = np.zeros(n, dtype=bool)
        if excluded:
            barred[list(excluded)] = True

        for _ in range(select):
            if track_upper_bound:
                upper_bound = min(
                    upper_bound, coverage + _topk_sum(gains, topk)
                )
            if excluded:
                selectable = np.where(barred, np.int64(-1), gains)
                best = _argmax(selectable, out_degree)
            else:
                best = _argmax(gains, out_degree)
            seeds.append(best)
            coverage += int(gains[best])
            coverage_history.append(coverage)
            _, members = pool.select_mark(role, best, want_decrements=True)
            if len(members):
                np.subtract.at(gains, members, 1)
                decrements += len(members)
            gains[best] = -1  # never reselect
        if track_upper_bound:
            upper_bound = min(upper_bound, coverage + _topk_sum(gains, topk))
        covered = _gather_covered(view)
    finally:
        pool.select_end(role)

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
