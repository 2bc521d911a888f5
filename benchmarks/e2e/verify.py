"""Verification of the benchmark's answers against held-out RR pools.

Runs in the parent process after the child has reported its seeds and
bounds, so none of this work is timed.  Two pools are drawn with the
batched vanilla IC kernel, which shares no sampling code with the SUBSIM
generators the workloads run:

* ``E`` estimates spread: ``sigma_E(S) = n * cov_E(S) / |E|``;
* ``F`` picks the greedy proxy ``G_k`` (greedy is prefix-consistent, so one
  run at the largest k gives every smaller k).  Like any k seeds, ``G_k``
  spreads no further than OPT, so ``(1 - 1/e - eps) * sigma_E(G_k)`` is a
  floor every correct answer clears, up to the estimate's error.

The base pools are fixed datasets like the graphs (see :mod:`inputs`) and
are cached next to them.  ``serve-mixed`` changes its graph with every
delta, so each query is checked on the graph it was answered on: the
deltas are replayed in the order the single client sent them, and each
epoch that answered a query gets its own ``E``, drawn from a seed fixed by
the epoch's number.  ``G_k`` stays the base graph's greedy set; it is still
at most OPT on the changed graph.  Each pool holds
:attr:`inputs.Sizes.pool_sets` sets: a standard error of ``sigma / n`` of
at most ``sqrt(0.25 / 10_000)`` = 0.5% at any coverage.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

import inputs
from repro.coverage.greedy import max_coverage_greedy
from repro.graphs import io
from repro.graphs.dynamic import GraphDelta
from repro.rrsets.collection import RRCollection
from repro.rrsets.vanilla import VanillaICGenerator

POOL_BATCH = 2048
#: the server's default eps (serve-mixed queries do not send their own)
SERVE_EPS = 0.3


def draw_pool(graph, seed: int, count: int) -> RRCollection:
    generator = VanillaICGenerator(graph)
    generator.batch_size = POOL_BATCH
    pool = RRCollection(graph.n)
    pool.extend(count, generator, np.random.default_rng(seed))
    return pool


def cached_pool(path: Path, graph, seed: int, count: int) -> RRCollection:
    """A held-out pool, stored under ``path`` after first use."""
    if path.exists():
        with np.load(path) as data:
            pool = RRCollection(graph.n)
            pool.add_batch(data["nodes"], data["sizes"])
            return pool
    pool = draw_pool(graph, seed, count)
    tmp = path.with_name(path.stem + ".tmp.npz")
    np.savez(tmp, nodes=pool.rr_nodes, sizes=pool.set_sizes())
    tmp.replace(path)
    return pool


def pool_seed(graph_name: str, role: str, epoch: int = 0) -> int:
    names = ("pool", graph_name, role) + ((f"epoch-{epoch}",) if epoch else ())
    return inputs.derive_seed(inputs.STATE_SEED, *names)


class Reference:
    """Spread estimates on one graph, and the greedy proxy."""

    def __init__(self, n: int, evaluation: RRCollection,
                 greedy: Sequence[int]) -> None:
        self.n = n
        self.pool = evaluation
        self.greedy = list(greedy)

    def spread(self, seeds) -> Tuple[float, float]:
        """``(sigma_E(seeds), its standard error)``."""
        count = self.pool.num_rr
        p = self.pool.coverage(seeds) / count
        return self.n * p, self.n * math.sqrt(p * (1.0 - p) / count)

    def check(
        self, label: str, seeds: List[int], k: int, eps: float,
        lower: Optional[float],
    ) -> Tuple[List[str], float]:
        """Errors for one answer, and its spread ratio against greedy."""
        errors = []
        if len(seeds) != k or len(set(seeds)) != k:
            errors.append(
                f"{label}: {len(set(seeds))} distinct of {len(seeds)} seeds, "
                f"expected {k}"
            )
        sigma, stderr = self.spread(seeds)
        proxy, _ = self.spread(self.greedy[:k])
        floor = (1.0 - 1.0 / math.e - eps) * proxy - 3.0 * stderr
        if sigma < floor:
            errors.append(
                f"{label}: spread {sigma:.1f} below (1-1/e-eps) x greedy "
                f"{proxy:.1f} - 3 stderr = {floor:.1f}"
            )
        if lower is not None and lower > sigma + 3.0 * stderr:
            errors.append(
                f"{label}: lower bound {lower:.1f} exceeds spread "
                f"{sigma:.1f} + 3 stderr ({stderr:.1f})"
            )
        return errors, (sigma / proxy if proxy > 0 else 0.0)


def verify(
    workload: str, smoke: bool, ops: List[Dict[str, Any]],
    plan: List[Dict[str, Any]],
) -> Tuple[List[str], List[float]]:
    """Check every answered query; return the errors and spread ratios.

    ``ops`` are the child's records in the order they ran; a delta record
    is joined with its plan entry to replay it.
    """
    name = inputs.GRAPH_OF[workload]
    count = inputs.sizes(smoke).pool_sets
    graph = io.load_npz(inputs.graph_path(name, smoke))
    tag = inputs.graph_tag(name, smoke)
    evaluation, selection = (
        cached_pool(
            inputs.CACHE / f"pool-{tag}-{role}-{count}.npz", graph,
            pool_seed(name, role), count,
        )
        for role in "EF"
    )
    kmax = max(
        (plan[op["i"]]["k"] for op in ops if op["kind"] == "query"), default=1
    )
    greedy = max_coverage_greedy(
        selection, select=min(kmax, graph.n), track_upper_bound=False
    ).seeds
    ref: Optional[Reference] = Reference(graph.n, evaluation, greedy)
    serving = workload == "serve-mixed"
    epoch = 0
    errors: List[str] = []
    ratios: List[float] = []
    for op in ops:
        label = f"{workload} op {op['i']}"
        if op["kind"] == "delta":
            if not op["ok"]:
                continue
            graph.apply_delta(GraphDelta(updates=plan[op["i"]]["updates"]))
            epoch += 1
            if op["epoch"] != epoch:
                errors.append(
                    f"{label}: the server reports delta epoch {op['epoch']}, "
                    f"replay reached {epoch}"
                )
            ref = None
            continue
        if not op["ok"]:
            continue
        if ref is None:
            ref = Reference(
                graph.n, draw_pool(graph, pool_seed(name, "E", epoch), count),
                greedy,
            )
        entry = plan[op["i"]]
        found, ratio = ref.check(
            label,
            op["seeds"],
            entry["k"],
            SERVE_EPS if serving else entry["eps"],
            None if serving else op["lower"],
        )
        errors.extend(found)
        ratios.append(ratio)
    return errors, ratios
