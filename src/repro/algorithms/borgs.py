"""Borgs et al.'s original RIS algorithm [8] — the foundation of the field.

The 2014 breakthrough that every later algorithm refines: keep generating
random RR sets until the **total number of edges examined** crosses a
threshold ``tau = O(k (m + n) log n / eps^3)``, then run greedy max
coverage.  Counting edge work rather than RR sets is what makes the
analysis go through (RR-set sizes are wildly variable), and it is also why
the later count-based algorithms (TIM+, IMM, OPIM-C) beat it in practice —
the ``eps^-3`` and the constant are enormous.

The threshold constant follows the paper's statement; since a faithful
``tau`` is astronomically large for realistic parameters, ``scale_tau``
(default 1.0) lets experiments dial it down explicitly — the run records
the faithful value alongside what was used.
"""

from __future__ import annotations

import math
from typing import Optional, Type

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import fallback_seeds
from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.utils.exceptions import ConfigurationError, ExecutionInterrupted


class BorgsRIS(IMAlgorithm):
    """Reverse Influence Sampling with the edge-budget stopping rule."""

    name = "borgs-ris"
    #: cursor-style take() consumes sets one at a time — not shardable
    supports_shards = False

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
        scale_tau: float = 1.0,
        max_rr_sets: Optional[int] = 500_000,
    ) -> None:
        super().__init__(graph, generator_cls)
        if scale_tau <= 0:
            raise ConfigurationError("scale_tau must be positive")
        self.scale_tau = scale_tau
        self.max_rr_sets = max_rr_sets

    def edge_budget(self, k: int, eps: float) -> int:
        """The paper's tau: ``c k (m + n) log n / eps^3`` (c = 1 here)."""
        n, m = self.graph.n, self.graph.m
        tau = k * (m + n) * math.log(max(n, 2)) / eps**3
        return max(1, int(math.ceil(tau * self.scale_tau)))

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        bank = self._bank("borgs.pool")
        budget = self.edge_budget(k, eps)
        faithful_budget = self.edge_budget(k, eps) / self.scale_tau

        # Consume the bank one set at a time until the edge budget is
        # exhausted.  ``counters_at`` prices the prefix consumed so far
        # (exact: take() marks every set), so a warm bank replays the same
        # stopping point a cold run reaches.  Every RR set costs at least
        # one unit (the root draw) so the loop terminates even on edgeless
        # graphs.
        idx = 0
        try:
            while bank.counters_at(idx).edges_examined < budget:
                bank.take(idx)
                idx += 1
                if bank.counters_at(idx).edges_examined == 0:
                    # Edgeless graph: RR sets are singletons; a handful gives
                    # the (trivial) coverage signal greedy needs.
                    if idx >= 3 * k:
                        break
                if self.max_rr_sets is not None and idx >= self.max_rr_sets:
                    break
        except ExecutionInterrupted as exc:
            view = bank.view(idx)
            seeds = fallback_seeds(view if view.num_rr else None, k)
            return self._partial_result(
                seeds, k, eps, delta,
                generators=(bank,),
                reason=exc.reason,
                edge_budget=budget,
            )

        greedy = max_coverage_greedy(
            bank.view(idx), select=k, track_upper_bound=False
        )
        return self._result_from(
            greedy.seeds,
            k,
            eps,
            delta,
            generators=(bank,),
            edge_budget=budget,
            faithful_edge_budget=faithful_budget,
            budget_scaled=self.scale_tau != 1.0,
        )
