"""IMM — Influence Maximization via Martingales (Tang et al. [38]).

Two phases sharing one RR pool:

1. **Sampling** estimates a lower bound ``LB`` on ``OPT_k`` by statistical
   testing: for guesses ``x = n/2^i`` it grows the pool to
   ``lambda' / x`` sets and accepts the first guess whose greedy coverage
   estimate clears ``(1 + eps') x``.
2. **Selection** grows the pool to ``lambda* / LB`` sets and runs greedy.

The martingale analysis lets the second phase reuse the first phase's RR
sets despite the adaptive stopping.  IMM's sample count scales with
``ln C(n, k)``, which is why the paper finds it orders of magnitude slower
than the optimistic algorithms; ``max_rr_sets`` exists so that experiment
sweeps can cap the faithful-but-expensive schedule and report the cap.
"""

from __future__ import annotations

import math
from typing import Optional, Type

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.bounds.thresholds import imm_lambda_prime, imm_lambda_star
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import fallback_seeds
from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.utils.exceptions import ExecutionInterrupted


class IMM(IMAlgorithm):
    """Martingale-based IM with near-optimal sample complexity."""

    name = "imm"

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
        max_rr_sets: Optional[int] = None,
    ) -> None:
        super().__init__(graph, generator_cls)
        if max_rr_sets is not None and max_rr_sets < 1:
            raise ValueError("max_rr_sets must be positive when given")
        self.max_rr_sets = max_rr_sets

    def _cap(self, theta: int) -> int:
        return theta if self.max_rr_sets is None else min(theta, self.max_rr_sets)

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        n = self.graph.n
        eps_prime = math.sqrt(2.0) * eps
        lam_prime = imm_lambda_prime(n, k, eps_prime, delta)
        lam_star = imm_lambda_star(n, k, eps, delta)

        # Both phases share one pool — the martingale analysis allows it —
        # so IMM is a single bank whose prefix both phases select over.
        bank = self._bank("imm.pool")

        # Phase 1: estimate LB <= OPT_k by doubling guesses downward.
        lower_bound = 1.0
        capped = False
        theta_p1 = 0
        last_greedy = None
        try:
            max_i = max(1, int(math.ceil(math.log2(n))) - 1)
            for i in range(1, max_i + 1):
                x = n / (2.0 ** i)
                theta_i = self._cap(int(math.ceil(lam_prime / x)))
                capped = capped or theta_i == self.max_rr_sets
                theta_p1 = max(theta_p1, theta_i)
                view = bank.ensure(theta_i)
                greedy = max_coverage_greedy(
                    view, select=k, track_upper_bound=False
                )
                last_greedy = greedy
                estimate = n * greedy.coverage / view.num_rr
                if estimate >= (1.0 + eps_prime) * x:
                    lower_bound = estimate / (1.0 + eps_prime)
                    break
                if capped:
                    lower_bound = max(lower_bound, estimate / (1.0 + eps_prime))
                    break

            # Phase 2: final pool size and selection.  Phase 1's sets are
            # never discarded, so the effective size is at least theta_p1.
            theta = self._cap(int(math.ceil(lam_star / lower_bound)))
            capped = capped or theta == self.max_rr_sets
            view = bank.ensure(max(theta, theta_p1))
            greedy = max_coverage_greedy(
                view, select=k, track_upper_bound=False
            )
            last_greedy = greedy
        except ExecutionInterrupted as exc:
            # Degrade to the last completed greedy pass instead of rerunning
            # it over the interrupted pool.
            pool = bank.pool if bank.pool.num_rr else None
            seeds = fallback_seeds(pool, k, last=last_greedy)
            return self._partial_result(
                seeds, k, eps, delta,
                generators=(bank,),
                reason=exc.reason,
                opt_lower_bound=lower_bound,
                capped=capped,
            )

        return self._result_from(
            greedy.seeds,
            k,
            eps,
            delta,
            generators=(bank,),
            opt_lower_bound=lower_bound,
            capped=capped,
            coverage=greedy.coverage,
        )
