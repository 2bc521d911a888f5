"""TIM+ — Two-phase Influence Maximization (Tang et al. [39]).

Phase structure:

1. **KPT estimation** guesses ``KPT = E[I(v*)]`` (the expected influence of
   a degree-biased random node, which lower-bounds ``OPT_k / k`` effects in
   the sample bound) by testing whether the width statistic
   ``kappa = sum (1 - (1 - w(R)/m)^k)`` of a batch of RR sets clears the
   current guess, halving the guess otherwise.
2. **Refinement** (the "+" of TIM+) greedily selects seeds on a small pool
   and uses an independent estimate of their coverage to tighten ``KPT``.
3. **Selection** draws ``theta = lambda / KPT+`` RR sets and runs greedy.

``w(R)`` is the number of edges entering nodes of ``R``.  Like IMM, the
schedule grows with ``ln C(n, k)``; ``max_rr_sets`` caps it for sweeps.
"""

from __future__ import annotations

import math
from typing import Optional, Type

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.bounds.combinatorics import log_binomial
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import fallback_seeds
from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.utils.exceptions import ExecutionInterrupted


class TIMPlus(IMAlgorithm):
    """Near-linear-time IM with a KPT-based sample bound."""

    name = "tim+"

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
        graph = self.graph
        n, m = graph.n, graph.m
        in_deg = graph.in_degree()
        log_inv_delta = math.log(1.0 / delta)

        # One bank per phase pool; all four interleave on the run's stream
        # in transient mode exactly as the four ad-hoc pools used to.
        bank_est = self._bank("tim.estimate")
        bank_refine = self._bank("tim.refine")
        bank_check = self._bank("tim.check")
        bank_final = self._bank("tim.final")
        generators = (bank_est, bank_refine, bank_check, bank_final)

        # ``last_bank`` tracks the most recent selection-worthy pool so an
        # interrupt anywhere still yields best-so-far seeds.
        kpt_star = 1.0
        kpt_plus = 1.0
        theta = 0
        last_bank = bank_est
        try:
            # ---- Phase 1: KPT* estimation --------------------------------
            log2n = max(2, int(math.ceil(math.log2(max(n, 2)))))
            prev_c = 0
            for i in range(1, log2n):
                c_i = self._cap(
                    int(math.ceil((6.0 * log_inv_delta + 6.0 * math.log(log2n)) * 2**i))
                )
                view = bank_est.ensure(c_i)
                if m == 0 or c_i <= prev_c:
                    break
                prev_c = c_i
                # Width statistic over the first c_i sets, one reduceat over
                # the flat pool: w(R) = sum of in-degrees of R's nodes.
                # cumsum keeps the strictly left-to-right float accumulation
                # of the original per-set loop, preserving bit-identity.
                widths = view.per_set_sums(in_deg, stop=c_i)
                terms = 1.0 - (1.0 - widths.astype(np.float64) / m) ** k
                kappa = float(np.cumsum(terms)[-1]) if len(terms) else 0.0
                if kappa / c_i > 1.0 / (2.0 ** i):
                    kpt_star = n * kappa / (2.0 * c_i)
                    break
                if c_i == self.max_rr_sets:
                    break
            kpt_star = max(kpt_star, 1.0)

            # ---- Phase 2: refinement (KPT+) ------------------------------
            eps_prime = min(0.5, 5.0 * (eps ** 2 / (k + 1.0)) ** (1.0 / 3.0))
            lam_prime = (
                (2.0 + eps_prime)
                * n
                * (log_inv_delta + math.log(log2n))
                / (eps_prime ** 2)
            )
            theta_refine = self._cap(max(1, int(math.ceil(lam_prime / kpt_star))))
            last_bank = bank_refine
            view = bank_refine.ensure(theta_refine)
            greedy = max_coverage_greedy(
                view, select=k, track_upper_bound=False
            )
            check = bank_check.ensure(theta_refine)
            fraction = check.coverage(greedy.seeds) / check.num_rr
            kpt_plus = max(kpt_star, fraction * n / (1.0 + eps_prime))

            # ---- Phase 3: final selection --------------------------------
            lam = (
                (8.0 + 2.0 * eps)
                * n
                * (log_inv_delta + log_binomial(n, k) + math.log(2.0))
                / (eps ** 2)
            )
            theta = self._cap(max(1, int(math.ceil(lam / kpt_plus))))
            last_bank = bank_final
            view = bank_final.ensure(theta)
            greedy = max_coverage_greedy(
                view, select=k, track_upper_bound=False
            )
        except ExecutionInterrupted as exc:
            pool = last_bank.pool
            if not pool.num_rr and bank_est.pool.num_rr:
                pool = bank_est.pool
            seeds = fallback_seeds(pool if pool.num_rr else None, k)
            return self._partial_result(
                seeds, k, eps, delta,
                generators=generators,
                reason=exc.reason,
                kpt_star=kpt_star,
                kpt_plus=kpt_plus,
            )

        return self._result_from(
            greedy.seeds,
            k,
            eps,
            delta,
            generators=generators,
            kpt_star=kpt_star,
            kpt_plus=kpt_plus,
            theta=theta,
            capped=self.max_rr_sets is not None and theta == self.max_rr_sets,
        )
