"""D-SSA — Dynamic Stop-and-Stare [34], with the post-[24]/[33] fix.

D-SSA removes SSA's explicit stare phase: each round doubles one pool used
for selection (``R1``) while an equal-sized *independent* pool (``R2``)
re-estimates the selected seeds.  The round stops when the optimistic
selection-side estimate agrees with the independent one:

    I_1 = n * Cov_R1(S) / theta      (biased upward: S was fitted to R1)
    I_2 = n * Cov_R2(S) / theta      (unbiased: R2 independent of S)
    stop when Cov_R2(S) >= Lambda  and  I_1 <= (1 + eps_agree) * I_2

Huang et al. [24] showed the original analysis of this rule over-claims
and Nguyen et al.'s D-SSA-Fix [33] restores the approximation (but not the
efficiency) guarantee.  Following the same playbook as our SSA: the
agreement rule drives early stopping with ``eps_agree = eps / 2``, while a
hard cap at OPIM-C's unconditional ``theta_max`` guarantees
``(1 - 1/e - eps)`` with probability ``1 - delta`` regardless of how the
adaptive rule behaves.
"""

from __future__ import annotations

import math

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.bounds.thresholds import theta_max_opimc
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import fallback_seeds
from repro.utils.exceptions import ExecutionInterrupted


class DSSA(IMAlgorithm):
    """Dynamic Stop-and-Stare with a worst-case cap."""

    name = "d-ssa"

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        n = self.graph.n
        eps_agree = eps / 2.0
        # Minimum independent coverage before the agreement test is
        # meaningful (the Lambda of the D-SSA papers, eps/3-parameterised).
        e3 = eps / 3.0
        lambda_min = (
            (2.0 + 2.0 * e3 / 3.0)
            * (math.log(3.0 / delta) + math.log(max(math.log2(max(n, 2)), 1.0)))
            / (e3 * e3)
        )
        theta_cap = theta_max_opimc(n, k, eps, delta)

        bank1 = self._bank("dssa.r1")
        bank2 = self._bank("dssa.r2")

        theta = max(1, int(math.ceil(lambda_min)))
        theta = min(theta, theta_cap)
        seeds = []
        rounds = 0
        agreed = False
        served = 0
        try:
            while True:
                rounds += 1
                view1 = bank1.ensure(theta)
                view2 = bank2.ensure(theta)
                served = view1.num_rr
                greedy = max_coverage_greedy(
                    view1, select=k, track_upper_bound=False
                )
                seeds = greedy.seeds
                cov1 = greedy.coverage
                cov2 = view2.coverage(seeds)
                if cov2 >= lambda_min and cov2 > 0:
                    if cov1 / cov2 <= 1.0 + eps_agree:
                        agreed = True
                        break
                if theta >= theta_cap:
                    break
                theta = min(2 * theta, theta_cap)
        except ExecutionInterrupted as exc:
            if not seeds:
                pool = bank1.pool
                seeds = fallback_seeds(pool if pool.num_rr else None, k)
            return self._partial_result(
                seeds, k, eps, delta,
                generators=(bank1, bank2),
                reason=exc.reason,
                rounds=rounds,
                agreed=agreed,
            )

        return self._result_from(
            seeds,
            k,
            eps,
            delta,
            generators=(bank1, bank2),
            rounds=rounds,
            agreed=agreed,
            theta=served,
        )
