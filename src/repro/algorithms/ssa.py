"""SSA — Stop-and-Stare (Nguyen et al. [34]) with the SSA-Fix guarantees.

The "stop-and-stare" loop alternates between a *selection* pool that doubles
until the greedy solution's coverage clears a minimum threshold ``Lambda1``,
and a *stare* (validation) phase that estimates the selected set's influence
on **independent** RR sets drawn until ``Lambda2`` of them are covered.  The
run stops when the optimistic selection-side estimate is confirmed by the
independent one: ``n * cov / theta <= (1 + eps1) * I_validate``.

Huang et al. [24] showed the original analysis over-claimed; following their
SSA-Fix we (a) use the conservative epsilon split ``eps1 = eps2 = eps3 =
eps / 4`` — which satisfies the requirement ``eps1 + eps2 + eps1*eps2 +
(1 - 1/e) * eps3 <= eps`` for all ``eps < 1`` — and (b) cap the schedule at
OPIM-C's unconditional ``theta_max`` so a failed validation loop still
terminates with the worst-case guarantee.
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


class SSA(IMAlgorithm):
    """Stop-and-Stare with the [24] fix."""

    name = "ssa"
    #: cursor-style take() consumes sets one at a time — not shardable
    supports_shards = False

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        n = self.graph.n
        e1 = e2 = e3 = eps / 4.0
        delta_work = delta / 3.0  # selection / validation / cap union bound

        lambda1 = 1.0 + (1.0 + e1) * (1.0 + e2) * (2.0 + 2.0 * e3 / 3.0) * math.log(
            3.0 / delta_work
        ) / (e3 * e3)
        lambda2 = 1.0 + (1.0 + e2) * (2.0 + 2.0 * e2 / 3.0) * math.log(
            3.0 / delta_work
        ) / (e2 * e2)
        theta_cap = theta_max_opimc(n, k, eps, delta)

        bank_sel = self._bank("ssa.select")
        bank_val = self._bank("ssa.validate")
        theta = max(1, int(math.ceil(lambda1)))
        theta = min(theta, theta_cap)

        seeds = []
        rounds = 0
        validated = False
        served = 0
        stare_base = 0  # cursor into the validation bank's stream
        try:
            while True:
                rounds += 1
                view = bank_sel.ensure(theta)
                served = view.num_rr
                greedy = max_coverage_greedy(
                    view, select=k, track_upper_bound=False
                )
                seeds = greedy.seeds
                if greedy.coverage >= lambda1:
                    estimate, drawn = self._stare(
                        seeds, lambda2, theta_cap, bank_val, stare_base
                    )
                    stare_base += drawn
                    if estimate is not None:
                        selection_estimate = n * greedy.coverage / view.num_rr
                        if selection_estimate <= (1.0 + e1) * estimate:
                            validated = True
                            break
                if theta >= theta_cap:
                    break  # worst-case sample size reached: guarantee holds anyway
                theta = min(2 * theta, theta_cap)
        except ExecutionInterrupted as exc:
            if not seeds:
                pool = bank_sel.pool
                seeds = fallback_seeds(pool if pool.num_rr else None, k)
            return self._partial_result(
                seeds, k, eps, delta,
                generators=(bank_sel, bank_val),
                reason=exc.reason,
                rounds=rounds,
                validated=validated,
            )

        return self._result_from(
            seeds,
            k,
            eps,
            delta,
            generators=(bank_sel, bank_val),
            rounds=rounds,
            validated=validated,
            theta=served,
        )

    def _stare(self, seeds, lambda2, cap, bank, start):
        """Sequential validation: sample until ``lambda2`` RR sets are covered.

        Consumes the validation bank's stream one set at a time starting at
        position ``start`` (the cursor the selection loop accumulates across
        stare calls, so a warm bank replays the same segments a cold run
        draws).  Returns ``(estimate, drawn)`` where the estimate is
        ``n * covered / T`` — or None when the sampling budget ``cap`` is
        exhausted first (validation failure).
        """
        seed_mask = np.zeros(self.graph.n, dtype=bool)
        seed_mask[list(seeds)] = True
        covered = 0
        drawn = 0
        while covered < lambda2:
            if drawn >= cap:
                return None, drawn
            rr = bank.take(start + drawn)
            drawn += 1
            if seed_mask[np.asarray(rr)].any():
                covered += 1
        return self.graph.n * covered / drawn, drawn
