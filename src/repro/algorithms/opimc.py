"""OPIM-C [37] — and, with a SUBSIM generator, the paper's SUBSIM algorithm.

OPIM-C maintains two equal-sized independent RR pools.  ``R1`` drives greedy
seed selection and yields the Eq. 2 upper bound on the optimum; ``R2`` is
independent of the selected seeds, so Eq. 1 gives a valid lower bound on
their influence.  The pools double until

    lower(S_k*) / upper(S_k^o)  >  1 - 1/e - eps,

capped by ``theta_max`` which certifies the guarantee unconditionally.  The
paper's *SUBSIM* system is exactly this algorithm with the vanilla RR
generator swapped for :class:`~repro.rrsets.subsim.SubsimICGenerator`:

>>> OPIMC(graph, generator_cls=SubsimICGenerator).run(k=50)   # doctest: +SKIP
"""

from __future__ import annotations

import math
from typing import Type

import numpy as np

from repro.algorithms.base import IMAlgorithm
from repro.bounds.opim import influence_lower_bound, influence_upper_bound
from repro.bounds.thresholds import theta_max_opimc
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.engine.schedule import (
    DoublingResume,
    SamplingSchedule,
    fallback_seeds,
    run_doubling,
)
from repro.graphs.csr import CSRGraph
from repro.rrsets.base import RRGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime.checkpoint import counters_to_dict


class OPIMC(IMAlgorithm):
    """Online Processing of Influence Maximization with early stopping."""

    name = "opim-c"

    def __init__(
        self,
        graph: CSRGraph,
        generator_cls: Type[RRGenerator] = VanillaICGenerator,
    ) -> None:
        super().__init__(graph, generator_cls)
        if generator_cls is not VanillaICGenerator:
            self.name = f"opim-c+{generator_cls.name}"

    def _select(
        self, k: int, eps: float, delta: float, rng: np.random.Generator
    ) -> IMResult:
        n = self.graph.n
        theta0 = max(1, int(math.ceil(3.0 * math.log(1.0 / delta))))
        theta_max = theta_max_opimc(n, k, eps, delta)
        i_max = self._doubling_iterations(theta0, theta_max)
        delta_iter = delta / (3.0 * i_max)
        target = 1.0 - 1.0 / math.e - eps

        bank1 = self._bank("opimc.r1")
        bank2 = self._bank("opimc.r2")
        schedule = SamplingSchedule(theta0, max(theta0, theta_max), i_max)

        resume = None
        resumed = self._take_resume_state()
        if resumed is not None:
            meta, pools = resumed
            bank1.adopt(pools["pool1"], meta["counters"][0])
            bank2.adopt(pools["pool2"], meta["counters"][1])
            self._restore_rng(rng, meta["rng_state"])
            resume = DoublingResume(
                int(meta["round"]),
                [int(s) for s in meta["seeds"]],
                float(meta["lower"]),
                float(meta["upper"]),
            )

        def select(pool):
            greedy = max_coverage_greedy(
                pool, select=k, topk=k, metrics=self._metrics
            )
            upper = influence_upper_bound(
                greedy.upper_bound_coverage, pool.num_rr, n, delta_iter
            )
            return greedy.seeds, upper

        def validate(pool, seeds):
            return influence_lower_bound(
                pool.coverage(seeds), pool.num_rr, n, delta_iter
            )

        def checkpointer(i, seeds, lower, upper):
            meta = self._query_meta(k, eps, delta)
            meta.update(
                round=i,
                seeds=[int(s) for s in seeds],
                lower=lower,
                upper=upper,
                counters=[
                    counters_to_dict(bank1.generator.counters),
                    counters_to_dict(bank2.generator.counters),
                ],
            )
            self._round_checkpoint(
                rng, meta, {"pool1": bank1.pool, "pool2": bank2.pool}
            )

        outcome = run_doubling(
            schedule,
            bank1,
            bank2,
            select=select,
            validate=validate,
            target=target,
            resume=resume,
            # Only a run with an attached store gets the checkpointer.
            checkpointer=checkpointer if self._has_checkpoint else None,
            phase=self._phase,
        )
        if outcome.interrupted:
            return self._finalize_partial(
                bank1.pool, k, eps, delta, (bank1, bank2),
                outcome.stop_reason, outcome.rounds, theta_max,
                outcome.lower, outcome.upper, seeds=outcome.seeds,
            )

        result = self._result_from(
            outcome.seeds,
            k,
            eps,
            delta,
            generators=(bank1, bank2),
            rounds=outcome.rounds,
            theta_max=theta_max,
        )
        result.lower_bound = outcome.lower
        result.upper_bound = outcome.upper
        return result

    def _finalize_partial(
        self, pool1, k, eps, delta, generators, reason,
        rounds, theta_max, lower, upper, seeds=None,
    ) -> IMResult:
        """Best-so-far degradation: greedy over whatever pool1 holds."""
        if not seeds:
            seeds = fallback_seeds(pool1, k, topk=k)
        result = self._partial_result(
            seeds or [], k, eps, delta,
            generators=generators,
            reason=reason,
            rounds=rounds,
            theta_max=theta_max,
        )
        result.lower_bound = lower
        result.upper_bound = upper
        return result
