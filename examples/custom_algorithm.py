#!/usr/bin/env python
"""Extending the library: a custom algorithm, audited and swept.

Shows the extension surface a downstream user touches:

1. write an :class:`~repro.algorithms.base.IMAlgorithm` subclass (here, a
   hybrid that seeds greedy RR selection with PageRank candidates),
2. register it under a name,
3. audit its output with an independent :func:`repro.core.certify_result`
   certificate (no trust in the algorithm's own bookkeeping), and
4. compare it against built-ins with the sweep runner.

Run:  python examples/custom_algorithm.py
"""

import numpy as np

from repro import preferential_attachment, wc_weights
from repro.algorithms.base import IMAlgorithm
from repro.algorithms.pagerank import pagerank_scores
from repro.core import certify_result, register_algorithm
from repro.core.results import IMResult
from repro.coverage.greedy import max_coverage_greedy
from repro.experiments.reporting import render_table
from repro.experiments.sweep import SweepConfig, run_sweep, summarize_sweep
from repro.rrsets.collection import RRCollection
from repro.rrsets.subsim import SubsimICGenerator


class PageRankSeededRR(IMAlgorithm):
    """Fixed RR budget, greedy restricted to the PageRank-top candidates.

    A cheap middle ground: spend a *fixed* number of RR sets (no adaptive
    bounds) and only consider the top ``candidate_factor * k`` nodes by
    reverse PageRank during greedy.  No guarantee — which is exactly why
    the example certifies it afterwards.
    """

    name = "pr-seeded-rr"

    def __init__(self, graph, budget: int = 3000, candidate_factor: int = 20):
        super().__init__(graph, SubsimICGenerator)
        self.budget = budget
        self.candidate_factor = candidate_factor

    def _select(self, k, eps, delta, rng) -> IMResult:
        generator = self._new_generator()
        pool = RRCollection(self.graph.n)
        pool.extend(self.budget, generator, rng)
        # Mask out non-candidates by zeroing their index entries.
        scores = pagerank_scores(self.graph, reverse=True)
        keep = set(
            np.argsort(scores)[-self.candidate_factor * k:].tolist()
        )
        restricted = RRCollection(self.graph.n)
        for rr_id in range(pool.num_rr):
            rr = pool.set_nodes(rr_id)
            restricted.add([node for node in rr if node in keep] or [rr[0]])
        greedy = max_coverage_greedy(
            restricted, select=k, track_upper_bound=False
        )
        return self._result_from(
            greedy.seeds, k, eps, delta, generators=(generator,),
            candidates=len(keep),
        )


def main() -> None:
    graph = wc_weights(
        preferential_attachment(3000, 5, seed=8, reciprocal=0.3)
    )
    register_algorithm("pr-seeded-rr", lambda g, **kw: PageRankSeededRR(g, **kw))

    k = 15
    config = SweepConfig(
        graphs={"pa-3000": graph},
        algorithms=["pr-seeded-rr", "subsim", "degree"],
        k_values=[k],
        eps=0.2,
        seeds=[0, 1, 2],
        evaluate_spread=True,
        num_simulations=200,
    )
    records = run_sweep(config)
    print(render_table(summarize_sweep(records), title="Sweep (3 seeds each)"))

    # Independent audit of the custom algorithm's most recent run.
    custom = [r for r in records if r.algorithm == "pr-seeded-rr"][-1]
    cert = certify_result(
        graph, custom.result.seeds, k=k, num_rr=20_000, seed=99
    )
    print(
        f"certificate for pr-seeded-rr: I(S) >= {cert.ratio:.3f} * OPT_{k} "
        f"(lower {cert.lower_bound:.1f}, upper {cert.upper_bound:.1f}, "
        f"delta {cert.delta})"
    )
    target = 1 - 1 / np.e - 0.2
    verdict = "meets" if cert.meets(target) else "MISSES"
    print(f"-> {verdict} the (1 - 1/e - 0.2) = {target:.3f} bar the "
          "guaranteed algorithms certify by construction")


if __name__ == "__main__":
    main()
