"""The library's front door.

>>> from repro import InfluenceMaximizer, preferential_attachment, wc_weights
>>> graph = wc_weights(preferential_attachment(2000, 4, seed=1))
>>> result = InfluenceMaximizer(graph).maximize(k=10, algorithm="subsim", seed=7)
>>> len(result.seeds)
10
"""

from __future__ import annotations

from typing import Optional

from repro.core.registry import get_algorithm
from repro.core.results import IMResult
from repro.estimation.montecarlo import SpreadEstimate, estimate_spread
from repro.graphs.csr import CSRGraph
from repro.runtime.budget import Budget
from repro.runtime.cancellation import CancellationToken
from repro.utils.rng import SeedLike


class InfluenceMaximizer:
    """Convenience facade binding a graph to the algorithm registry."""

    def __init__(self, graph: CSRGraph) -> None:
        self.graph = graph

    def maximize(
        self,
        k: int,
        algorithm: str = "hist+subsim",
        eps: float = 0.1,
        delta: Optional[float] = None,
        seed: SeedLike = None,
        budget: Optional[Budget] = None,
        cancel: Optional[CancellationToken] = None,
        checkpoint=None,
        checkpoint_every: int = 1,
        resume: bool = False,
        fault_injector=None,
        batch_size: int = 1,
        metrics=None,
        trace: bool = False,
        **algorithm_kwargs,
    ) -> IMResult:
        """Select ``k`` seeds with the named algorithm.

        The default — HIST with SUBSIM generation — is the paper's best
        configuration across all evaluated settings.  ``eps`` and ``delta``
        control the ``(1 - 1/e - eps)``-approximation with probability
        ``1 - delta`` (``delta`` defaults to ``1/n``); heuristic algorithms
        ignore them.

        ``budget``, ``cancel``, ``checkpoint``, ``checkpoint_every``,
        ``resume``, ``fault_injector``, ``batch_size``, ``metrics`` (a
        :class:`~repro.observability.registry.MetricsRegistry` to populate)
        and ``trace`` (enable phase tracing) are forwarded verbatim to
        :meth:`~repro.algorithms.base.IMAlgorithm.run` — see its docstring
        for the partial-result, resume and observability semantics.
        Every call is a cold, independent run; repeated queries that
        should share RR sets go through
        :class:`~repro.engine.session.QuerySession`.
        """
        algo = get_algorithm(algorithm, self.graph, **algorithm_kwargs)
        return algo.run(
            k,
            eps=eps,
            delta=delta,
            seed=seed,
            budget=budget,
            cancel=cancel,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            resume=resume,
            fault_injector=fault_injector,
            batch_size=batch_size,
            metrics=metrics,
            trace=trace,
        )

    def evaluate(
        self,
        result: IMResult,
        model: str = "ic",
        num_simulations: int = 1000,
        seed: SeedLike = None,
    ) -> SpreadEstimate:
        """Monte-Carlo estimate of a result's expected spread."""
        return estimate_spread(
            self.graph,
            result.seeds,
            model=model,
            num_simulations=num_simulations,
            seed=seed,
        )
