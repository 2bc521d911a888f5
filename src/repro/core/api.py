"""The library's front door.

>>> from repro import InfluenceMaximizer, preferential_attachment, wc_weights
>>> graph = wc_weights(preferential_attachment(2000, 4, seed=1))
>>> result = InfluenceMaximizer(graph).maximize(k=10, algorithm="subsim", seed=7)
>>> len(result.seeds)
10
"""

from __future__ import annotations

import inspect
from typing import Optional

from repro.algorithms.base import IMAlgorithm
from repro.core.registry import get_algorithm
from repro.core.results import IMResult
from repro.estimation.montecarlo import SpreadEstimate, estimate_spread
from repro.graphs.csr import CSRGraph
from repro.utils.rng import SeedLike

#: the execution options ``IMAlgorithm.run`` takes, read from its signature
#: so the facade never restates them
_RUN_OPTIONS = frozenset(
    name
    for name, param in inspect.signature(IMAlgorithm.run).parameters.items()
    if param.kind is inspect.Parameter.KEYWORD_ONLY
)


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
        **kwargs,
    ) -> IMResult:
        """Select ``k`` seeds with the named algorithm.

        The default — HIST with SUBSIM generation — is the paper's best
        configuration across all evaluated settings.  ``eps`` and ``delta``
        control the ``(1 - 1/e - eps)``-approximation with probability
        ``1 - delta`` (``delta`` defaults to ``1/n``); heuristic algorithms
        ignore them.

        ``kwargs`` naming a keyword-only option of
        :meth:`~repro.algorithms.base.IMAlgorithm.run` (``budget``,
        ``checkpoint``, ``batch_size``, ``trace``, ...) are forwarded to it
        unchanged — its docstring documents them; every other keyword goes
        to the algorithm's constructor (``max_rr_sets``, ``fixed_b``, ...).
        Every call is a cold, independent run; repeated queries that
        should share RR sets go through
        :class:`~repro.engine.session.QuerySession`.
        """
        options = {key: kwargs.pop(key) for key in _RUN_OPTIONS & kwargs.keys()}
        algo = get_algorithm(algorithm, self.graph, **kwargs)
        return algo.run(k, eps=eps, delta=delta, seed=seed, **options)

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
