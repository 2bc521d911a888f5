"""Max-coverage seed selection over RR-set collections."""

from repro.coverage.greedy import GreedyResult, max_coverage_greedy

__all__ = [
    "GreedyResult",
    "max_coverage_greedy",
]
