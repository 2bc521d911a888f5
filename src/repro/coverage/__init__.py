"""Max-coverage seed selection over RR-set collections."""

from repro.coverage.celf import celf_max_coverage
from repro.coverage.greedy import GreedyResult, max_coverage_greedy

__all__ = [
    "GreedyResult",
    "celf_max_coverage",
    "max_coverage_greedy",
]
