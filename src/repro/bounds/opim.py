"""The OPIM-style influence bounds (paper Equations 1 and 2).

Both bounds invert the martingale tails of Lemma 2: given an observed
coverage on ``theta`` RR sets, Eq. 1 produces a value that the true influence
of the *measured* seed set exceeds with probability ``1 - delta_l``, and
Eq. 2 produces a value the optimum's influence stays below with probability
``1 - delta_u`` (fed with the greedy-derived coverage upper bound
``Lambda^u``).  The adaptive algorithms stop as soon as
``lower / upper > 1 - 1/e - eps``.
"""

from __future__ import annotations

import math


def _check(theta: int, n: int, delta: float) -> None:
    if theta <= 0:
        raise ValueError(f"theta must be positive, got {theta}")
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def influence_lower_bound(
    coverage: float, theta: int, n: int, delta_l: float
) -> float:
    """Eq. 1: high-probability lower bound on the influence of a seed set.

    ``coverage`` is the observed ``Lambda_R2(S)`` on ``theta`` RR sets that
    are independent of how ``S`` was chosen.  The result is clamped at 0
    (the raw formula can dip below zero for tiny coverages, where "no
    information" is the honest reading).
    """
    _check(theta, n, delta_l)
    if coverage < 0:
        raise ValueError(f"coverage must be non-negative, got {coverage}")
    eta = math.log(1.0 / delta_l)
    root = math.sqrt(coverage + 2.0 * eta / 9.0) - math.sqrt(eta / 2.0)
    value = (root * root - eta / 18.0) * n / theta
    return max(0.0, value)


def influence_upper_bound(
    coverage_upper: float, theta: int, n: int, delta_u: float
) -> float:
    """Eq. 2: high-probability upper bound on the optimum's influence.

    ``coverage_upper`` is ``Lambda^u_R1(S_k^o)`` — the greedy-derived upper
    bound on the optimum's coverage (see
    :func:`repro.coverage.greedy.max_coverage_greedy`'s
    ``upper_bound_coverage``).
    """
    _check(theta, n, delta_u)
    if coverage_upper < 0:
        raise ValueError(
            f"coverage_upper must be non-negative, got {coverage_upper}"
        )
    eta = math.log(1.0 / delta_u)
    root = math.sqrt(coverage_upper + eta / 2.0) + math.sqrt(eta / 2.0)
    return root * root * n / theta

