"""Sampling schedules and the shared doubling loop.

Every bound-driven algorithm in this codebase (OPIM-C and HIST's
IM-with-sentinels phase; the same shape underlies the others) runs the
identical loop: bootstrap ``theta0`` RR sets, then per round *select*
seeds, *validate* them on an independent pool, stop when the bound ratio
clears the target, else double both pools.  :func:`run_doubling` is that
loop, written once, against :class:`~repro.rrsets.bank.RRBank` prefixes —
so a warm bank serves the early rounds without generating anything, and
the ``ExecutionInterrupted``-to-partial degradation lives here instead of
being copied into every ``_select``.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro.coverage.greedy import max_coverage_greedy
from repro.rrsets.bank import PoolLike, RRBank
from repro.utils.exceptions import ExecutionInterrupted

#: select callback: prefix view -> (seeds, upper bound)
SelectFn = Callable[[PoolLike], Tuple[List[int], float]]
#: validate callback: (prefix view, seeds) -> lower bound
ValidateFn = Callable[[PoolLike, List[int]], float]
#: checkpoint callback: (round index, seeds, lower, upper) -> None
CheckpointFn = Callable[[int, List[int], float, float], None]


@dataclass(frozen=True)
class SamplingSchedule:
    """A geometric (doubling) RR-set growth schedule.

    ``theta_at(i)`` is the pool size round ``i`` (1-based) selects over:
    ``theta0 * 2**(i-1)``, never exceeding ``theta_max``.  The round count
    is supplied by the caller because the algorithms bound it differently
    (OPIM-C's ``i_max`` vs. HIST's ``log2(theta_max / theta0)`` variants) —
    the schedule only fixes the geometry.
    """

    theta0: int
    theta_max: int
    rounds: int

    def __post_init__(self) -> None:
        if self.theta0 < 1:
            raise ValueError(f"theta0 must be >= 1, got {self.theta0}")
        if self.theta_max < self.theta0:
            raise ValueError(
                f"theta_max ({self.theta_max}) must be >= theta0 "
                f"({self.theta0})"
            )
        if self.rounds < 1:
            raise ValueError(f"rounds must be >= 1, got {self.rounds}")

    def theta_at(self, round_index: int) -> int:
        """Pool size served to round ``round_index`` (1-based)."""
        if round_index < 1:
            raise ValueError(f"rounds are 1-based, got {round_index}")
        return min(self.theta0 * 2 ** (round_index - 1), self.theta_max)


@dataclass(frozen=True)
class DoublingResume:
    """Mid-loop state restored from a run checkpoint."""

    round_index: int
    seeds: Sequence[int]
    lower: float
    upper: float


@dataclass
class DoublingOutcome:
    """What :func:`run_doubling` produced (complete, converged, or cut short)."""

    seeds: List[int] = field(default_factory=list)
    lower: float = 0.0
    upper: float = float("inf")
    rounds: int = 0
    converged: bool = False
    interrupted: bool = False
    stop_reason: Optional[str] = None


def _no_phase(name: str) -> contextlib.AbstractContextManager:
    return contextlib.nullcontext()


# benchmarks/e2e/spans.py patches this by name to time the bootstrap.
def ensure_pair(bank1: Any, bank2: Any, theta: int) -> None:
    """Grow both banks to ``theta`` (the doubling loop's bootstrap)."""
    bank1.ensure(theta)
    bank2.ensure(theta)


def _annotate_round(span: Any, theta: int, outcome: "DoublingOutcome") -> None:
    """Record the round's theta/bounds on its trace span."""
    if span is None or not hasattr(span, "annotate"):
        return
    upper = outcome.upper
    span.annotate(
        theta=int(theta),
        lower=float(outcome.lower),
        upper=float(upper),
        bound_ratio=(
            float(outcome.lower / upper)
            if upper > 0 and upper != float("inf")
            else 0.0
        ),
    )


def run_doubling(
    schedule: SamplingSchedule,
    bank1: RRBank,
    bank2: RRBank,
    *,
    select: SelectFn,
    validate: ValidateFn,
    target: float,
    initial_seeds: Sequence[int] = (),
    resume: Optional[DoublingResume] = None,
    checkpointer: Optional[CheckpointFn] = None,
    phase: Optional[Callable[[str], Any]] = None,
) -> DoublingOutcome:
    """Run the bootstrap-select-validate-double loop over two banks.

    Round ``i`` selects on ``bank1``'s first ``theta_at(i)`` sets and
    validates on ``bank2``'s — so both banks grow in lockstep, and on a
    warm bank the early rounds are pure prefix reuse.  The loop stops when
    ``lower / upper > target``, when the schedule's rounds are exhausted,
    or when execution is interrupted (the outcome then carries whatever
    seeds and bounds the last completed round produced — the caller turns
    that into a partial result).

    ``checkpointer`` fires after each non-final round's extension, matching
    the historical save points (the run RNG is snapshotted *after* both
    pools extended).  ``phase`` (e.g. ``IMAlgorithm._phase``) wraps the
    bootstrap and each round in trace spans when provided.
    """
    span = phase if phase is not None else _no_phase
    outcome = DoublingOutcome(seeds=list(initial_seeds))
    start = 1
    if resume is not None:
        outcome.rounds = int(resume.round_index)
        outcome.seeds = list(resume.seeds)
        outcome.lower = float(resume.lower)
        outcome.upper = float(resume.upper)
        start = outcome.rounds + 1
    else:
        try:
            with span("bootstrap"):
                ensure_pair(bank1, bank2, schedule.theta0)
        except ExecutionInterrupted as exc:
            outcome.interrupted = True
            outcome.stop_reason = exc.reason
            return outcome
    try:
        for i in range(start, schedule.rounds + 1):
            outcome.rounds = i
            with span(f"round-{i}") as sp:
                theta = schedule.theta_at(i)
                seeds, upper = select(bank1.view(theta))
                outcome.seeds = seeds
                outcome.upper = upper
                outcome.lower = validate(bank2.view(theta), seeds)
                _annotate_round(sp, theta, outcome)
                if upper > 0 and outcome.lower / upper > target:
                    outcome.converged = True
                    return outcome
                if i < schedule.rounds:
                    bank1.ensure(2 * theta)
                    bank2.ensure(2 * theta)
                    if checkpointer is not None:
                        checkpointer(
                            i, outcome.seeds, outcome.lower, outcome.upper
                        )
    except ExecutionInterrupted as exc:
        outcome.interrupted = True
        outcome.stop_reason = exc.reason
    return outcome


def fallback_seeds(
    pool: Optional[PoolLike],
    select: int,
    *,
    last: Optional[Any] = None,
    **greedy_kwargs: Any,
) -> List[int]:
    """Best-effort seeds for a partial result.

    Reuses the interrupted round's greedy result when one exists (the
    engine-provided shape of OPIM-C's ``_finalize_partial``); otherwise
    falls back to one greedy pass over whatever the pool holds.  Bound
    tracking is disabled — it never affects which seeds greedy picks, and
    a partial result's certificate comes from the completed rounds.
    """
    if last is not None:
        return list(last.seeds)
    if pool is None or pool.num_rr == 0:
        return []
    greedy = max_coverage_greedy(
        pool, select=select, track_upper_bound=False, **greedy_kwargs
    )
    return greedy.seeds
