"""Run control: the object the hot loops actually consult.

One :class:`RunControl` is created per ``run()`` and shared by every RR
generator and sampling phase of that run, so its counters are the *global*
spend of the run (an algorithm with four pools still has one edge budget).
Generators report progress through three hooks:

* :meth:`on_rr_start` — before generating a set: cancellation, deadline and
  every cap (so caps are enforced between sets);
* :meth:`on_edges` — per activated node with the node's examined-edge
  delta: cancellation, deadline, and the edge cap (so a single runaway RR
  set still stops promptly);
* :meth:`on_rr_complete` — after a set is stored: bumps set/node counters
  and feeds the fault injector.

All checks raise :class:`~repro.utils.exceptions.BudgetExceededError` or
:class:`~repro.utils.exceptions.CancelledError` — both subclasses of
``ExecutionInterrupted``, which the algorithms catch to degrade gracefully.

The spend tallies live in a :class:`~repro.observability.registry
.MetricsRegistry` (one is created when none is supplied) under the
``runtime.*`` counter names; :attr:`edges_examined` / :attr:`rr_sets` /
:attr:`rr_nodes` are views over it, so budget enforcement and the
observability surface read the same numbers by construction.  The control
also carries the run's :class:`~repro.observability.trace.PhaseTracer`
(:data:`~repro.observability.trace.NULL_TRACER` when tracing is off) and
the run's RR-generation ``batch_size``; :meth:`adopt_generator` wires both
into every generator the run uses.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from repro.observability.registry import MetricsRegistry
from repro.observability.trace import NULL_TRACER
from repro.runtime.budget import Budget
from repro.runtime.cancellation import CancellationToken
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.faults import FaultInjector
from repro.utils.exceptions import BudgetExceededError

#: registry names of the run-level spend tallies
EDGES_COUNTER = "runtime.edges_examined"
RR_SETS_COUNTER = "runtime.rr_sets"
RR_NODES_COUNTER = "runtime.rr_nodes"
CHECKPOINT_SAVES_COUNTER = "runtime.checkpoint_saves"


class RunControl:
    """Budget enforcement + cancellation + checkpoint/fault plumbing."""

    def __init__(
        self,
        budget: Optional[Budget] = None,
        token: Optional[CancellationToken] = None,
        faults: Optional[FaultInjector] = None,
        checkpoint: Optional[CheckpointStore] = None,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
        tracer=None,
        batch_size: int = 1,
    ) -> None:
        self.budget = budget if budget is not None else Budget()
        self.token = token
        self.faults = faults
        self.checkpoint = checkpoint
        if checkpoint is not None and faults is not None:
            checkpoint.fault_injector = faults
        self._clock = clock
        self._started_at: Optional[float] = None
        self._deadline: Optional[float] = None
        # Global machine-independent spend across every generator of the
        # run, kept in the registry so budgets and observability agree.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: RR-generation strategy of every generator this run adopts
        #: (1 = the exact sequential loop, > 1 = the batched kernel)
        self.batch_size = int(batch_size)
        self.stop_reason: Optional[str] = None

    # ------------------------------------------------------------------
    @property
    def edges_examined(self) -> int:
        return self.metrics.value(EDGES_COUNTER)

    @property
    def rr_sets(self) -> int:
        return self.metrics.value(RR_SETS_COUNTER)

    @property
    def rr_nodes(self) -> int:
        return self.metrics.value(RR_NODES_COUNTER)

    def adopt_generator(self, gen) -> None:
        """Wire a generator into this run: control hook, batch size and
        metrics source (also rebinds a warm bank's generator per query)."""
        gen.control = self
        gen.batch_size = self.batch_size
        gen.metrics = self.metrics
        self.metrics.attach_source(gen)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the wall clock; called once at the top of ``run()``."""
        self._started_at = self._clock()
        if self.budget.wall_clock_seconds is not None:
            self._deadline = self._started_at + self.budget.wall_clock_seconds

    def elapsed(self) -> float:
        if self._started_at is None:
            return 0.0
        return self._clock() - self._started_at

    @property
    def active(self) -> bool:
        """True when any cooperative mechanism is attached (fast bail-out)."""
        return (
            not self.budget.unlimited
            or self.token is not None
            or self.faults is not None
        )

    # ------------------------------------------------------------------
    def _stop(self, reason: str, detail: str) -> None:
        self.stop_reason = reason
        raise BudgetExceededError(reason, detail)

    def check(self) -> None:
        """Cheapest check: cancellation + deadline only."""
        if self.token is not None and self.token.cancelled:
            self.stop_reason = "cancelled"
            self.token.raise_if_cancelled()
        if self._deadline is not None and self._clock() >= self._deadline:
            self._stop(
                "deadline",
                f"wall-clock budget of {self.budget.wall_clock_seconds}s "
                f"exhausted after {self.elapsed():.3f}s",
            )

    def on_rr_start(self) -> None:
        """Gate the generation of one more RR set against every cap."""
        self.check()
        budget = self.budget
        if budget.max_rr_sets is not None and self.rr_sets >= budget.max_rr_sets:
            self._stop(
                "num_rr_sets",
                f"RR-set budget of {budget.max_rr_sets} exhausted",
            )
        if (
            budget.max_edges_examined is not None
            and self.edges_examined >= budget.max_edges_examined
        ):
            self._stop(
                "edges_examined",
                f"edge budget of {budget.max_edges_examined} exhausted",
            )
        if budget.max_rr_nodes is not None and self.rr_nodes >= budget.max_rr_nodes:
            self._stop(
                "rr_memory",
                f"RR-collection node budget of {budget.max_rr_nodes} exhausted",
            )

    def on_edges(self, count: int) -> None:
        """Record examined edges; called per activated node inside loops."""
        if count:
            self.metrics.inc(EDGES_COUNTER, count)
            if self.faults is not None:
                self.faults.on_edges(count)
        self.check()
        budget = self.budget
        if (
            budget.max_edges_examined is not None
            and self.edges_examined > budget.max_edges_examined
        ):
            self._stop(
                "edges_examined",
                f"edge budget of {budget.max_edges_examined} exhausted "
                f"mid-generation ({self.edges_examined} examined)",
            )

    def on_rr_complete(self, size: int) -> None:
        """Account one stored RR set; feeds the RR-set fault axis."""
        self.metrics.inc(RR_SETS_COUNTER)
        self.metrics.inc(RR_NODES_COUNTER, size)
        if self.faults is not None:
            self.faults.on_rr_set()

    # ------------------------------------------------------------------
    def maybe_checkpoint(self, builder) -> bool:
        """Round-boundary hook: persist state when a store is attached."""
        if self.checkpoint is None:
            return False
        saved = self.checkpoint.maybe_save(builder)
        if saved:
            self.metrics.inc(CHECKPOINT_SAVES_COUNTER)
        return saved

    def snapshot(self) -> dict:
        """Spend summary recorded into result extras."""
        return {
            "elapsed_seconds": self.elapsed(),
            "edges_examined": self.edges_examined,
            "rr_sets": self.rr_sets,
            "rr_nodes": self.rr_nodes,
            "stop_reason": self.stop_reason,
            "budget": self.budget.as_dict(),
        }
