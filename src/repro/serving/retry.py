"""Retry-with-backoff and circuit breaking for transient failures.

:class:`RetryPolicy` is the package's one retry loop — graph loads (the
server's registry and ``repro run --load-retries``) and the server's
per-query retries all run through it: bounded attempts, exponential
backoff scaled by seeded jitter, and a **max-total-wait cap** so a
pathological retry storm cannot stall a worker indefinitely.
:class:`CircuitBreaker` sits in front of resources that fail persistently
(a graph file on a dead mount): after a threshold of consecutive failures
it *opens* and fails fast with a retry-after hint instead of burning a
worker per doomed attempt; after a cooldown one trial call is let through
(*half-open*) and success closes it again.

Both are thread-safe and take injectable ``sleep`` / ``clock`` so the
test suite runs instantly.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

import numpy as np

from repro.utils.exceptions import ConfigurationError, ReproError


class CircuitOpenError(ReproError):
    """The circuit breaker is open: fail fast, retry after ``retry_after``."""

    def __init__(self, message: str, retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.retry_after = float(retry_after)


def _always_transient(exc: BaseException) -> bool:
    return True


@dataclass
class RetryPolicy:
    """Bounded, jittered exponential backoff around a callable.

    ``attempts`` is the *total* number of tries (>= 1).  Attempt ``i``
    sleeps ``backoff * 2**(i-1)`` scaled by a seeded jitter factor in
    ``[1, 1 + jitter]`` before retrying; once cumulative sleep would
    exceed ``max_total_wait`` the policy stops retrying and re-raises —
    the cap that keeps retry storms bounded.  ``transient`` classifies
    which exceptions are worth retrying (others propagate immediately).
    The exception that finally propagates records how hard the policy
    tried, as ``attempts`` and ``total_wait`` (seconds slept) attributes.
    """

    attempts: int = 3
    backoff: float = 0.05
    jitter: float = 0.5
    max_total_wait: Optional[float] = 10.0
    seed: Optional[int] = None
    sleep: Callable[[float], None] = time.sleep
    on_retry: Optional[Callable[[int, BaseException], None]] = None
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigurationError(
                f"attempts must be >= 1, got {self.attempts}"
            )
        if self.backoff < 0 or self.jitter < 0:
            raise ConfigurationError("backoff and jitter must be >= 0")
        if self.max_total_wait is not None and self.max_total_wait < 0:
            raise ConfigurationError(
                f"max_total_wait must be >= 0, got {self.max_total_wait}"
            )
        self._rng = np.random.default_rng(self.seed)

    def call(
        self,
        fn: Callable[[], Any],
        transient: Callable[[BaseException], bool] = _always_transient,
    ) -> Any:
        """Run ``fn``, retrying transient failures under the policy."""
        waited = 0.0
        for attempt in range(1, self.attempts + 1):
            try:
                return fn()
            except Exception as exc:  # noqa: BLE001 - classified below
                exc.attempts = attempt  # type: ignore[attr-defined]
                exc.total_wait = waited  # type: ignore[attr-defined]
                delay = self.backoff * 2 ** (attempt - 1)
                if self.jitter > 0:
                    delay *= 1.0 + self.jitter * float(self._rng.random())
                out_of_budget = (
                    self.max_total_wait is not None
                    and waited + delay > self.max_total_wait
                )
                if attempt >= self.attempts or not transient(exc) or out_of_budget:
                    raise
                if self.on_retry is not None:
                    self.on_retry(attempt, exc)
                waited += delay
                self.sleep(delay)
        raise AssertionError("unreachable")  # pragma: no cover


class CircuitBreaker:
    """Fail fast after repeated failures; probe again after a cooldown.

    States: *closed* (calls pass through), *open* (calls raise
    :class:`CircuitOpenError` immediately until ``cooldown`` seconds have
    elapsed since the breaker opened), *half-open* (the first call after
    the cooldown is let through as a trial; success closes the breaker,
    failure re-opens it for another cooldown).
    """

    def __init__(
        self,
        threshold: int = 3,
        cooldown: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
        name: str = "resource",
    ) -> None:
        if threshold < 1:
            raise ConfigurationError(
                f"threshold must be >= 1, got {threshold}"
            )
        if cooldown < 0:
            raise ConfigurationError(f"cooldown must be >= 0, got {cooldown}")
        self.threshold = int(threshold)
        self.cooldown = float(cooldown)
        self.name = name
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        with self._lock:
            if self._opened_at is None:
                return "closed"
            if self._clock() - self._opened_at >= self.cooldown:
                return "half-open"
            return "open"

    def _admit(self) -> None:
        """Raise :class:`CircuitOpenError` unless a call may proceed."""
        with self._lock:
            if self._opened_at is None:
                return
            elapsed = self._clock() - self._opened_at
            if elapsed < self.cooldown or self._probing:
                raise CircuitOpenError(
                    f"{self.name}: circuit open after {self._failures} "
                    f"consecutive failures",
                    retry_after=max(self.cooldown - elapsed, 0.0),
                )
            # Half-open: let exactly one trial through at a time.
            self._probing = True

    def _record(self, ok: bool) -> None:
        with self._lock:
            self._probing = False
            if ok:
                self._failures = 0
                self._opened_at = None
            else:
                self._failures += 1
                if self._failures >= self.threshold:
                    self._opened_at = self._clock()

    def call(self, fn: Callable[[], Any]) -> Any:
        """Run ``fn`` under the breaker; may raise :class:`CircuitOpenError`."""
        self._admit()
        try:
            result = fn()
        except CircuitOpenError:
            raise
        except Exception:
            self._record(ok=False)
            raise
        self._record(ok=True)
        return result
