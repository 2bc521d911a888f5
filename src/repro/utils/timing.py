"""Lightweight timing helpers used by the experiment harness."""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """Context manager measuring wall-clock time of a block.

    >>> with Timer() as t:
    ...     sum(range(10))
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self.start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        assert self.start is not None
        self.elapsed = time.perf_counter() - self.start

