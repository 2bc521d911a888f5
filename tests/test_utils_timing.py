"""Tests for timing helpers."""

import time

from repro.utils.timing import Timer


class TestTimer:
    def test_measures_elapsed(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.009

    def test_elapsed_zero_before_use(self):
        assert Timer().elapsed == 0.0

