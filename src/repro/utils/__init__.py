"""Shared utilities: RNG handling, timing, validation, and exceptions."""

from repro.utils.exceptions import (
    CalibrationError,
    ConfigurationError,
    GraphFormatError,
    ReproError,
)
from repro.utils.rng import as_generator, spawn_generators
from repro.utils.timing import Timer

__all__ = [
    "CalibrationError",
    "ConfigurationError",
    "GraphFormatError",
    "ReproError",
    "Timer",
    "as_generator",
    "spawn_generators",
]
