"""Public facade: one entry point over every IM algorithm in the library."""

from repro.core.api import InfluenceMaximizer
from repro.core.certify import Certificate, certify_result
from repro.core.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.core.results import IMResult
from repro.core.serialization import load_result, save_result

__all__ = [
    "Certificate",
    "IMResult",
    "InfluenceMaximizer",
    "available_algorithms",
    "certify_result",
    "get_algorithm",
    "load_result",
    "register_algorithm",
    "save_result",
]
