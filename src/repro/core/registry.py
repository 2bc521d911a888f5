"""Name-based registry of IM algorithms.

Names match the paper's terminology: ``"subsim"`` is OPIM-C with the SUBSIM
RR generator (the paper's headline configuration), ``"hist"`` uses vanilla
generation inside Hit-and-Stop, and ``"hist+subsim"`` combines both
contributions.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.algorithms.base import IMAlgorithm
from repro.algorithms.borgs import BorgsRIS
from repro.algorithms.dssa import DSSA
from repro.algorithms.greedy_mc import GreedyMonteCarlo
from repro.algorithms.heuristics import DegreeDiscount, DegreeTopK, RandomSeeds
from repro.algorithms.hist import HIST
from repro.algorithms.imm import IMM
from repro.algorithms.opimc import OPIMC
from repro.algorithms.pagerank import PageRankSeeds
from repro.algorithms.ssa import SSA
from repro.algorithms.tim import TIMPlus
from repro.graphs.csr import CSRGraph
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.utils.exceptions import ConfigurationError

AlgorithmFactory = Callable[..., IMAlgorithm]

_REGISTRY: Dict[str, AlgorithmFactory] = {
    "opim-c": lambda graph, **kw: OPIMC(graph, VanillaICGenerator, **kw),
    "subsim": lambda graph, **kw: OPIMC(graph, SubsimICGenerator, **kw),
    "hist": lambda graph, **kw: HIST(graph, VanillaICGenerator, **kw),
    "hist+subsim": lambda graph, **kw: HIST(graph, SubsimICGenerator, **kw),
    "opim-c-lt": lambda graph, **kw: OPIMC(graph, LTGenerator, **kw),
    "hist-lt": lambda graph, **kw: HIST(graph, LTGenerator, **kw),
    "imm": lambda graph, **kw: IMM(graph, VanillaICGenerator, **kw),
    "imm-lt": lambda graph, **kw: IMM(graph, LTGenerator, **kw),
    "tim+": lambda graph, **kw: TIMPlus(graph, VanillaICGenerator, **kw),
    "ssa": lambda graph, **kw: SSA(graph, VanillaICGenerator, **kw),
    "d-ssa": lambda graph, **kw: DSSA(graph, VanillaICGenerator, **kw),
    "borgs-ris": lambda graph, **kw: BorgsRIS(graph, **kw),
    "greedy-mc": lambda graph, **kw: GreedyMonteCarlo(graph, **kw),
    "degree": lambda graph, **kw: DegreeTopK(graph, **kw),
    "pagerank": lambda graph, **kw: PageRankSeeds(graph, **kw),
    "degree-discount": lambda graph, **kw: DegreeDiscount(graph, **kw),
    "random": lambda graph, **kw: RandomSeeds(graph, **kw),
}


def available_algorithms() -> List[str]:
    """Sorted list of registry names."""
    return sorted(_REGISTRY)


def get_algorithm(name: str, graph: CSRGraph, **kwargs) -> IMAlgorithm:
    """Instantiate the named algorithm on ``graph``.

    Extra keyword arguments are forwarded to the algorithm's constructor
    (e.g. ``max_rr_sets`` for IMM/TIM+, ``fixed_b`` for HIST).
    """
    try:
        factory = _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown algorithm {name!r}; available: {available_algorithms()}"
        ) from None
    return factory(graph, **kwargs)


def register_algorithm(name: str, factory: AlgorithmFactory) -> None:
    """Extension hook: add a custom algorithm under ``name``.

    Overwriting an existing name raises; unregister is deliberately not
    offered (registries should be append-only in library code).
    """
    if name in _REGISTRY:
        raise ConfigurationError(f"algorithm {name!r} is already registered")
    _REGISTRY[name] = factory
