"""Reverse-reachable set generation.

A *reverse-reachable (RR) set* for node ``v`` is the random set of nodes that
would activate ``v`` under one realisation of the cascade; a *random* RR set
draws ``v`` uniformly.  Lemma 1 of the paper ties RR sets to influence:
``I(S) = n * Pr[S hits a random RR set]``, which is what every sampling-based
IM algorithm exploits.

Generators:

* :class:`VanillaICGenerator` — Algorithm 2: reverse BFS flipping one coin
  per incoming edge.
* :class:`SubsimICGenerator` — Algorithm 3 + Section 3.3: geometric skipping
  on equal-probability nodes, index-free sorted skipping otherwise.
* :class:`LTGenerator` — linear-threshold RR sets (random in-edge walk).

All IC generators accept a ``stop_mask`` implementing Algorithm 5
(*RR set-with-Sentinel*): generation halts the moment a sentinel node is
activated.  :class:`RRCollection` accumulates RR sets with an inverted
node -> RR-set index for coverage queries and greedy selection.
"""

from repro.rrsets.base import GenerationCounters, RRGenerator
from repro.rrsets.collection import RRCollection
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator

__all__ = [
    "GenerationCounters",
    "LTGenerator",
    "RRCollection",
    "RRGenerator",
    "SubsimICGenerator",
    "VanillaICGenerator",
]
