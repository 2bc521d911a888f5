"""repro — SUBSIM + HIST: efficient RR-set generation for influence maximization.

A from-scratch Python implementation of Guo, Wang, Wei & Chen, *"Influence
Maximization Revisited: Efficient Reverse Reachable Set Generation with
Bound Tightened"* (SIGMOD 2020), including every baseline the paper
evaluates against (IMM, TIM+, SSA, OPIM-C) and the full experiment harness.

Quickstart::

    from repro import InfluenceMaximizer, preferential_attachment, wc_weights

    graph = wc_weights(preferential_attachment(5000, 4, seed=1))
    result = InfluenceMaximizer(graph).maximize(k=20, algorithm="hist+subsim")
    print(result.seeds, result.runtime_seconds)
"""

from repro.core.api import InfluenceMaximizer
from repro.core.registry import (
    available_algorithms,
    get_algorithm,
    register_algorithm,
)
from repro.core.results import IMResult
from repro.engine.schedule import SamplingSchedule
from repro.engine.session import QuerySession
from repro.estimation.montecarlo import estimate_spread
from repro.graphs.csr import CSRGraph, build_graph
from repro.graphs.dynamic import GraphDelta
from repro.graphs.generators import (
    erdos_renyi,
    preferential_attachment,
    stochastic_block_model,
    watts_strogatz,
)
from repro.graphs.io import (
    load_edge_list,
    load_graph_auto,
    load_npz,
    save_edge_list,
    save_npz,
)
from repro.graphs.weights import (
    exponential_weights,
    lt_normalized_weights,
    trivalency_weights,
    uniform_weights,
    wc_variant_weights,
    wc_weights,
    weibull_weights,
)
from repro.observability import (
    HistogramSketch,
    MetricsRegistry,
    PhaseTracer,
    RunReport,
    build_run_report,
)
from repro.rrsets.bank import RRBank
from repro.rrsets.collection import RRCollection
from repro.rrsets.lt import LTGenerator
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.runtime import (
    Budget,
    CancellationToken,
    CheckpointStore,
    FaultInjector,
)

__version__ = "1.0.0"

__all__ = [
    "Budget",
    "CancellationToken",
    "CheckpointStore",
    "CSRGraph",
    "FaultInjector",
    "HistogramSketch",
    "IMResult",
    "InfluenceMaximizer",
    "LTGenerator",
    "MetricsRegistry",
    "PhaseTracer",
    "QuerySession",
    "RRBank",
    "RRCollection",
    "RunReport",
    "SamplingSchedule",
    "SubsimICGenerator",
    "VanillaICGenerator",
    "__version__",
    "available_algorithms",
    "build_graph",
    "build_run_report",
    "erdos_renyi",
    "estimate_spread",
    "exponential_weights",
    "get_algorithm",
    "load_edge_list",
    "load_graph_auto",
    "load_npz",
    "lt_normalized_weights",
    "preferential_attachment",
    "register_algorithm",
    "save_edge_list",
    "save_npz",
    "stochastic_block_model",
    "trivalency_weights",
    "uniform_weights",
    "watts_strogatz",
    "wc_variant_weights",
    "wc_weights",
    "weibull_weights",
]
