"""Edge-weighting schemes for cascade models.

Every scheme follows the paper's Section 7 parameter settings:

* **WC** — ``p(u, v) = 1 / d_in(v)``.
* **WC variant** — ``p(u, v) = min(1, theta / d_in(v))`` with a constant
  ``theta >= 1`` that tunes the average RR-set size (high-influence ladder).
* **Uniform IC** — every edge has the same probability ``p``.
* **Trivalency** — each edge draws uniformly from a small probability menu.
* **Exponential** — weights drawn from Exp(lambda=1), then each node's
  incoming weights rescaled to sum to 1.
* **Weibull** — per-edge shape/scale drawn uniformly from (0, 10], weights
  drawn from the corresponding Weibull, then per-node rescaled to sum to 1.
* **LT normalisation** — divide each node's incoming weights by their sum
  whenever that sum exceeds 1, establishing the LT model's precondition.

Schemes are expressed through :func:`reweight`, which recomputes per-edge
probabilities from ``(src, dst)`` and rebuilds the dual-CSR structure, keeping
:class:`~repro.graphs.csr.CSRGraph` immutable.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

from repro.graphs.csr import CSRGraph, build_graph
from repro.utils.exceptions import ConfigurationError
from repro.utils.rng import SeedLike, as_generator

EdgeProbFn = Callable[[np.ndarray, np.ndarray, CSRGraph], np.ndarray]


def reweight(graph: CSRGraph, prob_fn: EdgeProbFn, weight_model: str) -> CSRGraph:
    """Return a copy of ``graph`` whose edge probabilities are recomputed.

    ``prob_fn(src, dst, graph)`` receives the parallel edge-endpoint arrays
    and must return the new per-edge probability array.
    """
    src, dst, _ = graph.edges()
    probs = np.asarray(prob_fn(src, dst, graph), dtype=np.float64)
    if len(probs) != len(src):
        raise ConfigurationError(
            f"prob_fn returned {len(probs)} probabilities for {len(src)} edges"
        )
    if len(probs) and not (
        np.isfinite(probs).all() and probs.min() >= 0.0 and probs.max() <= 1.0
    ):
        raise ConfigurationError("prob_fn produced probabilities outside [0, 1]")
    return build_graph(
        graph.n, src, dst, probs, weight_model=weight_model, validate=False
    )


def wc_weights(graph: CSRGraph) -> CSRGraph:
    """Weighted-cascade model: ``p(u, v) = 1 / d_in(v)``."""
    in_deg = graph.in_degree()

    def fn(src, dst, g):
        return 1.0 / in_deg[dst]

    return reweight(graph, fn, "wc")


def wc_variant_weights(graph: CSRGraph, theta: float) -> CSRGraph:
    """WC variant of the paper's Section 7: ``p(u, v) = min(1, theta/d_in(v))``.

    ``theta = 1`` recovers plain WC; larger values raise influence, which is
    how the paper scales the average RR-set size ladder (theta_50 ... theta_32K).
    """
    if theta < 1.0:
        raise ConfigurationError("wc_variant requires theta >= 1")
    in_deg = graph.in_degree()

    def fn(src, dst, g):
        return np.minimum(1.0, theta / in_deg[dst])

    return reweight(graph, fn, f"wc_variant:{theta:g}")


def uniform_weights(graph: CSRGraph, p: float) -> CSRGraph:
    """Uniform IC model: every edge carries probability ``p``."""
    if not 0.0 <= p <= 1.0:
        raise ConfigurationError("uniform probability must lie in [0, 1]")

    def fn(src, dst, g):
        return np.full(len(src), p, dtype=np.float64)

    return reweight(graph, fn, f"uniform:{p:g}")


def trivalency_weights(
    graph: CSRGraph,
    choices: Sequence[float] = (0.1, 0.01, 0.001),
    seed: SeedLike = None,
) -> CSRGraph:
    """Trivalency model: each edge draws uniformly from ``choices``."""
    for c in choices:
        if not 0.0 <= c <= 1.0:
            raise ConfigurationError("trivalency choices must lie in [0, 1]")
    rng = as_generator(seed)

    def fn(src, dst, g):
        menu = np.asarray(choices, dtype=np.float64)
        return menu[rng.integers(0, len(menu), size=len(src))]

    return reweight(graph, fn, f"trivalency:{tuple(choices)}")


def _rescale_in_sums(dst: np.ndarray, raw: np.ndarray, n: int) -> np.ndarray:
    """Scale each node's incoming raw weights so they sum to exactly 1.

    Non-finite raw weights (possible under extreme Weibull shapes) are
    treated as dominating their node: they get weight 1 relative to the
    node's other edges, then the node is renormalised.
    """
    raw = np.asarray(raw, dtype=np.float64)
    bad = ~np.isfinite(raw)
    if bad.any():
        raw = raw.copy()
        # Give the node's finite edges zero mass next to an infinite one.
        node_has_bad = np.zeros(n, dtype=bool)
        node_has_bad[dst[bad]] = True
        raw[node_has_bad[dst]] = 0.0
        raw[bad] = 1.0
    sums = np.zeros(n, dtype=np.float64)
    np.add.at(sums, dst, raw)
    sums[sums == 0.0] = 1.0  # nodes with no mass keep zeros unchanged
    return raw / sums[dst]


def exponential_weights(
    graph: CSRGraph, lam: float = 1.0, seed: SeedLike = None
) -> CSRGraph:
    """Skewed weights: raw ~ Exp(lam), per-node incoming sum rescaled to 1.

    Matches the paper's exponential-distribution setting (lambda = 1).
    """
    if lam <= 0:
        raise ConfigurationError("lambda must be positive")
    rng = as_generator(seed)

    def fn(src, dst, g):
        raw = rng.exponential(1.0 / lam, size=len(src))
        return _rescale_in_sums(dst, raw, g.n)

    return reweight(graph, fn, f"exponential:{lam:g}")


def weibull_weights(graph: CSRGraph, seed: SeedLike = None) -> CSRGraph:
    """Skewed weights: per-edge Weibull(a, b) with a, b ~ U(0, 10], per-node
    incoming sum rescaled to 1 — the paper's Weibull setting (after [38]).
    """
    rng = as_generator(seed)

    def fn(src, dst, g):
        count = len(src)
        # Shapes below ~0.05 make (-ln U)^(1/a) overflow doubles; the
        # rescaling treats those as "this edge dominates its node", which
        # is also the distribution's own reading.  Draw from (0, 10].
        a = 10.0 * (1.0 - rng.random(count))
        b = 10.0 * (1.0 - rng.random(count))
        with np.errstate(over="ignore"):
            raw = b * rng.weibull(np.maximum(a, 1e-3), size=count)
        return _rescale_in_sums(dst, raw, g.n)

    return reweight(graph, fn, "weibull")


def lt_normalized_weights(graph: CSRGraph) -> CSRGraph:
    """Normalise so each node's incoming weights sum to at most 1 (LT model).

    Nodes whose incoming sum already satisfies the constraint are unchanged.
    """
    sums = graph.in_prob_sums

    def fn(src, dst, g):
        _, _, probs = g.edges()
        scale = np.maximum(sums[dst], 1.0)
        return probs / scale

    return reweight(graph, fn, f"lt:{graph.weight_model}")


#: schemes that take no parameter: name -> ``weigh(graph, seed)``
_PLAIN: Dict[str, Callable[[CSRGraph, SeedLike], CSRGraph]] = {
    "wc": lambda graph, seed: wc_weights(graph),
    "exponential": lambda graph, seed: exponential_weights(graph, seed=seed),
    "weibull": lambda graph, seed: weibull_weights(graph, seed=seed),
    "trivalency": lambda graph, seed: trivalency_weights(graph, seed=seed),
    "lt": lambda graph, seed: lt_normalized_weights(graph),
}
#: schemes named ``name:<parameter>``: name -> ``(placeholder, lowest,
#: highest, weigh(graph, parameter))``
_PARAMETERISED: Dict[str, Tuple[str, float, float, Callable[..., CSRGraph]]] = {
    "wc-variant": ("theta", 1.0, math.inf, wc_variant_weights),
    "uniform": ("p", 0.0, 1.0, uniform_weights),
}


def parse_scheme(scheme: str) -> Callable[[CSRGraph, SeedLike], CSRGraph]:
    """Parse a weight scheme named like ``"wc"``, ``"wc-variant:2.5"`` or
    ``"uniform:0.01"`` into ``weigh(graph, seed)``, touching no graph.

    This is the string form the CLI and the serving layer's graph registry
    share.  Raises :class:`~repro.utils.exceptions.ConfigurationError` for
    an unknown name and for a missing, non-numeric, out-of-range or
    unexpected parameter.
    """
    name, sep, arg = scheme.partition(":")
    if name in _PLAIN and not sep:
        return _PLAIN[name]
    if name not in _PARAMETERISED:
        raise ConfigurationError(
            f"unknown weight scheme {scheme!r}; use wc, wc-variant:<theta>, "
            "uniform:<p>, exponential, weibull, trivalency, or lt"
        )
    placeholder, lowest, highest, weigh = _PARAMETERISED[name]
    try:
        value = float(arg)
    except ValueError:
        value = math.nan
    if not lowest <= value <= highest:
        raise ConfigurationError(
            f"bad weight scheme {scheme!r}; use {name}:<{placeholder}> with "
            f"{placeholder} in [{lowest:g}, {highest:g}]"
        )
    return lambda graph, seed: weigh(graph, value)


def apply_scheme(graph: CSRGraph, scheme: str, seed: SeedLike = None) -> CSRGraph:
    """Apply the weight scheme :func:`parse_scheme` reads from ``scheme``."""
    return parse_scheme(scheme)(graph, seed)
