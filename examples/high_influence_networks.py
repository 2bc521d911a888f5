#!/usr/bin/env python
"""High-influence networks: where HIST earns its keep (paper Section 4).

When cascades are strong — high edge probabilities, dense graphs — every
random RR set touches a large fraction of the network, and classic RR-based
algorithms drown in sampling cost.  This example calibrates a WC-variant
cascade so the *average RR-set size* is ~15% of the network, then shows how
HIST's sentinel trick collapses RR sizes (and runtime) while certifying the
same (1 - 1/e - eps) guarantee.

Run:  python examples/high_influence_networks.py
"""

from repro import InfluenceMaximizer, preferential_attachment
from repro.experiments import average_rr_size, calibrate_wc_variant
from repro.experiments.reporting import render_table

K = 50
EPS = 0.3


def main() -> None:
    base = preferential_attachment(3000, 6, seed=5, reciprocal=0.3)
    target = 0.15 * base.n
    theta, graph, achieved = calibrate_wc_variant(base, target, seed=0)
    print(
        f"calibrated WC-variant theta={theta:.3f}: average RR size "
        f"{achieved:.0f} nodes (~{achieved / base.n:.0%} of the network)\n"
    )

    maximizer = InfluenceMaximizer(graph)
    rows = []
    for algorithm in ("opim-c", "hist", "hist+subsim"):
        result = maximizer.maximize(K, algorithm=algorithm, eps=EPS, seed=9)
        rows.append(
            {
                "algorithm": algorithm,
                "runtime_s": round(result.runtime_seconds, 3),
                "rr_sets": result.num_rr_sets,
                "avg_rr_size": round(result.average_rr_size, 1),
                "edges_examined": result.edges_examined,
                "sentinels_b": result.extras.get("b", "-"),
            }
        )
    print(render_table(rows, title=f"k={K}, high-influence setting"))

    opimc, hist = rows[0], rows[1]
    print(
        f"HIST shrinks the average RR set "
        f"{opimc['avg_rr_size'] / hist['avg_rr_size']:.0f}x "
        f"(paper reports up to 700x at billion-edge scale) and runs "
        f"{opimc['runtime_s'] / max(hist['runtime_s'], 1e-9):.1f}x faster; "
        f"HIST+SUBSIM compounds both contributions."
    )

    # The uncalibrated baseline for contrast: plain WC is low influence.
    from repro.graphs.weights import wc_weights

    low = wc_weights(base)
    print(
        f"\nfor contrast, plain WC average RR size: "
        f"{average_rr_size(low, seed=0):.1f} nodes — the regime of Figure 1, "
        "where SUBSIM alone is the right tool."
    )


if __name__ == "__main__":
    main()
