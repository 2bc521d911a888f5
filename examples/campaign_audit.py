#!/usr/bin/env python
"""Campaign audit: who earned their free product, and how sure are we?

After a viral-marketing campaign is planned (seeds selected), three audit
questions remain:

1. *How much spread does each seed actually account for?*
   -> per-seed attribution (leave-one-out and selection-order).
2. *How accurate is our spread forecast?*
   -> sequential estimation with an explicit (eps, delta) contract
      (Dagum et al., the paper's reference [16]).
3. *Can we certify the seed set is near-optimal without trusting the
   selection code?*  -> an independent RR-based certificate.

Run:  python examples/campaign_audit.py
"""

from repro import InfluenceMaximizer, preferential_attachment, wc_weights
from repro.core import certify_result
from repro.estimation import (
    attribution_table,
    estimate_spread_sequential,
    incremental_contributions,
    marginal_contributions,
)
from repro.experiments.plotting import bar_chart
from repro.experiments.reporting import render_table

K = 8


def main() -> None:
    graph = wc_weights(
        preferential_attachment(4000, 5, seed=17, reciprocal=0.3)
    )
    plan = InfluenceMaximizer(graph).maximize(
        K, algorithm="hist+subsim", eps=0.15, seed=3
    )
    print(f"campaign plan: seeds {plan.seeds} "
          f"(selected in {plan.runtime_seconds:.2f}s)\n")

    # 1a. Leave-one-out: what do we lose if a seed drops out?
    marginal = marginal_contributions(
        graph, plan.seeds, num_simulations=400, seed=1
    )
    print(render_table(attribution_table(marginal),
                       title="Leave-one-out contribution"))

    # 1b. Selection-order gains (telescopes to the full forecast).
    incremental = incremental_contributions(
        graph, plan.seeds, num_simulations=400, seed=1
    )
    print(bar_chart(
        {f"seed {r.seed}": max(r.contribution, 0.0) for r in incremental},
        title="Gain when added (selection order)",
        width=40,
    ))

    # 2. Forecast with an explicit accuracy contract.
    forecast = estimate_spread_sequential(
        graph, plan.seeds, eps=0.05, delta=0.01, seed=2
    )
    print(
        f"forecast: {forecast.mean:.0f} adopters, within +-5% with 99% "
        f"confidence ({forecast.num_samples} cascades simulated)"
    )

    # 3. Independent near-optimality certificate.
    cert = certify_result(graph, plan.seeds, k=K, num_rr=30_000, seed=4)
    print(
        f"certificate: I(S) >= {cert.ratio:.2f} * OPT_{K} with probability "
        f">= {1 - cert.delta}"
    )


if __name__ == "__main__":
    main()
