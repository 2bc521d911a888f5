"""Session interrupts: a cancel that lands mid-doubling on a warm session.

The module keeps its name from the former next-round prefetch pipeline;
its interrupt contract outlived the pipeline. A cancel during a session
query degrades to a clean partial, and the reusable banks come out
consistent: the next query is bit-identical to the same query on a
never-interrupted session, unsharded and sharded alike.
"""

from __future__ import annotations

import pytest

from repro.core.certify import partial_certificate
from repro.engine.session import QuerySession
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.runtime import CancellationToken, FaultInjector

K = 8
EPS = 0.25


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(300, 3, seed=1, reciprocal=0.3))


class TestInterrupts:
    @pytest.mark.parametrize("shards", [None, 2])
    def test_mid_run_cancel_yields_clean_partial(self, graph, shards):
        with QuerySession(graph, "subsim", seed=7, shards=shards) as session:
            token = CancellationToken()
            trigger = FaultInjector(
                at_rr_set=150,
                mode="delay",
                sleep=lambda _seconds: token.cancel("triggered"),
            )
            first = session.maximize(
                K, eps=EPS, cancel=token, fault_injector=trigger
            )
            assert first.status == "partial"
            assert first.stop_reason == "cancelled"
            assert first.num_rr_sets > 0
            assert not partial_certificate(first).complete
            second = session.maximize(K, eps=EPS)
        with QuerySession(
            graph, "subsim", seed=7, shards=shards
        ) as reference:
            clean = reference.maximize(K, eps=EPS)
        assert second.status == "complete"
        assert second.seeds == clean.seeds
        assert second.num_rr_sets == clean.num_rr_sets
