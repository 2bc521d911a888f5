"""Serving settings: start-up refusal and the handler-side degraded answer.

A server configuration that would fail every query is refused when the
server is built, not per query.  When a worker is stuck past its
deadline, the handler answers on its behalf with exactly the degraded
payload and counters the worker itself would have produced.
"""

import pytest

import repro.serving.server as server_module
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.serving import (
    GraphRegistry,
    QueryServer,
    ServeClient,
    ServerConfig,
    ServerFaultInjector,
)
from repro.utils.exceptions import ConfigurationError


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(150, 3, seed=1, reciprocal=0.3))


def _server(graph, faults=None):
    registry = GraphRegistry()
    registry.add_graph("pa", graph)
    return QueryServer(
        ServerConfig(eps=0.4, seed=7), registry=registry, faults=faults
    )


def _deadline_answer(graph, faults):
    """One 0.05 s-deadline query; returns (status, payload, counters)."""
    server = _server(graph, faults=faults)
    with server:
        status, payload = ServeClient(*server.address).query(
            "pa", 5, tenant="alice", deadline_seconds=0.05
        )
        # Read before a stalled worker wakes up and answers (a no-op) too.
        counters = {
            name: server.metrics.value(name)
            for name in ("serving.deadline_exceeded", "serving.degraded")
        }
    return status, payload, counters


class TestStartupRefusal:
    def test_unshardable_algorithm_refused(self):
        with pytest.raises(ConfigurationError, match="does not support the sharded"):
            QueryServer(ServerConfig(seed=0, shards=2, algorithm="ssa"))

    def test_unknown_algorithm_refused(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            QueryServer(ServerConfig(algorithm="no-such-algorithm"))

    def test_unsharded_ssa_and_sharded_subsim_accepted(self):
        QueryServer(ServerConfig(algorithm="ssa"))
        QueryServer(ServerConfig(shards=2, algorithm="subsim"))


class TestHandlerSideDeadline:
    def test_matches_the_worker_side_answer(self, graph, monkeypatch):
        # Worker side: the request stalls in the handler past its deadline,
        # so the worker finds no time left and answers degraded itself.
        worker_side = _deadline_answer(
            graph,
            ServerFaultInjector(
                at_request=1, mode="delay", delay_seconds=0.5, jitter=0.0
            ),
        )
        # Handler side: the worker stalls, so the handler gives up after
        # deadline + grace, cancels, waits one more grace and answers.
        monkeypatch.setattr(server_module, "DEADLINE_GRACE", 0.05)
        handler_side = _deadline_answer(
            graph,
            ServerFaultInjector(
                at_worker=1, mode="delay", delay_seconds=0.5, jitter=0.0
            ),
        )
        assert handler_side == worker_side
        status, payload, counters = handler_side
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["stop_reason"] == "deadline_exceeded"
        assert payload["seeds"] == []
        assert payload["certificate"]["complete"] is False
        assert counters == {
            "serving.deadline_exceeded": 1,
            "serving.degraded": 1,
        }
