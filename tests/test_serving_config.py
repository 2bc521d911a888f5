"""Serving settings: start-up refusal and the handler-side degraded answer.

A server configuration that would fail every query is refused when the
server is built, not per query.  When a worker is stuck past its
deadline, the handler answers on its behalf with exactly the degraded
payload and counters the worker itself would have produced, and the
worker's late answer counts nothing.
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


OUTCOME_COUNTERS = (
    "serving.completed",
    "serving.partial",
    "serving.deadline_exceeded",
    "serving.degraded",
)

#: the outcome counts of one query answered degraded at its deadline
DEADLINE_COUNTS = {
    "serving.completed": 0,
    "serving.partial": 0,
    "serving.deadline_exceeded": 1,
    "serving.degraded": 1,
}


def _deadline_answer(graph, faults):
    """One 0.05 s-deadline query.

    Returns ``(status, payload, at_answer, after_stop)``: the outcome
    counters as soon as the answer arrives, and again after ``stop()``
    has joined every worker, a stalled one included.
    """
    server = _server(graph, faults=faults)

    def counters():
        return {name: server.metrics.value(name) for name in OUTCOME_COUNTERS}

    with server:
        status, payload = ServeClient(*server.address).query(
            "pa", 5, tenant="alice", deadline_seconds=0.05
        )
        at_answer = counters()
    return status, payload, at_answer, counters()


class TestStartupRefusal:
    def test_unknown_algorithm_refused(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            QueryServer(ServerConfig(algorithm="no-such-algorithm"))

    def test_unsharded_ssa_accepted(self):
        QueryServer(ServerConfig(algorithm="ssa"))

    @pytest.mark.parametrize("eps", [0.0, 1.0, 5.0, -0.1])
    def test_eps_outside_unit_interval_refused(self, eps):
        with pytest.raises(ConfigurationError, match="eps must lie in"):
            ServerConfig(eps=eps)


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
        assert handler_side[:3] == worker_side[:3]
        status, payload, at_answer, _ = handler_side
        assert status == 200
        assert payload["status"] == "degraded"
        assert payload["stop_reason"] == "deadline_exceeded"
        assert payload["seeds"] == []
        assert payload["certificate"]["complete"] is False
        # The winning responder counts before it releases the answer.
        assert at_answer == DEADLINE_COUNTS

    def test_stalled_worker_is_counted_once(self, graph, monkeypatch):
        # The worker wakes after the handler answered; its own degraded
        # answer is dropped, and so are its counts.
        monkeypatch.setattr(server_module, "DEADLINE_GRACE", 0.05)
        _, payload, _, after_stop = _deadline_answer(
            graph,
            ServerFaultInjector(
                at_worker=1, mode="delay", delay_seconds=0.5, jitter=0.0
            ),
        )
        assert payload["stop_reason"] == "deadline_exceeded"
        assert after_stop == DEADLINE_COUNTS
