"""Integration tests for the query daemon (real sockets, ephemeral ports)."""

import threading

import pytest

from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.runtime.budget import Budget
from repro.serving import (
    GraphRegistry,
    QueryServer,
    ServeClient,
    ServerConfig,
)


@pytest.fixture(scope="module")
def graph():
    return wc_weights(preferential_attachment(150, 3, seed=1, reciprocal=0.3))


def make_server(graph, **overrides):
    overrides.setdefault("eps", 0.4)
    overrides.setdefault("seed", 7)
    registry = GraphRegistry()
    registry.add_graph("pa", graph)
    return QueryServer(ServerConfig(**overrides), registry=registry)


class TestEndpoints:
    def test_health_and_routing(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            status, payload = client.health()
            assert status == 200
            assert payload["graphs"] == ["pa"]
            status, payload = client._request("GET", "/nope")
            assert status == 404

    def test_complete_query(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            status, payload = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert payload["status"] == "complete"
            assert len(payload["seeds"]) == 5
            assert payload["certificate"]["complete"] is True
            assert payload["certificate"]["ratio"] > 0

    def test_unknown_graph_404(self, graph):
        with make_server(graph) as server:
            status, payload = ServeClient(*server.address).query("ghost", 3)
            assert status == 404
            assert "ghost" in payload["error"]

    def test_bad_requests_400(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            assert client.query("pa", 0)[0] == 400
            assert client._request("POST", "/query", {"graph": "pa"})[0] == 400
            assert (
                client._request(
                    "POST", "/query", {"graph": "pa", "k": 2, "eps": 3.0}
                )[0]
                == 400
            )

    def test_query_refused_by_run_keeps_warm_session(self, graph):
        # k > n passes request parsing but run() refuses it: a bad query,
        # not a worker crash, so no retry and no session invalidation.
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            client.query("pa", 5, tenant="alice")
            crashes = server.metrics.value("serving.worker_crashes")
            invalidated = server.metrics.value("serving.sessions_invalidated")
            status, payload = client.query("pa", graph.n + 1, tenant="alice")
            assert status == 400
            assert payload == {
                "error": f"k must lie in [1, n={graph.n}], got {graph.n + 1}"
            }
            assert server.metrics.value("serving.worker_crashes") == crashes
            assert (
                server.metrics.value("serving.sessions_invalidated")
                == invalidated
            )
            status, payload = client.query("pa", 3, tenant="alice")
            assert status == 200
            assert payload["session"]["sets_reused"] > 0

    def test_algorithm_override_rejected(self, graph):
        with make_server(graph) as server:
            status, payload = ServeClient(*server.address)._request(
                "POST", "/query", {"graph": "pa", "k": 2, "algorithm": "imm"}
            )
            assert status == 400
            assert "fixed by the server" in payload["error"]

    def test_metrics_endpoint_idempotent_reads(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            client.query("pa", 3, tenant="alice")
            _, first = client.metrics()
            _, second = client.metrics()
            # Merging happens on a fresh registry per read: two reads with
            # no traffic in between are identical (no double counting).
            assert first["counters"] == second["counters"]
            assert first["counters"]["serving.admitted"] == 1
            assert first["counters"]["bank.sets_generated"] > 0

    def test_report_endpoint(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            client.query("pa", 3, tenant="alice")
            status, payload = client.report()
            assert status == 200
            assert payload["spend"]["rr_sets"] > 0
            assert payload["sessions"][0]["tenant"] == "alice"
            canonical = payload["reports"]["alice/pa"]
            assert canonical["status"] == "complete"
            assert canonical["config"]["tenant"] == "alice"


class TestTenancy:
    def test_warm_reuse_same_tenant(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            _, first = client.query("pa", 5, tenant="alice")
            _, second = client.query("pa", 5, tenant="alice")
            assert first["session"]["sets_generated"] > 0
            assert second["session"]["sets_generated"] == 0
            assert second["session"]["sets_reused"] > 0
            assert second["seeds"] == first["seeds"]

    def test_tenants_are_isolated(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            _, alice = client.query("pa", 5, tenant="alice")
            _, bob = client.query("pa", 5, tenant="bob")
            # Distinct entropy: bob's banks are his own, freshly generated.
            assert bob["session"]["sets_generated"] > 0

    def test_concurrent_same_tenant_queries_serialize(self, graph):
        with make_server(graph, workers=4) as server:
            client = ServeClient(*server.address)
            results = []
            lock = threading.Lock()

            def hit():
                _, payload = client.query("pa", 4, tenant="alice")
                with lock:
                    results.append(payload)

            threads = [threading.Thread(target=hit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(r["status"] == "complete" for r in results)
            seeds = {tuple(r["seeds"]) for r in results}
            assert len(seeds) == 1  # every query saw the same banks
            # Only the first query generated; the rest reused.
            generated = sorted(
                r["session"]["sets_generated"] for r in results
            )
            assert generated[:3] == [0, 0, 0]


class TestAdmission:
    def test_budget_exhaustion_sheds(self, graph):
        budget = Budget(max_rr_sets=1)
        with make_server(graph, lifetime_budget=budget) as server:
            client = ServeClient(*server.address)
            status, _ = client.query("pa", 3, tenant="alice")
            assert status == 200
            status, payload = client.query("pa", 3, tenant="alice")
            assert status == 429
            assert payload["reason"] == "budget_exhausted:rr_sets"

    def test_overload_sheds_with_429(self, graph):
        # One worker, queue of one: concurrent requests must shed.
        with make_server(graph, workers=1, max_pending=1) as server:
            client = ServeClient(*server.address)
            codes = []
            lock = threading.Lock()

            def hit(i):
                status, _ = client.query("pa", 4, tenant=f"t{i}")
                with lock:
                    codes.append(status)

            threads = [
                threading.Thread(target=hit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert all(code in (200, 429) for code in codes)
            assert 429 in codes  # the queue bound actually shed something
            assert 200 in codes  # while admitted queries still completed
            _, metrics = client.metrics()
            shed = metrics["counters"]["serving.shed"]
            admitted = metrics["counters"]["serving.admitted"]
            assert shed + admitted == 8
            assert metrics["counters"]["serving.shed_queue"] == shed


class TestDeadlines:
    def test_tight_deadline_degrades_to_partial(self, graph):
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            status, payload = client.query(
                "pa", 5, tenant="alice", deadline_seconds=1e-4
            )
            assert status == 200
            assert payload["status"] in ("partial", "degraded")
            assert payload["certificate"]["complete"] is False
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.deadline_exceeded"] >= 1

    def test_generous_deadline_completes(self, graph):
        with make_server(graph, default_deadline=60.0) as server:
            status, payload = ServeClient(*server.address).query(
                "pa", 3, tenant="alice"
            )
            assert status == 200
            assert payload["status"] == "complete"


class TestRecovery:
    def test_restart_resumes_warm_and_bit_identical(self, graph, tmp_path):
        snapdir = str(tmp_path / "snaps")
        with make_server(graph, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            _, first = client.query("pa", 5, tenant="alice")

        # Restarted server, same seed + snapshot dir: warm resume.
        with make_server(graph, snapshot_dir=snapdir) as server:
            client = ServeClient(*server.address)
            _, again = client.query("pa", 5, tenant="alice")
            _, grown = client.query("pa", 8, tenant="alice")
            _, metrics = client.metrics()
        assert again["session"]["sets_generated"] == 0
        assert again["seeds"] == first["seeds"]
        assert metrics["counters"]["serving.sessions_restored"] == 1

        # A never-crashed server with the same seed gives the same answers.
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            _, c1 = client.query("pa", 5, tenant="alice")
            _, c2 = client.query("pa", 8, tenant="alice")
        assert c1["seeds"] == first["seeds"]
        assert c2["seeds"] == grown["seeds"]

    def test_stop_is_idempotent_and_graceful(self, graph):
        server = make_server(graph).start()
        client = ServeClient(*server.address)
        assert client.query("pa", 3)[0] == 200
        server.stop()
        server.stop()  # second stop is a no-op


class TestDeltaEndpoint:
    """POST /delta: one graph mutation, every warm tenant repaired."""

    def _private_graph(self):
        # /delta mutates the registry graph in place, so these tests never
        # share the module-scoped fixture
        return wc_weights(
            preferential_attachment(150, 3, seed=1, reciprocal=0.3)
        )

    def _an_edge(self, graph):
        u = next(
            i for i in range(graph.n)
            if graph.out_indptr[i + 1] > graph.out_indptr[i]
        )
        return u, int(graph.out_indices[graph.out_indptr[u]])

    def test_delta_repairs_warm_tenants(self):
        graph = self._private_graph()
        fingerprint_before = graph.fingerprint()
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            assert client.query("pa", 5, tenant="alice")[0] == 200
            assert client.query("pa", 5, tenant="bob")[0] == 200
            u, v = self._an_edge(graph)
            status, payload = client.delta("pa", deletes=[(u, v)])
            assert status == 200
            assert payload["status"] == "ok"
            assert payload["num_changes"] == 1
            assert payload["touched_nodes"] == 1
            assert payload["delta_epoch"] == 1
            assert payload["fingerprint"] != fingerprint_before
            assert set(payload["sessions"]) == {"alice", "bob"}
            for stats in payload["sessions"].values():
                assert stats["sets_total"] > 0
            # queries keep flowing on the mutated graph
            status, answer = client.query("pa", 5, tenant="alice")
            assert status == 200
            assert answer["status"] == "complete"
            _, metrics = client.metrics()
            assert metrics["counters"]["serving.deltas_applied"] == 1

    def test_delta_on_cold_server_touches_no_sessions(self):
        graph = self._private_graph()
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            u, v = self._an_edge(graph)
            status, payload = client.delta("pa", deletes=[(u, v)])
            assert status == 200
            assert payload["sessions"] == {}

    def test_delta_validation_errors(self):
        graph = self._private_graph()
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            status, payload = client.delta("ghost", deletes=[(0, 1)])
            assert status == 404
            status, payload = client._request(
                "POST", "/delta", {"graph": "pa"}
            )
            assert status == 400
            assert "at least one" in payload["error"]
            # deleting a non-edge is rejected atomically (graph unchanged)
            epoch_before = graph.delta_epoch
            status, payload = client.delta(
                "pa", deletes=[(0, 0)]
            )
            assert status == 400
            assert graph.delta_epoch == epoch_before

    def test_delta_equivalent_to_direct_session_repair(self):
        """The served answer after /delta matches an offline session that
        applied the same delta — the endpoint adds routing, not behaviour."""
        graph = self._private_graph()
        u, v = self._an_edge(graph)
        with make_server(graph) as server:
            client = ServeClient(*server.address)
            client.query("pa", 5, tenant="alice")
            client.delta("pa", deletes=[(u, v)])
            status, served = client.query("pa", 5, tenant="alice")
            assert status == 200

        from repro.engine.session import QuerySession
        from repro.graphs.dynamic import GraphDelta
        from repro.serving.sessions import tenant_entropy

        offline_graph = wc_weights(
            preferential_attachment(150, 3, seed=1, reciprocal=0.3)
        )
        entropy = tenant_entropy(server.config.seed, "alice", "pa")
        session = QuerySession(
            offline_graph, server.config.algorithm, seed=entropy
        )
        session.maximize(5, eps=server.config.eps)
        session.apply_delta(GraphDelta(deletes=[(u, v)]))
        offline = session.maximize(5, eps=server.config.eps)
        assert served["seeds"] == offline.seeds
