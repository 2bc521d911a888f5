"""Tests for graph deltas and incremental CSR mutation.

The load-bearing invariant: :meth:`CSRGraph.apply_delta` performs block
surgery that leaves the CSR arrays **bit-identical** to a from-scratch
``build_graph`` on the mutated edge set — that is what lets RR-set repair
argue that clean sets replay unchanged.  The hypothesis properties at the
bottom drive random graphs through random deltas and assert exactly that.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graphs.csr import build_graph
from repro.graphs.dynamic import GraphDelta
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.utils.exceptions import GraphFormatError


def small_graph():
    """A fresh 40-node graph (tests mutate it, so never a shared fixture)."""
    return wc_weights(preferential_attachment(40, 3, seed=5, reciprocal=0.3))


def edge_dict(graph):
    src, dst, prob = graph.edges()
    return {
        (int(u), int(v)): float(p)
        for u, v, p in zip(src, dst, prob)
    }


def assert_graphs_bit_identical(actual, expected):
    for slot in (
        "out_indptr", "out_indices", "out_probs",
        "in_indptr", "in_indices", "in_probs",
        "in_prob_sums", "uniform_in",
    ):
        np.testing.assert_array_equal(
            getattr(actual, slot), getattr(expected, slot), err_msg=slot
        )
    assert actual.m == expected.m
    assert actual.fingerprint() == expected.fingerprint()


class TestGraphDelta:
    def test_payload_round_trip(self):
        delta = GraphDelta(
            inserts=[(0, 1, 0.5), (2, 3, 0.25)],
            deletes=[(4, 5)],
            updates=[(6, 7, 0.75)],
        )
        clone = GraphDelta.from_payload(delta.to_payload())
        assert clone.to_payload() == delta.to_payload()
        assert clone.num_changes == 4

    def test_touched_nodes_are_unique_destinations(self):
        delta = GraphDelta(
            inserts=[(0, 9, 0.5)],
            deletes=[(1, 9), (2, 7)],
            updates=[(3, 8, 0.1)],
        )
        np.testing.assert_array_equal(delta.touched_nodes(), [7, 8, 9])

    def test_self_loop_insert_rejected(self):
        with pytest.raises(GraphFormatError, match="self-loop"):
            GraphDelta(inserts=[(3, 3, 0.5)])

    def test_probability_range_checked(self):
        with pytest.raises(GraphFormatError, match="\\[0, 1\\]"):
            GraphDelta(inserts=[(0, 1, 1.5)])
        with pytest.raises(GraphFormatError, match="\\[0, 1\\]"):
            GraphDelta(updates=[(0, 1, -0.1)])

    def test_negative_endpoint_rejected(self):
        with pytest.raises(GraphFormatError, match=">= 0"):
            GraphDelta(deletes=[(-1, 2)])

    def test_unknown_payload_field_rejected(self):
        with pytest.raises(GraphFormatError, match="unknown delta fields"):
            GraphDelta.from_payload({"inserts": [], "upserts": []})

    def test_edge_in_two_groups_rejected_on_validate(self):
        graph = small_graph()
        src, dst, _ = graph.edges()
        u, v = int(src[0]), int(dst[0])
        delta = GraphDelta(deletes=[(u, v)], updates=[(u, v, 0.5)])
        with pytest.raises(GraphFormatError, match="at most once"):
            delta.validate_against(graph)


class TestApplyDelta:
    def test_delete_missing_edge_rejected(self):
        graph = small_graph()
        edges = edge_dict(graph)
        pair = next(
            (u, v)
            for u in range(graph.n)
            for v in range(graph.n)
            if u != v and (u, v) not in edges
        )
        with pytest.raises(GraphFormatError, match="no such edge"):
            graph.apply_delta(GraphDelta(deletes=[pair]))

    def test_insert_existing_edge_rejected(self):
        graph = small_graph()
        (u, v), _ = next(iter(sorted(edge_dict(graph).items())))
        with pytest.raises(GraphFormatError, match="already exists"):
            graph.apply_delta(GraphDelta(inserts=[(u, v, 0.5)]))

    def test_mixed_delta_matches_scratch_build(self):
        graph = small_graph()
        edges = edge_dict(graph)
        (du, dv), _ = sorted(edges.items())[0]
        (uu, uv), _ = sorted(edges.items())[1]
        iu, iv = next(
            (a, b)
            for a in range(graph.n)
            for b in range(graph.n)
            if a != b and (a, b) not in edges
        )
        touched = graph.apply_delta(GraphDelta(
            inserts=[(iu, iv, 0.4)],
            deletes=[(du, dv)],
            updates=[(uu, uv, 0.2)],
        ))
        np.testing.assert_array_equal(touched, np.unique([dv, uv, iv]))
        del edges[(du, dv)]
        edges[(uu, uv)] = 0.2
        edges[(iu, iv)] = 0.4
        rows = sorted(edges.items())
        expected = build_graph(
            graph.n,
            [u for (u, _), _ in rows],
            [v for (_, v), _ in rows],
            [p for _, p in rows],
            weight_model=graph.weight_model,
        )
        assert_graphs_bit_identical(graph, expected)

    def test_epoch_and_fingerprint_advance(self):
        graph = small_graph()
        before = graph.fingerprint()
        (u, v), _ = next(iter(sorted(edge_dict(graph).items())))
        graph.apply_delta(GraphDelta(deletes=[(u, v)]))
        assert graph.delta_epoch == 1
        assert graph.fingerprint() != before

    def test_empty_delta_is_a_noop(self):
        graph = small_graph()
        before = graph.fingerprint()
        touched = graph.apply_delta(GraphDelta())
        assert len(touched) == 0
        assert graph.delta_epoch == 0
        assert graph.fingerprint() == before


# ----------------------------------------------------------------------
# hypothesis: surgery == scratch build, for arbitrary graphs and deltas
# ----------------------------------------------------------------------

def random_graph_and_delta(data, max_n=10):
    n = data.draw(st.integers(2, max_n))
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, n - 1),
                st.integers(0, n - 1),
                st.floats(0.01, 1.0),
            ),
            max_size=min(n * (n - 1), 25),
        )
    )
    edges = {}
    for u, v, p in pairs:
        if u != v and (u, v) not in edges:
            edges[(u, v)] = p
    rows = sorted(edges.items())
    graph = build_graph(
        n,
        [u for (u, _), _ in rows],
        [v for (_, v), _ in rows],
        [p for _, p in rows],
    )

    existing = list(rows)
    k_touch = data.draw(st.integers(0, len(existing)))
    touch_idx = data.draw(
        st.lists(
            st.integers(0, len(existing) - 1),
            min_size=0, max_size=k_touch, unique=True,
        )
    ) if existing else []
    deletes, updates = [], []
    touched_pairs = set()
    for i in touch_idx:
        (u, v), _ = existing[i]
        touched_pairs.add((u, v))
        if data.draw(st.booleans()):
            deletes.append((u, v))
            del edges[(u, v)]
        else:
            p = data.draw(st.floats(0.01, 1.0))
            updates.append((u, v, p))
            edges[(u, v)] = p
    # an edge may appear in at most one delta group, so a pair already
    # deleted above cannot also be drawn as an insert
    free = [
        (u, v)
        for u in range(n)
        for v in range(n)
        if u != v and (u, v) not in edges and (u, v) not in touched_pairs
    ]
    k_ins = data.draw(st.integers(0, min(len(free), 5)))
    inserts = []
    for i in data.draw(
        st.lists(
            st.integers(0, len(free) - 1),
            min_size=0, max_size=k_ins, unique=True,
        )
    ) if free else []:
        u, v = free[i]
        p = data.draw(st.floats(0.01, 1.0))
        inserts.append((u, v, p))
        edges[(u, v)] = p
    delta = GraphDelta(inserts=inserts, deletes=deletes, updates=updates)
    return graph, delta, edges


def scratch_build(n, edges):
    rows = sorted(edges.items())
    return build_graph(
        n,
        [u for (u, _), _ in rows],
        [v for (_, v), _ in rows],
        [p for _, p in rows],
    )


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_delta_is_bit_identical_to_scratch_build(data):
    graph, delta, edges = random_graph_and_delta(data)
    graph.apply_delta(delta)
    assert_graphs_bit_identical(graph, scratch_build(graph.n, edges))


@settings(max_examples=40, deadline=None)
@given(data=st.data(), extra=st.integers(0, 2**31))
def test_stacked_deltas_match_single_scratch_build(data, extra):
    """Several deltas in sequence still land exactly on the scratch build."""
    graph, delta, edges = random_graph_and_delta(data)
    graph.apply_delta(delta)
    rng = np.random.default_rng(extra)
    live = sorted(edges)
    if live:
        u, v = live[int(rng.integers(len(live)))]
        p = float(rng.uniform(0.01, 1.0))
        graph.apply_delta(GraphDelta(updates=[(u, v, p)]))
        edges[(u, v)] = p
    assert_graphs_bit_identical(graph, scratch_build(graph.n, edges))
