"""Tests for the RR-set collection and its inverted index."""

import numpy as np
import pytest

from repro.rrsets.collection import RRCollection
from repro.rrsets.vanilla import VanillaICGenerator


def manual_collection():
    c = RRCollection(5)
    c.add([0, 1])
    c.add([2])
    c.add([1, 2, 3])
    return c


class TestBasics:
    def test_rejects_empty_universe(self):
        with pytest.raises(ValueError):
            RRCollection(0)

    def test_len_and_sizes(self):
        c = manual_collection()
        assert len(c) == 3
        assert c.num_rr == 3
        assert c.total_size == 6
        assert c.average_size() == 2.0

    def test_empty_average(self):
        assert RRCollection(3).average_size() == 0.0

    def test_add_returns_sequential_ids(self):
        c = RRCollection(4)
        assert c.add([0]) == 0
        assert c.add([1]) == 1


class TestInvertedIndex:
    def test_coverage_counts(self):
        c = manual_collection()
        assert list(c.coverage_counts()) == [1, 2, 2, 1, 0]

    def test_node_to_rrs(self):
        c = manual_collection()
        assert c.rrs_containing(1).tolist() == [0, 2]
        assert c.rrs_containing(4).tolist() == []


class TestCoverage:
    def test_single_node(self):
        c = manual_collection()
        assert c.coverage([1]) == 2

    def test_union_not_double_counted(self):
        c = manual_collection()
        assert c.coverage([1, 2]) == 3  # set 2 contains both, counted once

    def test_empty_seed_set(self):
        assert manual_collection().coverage([]) == 0

    def test_covered_mask(self):
        mask = manual_collection().covered_mask([0])
        assert list(mask) == [True, False, False]

    def test_estimate_influence(self):
        c = manual_collection()
        # n * coverage / theta = 5 * 2 / 3
        assert c.estimate_influence([1]) == pytest.approx(10 / 3)

    def test_estimate_on_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            RRCollection(3).estimate_influence([0])


class TestExtend:
    def test_extend_generates_count(self, wc_graph, rng):
        c = RRCollection(wc_graph.n)
        c.extend(25, VanillaICGenerator(wc_graph), rng)
        assert c.num_rr == 25

    def test_negative_count_rejected(self, wc_graph, rng):
        c = RRCollection(wc_graph.n)
        with pytest.raises(ValueError):
            c.extend(-1, VanillaICGenerator(wc_graph), rng)

    def test_index_consistent_after_extend(self, wc_graph, rng):
        c = RRCollection(wc_graph.n)
        c.extend(50, VanillaICGenerator(wc_graph), rng)
        # rrs_containing must exactly invert set_nodes
        for rr_id in range(c.num_rr):
            for node in c.set_nodes(rr_id):
                assert rr_id in c.rrs_containing(node)
        assert (
            sum(len(c.rrs_containing(node)) for node in range(c.n))
            == c.total_size
        )

    def test_extend_with_stop_mask(self, wc_graph, rng):
        c = RRCollection(wc_graph.n)
        stop = np.ones(wc_graph.n, dtype=bool)
        c.extend(20, VanillaICGenerator(wc_graph), rng, stop_mask=stop)
        assert (c.set_sizes() == 1).all()


class TestDirtySetOps:
    """sets_touching + replace_sets — the repair substrate."""

    def _pool(self, wc_graph, count=60, seed=4):
        c = RRCollection(wc_graph.n)
        c.extend(count, VanillaICGenerator(wc_graph), np.random.default_rng(seed))
        return c

    def test_sets_touching_matches_naive_scan(self, wc_graph):
        c = self._pool(wc_graph)
        nodes = np.array([0, 3, 17, wc_graph.n - 1])
        naive = [
            rr_id
            for rr_id in range(c.num_rr)
            if set(c.set_nodes(rr_id).tolist()) & set(nodes.tolist())
        ]
        got = c.sets_touching(nodes)
        np.testing.assert_array_equal(got, naive)
        assert (np.diff(got) > 0).all()  # ascending, no duplicates

    def test_sets_touching_empty_inputs(self, wc_graph):
        c = self._pool(wc_graph)
        assert len(c.sets_touching(np.empty(0, dtype=np.int64))) == 0
        assert len(RRCollection(5).sets_touching(np.array([1]))) == 0

    def test_sets_touching_out_of_range_rejected(self, wc_graph):
        c = self._pool(wc_graph)
        with pytest.raises(IndexError):
            c.sets_touching(np.array([wc_graph.n]))
        with pytest.raises(IndexError):
            c.sets_touching(np.array([-1]))

    def test_replace_sets_rewrites_only_targets(self, wc_graph):
        c = self._pool(wc_graph)
        before = [np.array(c.set_nodes(i)) for i in range(c.num_rr)]
        ids = np.array([3, 10, 41])
        replacements = [np.array([1, 2]), np.array([7]), np.array([0, 5, 9])]
        c.replace_sets(
            ids,
            np.concatenate(replacements),
            np.array([len(r) for r in replacements]),
        )
        assert c.num_rr == len(before)
        for i in range(c.num_rr):
            want = dict(zip(ids.tolist(), replacements)).get(i, before[i])
            np.testing.assert_array_equal(c.set_nodes(i), want)

    def test_replace_sets_updates_coverage_and_index(self, wc_graph):
        c = self._pool(wc_graph)
        ids = np.array([0, 25])
        c.replace_sets(ids, np.array([2, 4, 4]), np.array([2, 1]))
        naive = np.zeros(c.n, dtype=np.int64)
        for i in range(c.num_rr):
            naive[c.set_nodes(i)] += 1
        np.testing.assert_array_equal(c.coverage_counts(), naive)
        # the inverted index is rebuilt lazily and must agree
        np.testing.assert_array_equal(
            c.rrs_containing(4), sorted(set(c.rrs_containing(4)))
        )
        assert 0 in c.rrs_containing(2)

    def test_replace_sets_shape_mismatch_rejected(self, wc_graph):
        c = self._pool(wc_graph)
        with pytest.raises(ValueError):
            c.replace_sets(np.array([1, 2]), np.array([0]), np.array([1]))

    def test_replace_sets_empty_is_noop(self, wc_graph):
        c = self._pool(wc_graph)
        before = c.coverage_counts().copy()
        c.replace_sets(
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
        )
        np.testing.assert_array_equal(c.coverage_counts(), before)


class TestJournal:
    def test_sequential_units_replay_bit_identically(self, wc_graph):
        gen = VanillaICGenerator(wc_graph)
        journal = []
        c = RRCollection(wc_graph.n)
        c.extend(20, gen, np.random.default_rng(9), journal=journal)
        assert [e["start"] for e in journal] == list(range(20))
        assert all(
            e["count"] == e["requested"] == 1 and e["mode"] == "seq"
            for e in journal
        )
        for entry in journal:
            rng = np.random.default_rng(0)
            rng.bit_generator.state = entry["state"]
            replayed = gen.generate(rng)
            np.testing.assert_array_equal(
                np.sort(np.asarray(replayed)),
                np.sort(c.set_nodes(entry["start"])),
            )

    def test_batched_units_replay_bit_identically(self, wc_graph):
        from repro.rrsets.subsim import SubsimICGenerator

        gen = SubsimICGenerator(wc_graph)
        gen.batch_size = 16
        journal = []
        c = RRCollection(wc_graph.n)
        c.extend(50, gen, np.random.default_rng(9), journal=journal)
        assert journal and all(e["mode"] == "batch" for e in journal)
        assert sum(e["count"] for e in journal) == 50
        entry = journal[0]
        rng = np.random.default_rng(0)
        rng.bit_generator.state = entry["state"]
        nodes, sizes = gen.generate_batch(rng, entry["count"])
        bounds = np.concatenate(([0], np.cumsum(sizes)))
        for j in range(entry["count"]):
            np.testing.assert_array_equal(
                nodes[bounds[j]:bounds[j + 1]],
                c.set_nodes(entry["start"] + j),
            )
