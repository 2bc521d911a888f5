"""Tests for the packed unit journal and the narrowed per-pool arrays."""

import gc
import hashlib
import json
import tracemalloc

import numpy as np
import pytest

import repro.rrsets.collection as collection_module
from repro.engine.session import QuerySession
from repro.graphs.dynamic import GraphDelta
from repro.graphs.generators import preferential_attachment
from repro.graphs.weights import wc_weights
from repro.observability.registry import GENERATION_COUNTER_FIELDS
from repro.rrsets.bank import RRBank, replay_units
from repro.rrsets.collection import RRCollection
from repro.rrsets.journal import UnitJournal
from repro.rrsets.subsim import SubsimICGenerator
from repro.rrsets.vanilla import VanillaICGenerator
from repro.utils.exceptions import CheckpointError, ConfigurationError


def _graph(n=300, seed=1):
    return wc_weights(preferential_attachment(n, 3, seed=seed, reciprocal=0.3))


def _states(count, seed=5):
    """``count`` successive PCG64 states, half of them with a buffered
    32-bit half (``has_uint32 == 1``)."""
    rng = np.random.default_rng(seed)
    states = []
    for i in range(count):
        states.append(rng.bit_generator.state)
        if i % 2:
            rng.integers(0, 2**32, dtype=np.uint32)
        else:
            rng.random()
    return states


class TestUnitJournal:
    def test_states_round_trip_exactly(self):
        states = _states(40)
        assert {s["has_uint32"] for s in states} == {0, 1}
        journal = UnitJournal()
        for i, state in enumerate(states):
            journal.append(i, 1, 1, False, state)
        assert len(journal) == 40
        assert [journal.unit(i)[4] for i in range(40)] == states
        with pytest.raises(IndexError):
            journal.unit(40)  # capacity past the length holds no unit
        np.testing.assert_array_equal(journal.starts, np.arange(40))

    def test_entries_round_trip(self):
        states = _states(6)
        journal = UnitJournal()
        journal.append(0, 16, 16, True, states[0])
        journal.append(16, 9, 16, True, states[1])
        journal.append(25, 1, 1, False, states[2])
        entries = journal.to_entries()
        assert entries[1] == {
            "start": 16,
            "count": 9,
            "requested": 16,
            "mode": "batch",
            "state": states[1],
        }
        assert entries[2]["mode"] == "seq"
        assert UnitJournal.from_entries(entries).to_entries() == entries
        np.testing.assert_array_equal(
            journal.replayable, [True, False, True]
        )

    def test_other_bit_generators_are_refused(self, wc_graph):
        state = np.random.Generator(np.random.MT19937(3)).bit_generator.state
        with pytest.raises(ConfigurationError, match="PCG64"):
            UnitJournal().append(0, 1, 1, False, state)
        with pytest.raises(ConfigurationError, match="PCG64"):
            RRBank(
                wc_graph,
                VanillaICGenerator(wc_graph),
                np.random.Generator(np.random.MT19937(3)),
                reusable=True,
            )
        # A transient bank keeps no journal and takes any stream.
        bank = RRBank(
            wc_graph,
            VanillaICGenerator(wc_graph),
            np.random.Generator(np.random.MT19937(3)),
        )
        bank.ensure(10)
        assert len(bank._journal) == 0

    def test_unreadable_snapshot_journal_is_a_checkpoint_error(self, wc_graph):
        bank = RRBank(
            wc_graph,
            VanillaICGenerator(wc_graph),
            np.random.default_rng(1),
            reusable=True,
        )
        bank.ensure(5)
        payload = bank.state_dict()
        payload["journal"][0]["state"] = None
        fresh = RRBank(
            wc_graph,
            VanillaICGenerator(wc_graph),
            np.random.default_rng(1),
            reusable=True,
        )
        with pytest.raises(CheckpointError, match="journal"):
            fresh.restore_state(payload, bank.pool)
        assert fresh.pool.num_rr == 0  # nothing was half-restored

    def test_replay_of_empty_journal_leaves_every_set_uncovered(self, wc_graph):
        ids, chunks, sizes, uncovered = replay_units(
            UnitJournal(), np.array([0, 3]), VanillaICGenerator(wc_graph)
        )
        assert (ids, chunks, sizes, uncovered) == ([], [], [], [0, 3])


class TestJournalMemory:
    def test_per_set_journal_holds_at_most_80_bytes_a_unit(self):
        states = _states(1000)
        gc.collect()
        tracemalloc.start()
        try:
            journal = UnitJournal()
            for i, state in enumerate(states):
                journal.append(i, 1, 1, False, state)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / len(journal) <= 80
        assert journal.nbytes() <= held

    def test_bank_nbytes_matches_tracemalloc_on_a_served_bank(self):
        graph = _graph(n=2000)
        # Build the graph's sampler caches outside the measurement: they
        # belong to the graph, not to any bank.
        RRBank(
            graph, SubsimICGenerator(graph), np.random.default_rng(0),
            reusable=True,
        ).ensure(10)
        gc.collect()
        tracemalloc.start()
        try:
            # Served shape: per-set units, two doubling stops, and the
            # inverted index greedy selection builds.
            bank = RRBank(
                graph,
                SubsimICGenerator(graph),
                np.random.default_rng(np.random.SeedSequence(7, spawn_key=(3,))),
                reusable=True,
                entropy=7,
            )
            bank.ensure(500)
            bank.ensure(1000)
            bank.pool._inverted()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(bank._journal) == 1000
        assert bank.nbytes() == pytest.approx(held, rel=0.10)


def _repaired_session_digest(algorithm, batch_size):
    """Hash of everything a delta repair leaves behind in a session."""
    graph = wc_weights(preferential_attachment(400, 3, seed=5, reciprocal=0.3))
    session = QuerySession(graph, algorithm, seed=23)
    session.maximize(5, eps=0.3, batch_size=batch_size)
    src, dst, prob = graph.edges()
    updates = [
        (int(src[e]), int(dst[e]), float(prob[e]) * 0.5)
        for e in range(0, len(src), 17)
    ]
    info = session.apply_delta(GraphDelta(updates=updates))
    assert info["sets_repaired"] > 0
    result = session.maximize(8, eps=0.3, batch_size=batch_size)
    digest = hashlib.sha256()
    digest.update(json.dumps(info, sort_keys=True).encode())
    digest.update(json.dumps(result.seeds).encode())
    for role, bank in sorted(session.provider.persistent_banks().items()):
        digest.update(role.encode())
        digest.update(bank.pool.rr_indptr.astype("<i8").tobytes())
        digest.update(bank.pool.rr_nodes.astype("<i4").tobytes())
        digest.update(bank.pool.coverage_counts().astype("<i8").tobytes())
        digest.update(json.dumps(bank.state_dict(), sort_keys=True).encode())
    return digest.hexdigest()


class TestRepairIsUnchanged:
    """Digests recorded with the dict-per-unit journal and int64 pool
    arrays: pools, coverage counts, counters, marks, RNG states, the
    snapshot's journal entries and the answers must all be bit-identical."""

    @pytest.mark.parametrize(
        "algorithm, batch_size, expected",
        [
            (
                "subsim",
                1,
                "f70ee25458af23141c98dd3f18e68bb4"
                "eb9aa759f5105524f23999db5afe98ca",
            ),
            (
                "subsim",
                8,
                "f41d2253548ee12af4b2ee9bf36c8023"
                "fa6eda53f9e069a6255cdb17b76ab3f5",
            ),
            (
                "hist+subsim",
                1,
                "414b9e53a85c0ae4e0adde79dd7e3fbd"
                "85fd09d306239cf7fc640c4224f67905",
            ),
        ],
    )
    def test_repaired_pools_hash_equal(self, algorithm, batch_size, expected):
        assert _repaired_session_digest(algorithm, batch_size) == expected


def _random_pool(n, sets, seed):
    rng = np.random.default_rng(seed)
    pool = RRCollection(n)
    sizes = rng.integers(1, 12, size=sets)
    nodes = np.concatenate([
        rng.choice(n, size=int(size), replace=False) for size in sizes
    ])
    # make sure the largest id is present, so the key width is exercised
    nodes[0] = n - 1
    pool.add_batch(nodes, sizes)
    return pool


class TestNarrowPoolArrays:
    def test_counts_and_index_offsets_are_int32(self):
        pool = _random_pool(500, 300, seed=1)
        inv_indptr, inv_rrs = pool._inverted()
        assert pool._counts.dtype == np.int32
        assert inv_indptr.dtype == np.int32
        counts = pool.coverage_counts()
        assert counts.dtype == np.int64
        np.testing.assert_array_equal(
            counts, np.bincount(pool.rr_nodes, minlength=pool.n)
        )

    def test_index_offsets_widen_from_wide_entries(self, monkeypatch):
        narrow = _random_pool(500, 300, seed=2)
        monkeypatch.setattr(collection_module, "WIDE_ENTRIES", 64)
        wide = _random_pool(500, 300, seed=2)
        inv_indptr, inv_rrs = wide._inverted()
        assert inv_indptr.dtype == np.int64
        ref_indptr, ref_rrs = narrow._inverted()
        np.testing.assert_array_equal(inv_indptr, ref_indptr)
        np.testing.assert_array_equal(inv_rrs, ref_rrs)

    @pytest.mark.parametrize("n", [65536, 65537])
    def test_radix_key_gives_the_int32_permutation(self, n):
        pool = _random_pool(n, 20000, seed=n)
        inv_indptr, inv_rrs = pool._inverted()
        order = np.argsort(pool.rr_nodes.astype(np.int32), kind="stable")
        rr_of_entry = np.repeat(
            np.arange(pool.num_rr, dtype=np.int32), pool.set_sizes()
        )
        np.testing.assert_array_equal(inv_rrs, rr_of_entry[order])
        ref_indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(pool.rr_nodes, minlength=n)))
        )
        np.testing.assert_array_equal(inv_indptr, ref_indptr)


class TestPerQueryGeneratorsFold:
    """A ``hist+subsim`` session builds three per-query banks (the
    sentinel-masked ones); their generators must not pile up in the
    session registry."""

    #: ``generation.*`` totals after the six queries below, recorded while
    #: every per-query generator stayed attached
    PARENT_TOTALS = {
        "edges_examined": 10008,
        "nodes_added": 12659,
        "rng_draws": 18338,
        "sentinel_hits": 342,
        "sets_generated": 3980,
    }

    def test_sources_stay_bounded_and_totals_hold(self):
        session = QuerySession(_graph(), "hist+subsim", seed=3)
        for _ in range(6):
            session.maximize(5, eps=0.4)
            assert len(session.metrics._sources) == len(
                session.provider.persistent_banks()
            )
        totals = session.metrics.counter_totals()
        for field in GENERATION_COUNTER_FIELDS:
            assert totals[f"generation.{field}"] == self.PARENT_TOTALS[field]

    def test_detach_folds_counters_into_own_totals(self):
        from repro.observability.registry import MetricsRegistry

        gen = VanillaICGenerator(_graph())
        gen.generate(np.random.default_rng(1))
        registry = MetricsRegistry()
        registry.attach_source(gen)
        before = registry.counter_totals()
        registry.detach_source(gen)
        registry.detach_source(gen)  # untracked now: no-op
        assert registry.counter_totals() == before
        assert registry._sources == []
