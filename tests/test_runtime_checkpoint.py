"""Checkpoint/resume: storage round-trips and bit-identical recovery.

The headline contract: a run killed mid-phase by the deterministic fault
injector, then resumed from its checkpoint, produces the *same* seed set
and the *same* work counters as an uninterrupted run — bit-identical, not
merely statistically equivalent.
"""

import numpy as np
import pytest

from repro.algorithms.hist import HIST
from repro.algorithms.opimc import OPIMC
from repro.runtime import CheckpointStore, FaultInjector
from repro.runtime.checkpoint import (
    collection_from_arrays,
    collection_to_arrays,
    counters_from_dict,
    counters_to_dict,
)
from repro.rrsets.base import GenerationCounters
from repro.rrsets.collection import RRCollection
from repro.utils.exceptions import (
    CheckpointError,
    ConfigurationError,
    InjectedFault,
)

K = 8
EPS = 0.25
SEED = 11


def _same_execution(a, b):
    """Bit-identical runs agree on output *and* on every work counter."""
    assert a.seeds == b.seeds
    assert a.num_rr_sets == b.num_rr_sets
    assert a.edges_examined == b.edges_examined
    assert a.rng_draws == b.rng_draws


class TestArrayRoundTrips:
    def test_collection_round_trip(self):
        coll = RRCollection(10)
        for rr in ([0, 3, 7], [2], [9, 1, 4, 5]):
            coll.add(rr)
        flat = collection_to_arrays(coll)
        back = collection_from_arrays(flat["data"], flat["sizes"], flat["n"])
        assert back.num_rr == coll.num_rr
        assert [back.set_nodes(i).tolist() for i in range(back.num_rr)] == [
            coll.set_nodes(i).tolist() for i in range(coll.num_rr)
        ]
        assert back.coverage([3]) == coll.coverage([3])

    def test_empty_collection_round_trip(self):
        coll = RRCollection(5)
        flat = collection_to_arrays(coll)
        back = collection_from_arrays(flat["data"], flat["sizes"], flat["n"])
        assert back.num_rr == 0
        assert back.n == 5

    def test_counters_round_trip(self):
        counters = GenerationCounters(
            edges_examined=17, rng_draws=9, nodes_added=4, sets_generated=2
        )
        assert counters_from_dict(counters_to_dict(counters)) == counters


class TestStore:
    def test_save_load_round_trip_with_pools(self, tmp_path):
        pool = RRCollection(6)
        pool.add([1, 2])
        pool.add([5])
        store = CheckpointStore(tmp_path / "run.npz")
        # numpy scalars leak into metadata from counters; the store must
        # coerce them rather than crash mid-checkpoint.
        store.save(
            {"round": np.int64(3), "lower": np.float64(1.5), "seeds": [4]},
            {"pool1": pool},
        )
        meta, pools = store.load()
        assert meta == {"round": 3, "lower": 1.5, "seeds": [4]}
        assert pools["pool1"].num_rr == 2
        assert pools["pool1"].set_nodes(0).tolist() == [1, 2]

    def test_maybe_save_thins_to_interval(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.npz", every=3)
        saved = [
            store.maybe_save(lambda: ({"round": i}, {}))
            for i in range(1, 8)
        ]
        # First call always saves; then every third call after it.
        assert saved == [True, False, False, True, False, False, True]
        assert store.load()[0] == {"round": 7}

    def test_invalid_interval_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            CheckpointStore(tmp_path / "run.npz", every=0)

    def test_corrupt_file_raises_checkpoint_error(self, tmp_path):
        path = tmp_path / "run.npz"
        path.write_bytes(b"not an archive at all")
        with pytest.raises(CheckpointError) as excinfo:
            CheckpointStore(path).load()
        assert excinfo.value.__cause__ is not None

    def test_clear_removes_file(self, tmp_path):
        store = CheckpointStore(tmp_path / "run.npz")
        store.save({"round": 1})
        assert store.exists()
        store.clear()
        assert not store.exists()
        store.clear()  # idempotent on a missing file


class TestResumeValidation:
    def test_resume_without_checkpoint_path_rejected(self, wc_graph):
        with pytest.raises(ConfigurationError):
            OPIMC(wc_graph).run(K, eps=EPS, seed=SEED, resume=True)

    def test_resume_with_mismatched_query_rejected(self, wc_graph, tmp_path):
        path = tmp_path / "run.npz"
        with pytest.raises(InjectedFault):
            OPIMC(wc_graph).run(
                K,
                eps=EPS,
                seed=SEED,
                checkpoint=path,
                fault_injector=FaultInjector(at_rr_set=400),
            )
        assert path.exists()
        with pytest.raises(CheckpointError):
            OPIMC(wc_graph).run(
                K + 1, eps=EPS, seed=SEED, checkpoint=path, resume=True
            )


class TestBitIdenticalResume:
    def test_opimc_crash_resume_matches_uninterrupted(
        self, wc_graph, tmp_path
    ):
        baseline = OPIMC(wc_graph).run(K, eps=EPS, seed=SEED)
        path = tmp_path / "opimc.npz"
        with pytest.raises(InjectedFault):
            OPIMC(wc_graph).run(
                K,
                eps=EPS,
                seed=SEED,
                checkpoint=path,
                fault_injector=FaultInjector(at_rr_set=400),
            )
        assert path.exists()
        resumed = OPIMC(wc_graph).run(
            K, eps=EPS, seed=SEED, checkpoint=path, resume=True
        )
        assert resumed.status == "complete"
        _same_execution(resumed, baseline)
        # A completed resume cleans up after itself.
        assert not path.exists()

    def test_opimc_resume_with_thinned_checkpoints(self, wc_graph, tmp_path):
        baseline = OPIMC(wc_graph).run(K, eps=EPS, seed=SEED)
        path = tmp_path / "opimc.npz"
        with pytest.raises(InjectedFault):
            OPIMC(wc_graph).run(
                K,
                eps=EPS,
                seed=SEED,
                checkpoint=CheckpointStore(path, every=2),
                fault_injector=FaultInjector(at_rr_set=900),
            )
        # With every=2 the surviving checkpoint is an *earlier* round, so
        # the resume replays more work — and must still land identically.
        resumed = OPIMC(wc_graph).run(
            K,
            eps=EPS,
            seed=SEED,
            checkpoint=CheckpointStore(path, every=2),
            resume=True,
        )
        _same_execution(resumed, baseline)

    def test_hist_crash_mid_im_phase_resume_matches(self, wc_graph, tmp_path):
        # fixed_b=2 with this seed puts RR set #600 inside the IM-Sentinel
        # phase, after at least one round checkpoint has been written — the
        # hardest resume path (two-phase state + restored RNG + pools).
        baseline = HIST(wc_graph, fixed_b=2).run(K, eps=EPS, seed=SEED)
        path = tmp_path / "hist.npz"
        with pytest.raises(InjectedFault):
            HIST(wc_graph, fixed_b=2).run(
                K,
                eps=EPS,
                seed=SEED,
                checkpoint=path,
                fault_injector=FaultInjector(at_rr_set=600),
            )
        assert path.exists()
        resumed = HIST(wc_graph, fixed_b=2).run(
            K, eps=EPS, seed=SEED, checkpoint=path, resume=True
        )
        assert resumed.status == "complete"
        _same_execution(resumed, baseline)
        assert not path.exists()

    def test_crash_before_first_checkpoint_restarts_cleanly(
        self, wc_graph, tmp_path
    ):
        baseline = HIST(wc_graph).run(K, eps=EPS, seed=SEED)
        path = tmp_path / "hist.npz"
        with pytest.raises(InjectedFault):
            HIST(wc_graph).run(
                K,
                eps=EPS,
                seed=SEED,
                checkpoint=path,
                # Dies in the sentinel phase, before any round boundary.
                fault_injector=FaultInjector(at_rr_set=50),
            )
        # resume=True with no checkpoint on disk degrades to a fresh run.
        resumed = HIST(wc_graph).run(
            K, eps=EPS, seed=SEED, checkpoint=path, resume=True
        )
        _same_execution(resumed, baseline)

    def test_checkpointed_complete_run_is_unchanged(self, wc_graph, tmp_path):
        plain = OPIMC(wc_graph).run(K, eps=EPS, seed=SEED)
        path = tmp_path / "opimc.npz"
        checkpointed = OPIMC(wc_graph).run(
            K, eps=EPS, seed=SEED, checkpoint=path
        )
        _same_execution(checkpointed, plain)
        assert not path.exists()  # cleared on completion
