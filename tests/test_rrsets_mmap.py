"""Property tests for the RRCollection power-of-two growth policy.

Growth must be invisible to every read path — nodes, offsets, coverage
counts, inverted index — and reallocations must stay logarithmic in the
number of appends (``realloc_count``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrsets.collection import RRCollection, _pow2_capacity

N = 40


@st.composite
def rr_pools(draw):
    """A list of RR sets over ``N`` nodes (possibly with empty sets).

    Nodes within one set are unique — the pool's documented invariant
    (an RR set is a reachability set, so it cannot repeat a node).
    """
    num_sets = draw(st.integers(min_value=1, max_value=30))
    return [
        np.array(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=N - 1),
                    min_size=0,
                    max_size=12,
                    unique=True,
                )
            ),
            dtype=np.int64,
        )
        for _ in range(num_sets)
    ]


def _fill(sets):
    coll = RRCollection(N)
    for s in sets:
        coll.add(s)
    return coll


def _digest(coll):
    return (
        coll.num_rr,
        coll.rr_nodes.tolist(),
        coll.set_sizes().tolist(),
        coll.coverage_counts().tolist(),
        coll.uncovered_counts(
            np.arange(N, dtype=np.int64), np.zeros(coll.num_rr, dtype=bool)
        ).tolist(),
        [coll.rrs_containing(v).tolist() for v in range(N)],
    )


class TestPow2Growth:
    def test_pow2_capacity(self):
        assert _pow2_capacity(1, 1024) == 1024
        assert _pow2_capacity(1024, 1024) == 1024
        assert _pow2_capacity(1025, 1024) == 2048
        assert _pow2_capacity(3000, 256) == 4096

    def test_realloc_count_logarithmic(self):
        coll = RRCollection(N)
        one = np.array([0], dtype=np.int64)
        for _ in range(20_000):
            coll.add(one)
        # Doubling growth: ~log2(20k/256) set-array reallocs plus the node
        # pool's, far below one realloc per append.
        assert coll.realloc_count <= 24
        assert coll.num_rr == 20_000

    @settings(max_examples=15, deadline=None)
    @given(rr_pools())
    def test_growth_never_changes_content(self, sets):
        # Append one-by-one vs. batched reserve paths agree.
        singly = _fill(sets)
        batched = RRCollection(N)
        nodes = (
            np.concatenate(sets) if sets else np.empty(0, dtype=np.int64)
        )
        sizes = np.array([len(s) for s in sets], dtype=np.int64)
        batched.add_batch(nodes, sizes)
        assert _digest(singly) == _digest(batched)
