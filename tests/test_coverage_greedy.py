"""Tests for greedy max-coverage (Algorithms 1 and 6) and the Eq. 2 bound."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coverage.greedy import max_coverage_greedy
from repro.rrsets.collection import RRCollection
from repro.utils.exceptions import ConfigurationError


def collection_from(sets, n):
    c = RRCollection(n)
    for s in sets:
        c.add(s)
    return c


def brute_force_best_coverage(collection, k):
    best = 0
    for combo in itertools.combinations(range(collection.n), k):
        best = max(best, collection.coverage(combo))
    return best


class TestBasicSelection:
    def test_picks_highest_coverage_node(self):
        c = collection_from([[0], [0], [0, 1], [2]], n=4)
        res = max_coverage_greedy(c, select=1)
        assert res.seeds == [0]
        assert res.coverage == 3

    def test_marginal_not_absolute_coverage(self):
        # node 0 covers sets {0,1}; node 1 covers {0,1,2}; node 2 covers {3}.
        # After picking 1, node 2's marginal (1) beats node 0's (0).
        c = collection_from([[0, 1], [0, 1], [1], [2]], n=4)
        res = max_coverage_greedy(c, select=2)
        assert res.seeds == [1, 2]
        assert res.coverage == 4

    def test_no_reselection(self):
        c = collection_from([[0]], n=3)
        res = max_coverage_greedy(c, select=3)
        assert len(set(res.seeds)) == 3

    def test_coverage_history_shape(self):
        c = collection_from([[0], [1], [0, 1]], n=3)
        res = max_coverage_greedy(c, select=2)
        assert len(res.coverage_history) == 3
        assert res.coverage_history[0] == 0
        assert res.coverage_history[-1] == res.coverage

    def test_history_monotone_and_concave(self, wc_graph, rng):
        from repro.rrsets.vanilla import VanillaICGenerator

        c = RRCollection(wc_graph.n)
        c.extend(300, VanillaICGenerator(wc_graph), rng)
        res = max_coverage_greedy(c, select=10)
        hist = res.coverage_history
        gains = np.diff(hist)
        assert (gains >= 0).all()
        assert (np.diff(gains) <= 0).all()  # greedy gains are non-increasing

    def test_empty_pool(self):
        c = RRCollection(4)
        res = max_coverage_greedy(c, select=2)
        assert res.coverage == 0
        assert len(res.seeds) == 2

    def test_parameter_validation(self):
        c = collection_from([[0]], n=2)
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(c, select=0)
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(c, select=5)
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(c, select=1, topk=0)


class TestApproximationGuarantee:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_greedy_beats_1_minus_1_over_e(self, data):
        n = data.draw(st.integers(3, 7))
        num_sets = data.draw(st.integers(1, 12))
        sets = [
            data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=n, unique=True
                )
            )
            for _ in range(num_sets)
        ]
        k = data.draw(st.integers(1, n - 1))
        c = collection_from(sets, n)
        res = max_coverage_greedy(c, select=k)
        best = brute_force_best_coverage(c, k)
        assert res.coverage >= (1 - 1 / np.e) * best - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_upper_bound_dominates_optimum(self, data):
        n = data.draw(st.integers(3, 7))
        num_sets = data.draw(st.integers(1, 12))
        sets = [
            data.draw(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=n, unique=True
                )
            )
            for _ in range(num_sets)
        ]
        k = data.draw(st.integers(1, n - 1))
        c = collection_from(sets, n)
        res = max_coverage_greedy(c, select=k, topk=k)
        best = brute_force_best_coverage(c, k)
        assert res.upper_bound_coverage >= best - 1e-9

    def test_upper_bound_at_least_achieved_coverage(self, wc_graph, rng):
        from repro.rrsets.vanilla import VanillaICGenerator

        c = RRCollection(wc_graph.n)
        c.extend(200, VanillaICGenerator(wc_graph), rng)
        res = max_coverage_greedy(c, select=5)
        assert res.upper_bound_coverage >= res.coverage

    def test_upper_bound_disabled(self):
        c = collection_from([[0]], n=2)
        res = max_coverage_greedy(c, select=1, track_upper_bound=False)
        assert res.upper_bound_coverage == float("inf")


class TestTieBreak:
    def test_out_degree_breaks_ties(self):
        # nodes 0 and 1 both cover one set; node 1 has larger out-degree.
        c = collection_from([[0], [1]], n=3)
        out_degree = np.array([1, 5, 0])
        res = max_coverage_greedy(c, select=1, out_degree=out_degree)
        assert res.seeds == [0] or res.seeds == [1]
        assert res.seeds == [1]

    def test_no_tie_break_prefers_smallest_id(self):
        c = collection_from([[0], [1]], n=3)
        res = max_coverage_greedy(c, select=1)
        assert res.seeds == [0]

    def test_tie_break_does_not_override_gain(self):
        c = collection_from([[0], [0], [1]], n=3)
        out_degree = np.array([0, 100, 0])
        res = max_coverage_greedy(c, select=1, out_degree=out_degree)
        assert res.seeds == [0]  # higher gain wins regardless of degree


class TestExcludedNodes:
    def test_excluded_never_selected(self):
        c = collection_from([[0], [0], [1]], n=3)
        res = max_coverage_greedy(c, select=2, excluded=[0])
        assert 0 not in res.seeds

    def test_exclusion_with_zero_gains(self):
        # All sets covered initially: every gain is 0; the excluded node
        # must still never appear even as a filler pick.
        c = collection_from([[0], [1]], n=4)
        initial = np.array([True, True])
        res = max_coverage_greedy(
            c, select=3, initial_covered=initial, excluded=[2]
        )
        assert 2 not in res.seeds
        assert len(set(res.seeds)) == 3

    def test_select_bounded_by_non_excluded(self):
        c = collection_from([[0]], n=3)
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(c, select=3, excluded=[1])

    def test_upper_bound_unaffected_when_excluded_gain_zero(self):
        # Excluded node's sets are initially covered -> identical Eq. 2.
        c = collection_from([[0], [0, 1], [2]], n=4)
        initial = c.covered_mask([0])
        with_excl = max_coverage_greedy(
            c, select=2, topk=2, initial_covered=initial, excluded=[0]
        )
        without = max_coverage_greedy(
            c, select=2, topk=2, initial_covered=initial
        )
        assert with_excl.upper_bound_coverage == without.upper_bound_coverage


class TestInitialCovered:
    def test_initially_covered_sets_excluded_from_gains(self):
        c = collection_from([[0], [0, 1], [1]], n=3)
        initial = np.array([True, True, False])
        res = max_coverage_greedy(c, select=1, initial_covered=initial)
        assert res.seeds == [1]
        assert res.coverage == 3  # 2 initial + 1 new
        assert res.coverage_history[0] == 2

    def test_wrong_mask_length_rejected(self):
        c = collection_from([[0]], n=2)
        with pytest.raises(ConfigurationError):
            max_coverage_greedy(
                c, select=1, initial_covered=np.array([True, False])
            )

    def test_all_covered_initially(self):
        c = collection_from([[0], [1]], n=3)
        initial = np.array([True, True])
        res = max_coverage_greedy(c, select=2, initial_covered=initial)
        assert res.coverage == 2
        assert res.coverage_history == [2, 2, 2]

    def test_matches_manual_removal(self, wc_graph, rng):
        """initial_covered == physically removing those RR sets."""
        from repro.rrsets.vanilla import VanillaICGenerator

        c = RRCollection(wc_graph.n)
        c.extend(300, VanillaICGenerator(wc_graph), rng)
        sentinel = [0, 1, 2]
        mask = c.covered_mask(sentinel)

        res_mask = max_coverage_greedy(c, select=4, initial_covered=mask)

        kept = RRCollection(wc_graph.n)
        for rr_id in range(c.num_rr):
            if not mask[rr_id]:
                kept.add(c.set_nodes(rr_id))
        res_removed = max_coverage_greedy(kept, select=4)

        assert res_mask.seeds == res_removed.seeds
        assert res_mask.coverage == res_removed.coverage + int(mask.sum())


def naive_greedy(sets, n, select, topk, out_degree, initial_covered,
                 excluded, track_upper_bound):
    """Greedy that recomputes every marginal gain from scratch each step.

    Mirrors ``max_coverage_greedy``'s rules: ties go to the larger
    out-degree, then the lowest id; selected nodes leave the Eq. 2 top-k
    sum while excluded nodes stay in it; Eq. 2 is capped at the pool size.
    """
    covered = list(initial_covered)
    coverage = sum(covered)
    history = [coverage]
    upper = float(len(sets)) if track_upper_bound else float("inf")
    seeds = []

    def gain(v):
        return sum(1 for i, s in enumerate(sets) if not covered[i] and v in s)

    for _ in range(select + 1):
        gains = {v: gain(v) for v in range(n) if v not in seeds}
        if track_upper_bound:
            top = sorted(gains.values(), reverse=True)[:topk]
            upper = min(upper, coverage + sum(top))
        if len(seeds) == select:
            break
        degree = out_degree if out_degree is not None else [0] * n
        best = min(
            (v for v in gains if v not in excluded),
            key=lambda v: (-gains[v], -degree[v], v),
        )
        seeds.append(best)
        coverage += gains[best]
        history.append(coverage)
        for i, s in enumerate(sets):
            if best in s:
                covered[i] = True
    return seeds, coverage, history, upper


class TestAgainstNaiveOracle:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_matches_from_scratch_greedy(self, data):
        n = data.draw(st.integers(2, 9), label="n")
        sets = data.draw(
            st.lists(
                st.lists(
                    st.integers(0, n - 1), min_size=1, max_size=n, unique=True
                ),
                max_size=14,
            ),
            label="sets",
        )
        excluded = data.draw(
            st.lists(st.integers(0, n - 1), max_size=n - 1, unique=True),
            label="excluded",
        )
        select = data.draw(st.integers(1, n - len(excluded)), label="select")
        topk = data.draw(st.integers(1, n + 1), label="topk")
        out_degree = data.draw(
            st.none() | st.lists(st.integers(0, 3), min_size=n, max_size=n),
            label="out_degree",
        )
        initial_covered = data.draw(
            st.lists(st.booleans(), min_size=len(sets), max_size=len(sets)),
            label="initial_covered",
        )
        track = data.draw(st.booleans(), label="track_upper_bound")

        res = max_coverage_greedy(
            collection_from(sets, n),
            select=select,
            topk=topk,
            out_degree=None if out_degree is None else np.array(out_degree),
            initial_covered=np.array(initial_covered, dtype=bool),
            track_upper_bound=track,
            excluded=excluded,
        )
        seeds, coverage, history, upper = naive_greedy(
            sets, n, select, topk, out_degree, initial_covered,
            excluded, track,
        )
        assert res.seeds == seeds
        assert res.coverage == coverage
        assert res.coverage_history == history
        assert res.upper_bound_coverage == upper
