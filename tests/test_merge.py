"""Structure combination: edge unions, triplet repair, pool merging."""

import gc
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl.merge
from bnsl.averaging import LearnerConfig, LocalStructure
from bnsl.data import DiscreteDataset
from bnsl.errors import InvalidInput
from bnsl.merge import (MergeResult, collect_triplets, combine_structures,
                        jaccard, merge_all, resolve)
from bnsl.weights import WeightedGraph

from oracles import naive_merge_sequence


def empty_structure(nodes):
    return LocalStructure(tuple(nodes), (), {})


def dummy_dataset(n_vars, n_rows=8, seed=0):
    rng = np.random.default_rng(seed)
    cols = [rng.integers(0, 2, n_rows) for _ in range(n_vars)]
    for c in cols:
        c[:2] = (0, 1)
    arr = np.column_stack(cols).astype(np.int32)
    return DiscreteDataset([f"v{k}" for k in range(n_vars)], [2] * n_vars, arr)


class TestJaccard:
    def test_basic_values(self):
        assert jaccard((1, 2), (2, 3)) == pytest.approx(1.0 / 3.0)
        assert jaccard((0, 1), (0, 1)) == 1.0
        assert jaccard((0,), (1,)) == 0.0

    def test_duplicates_collapse(self):
        assert jaccard((1, 1, 2), (2, 3)) == pytest.approx(1.0 / 3.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInput):
            jaccard((), (1,))
        with pytest.raises(InvalidInput):
            jaccard((1,), ())


class TestEnsembleSubcommunities:
    """combine_structures as the ensemble of one community's sub-structures."""

    def test_union_of_edges(self):
        s1 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 1.0})
        s2 = LocalStructure((1, 2), ((1, 2),), {(1, 2): 1.0})
        out = combine_structures([s1, s2])
        assert out.nodes == (0, 1, 2)
        assert set(out.edges) == {(0, 1), (1, 2)}

    def test_support_is_mean_over_voters(self):
        s1 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.8})
        s2 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.4})
        out = combine_structures([s1, s2])
        assert out.support[(0, 1)] == pytest.approx(0.6)

    def test_conflict_keeps_higher_mean(self):
        s1 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.9})
        s2 = LocalStructure((0, 1), ((1, 0),), {(1, 0): 0.5})
        conflicts = []
        out = combine_structures([s1, s2], conflicts)
        assert out.edges == ((0, 1),)
        assert conflicts == [{"kept": (0, 1), "dropped": (1, 0),
                              "support_kept": 0.9, "support_dropped": 0.5}]

    def test_conflict_tie_keeps_lexicographic(self):
        s1 = LocalStructure((0, 1), ((1, 0),), {(1, 0): 0.7})
        s2 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.7})
        out = combine_structures([s1, s2])
        assert out.edges == ((0, 1),)

    def test_missing_support_defaults_to_one(self):
        s1 = LocalStructure((0, 1), ((0, 1),), {})
        out = combine_structures([s1])
        assert out.support[(0, 1)] == 1.0

    def test_empty_pool_rejected(self):
        with pytest.raises(InvalidInput):
            combine_structures([])


class TestCollectTriplets:
    def _graph(self):
        g = WeightedGraph(5)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 0.9)
        g.add_edge(0, 2, 0.8)
        g.add_edge(2, 3, 0.7)  # dangling, no triangle
        return g

    def test_single_triangle(self):
        trip = collect_triplets(self._graph(), 0.5)
        assert trip.triangles == ((0, 1, 2),)
        assert set(trip.graph.edges()) == {(0, 1), (0, 2), (1, 2)}
        assert trip.graph.weight(1, 2) == pytest.approx(0.9)

    def test_threshold_is_strict(self):
        trip = collect_triplets(self._graph(), 0.8)
        # the 0-2 edge sits exactly at the threshold and is excluded
        assert trip.triangles == ()
        assert trip.graph.m == 0

    def test_triangles_sorted(self):
        g = WeightedGraph(4)
        for a, b in ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (0, 3)):
            g.add_edge(a, b, 1.0)
        trip = collect_triplets(g, 0.5)
        assert trip.triangles == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))

    def test_no_edges(self):
        trip = collect_triplets(WeightedGraph(4), 0.0)
        assert trip.triangles == ()
        assert trip.graph.m == 0


class TestResolve:
    def test_empty_substrate_returns_structure_unchanged(self, chain_data):
        s = LocalStructure((0, 1, 2), ((0, 2),), {(0, 2): 1.0})
        out = resolve(s, WeightedGraph(3), chain_data,
                      LearnerConfig(learner="greedy"))
        assert out is s

    def test_no_triangles_returns_structure_unchanged(self, chain_data):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 2, 0.9)
        s = LocalStructure((0, 1, 2), ((0, 1), (1, 2)), {})
        out = resolve(s, g, chain_data, LearnerConfig(learner="greedy"))
        assert out is s

    @staticmethod
    def _graph():
        # the elbow of these weights is 0.85, and a triangle needs all three
        # weights strictly above it, so {0, 1, 2} is the only cluster
        g = WeightedGraph(4)
        for (a, b), w in (((0, 1), 1.0), ((1, 2), 0.95), ((0, 2), 0.9),
                          ((2, 3), 0.85), ((0, 3), 0.1)):
            g.add_edge(a, b, w)
        return g

    def test_spurious_triangle_edge_removed(self, chain_data):
        # data follow a chain a -> b -> c; the structure carries an extra
        # 0 -> 2 edge inside a tight triangle, which re-learning drops
        s = LocalStructure((0, 1, 2, 3), ((0, 1), (1, 2), (0, 2)),
                           {(0, 1): 1.0, (1, 2): 1.0, (0, 2): 1.0})
        windows = []
        out = resolve(s, self._graph(), chain_data, LearnerConfig(learner="greedy"),
                      windows=windows)
        assert windows == [3]
        assert out.skeleton() == {frozenset({0, 1}), frozenset({1, 2})}
        assert out.nodes == (0, 1, 2, 3)

    def test_edges_outside_clusters_pass_through(self, chain_data):
        s = LocalStructure((0, 1, 2, 3), ((0, 1), (1, 2), (0, 2), (3, 0)),
                           {(3, 0): 0.42})
        windows = []
        out = resolve(s, self._graph(), chain_data, LearnerConfig(learner="greedy"),
                      windows=windows)
        assert windows == [3]
        assert (0, 2) not in out.edges
        assert (3, 0) in out.edges
        assert out.support[(3, 0)] == pytest.approx(0.42)


@st.composite
def tied_pools(draw):
    """2-40 structures on 4-12 nodes, each pair of a structure's nodes
    absent or an arc either way: small universes make ties common."""
    n_universe = draw(st.integers(4, 12), label="universe")
    pool = []
    for _ in range(draw(st.integers(2, 40), label="pool size")):
        nodes = sorted(draw(st.sets(st.integers(0, n_universe - 1), min_size=1)))
        pairs = list(itertools.combinations(nodes, 2))
        ways = draw(st.lists(st.sampled_from([None, 0, 1]), min_size=len(pairs),
                             max_size=len(pairs)))
        edges = [p if w == 0 else p[::-1] for p, w in zip(pairs, ways) if w is not None]
        pool.append(LocalStructure(tuple(nodes), tuple(edges)))
    return n_universe, pool


class TestMergeAll:
    def _run(self, node_sets, n_universe):
        pool = [empty_structure(ns) for ns in node_sets]
        g = WeightedGraph(n_universe)
        data = dummy_dataset(n_universe)
        return merge_all(pool, g, data, LearnerConfig(learner="greedy"))

    def test_sequence_matches_full_rescan_oracle(self):
        # the second input draws 1-3 of 5 nodes, so many pairs tie in full
        for seed, n_universe, sizes, pools, n_sets in ((61, 12, (2, 6), 20, 6),
                                                       (64, 5, (1, 4), 60, 8)):
            rng = np.random.default_rng(seed)
            for _ in range(pools):
                node_sets = []
                for _ in range(n_sets):
                    size = int(rng.integers(*sizes))
                    node_sets.append(tuple(sorted(
                        rng.choice(n_universe, size=size, replace=False))))
                result = self._run(node_sets, n_universe)
                want, _ = naive_merge_sequence(node_sets)
                assert list(result.merge_sequence) == want
                assert result.jaccard_evaluations == (n_sets - 1) ** 2

    @settings(max_examples=150, deadline=None)
    @given(tied_pools())
    def test_heap_matches_full_rescan_on_tied_pools(self, drawn):
        n_universe, pool = drawn
        result = merge_all(pool, WeightedGraph(n_universe), dummy_dataset(n_universe),
                           LearnerConfig(learner="greedy"))
        want, _ = naive_merge_sequence([s.nodes for s in pool])
        assert list(result.merge_sequence) == want
        assert result.jaccard_evaluations == (len(pool) - 1) ** 2
        # an edgeless weight graph leaves resolve nothing to re-learn
        assert result.structure.skeleton() == set().union(*(s.skeleton() for s in pool))

    def test_dead_ranks_are_compacted(self, monkeypatch):
        heaps = []
        heapify = bnsl.merge.heapify

        def counting_heapify(ranks):
            heaps.append(len(ranks))
            heapify(ranks)

        monkeypatch.setattr(bnsl.merge, "heapify", counting_heapify)
        rng = np.random.default_rng(65)
        node_sets = [tuple(sorted(rng.choice(12, size=int(rng.integers(1, 6)), replace=False)))
                     for _ in range(20)]
        result = self._run(node_sets, 12)
        assert list(result.merge_sequence) == naive_merge_sequence(node_sets)[0]
        # the live pairs of 16, 12, 9, 7, 5, 3 and 2 entries: the heap is
        # rebuilt once it holds more than twice the live pairs
        assert heaps == [120, 66, 36, 21, 10, 3, 1]

    def test_full_ties_merge_the_older_pair_first(self):
        # three structures on one node set tie in every rank component; the
        # pair (first, second) merges first, so the 0.9 arc meets 0.8, then 0.7
        pool = [LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.9}),
                LocalStructure((0, 1), ((1, 0),), {(1, 0): 0.8}),
                LocalStructure((0, 1), ((1, 0),), {(1, 0): 0.7})]
        result = merge_all(pool, WeightedGraph(2), dummy_dataset(2),
                           LearnerConfig(learner="greedy"))
        assert result.merge_sequence == (((0, 1), (0, 1)), ((0, 1), (0, 1)))
        assert result.conflicts == [
            {"kept": (0, 1), "dropped": (1, 0), "support_kept": 0.9, "support_dropped": 0.8},
            {"kept": (0, 1), "dropped": (1, 0), "support_kept": 0.9, "support_dropped": 0.7}]
        assert result.structure.edges == ((0, 1),)

    def test_eval_budget(self):
        rng = np.random.default_rng(62)
        node_sets = [tuple(sorted(rng.choice(20, size=4, replace=False)))
                     for _ in range(10)]
        result = self._run(node_sets, 20)
        n = len(node_sets)
        assert result.jaccard_evaluations <= 2 * n * (n - 1)

    def test_exact_eval_count_three_structures(self):
        # 3 initial pairs, then 1 comparison against the merged entry
        result = self._run([(0, 1), (1, 2), (5, 6)], 8)
        assert result.jaccard_evaluations == 4
        assert len(result.merge_sequence) == 2

    def test_disjoint_sets_still_merge(self):
        result = self._run([(0, 1), (2, 3)], 4)
        assert result.structure.nodes == (0, 1, 2, 3)
        assert result.merge_sequence == (((0, 1), (2, 3)),)

    def test_single_structure_returned_as_is(self):
        result = self._run([(0, 1, 2)], 4)
        assert result.merge_sequence == ()
        assert result.jaccard_evaluations == 0
        assert result.structure.nodes == (0, 1, 2)

    def test_conflicts_surface_in_result(self, chain_data):
        s1 = LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.9})
        s2 = LocalStructure((0, 1, 2), ((1, 0), (1, 2)),
                            {(1, 0): 0.2, (1, 2): 0.8})
        result = merge_all([s1, s2], WeightedGraph(3), chain_data,
                           LearnerConfig(learner="greedy"))
        assert isinstance(result, MergeResult)
        assert result.conflicts
        assert result.conflicts[0]["kept"] == (0, 1)
        assert (0, 1) in result.structure.edges
        assert (1, 0) not in result.structure.edges

    def test_empty_pool_rejected(self, chain_data):
        with pytest.raises(InvalidInput):
            merge_all([], WeightedGraph(2), chain_data,
                      LearnerConfig(learner="greedy"))

    def test_merged_structure_shares_the_pool_edge_tuples(self):
        # 200 structures of 2-6 nodes from a universe of 400, each pair of
        # nodes an arc (lower to higher) with probability 1/2: the seed-0
        # pool of the merge-pool-200 benchmark workload
        rng = np.random.default_rng(0)
        node_sets = [tuple(sorted(rng.choice(400, size=int(rng.integers(2, 7)),
                                             replace=False).tolist()))
                     for _ in range(200)]
        arc_rng = np.random.default_rng([0, 1])
        pool = []
        for ns in node_sets:
            arcs = [(a, b) for i, a in enumerate(ns) for b in ns[i + 1:]
                    if arc_rng.random() < 0.5]
            pool.append(LocalStructure(ns, tuple(arcs), {e: 1.0 for e in arcs}))
        data = dummy_dataset(400)
        gc.collect()
        tracemalloc.start()
        try:
            result = merge_all(pool, WeightedGraph(400), data,
                               LearnerConfig(learner="greedy"))
            gc.collect()
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pool_edges = {id(e) for s in pool for e in s.edges}
        assert len(result.structure.edges) == 726
        assert all(id(e) in pool_edges for e in result.structure.edges)
        # 0.131 MiB; a fresh tuple per edge made it 0.170 MiB
        assert retained <= 0.15 * 2 ** 20
