"""Link communities, support matrices, and the consensus partition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsl import partition
from bnsl.data import DiscreteDataset, forward_sample
from bnsl.errors import InvalidInput
from bnsl.partition import (Partition, co_occurrence, consensus_partition,
                            link_communities, load_partition, membership,
                            save_partition, second_order_network)
from bnsl.weights import WEIGHT_FUNCTIONS, WeightedGraph, pair_stats

from conftest import chain3, random_binary_net
from oracles import co_occurrence_of, link_communities_of


def random_graph(rng, n, p=0.5, lo=0.2, hi=3.0):
    g = WeightedGraph(n)
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                g.add_edge(i, j, float(rng.uniform(lo, hi)))
    return g


@st.composite
def tied_graphs(draw):
    """1-9 nodes, each pair absent or weighted 1, 2 or 3, so that ties and
    isolated nodes are common."""
    n = draw(st.integers(1, 9))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    weights = draw(st.lists(st.sampled_from([0, 1, 2, 3]),
                            min_size=len(pairs), max_size=len(pairs)))
    g = WeightedGraph(n)
    for (i, j), w in zip(pairs, weights):
        if w:
            g.add_edge(i, j, float(w))
    return g


@st.composite
def small_datasets(draw):
    """2-9 ternary columns of 1-40 rows; some constant, some copies of an
    earlier column."""
    n_rows = draw(st.integers(1, 40))
    cols: list[list[int]] = []
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(["random", "constant", "copy"]))
        if kind == "constant":
            cols.append([draw(st.integers(0, 2))] * n_rows)
        elif kind == "copy" and cols:
            cols.append(list(cols[draw(st.integers(0, len(cols) - 1))]))
        else:
            cols.append(draw(st.lists(st.integers(0, 2), min_size=n_rows, max_size=n_rows)))
    return DiscreteDataset([f"v{k}" for k in range(len(cols))], [3] * len(cols),
                           np.array(cols, dtype=np.int32).T)


@st.composite
def partition_lists(draw):
    """1-4 overlapping partitions of one universe of 1-12 nodes; each covers
    every node, some communities are large and many overlap."""
    n = draw(st.integers(1, 12))
    parts = []
    for _ in range(draw(st.integers(1, 4))):
        comms = set(draw(st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1).map(lambda s: tuple(sorted(s))),
            max_size=8)))
        covered = {v for c in comms for v in c}
        comms.update((v,) for v in range(n) if v not in covered)
        parts.append(Partition(n, tuple(sorted(comms))))
    return parts


def pairwise_weights(c, t_co):
    """The second-order edges from co-occurrence fractions ``c[v][u]``: each
    pair u < v weighted (c[u][v] + c[v][u]) / 2, kept when positive and at
    least ``t_co``."""
    out = {}
    for u in range(len(c)):
        for v in range(u + 1, len(c)):
            w = (c[u][v] + c[v][u]) / 2.0
            if w > 0.0 and w >= t_co:
                out[(u, v)] = w
    return out


def psm_fixture():
    """Two partitions of 9 nodes with overlapping communities at node 6."""
    p1 = Partition(9, ((3, 6), (6, 7, 8), (0,), (1,), (2,), (4,), (5,)))
    p2 = Partition(9, ((3, 6, 7, 8), (0,), (1,), (2,), (4,), (5,)))
    return [p1, p2]


class TestPartition:
    def test_overlap_allowed_and_membership(self):
        p = Partition(4, ((0, 1, 2), (2, 3)))
        assert p.communities_of(2) == [0, 1]
        assert p.sizes() == [3, 2]

    @pytest.mark.parametrize("communities", [
        ((0, 1), ()),                # empty community
        ((0, 1), (2, 4)),            # node out of range
        ((0, 1), (1, 0), (2, 3)),    # same community twice
        ((0, 1),),                   # nodes uncovered
    ])
    def test_validation(self, communities):
        with pytest.raises(InvalidInput):
            Partition(4, communities)

    def test_negative_node_count_rejected(self):
        with pytest.raises(InvalidInput, match="n must be >= 0, got -3"):
            Partition(-3, ())

    def test_node_repeats_normalized(self):
        p = Partition(4, ((0, 0, 1), (3, 2)))
        assert p.communities == ((0, 1), (2, 3))

    def test_file_round_trip(self, tmp_path):
        p = Partition(5, ((0, 1, 2), (2, 3), (4,)))
        path = tmp_path / "p.txt"
        save_partition(p, path)
        assert load_partition(path) == p

    @pytest.mark.parametrize("text, line", [
        ("# nodes 3\n0 1\n1 two\n", 3),
        ("# nodes\n0 1\n", 1),
        ("# nodes three\n0 1 2\n", 1),
        ("# nodes -3\n", 1)])
    def test_malformed_file_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"line {line}:"):
            load_partition(path)


class TestLinkCommunities:
    def test_two_triangles_sharing_a_node(self):
        g = WeightedGraph(5)
        for e in [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]:
            g.add_edge(*e, 1.0)
        p = link_communities(g)
        assert tuple(sorted(p.communities)) == ((0, 1, 2), (2, 3, 4))

    def test_empty_graph_gives_singletons(self):
        p = link_communities(WeightedGraph(3))
        assert tuple(sorted(p.communities)) == ((0,), (1,), (2,))

    def test_isolated_nodes_become_singletons(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 2.0)
        p = link_communities(g)
        assert tuple(sorted(p.communities)) == ((0, 1), (2,), (3,))

    def test_matches_threshold_sweep_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            g = random_graph(rng, int(rng.integers(4, 11)))
            got = tuple(sorted(link_communities(g).communities))
            want = link_communities_of(g)
            assert got == want

    @settings(max_examples=300, deadline=None)
    @given(g=tied_graphs())
    def test_matches_the_oracle_on_tied_weights(self, g):
        assert tuple(sorted(link_communities(g).communities)) == link_communities_of(g)

    def test_each_similarity_is_computed_once_per_call(self, monkeypatch):
        # nodes 0, 1 and 2 share the neighbours 3 and 4, so the outer
        # endpoints (3, 4) meet at three nodes and (0, 1), (0, 2), (1, 2)
        # at two each
        g = WeightedGraph(6)
        for k, (i, j) in enumerate([(0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4),
                                    (3, 5), (4, 5), (0, 1)]):
            g.add_edge(i, j, 1.0 + 0.25 * k)
        outer = {(u, v) for k in range(g.n) for u in g.neighbors(k)
                 for v in g.neighbors(k) if u < v}
        calls = []
        tanimoto = partition._tanimoto

        def counted(a, b, na, nb):
            calls.append((a, b))
            return tanimoto(a, b, na, nb)

        monkeypatch.setattr(partition, "_tanimoto", counted)
        got = link_communities(g)
        assert len(calls) == len(outer) == 11
        assert got.communities == ((0, 1, 3, 4), (2, 3, 4, 5))
        assert got.communities == link_communities_of(g)

    def test_weighted_ties_are_grouped(self):
        # uniform weights create equal similarities; merging must treat
        # the whole level at once rather than depend on pair order
        g = WeightedGraph(6)
        for e in [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]:
            g.add_edge(*e, 2.0)
        p = link_communities(g)
        assert tuple(sorted(p.communities)) == ((0, 1, 2), (3, 4, 5))


class TestSupportMatrices:
    def test_worked_example_rows(self):
        m = membership(psm_fixture())
        want = np.array([
            [0, 0, 0, 1, 0, 0, 1, 0, 0],
            [0, 0, 0, 0, 0, 0, 1, 1, 1],
            [0, 0, 0, 1, 0, 0, 1, 1, 1],
        ])
        assert m.shape == (13, 9) and m.dtype == np.int64
        assert np.array_equal(m[m[:, 6] == 1], want)
        assert np.flatnonzero(m[:, 6]).tolist() == [0, 1, 7]

    def test_co_occurrence_values(self):
        c = co_occurrence(psm_fixture())
        for u in (3, 7, 8):
            assert c[6, u] == pytest.approx(2.0 / 3.0, abs=0)
        assert c[6, 0] == 0.0
        assert c[6, 6] == 1.0

    def test_co_occurrence_equals_the_integer_gram_fractions(self):
        # 2,000 random membership rows over 300 nodes, in ten partitions
        rng = np.random.default_rng(73)
        n = 300
        parts = []
        for _ in range(10):
            rows = rng.random((200, n)) < 0.1
            rows[rng.integers(0, 200, size=n), np.arange(n)] = True  # cover every node
            parts.append(Partition(n, tuple(tuple(np.flatnonzero(r)) for r in rows)))
        m = membership(parts)
        assert m.shape == (2000, n)
        gram = m.T @ m  # int64
        assert np.array_equal(co_occurrence(parts), gram / np.diag(gram)[:, None])

    def test_row_order_follows_partitions(self):
        # node 3: one community in each partition
        m = membership(psm_fixture())
        want = np.array([
            [0, 0, 0, 1, 0, 0, 1, 0, 0],
            [0, 0, 0, 1, 0, 0, 1, 1, 1],
        ])
        assert np.array_equal(m[m[:, 3] == 1], want)

    def test_membership_input_checks(self):
        with pytest.raises(InvalidInput, match="at least one partition"):
            membership([])
        with pytest.raises(InvalidInput, match="one node universe"):
            membership([Partition(2, ((0, 1),)), Partition(3, ((0, 1, 2),))])

    def test_second_order_network_weights(self):
        g = second_order_network(psm_fixture(), t_co=0.5)
        # c(6->3) = 2/3, c(3->6) = 1 -> weight 5/6
        assert g.weight(3, 6) == pytest.approx(5.0 / 6.0, abs=1e-12)
        assert g.has_edge(6, 7) and g.has_edge(6, 8)
        # pairs that never share a community stay absent even at t_co 0
        g0 = second_order_network(psm_fixture(), t_co=0.0)
        assert not g0.has_edge(0, 1)

    def test_second_order_network_matches_pairwise_formula(self):
        rng = np.random.default_rng(71)
        n = 12
        parts = []
        for _ in range(4):
            comms = {tuple(sorted(rng.choice(n, size=int(rng.integers(1, 6)),
                                             replace=False).tolist())) for _ in range(6)}
            parts.append(Partition(n, tuple(sorted(comms | {(v,) for v in range(n)}))))
        c = co_occurrence_of(parts)
        for t_co in (0.0, 0.3, 0.5):
            g = second_order_network(parts, t_co)
            assert {e: g.weight(*e) for e in g.edges()} == pairwise_weights(c, t_co)
            assert all(list(g.adjacency(v)) == g.neighbors(v) for v in range(n))

    @settings(max_examples=60, deadline=None)
    @given(partition_lists(), st.sampled_from([0.0, 0.3, 0.5, 0.9]))
    def test_co_occurrence_counts_shared_communities(self, parts, t_co):
        got = co_occurrence(parts)
        want = co_occurrence_of(parts)
        assert got.tolist() == want
        assert np.all(np.diag(got) == 1.0)
        g = second_order_network(parts, t_co)
        assert {e: g.weight(*e) for e in g.edges()} == pairwise_weights(want, t_co)

    def test_threshold_excludes_weak_pairs(self):
        g = second_order_network(psm_fixture(), t_co=0.9)
        assert not g.has_edge(3, 6)  # 5/6 < 0.9
        assert g.has_edge(7, 8)      # both rows containing 7 contain 8


class TestConsensusPartition:
    def test_two_chains_stay_mostly_separate(self):
        left = chain3(0.9)
        rng = np.random.default_rng(31)
        a = forward_sample(left, 4000, seed=1).samples
        b = forward_sample(left, 4000, seed=2).samples
        samples = np.column_stack([a, b]).astype(np.int32)
        data = DiscreteDataset([f"v{k}" for k in range(6)], [2] * 6, samples)
        p = consensus_partition(data)
        assert isinstance(p, Partition)
        assert p.n == 6
        # at least one community per chain collects its variables
        joined = [set(c) for c in p.communities if len(c) > 1]
        assert any(c <= {0, 1, 2} for c in joined)
        assert any(c <= {3, 4, 5} for c in joined)

    def test_deterministic(self):
        net = random_binary_net(np.random.default_rng(32), 8, sharp=True)
        data = forward_sample(net, 3000, seed=3)
        assert consensus_partition(data).communities == \
            consensus_partition(data).communities

    def test_constant_column_gets_a_singleton(self):
        net = random_binary_net(np.random.default_rng(32), 8, sharp=True)
        samples = forward_sample(net, 3000, seed=3).samples.copy()
        samples[:, 3] = 0
        data = DiscreteDataset([f"v{k}" for k in range(8)], [2] * 8, samples)
        p = consensus_partition(data)
        assert [c for c in p.communities if 3 in c] == [(3,)]
        rest = [v for v in range(8) if v != 3]
        without = consensus_partition(data.select(rest))
        assert set(p.communities) - {(3,)} == \
            {tuple(rest[k] for k in c) for c in without.communities}

    def test_fewer_than_two_varying_columns_give_singletons(self):
        samples = np.column_stack([np.zeros(50), np.arange(50) % 2,
                                   np.ones(50)]).astype(np.int32)
        data = DiscreteDataset(["a", "b", "c"], [2] * 3, samples)
        assert consensus_partition(data).communities == ((0,), (1,), (2,))

    @pytest.mark.parametrize("extra", [0, 1])
    def test_two_varying_columns_form_one_community(self, extra):
        # MI_sn and Pearson_sn rank nothing on a single pair weight and are left out
        rng = np.random.default_rng(38)
        x = rng.integers(0, 2, size=500)
        cols = [x, x ^ (rng.random(500) < 0.2)] + [np.zeros(500, dtype=int)] * extra
        data = DiscreteDataset([f"v{k}" for k in range(2 + extra)], [2] * (2 + extra),
                               np.column_stack(cols).astype(np.int32))
        want = ((0, 1),) + ((2,),) * extra
        assert consensus_partition(data).communities == want
        assert consensus_partition(pair_stats(data)).communities == want
        assert consensus_partition(data, max_comm=1).communities == ((0,), (1,)) + want[1:]

    @pytest.mark.parametrize("fns", [WEIGHT_FUNCTIONS, ("MI_sn", "Pearson_sn")],
                             ids=["all", "standardized"])
    def test_equal_pair_weights_form_one_community(self, fns):
        # on two rows every pair of varying columns has the same MI and |rho|
        two_rows = DiscreteDataset(["a", "b", "c", "d"], [2] * 4,
                                   np.array([[0, 1, 0, 1], [1, 0, 1, 0]], dtype=np.int32))
        assert consensus_partition(two_rows, fns).communities == ((0, 1, 2, 3),)

    def test_empty_dataset_gives_singletons(self):
        data = DiscreteDataset(["a", "b", "c"], [2] * 3, np.zeros((0, 3), dtype=np.int32))
        assert consensus_partition(data).communities == ((0,), (1,), (2,))

    @staticmethod
    def noisy_block(seed: int) -> DiscreteDataset:
        """Eleven noisy copies of one variable plus a constant column 6."""
        rng = np.random.default_rng(seed)
        base = rng.integers(0, 2, size=4000)
        cols = [(base ^ (rng.random(4000) < 0.05)).astype(np.int32) for _ in range(12)]
        cols[6] = np.ones(4000, dtype=np.int32)
        return DiscreteDataset([f"v{k}" for k in range(12)], [2] * 12, np.column_stack(cols))

    @pytest.mark.parametrize("max_comm", [3, 4, 8])
    def test_stats_give_the_data_partition(self, max_comm):
        # the block re-partitions 4, 3 and 2 times and ends in a tighten-split
        data = self.noisy_block(37)
        p = consensus_partition(pair_stats(data), max_comm=max_comm)
        assert p == consensus_partition(data, max_comm=max_comm)
        assert (6,) in p.communities
        assert max(len(c) for c in p.communities) <= max_comm

    def test_one_mi_call_per_pair_through_the_recursion(self, monkeypatch):
        import bnsl.weights as weights
        real = weights.mutual_information
        calls = []

        def counted(data, i, j):
            calls.append((data.names[i], data.names[j]))
            return real(data, i, j)

        monkeypatch.setattr(weights, "mutual_information", counted)
        consensus_partition(self.noisy_block(37), max_comm=3)
        assert len(calls) == len(set(calls)) == 12 * 11 // 2

    def test_equal_weight_community_falls_back_to_a_split(self):
        # five exact copies of x have all pair weights equal, so the
        # standardized functions rank nothing and are left out, and the
        # rest link the copies into one community; inside the full data
        # that community's re-partition does not split it, so
        # tighten-split cuts the copies instead
        rng = np.random.default_rng(0)
        x = rng.integers(0, 2, size=3000)
        y = rng.integers(0, 3, size=3000)
        cols = [x] * 5 + [(y + (rng.random(3000) < p)) % 3 for p in (0.1, 0.2, 0.3, 0.4)]
        data = DiscreteDataset([f"v{k}" for k in range(9)], [2] * 5 + [3] * 4,
                               np.column_stack(cols).astype(np.int32))
        assert consensus_partition(data.select(range(5))).communities == ((0, 1, 2, 3, 4),)
        p = consensus_partition(data, max_comm=4)
        assert p.communities == ((0, 3, 4), (1, 2, 3, 4), (5, 6, 7, 8))

    @settings(max_examples=60, deadline=None)
    @given(data=small_datasets(), max_comm=st.integers(1, 6))
    def test_capped_on_small_datasets(self, data, max_comm):
        p = consensus_partition(data, max_comm=max_comm)
        assert max(len(c) for c in p.communities) <= max_comm
        for v in range(data.n_vars):
            if (data.samples[:, v] == data.samples[0, v]).all():
                assert [c for c in p.communities if v in c] == [(v,)]
        assert consensus_partition(pair_stats(data), max_comm=max_comm) == p

    @pytest.mark.parametrize("max_comm", [0, -1])
    def test_max_comm_below_one_rejected(self, max_comm):
        data = self.noisy_block(37)
        with pytest.raises(InvalidInput, match=f"max_comm must be >= 1, got {max_comm}"):
            consensus_partition(data, max_comm=max_comm)

    def test_max_comm_cap_enforced(self):
        # twelve noisy copies of one variable form a single dense block
        rng = np.random.default_rng(33)
        base = rng.integers(0, 2, size=4000)
        cols = [(base ^ (rng.random(4000) < 0.05)).astype(np.int32)
                for _ in range(12)]
        data = DiscreteDataset([f"v{k}" for k in range(12)], [2] * 12,
                               np.column_stack(cols).astype(np.int32))
        p = consensus_partition(data, max_comm=8)
        assert max(len(c) for c in p.communities) <= 8


class TestSavePartition:
    def test_round_trip_overlapping(self, tmp_path):
        p = Partition(6, ((0, 1, 2), (2, 3), (3, 4, 5)))
        path = tmp_path / "part.txt"
        save_partition(p, path)
        back = load_partition(path)
        assert back.n == 6
        assert tuple(sorted(back.communities)) == tuple(sorted(p.communities))
