"""Weight functions, PageRank, the weighted graph container, and the elbow cut."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsl.data import _ONE_HOT_BLOCK, DiscreteDataset, PairTables, forward_sample, load_network
from bnsl.errors import InvalidInput
from bnsl.weights import (WEIGHT_FUNCTIONS, PairStats, WeightedGraph, _abs_pearson,
                          elbow_threshold, elbow_truncate, entropy, load_weighted_graph,
                          mutual_information, pagerank, pair_stats,
                          save_weighted_graph, weight_matrix)

from conftest import NETWORKS_DIR
from oracles import (entropy_of, mi_by_pair_code, mutual_information_of, pagerank_of,
                     pair_weights_of)


def random_dataset(rng, n_rows, n_vars, max_card=4):
    cards = [int(rng.integers(2, max_card + 1)) for _ in range(n_vars)]
    cols = [rng.integers(0, c, size=n_rows) for c in cards]
    # force every state to appear so cardinalities stay declared
    for j, c in enumerate(cards):
        cols[j][:c] = np.arange(c)
    samples = np.column_stack(cols).astype(np.int32)
    return DiscreteDataset([f"v{k}" for k in range(n_vars)], cards, samples)


def float_copy_pearson(data):
    """|rho| from a float64 copy of the codes made before ``np.corrcoef``."""
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(data.samples.T.astype(np.float64))
    return np.abs(np.nan_to_num(corr, nan=0.0))


SELECT_DATA = random_dataset(np.random.default_rng(44), 300, 12, max_card=5)
SELECT_STATS = pair_stats(SELECT_DATA)


def random_weights(rng, n, p=0.4, lo=0.1, hi=5.0):
    """Symmetric pair weights of a random graph; a zero weight is no edge."""
    w = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                w[i, j] = w[j, i] = rng.uniform(lo, hi)
    return w


def random_graph(rng, n, p=0.4, lo=0.1, hi=5.0):
    w = random_weights(rng, n, p, lo, hi)
    return WeightedGraph.from_matrix(w, w > 0)


def pair_weights(w: np.ndarray) -> dict[tuple[int, int], float]:
    """The upper triangle of a weight matrix, pair by pair in row-major order."""
    n = w.shape[0]
    return {(i, j): float(w[i, j]) for i in range(n) for j in range(i + 1, n)}


def matrix_of(n: int, weights: dict[tuple[int, int], float]) -> np.ndarray:
    w = np.zeros((n, n))
    for (i, j), v in weights.items():
        w[i, j] = w[j, i] = v
    return w


BAD_SHAPES = [np.zeros(3), np.zeros((2, 3)), np.zeros((2, 2, 2))]


class TestEntropy:
    def test_frozen_value(self):
        assert entropy((3, 1)) == pytest.approx(0.5623351446188083, abs=1e-12)

    def test_uniform_is_log_k(self):
        assert entropy((5, 5, 5, 5)) == pytest.approx(math.log(4), abs=1e-12)

    def test_zero_counts_ignored(self):
        assert entropy((0, 0, 4)) == pytest.approx(0.0, abs=1e-12)

    def test_matches_oracle(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            counts = rng.integers(0, 20, size=int(rng.integers(2, 8)))
            if counts.sum() == 0:
                continue
            assert entropy(tuple(counts)) == pytest.approx(
                entropy_of(tuple(counts)), abs=1e-12)

    def test_rejects_empty_and_negative(self):
        with pytest.raises(InvalidInput):
            entropy(())
        with pytest.raises(InvalidInput):
            entropy((3, -1))
        # a non-finite count or total raises, with no warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for bad in ((math.nan, 1.0), (math.inf, 1.0), (1.0, -math.inf)):
                with pytest.raises(InvalidInput, match="finite"):
                    entropy(bad)


class TestMutualInformation:
    def test_matches_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            data = random_dataset(rng, int(rng.integers(10, 200)), 2)
            got = mutual_information(data, 0, 1)
            want = mutual_information_of(data.column(0).tolist(),
                                         data.column(1).tolist())
            assert got == pytest.approx(want, abs=1e-12)

    def test_symmetric_and_nonnegative(self):
        rng = np.random.default_rng(3)
        data = random_dataset(rng, 80, 3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert mutual_information(data, i, j) == pytest.approx(
                    mutual_information(data, j, i), abs=1e-12)
                assert mutual_information(data, i, j) >= 0.0

    def test_identical_columns_give_entropy(self):
        col = np.array([0, 1, 1, 0, 1, 2, 2, 0], dtype=np.int32)
        data = DiscreteDataset(["x", "y"], [3, 3],
                               np.column_stack([col, col]))
        h = entropy(tuple(np.bincount(col)))
        assert mutual_information(data, 0, 1) == pytest.approx(h, abs=1e-12)


class TestWeightMatrix:
    def test_all_pairs_present(self):
        rng = np.random.default_rng(4)
        data = random_dataset(rng, 60, 5)
        for fn in WEIGHT_FUNCTIONS:
            w = weight_matrix(data, fn)
            assert w.shape == (5, 5), fn
            # np.corrcoef can round (i, j) and (j, i) apart in the last bit
            assert np.isfinite(w).all() and np.allclose(w, w.T, rtol=1e-12, atol=0), fn
            with pytest.raises(ValueError):
                w[0, 1] = 1.0

    def test_mi_graph_values(self):
        rng = np.random.default_rng(5)
        data = random_dataset(rng, 100, 4)
        for (i, j), w in pair_weights(weight_matrix(data, "MI")).items():
            assert w == pytest.approx(mutual_information(data, i, j), abs=1e-12)

    def test_normalized_variants_formulas(self):
        rng = np.random.default_rng(6)
        data = random_dataset(rng, 150, 4)
        h = [entropy(tuple(np.bincount(data.column(k)))) for k in range(4)]
        plus = weight_matrix(data, "MI_plus")
        sqrt = weight_matrix(data, "MI_sqrt")
        for i, j in pair_weights(plus):
            mi = mutual_information(data, i, j)
            assert plus[i, j] == pytest.approx(2.0 * mi / (h[i] + h[j]), abs=1e-12)
            assert sqrt[i, j] == pytest.approx(mi / math.sqrt(h[i] * h[j]), abs=1e-12)

    def test_pagerank_variant_formula(self):
        rng = np.random.default_rng(7)
        data = random_dataset(rng, 150, 4)
        pr = pagerank_of(weight_matrix(data, "MI"))
        got = weight_matrix(data, "MI_pr")
        for i, j in pair_weights(got):
            mi = mutual_information(data, i, j)
            assert got[i, j] == pytest.approx(
                mi / (math.sqrt(pr[i]) * math.sqrt(pr[j])), abs=1e-8)

    def test_standardized_variants(self):
        rng = np.random.default_rng(8)
        data = random_dataset(rng, 120, 5)
        raw = pair_weights(weight_matrix(data, "MI"))
        values = np.array(list(raw.values()))
        mean, std = values.mean(), values.std()
        sn = weight_matrix(data, "MI_sn")
        for (i, j), w in raw.items():
            assert sn[i, j] == pytest.approx((w - mean) / std, abs=1e-10)

    def test_pearson_against_corrcoef(self):
        rng = np.random.default_rng(9)
        data = random_dataset(rng, 200, 3)
        for (i, j), w in pair_weights(weight_matrix(data, "Pearson")).items():
            rho = np.corrcoef(data.column(i), data.column(j))[0, 1]
            assert w == pytest.approx(abs(rho), abs=1e-12)

    @pytest.mark.parametrize("network", ["alarm", "insurance", "win95pts", "fivehub"])
    def test_pearson_equals_the_float_copy_reference(self, network):
        net = load_network(NETWORKS_DIR / f"{network}.net")
        for seed in (0, 1, 2):
            data = forward_sample(net, 20000, seed=seed)
            assert _abs_pearson(data).tobytes() == float_copy_pearson(data).tobytes()

    def test_pearson_of_a_constant_column_equals_the_reference(self):
        data = random_dataset(np.random.default_rng(11), 500, 6)
        samples = np.array(data.samples)
        samples[:, 2] = 1
        flat = DiscreteDataset(data.names, data.cardinalities, samples)
        got = _abs_pearson(flat)
        assert got.tobytes() == float_copy_pearson(flat).tobytes()
        assert not got[2].any() and not got[:, 2].any()

    def test_pearson_peak_memory_is_one_float_copy(self):
        # np.corrcoef converts the int32 codes itself; converting them
        # beforehand would hold a second float64 copy under its own
        data = random_dataset(np.random.default_rng(12), 20000, 76)
        tracemalloc.start()
        try:
            _abs_pearson(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 8 * data.n_vars * data.n_rows, peak

    def test_zero_entropy_column_rejected_for_normalized(self):
        samples = np.column_stack([
            np.zeros(50, dtype=np.int32),
            (np.arange(50) % 2).astype(np.int32)])
        flat = DiscreteDataset(["a", "b"], [2, 2], samples)
        with pytest.raises(InvalidInput):
            weight_matrix(flat, "MI_plus")
        with pytest.raises(InvalidInput):
            weight_matrix(flat, "MI_sqrt")

    def test_unknown_function_rejected(self):
        rng = np.random.default_rng(10)
        data = random_dataset(rng, 30, 2)
        with pytest.raises(InvalidInput):
            weight_matrix(data, "nope")


@pytest.fixture(scope="module")
def alarm_data():
    return forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 20000, seed=0)


def edge_dict(g: WeightedGraph) -> dict[tuple[int, int], float]:
    return {e: g.weight(*e) for e in g.edges()}


# ascending, as partition.py selects them (communities are sorted tuples)
ALARM_SUBSETS = [[0, 1, 2, 3, 4, 5], [3, 8, 17, 36], [1, 5, 9, 12, 14, 21, 28, 30, 33],
                 list(range(0, 37, 2))]


class TestPairStats:
    def test_matrices(self):
        rng = np.random.default_rng(40)
        data = random_dataset(rng, 200, 5)
        stats = pair_stats(data)
        assert stats.data is data and stats.n_vars == 5
        for i in range(5):
            assert stats.mi[i, i] == 0.0
            assert stats.h[i] == entropy(np.bincount(data.column(i)))
            for j in range(5):
                if i != j:
                    assert stats.mi[i, j] == mutual_information(data, min(i, j), max(i, j))
        with pytest.raises(ValueError):
            stats.mi[0, 1] = 1.0
        with pytest.raises(ValueError):
            stats.h[0] = 1.0

    def test_stats_pass_through(self):
        stats = pair_stats(random_dataset(np.random.default_rng(41), 60, 3))
        assert pair_stats(stats) is stats

    def test_select_slices(self):
        rng = np.random.default_rng(42)
        data = random_dataset(rng, 200, 6)
        stats = pair_stats(data)
        sub = stats.select([4, 1, 3])
        assert sub.data.names == ("v4", "v1", "v3")
        assert sub.mi[0, 1] == stats.mi[4, 1] and sub.mi[2, 0] == stats.mi[3, 4]
        assert list(sub.h) == [stats.h[4], stats.h[1], stats.h[3]]

    @settings(max_examples=100, deadline=None)
    @given(subset=st.sets(st.integers(0, 11), min_size=1))
    def test_ascending_select_equals_fresh_stats(self, subset):
        idx = sorted(subset)
        got, want = SELECT_STATS.select(idx), pair_stats(SELECT_DATA.select(idx))
        assert got.data.names == want.data.names
        assert got.data.cardinalities == want.data.cardinalities
        assert np.array_equal(got.data.samples, want.data.samples)
        # bit for bit: equal floats, compared as their bytes
        assert got.mi.tobytes() == want.mi.tobytes()
        assert got.h.tobytes() == want.h.tobytes()

    def test_shape_checked_and_empty_rejected(self):
        data = random_dataset(np.random.default_rng(43), 30, 3)
        with pytest.raises(InvalidInput):
            PairStats(data, np.zeros((2, 2)), np.zeros(3))
        empty = DiscreteDataset(["a", "b"], [2, 2], np.zeros((0, 2), dtype=np.int32))
        with pytest.raises(InvalidInput, match="empty"):
            pair_stats(empty)

    @pytest.mark.parametrize("fn", WEIGHT_FUNCTIONS)
    def test_weights_match_scalar_reference(self, alarm_data, fn):
        assert pair_weights(weight_matrix(alarm_data, fn)) == pair_weights_of(alarm_data, fn)

    @pytest.mark.parametrize("fn", WEIGHT_FUNCTIONS)
    def test_selected_stats_match_selected_data(self, alarm_data, fn):
        stats = pair_stats(alarm_data)
        assert pair_weights(weight_matrix(stats, fn)) == pair_weights(weight_matrix(alarm_data, fn))
        for idx in ALARM_SUBSETS:
            want = weight_matrix(alarm_data.select(idx), fn)
            assert pair_weights(weight_matrix(stats.select(idx), fn)) == pair_weights(want)

    def test_reordered_select_keeps_the_full_orientation(self, alarm_data):
        # MI(i, j) and MI(j, i) add the same terms in transposed order, so a
        # select that swaps two columns can differ from a fresh MI in the
        # last bits; the stats keep the value computed for the full dataset
        stats = pair_stats(alarm_data)
        idx = [36, 3, 17, 8]
        got = weight_matrix(stats.select(idx), "MI")
        fresh = weight_matrix(alarm_data.select(idx), "MI")
        for a, b in pair_weights(got):
            i, j = sorted((idx[a], idx[b]))
            assert got[a, b] == mutual_information(alarm_data, i, j)
            assert got[a, b] == pytest.approx(fresh[a, b], rel=1e-12)

    def test_one_mi_call_per_pair(self, monkeypatch):
        import bnsl.weights as weights
        calls = []

        def counted(data, i, j):
            calls.append((i, j))
            return mutual_information(data, i, j)

        monkeypatch.setattr(weights, "mutual_information", counted)
        stats = pair_stats(random_dataset(np.random.default_rng(44), 80, 5))
        assert sorted(calls) == [(i, j) for i in range(5) for j in range(i + 1, 5)]
        for fn in WEIGHT_FUNCTIONS:
            weight_matrix(stats, fn)
            weight_matrix(stats.select([3, 0, 2]), fn)
        assert len(calls) == 10

    def test_pearson_once_per_stats(self, monkeypatch):
        import bnsl.weights as weights
        calls = []

        def counted(data):
            calls.append(data.names)
            return abs_pearson(data)

        abs_pearson = weights._abs_pearson
        monkeypatch.setattr(weights, "_abs_pearson", counted)
        data = random_dataset(np.random.default_rng(45), 80, 5)
        stats = pair_stats(data)
        want = {fn: pair_weights(weight_matrix(data, fn)) for fn in ("Pearson", "Pearson_sn")}
        assert len(calls) == 2
        for fn in ("Pearson", "Pearson_sn", "Pearson"):
            assert pair_weights(weight_matrix(stats, fn)) == want[fn]
        assert len(calls) == 3
        sub = stats.select([3, 0, 2])  # a fresh object computes its own
        weight_matrix(sub, "Pearson")
        weight_matrix(sub, "Pearson_sn")
        assert calls[3:] == [("v3", "v0", "v2")]
        with pytest.raises(ValueError):
            stats.pearson[0, 1] = 1.0

    def test_pearson_of_a_dataset_computes_no_mi(self, monkeypatch):
        import bnsl.weights as weights

        def forbidden(data, i, j):
            raise AssertionError("MI computed for a Pearson graph")

        monkeypatch.setattr(weights, "mutual_information", forbidden)
        data = random_dataset(np.random.default_rng(46), 80, 4)
        for fn in ("Pearson", "Pearson_sn"):
            assert weight_matrix(data, fn).shape == (4, 4)

    def test_degenerate_stats_keep_their_errors(self):
        samples = np.column_stack([
            np.zeros(50, dtype=np.int32),
            (np.arange(50) % 2).astype(np.int32),
            (np.arange(50) % 3 == 0).astype(np.int32)])
        stats = pair_stats(DiscreteDataset(["a", "b", "c"], [2, 2, 2], samples))
        for fn in ("MI_plus", "MI_sqrt"):
            with pytest.raises(InvalidInput, match=f"'a' has zero entropy; '{fn}' is undefined"):
                weight_matrix(stats, fn)
        weight_matrix(stats.select([1, 2]), "MI_plus")  # the varying columns are fine
        twin = np.column_stack([np.arange(40) % 2, np.arange(40) % 2]).astype(np.int32)
        same = pair_stats(DiscreteDataset(["x", "y"], [2, 2], twin))
        for fn in ("MI_sn", "Pearson_sn"):  # one pair: every weight is equal
            with pytest.raises(InvalidInput, match="standardization is undefined"):
                weight_matrix(same, fn)


def assert_tables_match(data):
    tables = data.pair_tables()
    assert isinstance(tables, PairTables)
    assert (tables.names, tables.n_rows, tables.cardinalities) == (
        data.names, data.n_rows, data.cardinalities)
    for i in range(data.n_vars):
        for cols in [(i,)] + [(i, j) for j in range(data.n_vars)]:
            got, want = tables.counts(cols), data.counts(cols)
            assert (got.shape, got.dtype) == (want.shape, want.dtype), cols
            np.testing.assert_array_equal(got, want, err_msg=str(cols))


@st.composite
def small_datasets(draw):
    cards = draw(st.lists(st.integers(2, 5), min_size=1, max_size=6))
    n_rows = draw(st.integers(1, 60))
    rows = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n_rows)]
    return DiscreteDataset([f"v{k}" for k in range(len(cards))], cards,
                           np.array(rows, dtype=np.int32))


class TestPairTables:
    @pytest.mark.parametrize("n_rows", [_ONE_HOT_BLOCK - 1, _ONE_HOT_BLOCK,
                                        _ONE_HOT_BLOCK + 1])
    def test_tables_equal_the_dataset_counts_around_a_block(self, n_rows):
        rng = np.random.default_rng(n_rows)
        data = random_dataset(rng, n_rows, 6, max_card=5)
        constant = np.column_stack([data.samples, np.zeros(n_rows, dtype=np.int32)])
        assert_tables_match(DiscreteDataset(data.names + ("const",),
                                            data.cardinalities + (3,), constant))

    def test_one_row(self):
        assert_tables_match(DiscreteDataset(["a", "b", "c"], [2, 5, 3],
                                            np.array([[1, 4, 0]], dtype=np.int32)))

    @settings(max_examples=100, deadline=None)
    @given(data=small_datasets())
    def test_tables_equal_the_dataset_counts(self, data):
        assert_tables_match(data)

    def test_counts_one_or_two_columns(self):
        tables = random_dataset(np.random.default_rng(45), 20, 3).pair_tables()
        with pytest.raises(InvalidInput, match="one or two columns"):
            tables.counts((0, 1, 2))

    def test_stats_bit_equal_a_per_pair_reference(self):
        data = random_dataset(np.random.default_rng(46), 3 * _ONE_HOT_BLOCK + 7, 9,
                              max_card=5)
        n = data.n_vars
        mi = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                mi[i, j] = mi[j, i] = mutual_information(data, i, j)
        h = np.array([entropy(data.counts((i,))) for i in range(n)])
        stats = pair_stats(data)
        assert stats.mi.tobytes() == mi.tobytes()
        assert stats.h.tobytes() == h.tobytes()

    def test_peak_memory_stays_blocked(self):
        # the cardinalities sum to 232, so an unblocked float64 one-hot
        # matrix of this dataset alone would take 20000 x 232 x 8 bytes, 37 MB
        data = random_dataset(np.random.default_rng(47), 20000, 76)
        tracemalloc.start()
        try:
            pair_stats(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, peak


class TestPagerank:
    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            w = random_weights(rng, int(rng.integers(3, 13)))
            assert np.allclose(pagerank(w), pagerank_of(w), atol=1e-8)

    def test_sums_to_one(self):
        rng = np.random.default_rng(12)
        w = random_weights(rng, 9, p=0.5)
        assert pagerank(w).sum() == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariant(self):
        rng = np.random.default_rng(13)
        w = random_weights(rng, 8, p=0.6)
        assert np.allclose(pagerank(w), pagerank(17.0 * w), atol=1e-10)

    def test_dangling_nodes_share_mass(self):
        w = matrix_of(4, {(0, 1): 2.0})  # nodes 2, 3 are dangling
        v = pagerank(w)
        assert v.sum() == pytest.approx(1.0, abs=1e-12)
        assert v[2] == pytest.approx(v[3], abs=1e-12)
        assert np.allclose(v, pagerank_of(w), atol=1e-8)

    def test_reads_only_the_upper_triangle(self):
        w = random_weights(np.random.default_rng(16), 6, p=0.7)
        assert pagerank(np.triu(w, 1) + 9.0 * np.tri(6)).tobytes() == pagerank(w).tobytes()

    @pytest.mark.parametrize("w", BAD_SHAPES, ids=lambda w: str(w.shape))
    def test_rejects_a_matrix_that_is_not_square(self, w):
        with pytest.raises(InvalidInput, match="2-D and square"):
            pagerank(w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_weight(self, bad):
        w = matrix_of(3, {(0, 1): 1.0, (1, 2): bad})
        with pytest.raises(InvalidInput, match="non-finite"):
            pagerank(w)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInput, match="empty"):
            pagerank(np.zeros((0, 0)))


class TestElbowThreshold:
    def test_frozen_curve(self):
        assert elbow_threshold([10.0, 9.5, 9.0, 0.1, 0.05]) == 9.0
        assert elbow_threshold([0.05, 9.0, 10.0, 0.1, 9.5]) == 9.0  # any order

    def test_rejects_no_weights(self):
        with pytest.raises(InvalidInput, match="no weights"):
            elbow_threshold([])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_weight(self, bad):
        with pytest.raises(InvalidInput, match="non-finite"):
            elbow_threshold([3.0, bad, 1.0])


class TestElbowTruncate:
    def test_frozen_example(self):
        # the upper triangle, sorted: 10, 9.5, 9, 3, 2, 0; the elbow is at 9
        w = matrix_of(4, {(0, 1): 10.0, (1, 2): 9.5, (2, 3): 9.0,
                          (0, 2): 3.0, (1, 3): 2.0})
        assert elbow_threshold(w[np.triu_indices(4, 1)]) == 9.0
        g = elbow_truncate(w)
        assert g.n == 4 and g.m == 3
        assert edge_dict(g) == {(0, 1): 10.0, (1, 2): 9.5, (2, 3): 9.0}
        # row-major insertion: every adjacency ascends
        assert all(list(g.adjacency(v)) == g.neighbors(v) for v in range(4))

    def test_threshold_weight_is_kept(self):
        w = matrix_of(3, {(0, 1): 5.0, (1, 2): 5.0, (0, 2): 1.0})
        t = elbow_threshold(w[np.triu_indices(3, 1)])
        g = elbow_truncate(w)
        assert all(g.weight(i, j) >= t for i, j in g.edges())
        assert set(g.edges()) == {e for e, v in pair_weights(w).items() if v >= t}

    def test_all_equal_is_degenerate_and_unchanged(self):
        w = matrix_of(3, {(0, 1): 1.5, (1, 2): 1.5, (0, 2): 1.5})
        g = elbow_truncate(w)
        assert g == WeightedGraph.from_matrix(w)
        assert edge_dict(g) == pair_weights(w)

    def test_single_edge_degenerate(self):
        g = elbow_truncate(matrix_of(2, {(0, 1): 2.0}))
        assert edge_dict(g) == {(0, 1): 2.0}

    def test_empty_graph_rejected(self):
        for w in (np.zeros((0, 0)), np.zeros((1, 1))):  # no pair to cut
            with pytest.raises(InvalidInput, match="no weights"):
                elbow_truncate(w)

    def test_keep_everything_cut_returns_every_pair(self):
        # the farthest point from the chord ties the smallest weight, so
        # the cut keeps every pair although the weights differ
        w = matrix_of(3, {(0, 1): 9.0, (1, 2): 1.0, (0, 2): 1.0})
        assert elbow_threshold(w[np.triu_indices(3, 1)]) == 1.0
        g = elbow_truncate(w)
        assert g == WeightedGraph.from_matrix(w)
        assert list(g.adjacency(0)) == [1, 2]

    def test_reads_only_the_upper_triangle(self):
        w = random_weights(np.random.default_rng(17), 7, p=0.8)
        assert elbow_truncate(np.triu(w, 1) - 5.0 * np.tri(7)) == elbow_truncate(w)

    @pytest.mark.parametrize("w", BAD_SHAPES, ids=lambda w: str(w.shape))
    def test_rejects_a_matrix_that_is_not_square(self, w):
        with pytest.raises(InvalidInput, match="2-D and square"):
            elbow_truncate(w)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_a_non_finite_weight(self, bad):
        # a NaN would sort last and cut every pair
        w = matrix_of(3, {(0, 1): 1.0, (1, 2): bad, (0, 2): 0.5})
        with pytest.raises(InvalidInput, match="non-finite"):
            elbow_truncate(w)


class TestWeightedGraph:
    def test_add_edge_canonicalizes(self):
        g = WeightedGraph(3)
        g.add_edge(2, 0, 1.25)
        assert g.has_edge(0, 2)
        assert g.weight(0, 2) == 1.25
        assert g.edges() == [(0, 2)]

    def test_duplicate_add_overwrites(self):
        g = WeightedGraph(3)
        g.add_edge(0, 1, 1.0)
        g.add_edge(1, 0, 2.0)
        assert g.m == 1
        assert g.weight(0, 1) == 2.0

    def test_rejects_bad_edges(self):
        g = WeightedGraph(3)
        with pytest.raises(InvalidInput):
            g.add_edge(0, 0, 1.0)
        with pytest.raises(InvalidInput):
            g.add_edge(0, 3, 1.0)
        with pytest.raises(InvalidInput):
            g.add_edge(0, 1, float("nan"))

    @pytest.mark.parametrize("i, j", [(0.5, 1), (1, 0.5), (True, 2), (2, False),
                                      ("0", 1), (1.0, 2)])
    def test_rejects_a_node_that_is_not_an_integer(self, i, j):
        with pytest.raises(InvalidInput, match="node must be an integer"):
            WeightedGraph(3, {(i, j): 1.0})
        with pytest.raises(InvalidInput, match="node must be an integer"):
            WeightedGraph(3).add_edge(i, j, 1.0)

    def test_numpy_integer_nodes_become_plain_ints(self):
        g = WeightedGraph(3, {(np.int64(2), np.int32(0)): 1.5})
        assert g.edges() == [(0, 2)]
        assert all(type(v) is int for e in g.edges() for v in e)
        assert all(type(v) is int for v in g.neighbors(0) + g.neighbors(2))

    @pytest.mark.parametrize("i, j", [(1, 1), (np.int64(1), 1), (0, 3), (-1, 2),
                                      (np.int64(3), 0)])
    def test_self_loop_and_range_keep_their_message(self, i, j):
        with pytest.raises(InvalidInput, match=r"bad edge \(.*\) for n=3"):
            WeightedGraph(3).add_edge(i, j, 1.0)

    def test_neighbors_sorted(self):
        g = WeightedGraph(5)
        g.add_edge(2, 4, 1.0)
        g.add_edge(2, 0, 1.0)
        g.add_edge(2, 3, 1.0)
        assert list(g.neighbors(2)) == [0, 3, 4]

    def test_from_matrix_keeps_masked_pairs_in_order(self):
        w = np.arange(16, dtype=np.float64).reshape(4, 4)
        full = WeightedGraph.from_matrix(w)
        assert edge_dict(full) == {(0, 1): 1.0, (0, 2): 2.0, (0, 3): 3.0,
                                   (1, 2): 6.0, (1, 3): 7.0, (2, 3): 11.0}
        keep = (w % 3 != 0) | np.tri(4, dtype=bool)  # the lower triangle is never read
        part = WeightedGraph.from_matrix(w, keep)
        assert edge_dict(part) == {(0, 1): 1.0, (0, 2): 2.0, (1, 3): 7.0, (2, 3): 11.0}
        for g in (full, part):  # lexicographic insertion: every adjacency ascends
            assert g.n == 4
            assert all(list(g.adjacency(v)) == g.neighbors(v) for v in range(4))
        assert WeightedGraph.from_matrix(np.zeros((1, 1))).m == 0

    def test_subgraph_preserves_n(self):
        rng = np.random.default_rng(14)
        g = random_graph(rng, 8, p=0.7)
        sub = g.subgraph([0, 1, 2, 3])
        assert sub.n == g.n
        for i, j in sub.edges():
            assert {i, j} <= {0, 1, 2, 3}
            assert sub.weight(i, j) == g.weight(i, j)
        for i, j in g.edges():
            if {i, j} <= {0, 1, 2, 3}:
                assert sub.has_edge(i, j)

    def test_degree_and_adjacency(self):
        g = WeightedGraph(4)
        g.add_edge(0, 1, 2.0)
        g.add_edge(0, 2, 3.0)
        assert g.degree(0) == 2
        assert g.adjacency(0) == {1: 2.0, 2: 3.0}
        assert g.adjacency(3) == {}

    def test_file_round_trip(self, tmp_path):
        rng = np.random.default_rng(15)
        g = random_graph(rng, 7, p=0.5)
        path = tmp_path / "g.tsv"
        save_weighted_graph(g, path)
        assert load_weighted_graph(path) == g

    @pytest.mark.parametrize("text, line", [
        ("nodes\t3\n0\t1\t0.5\n1\t2\n", 3),
        ("nodes\t3\n\n0\t1\theavy\n", 3),
        ("nodes\tthree\n", 1),
        ("0\t1\t0.5\n", 1),
        ("nodes\t3\n0\t1\t0.5\n1\t2\t0.7\n0\t1\t0.9\n", 4),  # a pair listed twice
        ("nodes\t3\n0\t1\t0.5\n1\t0\t0.9\n", 3),  # ... in either orientation
        ("nodes\t3\n0\t3\t0.5\n", 2),  # a node out of range
        ("nodes\t3\n0\t1\tnan\n", 2)])
    def test_malformed_file_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.tsv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"line {line}:"):
            load_weighted_graph(path)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_matches_a_dict_of_pairs(self, data):
        n = data.draw(st.integers(1, 8))
        node = st.integers(0, n - 1)
        calls = data.draw(st.lists(st.tuples(node, node, st.sampled_from([0.5, 1.0, -2.0, 3.25])),
                                   max_size=30))
        g, oracle, order = WeightedGraph(n), {}, {v: [] for v in range(n)}
        for i, j, w in calls:
            if i == j:
                continue
            g.add_edge(i, j, w)
            if (min(i, j), max(i, j)) not in oracle:
                order[i].append(j)
                order[j].append(i)
            oracle[min(i, j), max(i, j)] = w

        def pair_weight(a, b):
            return oracle.get((min(a, b), max(a, b)))

        assert g.m == len(oracle)
        assert g.edges() == sorted(oracle)
        for a in range(n):
            for b in range(n):
                assert g.has_edge(a, b) == (pair_weight(a, b) is not None)
                if g.has_edge(a, b):
                    assert g.weight(a, b) == pair_weight(a, b)
            assert g.neighbors(a) == sorted(order[a])
            assert g.degree(a) == len(order[a])
            # each node's map keeps its first-insertion order
            assert list(g.adjacency(a).items()) == [(b, pair_weight(a, b)) for b in order[a]]

        keep = data.draw(st.sets(node))
        sub = g.subgraph(keep)
        kept = {e: w for e, w in oracle.items() if set(e) <= keep}
        assert sub.n == n and sub.m == len(kept)
        assert sub.edges() == sorted(kept)
        assert all(sub.weight(*e) == w for e, w in kept.items())
        assert all(sub.adjacency(v) == {b: w for e, w in kept.items() if v in e
                                        for b in e if b != v} for v in range(n))

        assert g == WeightedGraph(n, dict(sorted(oracle.items(), reverse=True)))
        assert g != WeightedGraph(n + 1, oracle)
        if oracle:
            e = next(iter(oracle))
            assert g != WeightedGraph(n, {**oracle, e: oracle[e] + 1.0})
            assert g != WeightedGraph(n, dict(list(oracle.items())[1:]))

    def test_cost_follows_edges_not_n(self):
        tracemalloc.start()
        try:
            g = WeightedGraph(100_000)
            _, built = tracemalloc.get_traced_memory()
            for i, j in ((0, 1), (1, 2), (2, 99_999)):
                g.add_edge(i, j, 1.0)
            tracemalloc.reset_peak()
            sub = g.subgraph([0, 1, 2])
            _, sub_peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sub.edges() == [(0, 1), (1, 2)] and sub.n == 100_000
        assert built < 64 * 2**10, built
        assert sub_peak < 64 * 2**10, sub_peak


@pytest.mark.parametrize("network", ["insurance", "win95pts"])
def test_pair_stats_mi_equals_the_pair_code_oracle(network):
    # the marginals come from the dataset's memo; every pair keeps its last bit
    data = forward_sample(load_network(NETWORKS_DIR / f"{network}.net"), 20000, seed=0)
    stats = pair_stats(data)
    for i in range(data.n_vars):
        for j in range(i + 1, data.n_vars):
            assert stats.mi[i, j] == mi_by_pair_code(data, i, j), (i, j)


class _Recorded(dict):
    """A memo entry that records every key stored in it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


@pytest.mark.parametrize("first", ["pair_stats", "view"])
def test_each_column_marginal_is_computed_once_per_dataset(first):
    data = random_dataset(np.random.default_rng(45), 300, 6)
    marginals = data.memo["marginal"] = _Recorded()
    held = [1, 3, 4]
    view = data.distinct(held)

    def from_the_view():
        return {(i, j): mutual_information(view, i, j) for i in held for j in held if i < j}

    def from_pair_stats():
        mi = pair_stats(data).mi
        return {(i, j): mi[i, j] for i in held for j in held if i < j}

    runs = [from_pair_stats, from_the_view]
    got = [run() for run in (runs if first == "pair_stats" else runs[::-1])]
    assert got[0] == got[1]
    assert sorted(marginals.stored) == list(range(data.n_vars))
    for c, p in marginals.items():
        counts = data.counts((c,))
        assert p.tobytes() == (counts / counts.sum()).tobytes()
    for (i, j), value in got[0].items():
        assert value == mi_by_pair_code(data, i, j)
