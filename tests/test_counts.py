"""The contingency-table kernel and the count statistics that read it.

``DiscreteDataset.counts`` is checked against a brute-force count of row
tuples.  MI, CMI and BDeu are checked with exact ``==`` against the
per-caller encoders they replaced (see ``oracles.py``): the kernel must
produce the same codes, so every statistic keeps its last bit.  The
distinct-row view that windows and blanket searches count on is checked
the same way against the dataset, and the learners and the blanket search
on degenerate inputs against their results on all rows.  The family-score
memo of each dataset is checked to compute each family once per dataset
and ``ess``, to the score on all rows.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl.averaging as av
import bnsl.data
from bnsl.averaging import (ScoreCache, bdeu_family_score, exact_order_average,
                            greedy_learn)
from bnsl.blankets import community_blanket, conditional_mutual_information
from bnsl.data import DiscreteDataset, DistinctRows, forward_sample, load_network
from bnsl.errors import InvalidInput
from bnsl.weights import WeightedGraph, mutual_information

from conftest import NETWORKS_DIR
from oracles import bdeu_by_parent_loop, cmi_by_four_bincounts, mi_by_pair_code


@st.composite
def datasets(draw):
    cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
    n_rows = draw(st.integers(1, 40))
    rows = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(n_rows)]
    return DiscreteDataset([f"v{k}" for k in range(len(cards))], cards,
                           np.array(rows, dtype=np.int32))


def brute_force_counts(data, cols):
    seen = Counter(tuple(int(row[c]) for c in cols) for row in data.samples)
    out = np.zeros(tuple(data.cardinalities[c] for c in cols), dtype=np.int64)
    for key, n in seen.items():
        out[key] = n
    return out


@settings(max_examples=150, deadline=None)
@given(data=datasets(), pick=st.randoms(use_true_random=False))
def test_counts_and_statistics_match_references(data, pick):
    v = list(range(data.n_vars))

    cols = pick.sample(v, pick.randint(1, len(v)))
    got = data.counts(cols)
    assert got.shape == tuple(data.cardinalities[c] for c in cols)
    np.testing.assert_array_equal(got, brute_force_counts(data, cols))

    x, y, *rest = pick.sample(v, len(v))
    z = rest[:pick.randint(0, len(rest))]
    assert mutual_information(data, x, y) == mi_by_pair_code(data, x, y)
    assert (conditional_mutual_information(data, x, y, z)
            == cmi_by_four_bincounts(data, x, y, z))
    assert bdeu_family_score(data, x, [y] + z) == bdeu_by_parent_loop(data, x, [y] + z)


def test_alarm_statistics_match_references():
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 20000, seed=0)
    n = data.n_vars
    for i in range(n):
        for j in range(n):
            if i != j:
                assert mutual_information(data, i, j) == mi_by_pair_code(data, i, j), (i, j)
    rng = np.random.default_rng(0)
    for _ in range(500):
        x, y, *z = rng.choice(n, size=2 + int(rng.integers(0, 5)), replace=False).tolist()
        assert (conditional_mutual_information(data, x, y, z)
                == cmi_by_four_bincounts(data, x, y, z)), (x, y, z)


@settings(max_examples=150, deadline=None)
@given(data=datasets(), pick=st.randoms(use_true_random=False))
def test_distinct_rows_count_and_score_like_the_dataset(data, pick):
    window = pick.sample(range(data.n_vars), pick.randint(1, data.n_vars))
    rows = data.distinct(window)
    assert isinstance(rows, DistinctRows)
    assert (rows.n_rows, rows.cardinalities) == (data.n_rows, data.cardinalities)
    assert rows.weights.sum() == data.n_rows
    assert len(rows.weights) == len({tuple(r) for r in data.samples[:, window]})

    sub = pick.sample(window, pick.randint(1, len(window)))
    got, want = rows.counts(sub), data.counts(sub)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    np.testing.assert_array_equal(got, want)

    if len(window) < 2:
        return
    x, y, *rest = pick.sample(window, len(window))
    z = rest[:pick.randint(0, len(rest))]
    assert mutual_information(rows, x, y) == mutual_information(data, x, y)
    # the view shares the dataset's entropy memo, so compare with the oracle
    assert (conditional_mutual_information(rows, x, y, z)
            == cmi_by_four_bincounts(data, x, y, z))
    assert bdeu_family_score(rows, x, [y] + z) == bdeu_family_score(data, x, [y] + z)


def test_distinct_rows_equal_np_unique():
    # a code space no larger than the row count is counted by bincount,
    # a larger one sorted by np.unique; both must give np.unique's rows
    rng = np.random.default_rng(13)
    counted = set()
    for n_rows in (0, 1, 12, 200, 5000):
        cards = [int(c) for c in rng.integers(2, 5, size=7)]
        data = DiscreteDataset([f"v{k}" for k in range(7)], cards,
                               rng.integers(0, cards, size=(n_rows, 7)))
        for _ in range(12):
            cols = rng.choice(7, size=int(rng.integers(1, 8)), replace=False).tolist()
            shape = tuple(cards[c] for c in cols)
            counted.add(np.prod(shape) <= n_rows)
            code = np.ravel_multi_index(tuple(data.column(c) for c in cols), shape)
            rows, mult = np.unique(code, return_counts=True)
            view = data.distinct(cols)
            for c, digits in zip(cols, np.unravel_index(rows, shape)):
                np.testing.assert_array_equal(view.digits[c], digits)
            np.testing.assert_array_equal(view.weights, mult.astype(np.float64))
            assert view.weights.dtype == np.float64
    assert counted == {True, False}  # both branches ran


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_row_codes_equal_ravel_multi_index(data):
    # the one row encoder of counts, distinct, DistinctRows and forward_sample,
    # on int32 columns as a dataset holds them and int64 digits as a view does
    n = data.draw(st.integers(0, 30), label="rows")
    radices = data.draw(st.lists(st.integers(2, 60), min_size=1, max_size=8), label="radices")
    dtype = data.draw(st.sampled_from([np.int32, np.int64]), label="dtype")
    digits = [np.array(data.draw(st.lists(st.integers(0, r - 1), min_size=n, max_size=n)),
                       dtype=dtype) for r in radices]
    got = bnsl.data._row_codes(digits, radices, n)
    assert got.dtype == np.int64
    np.testing.assert_array_equal(got, np.ravel_multi_index(digits, radices))
    np.testing.assert_array_equal(bnsl.data._row_codes([], [], n), np.zeros(n))


THREE_COLUMNS = DiscreteDataset(["a", "b", "c"], [2, 3, 2],
                                np.array([[0, 1, 1], [1, 2, 0], [1, 0, 1]], dtype=np.int32))


@pytest.mark.parametrize("bad", [-1, 3])
def test_mutual_information_rejects_a_column_outside_the_dataset(bad):
    for source in (THREE_COLUMNS, THREE_COLUMNS.distinct(range(3)),
                   THREE_COLUMNS.pair_tables()):
        for i, j in ((bad, 0), (0, bad)):
            with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.2"):
                mutual_information(source, i, j)


@pytest.mark.parametrize("bad", [-1, 3])
def test_cmi_rejects_a_column_outside_the_dataset(bad):
    for x, y, z in ((bad, 0, ()), (0, bad, ()), (0, 1, (bad,))):
        with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.2"):
            conditional_mutual_information(THREE_COLUMNS, x, y, z)


@pytest.mark.parametrize("bad", [-1, 3])
def test_bdeu_rejects_a_column_outside_the_dataset(bad):
    for child, parents in ((bad, (0,)), (0, (bad,)), (0, (1, bad))):
        with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.2"):
            bdeu_family_score(THREE_COLUMNS, child, parents)


@pytest.mark.parametrize("bad", [-1, 3])
def test_score_cache_rejects_a_column_outside_the_dataset(bad):
    cache = ScoreCache(THREE_COLUMNS)
    for scores in (cache, cache.window(range(3))):
        for child, parents in ((bad, (0,)), (0, (bad,))):
            with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.2"):
                scores.family_score(child, parents)


def test_window_past_int64_codes_counts_on_the_dataset():
    rng = np.random.default_rng(3)
    data = DiscreteDataset([f"v{k}" for k in range(16)], [16] * 16,
                           rng.integers(0, 16, size=(5, 16)))
    assert data.distinct(range(16)) is data  # 16^16 = 2^64 codes
    assert isinstance(data.distinct(range(15)), DistinctRows)  # 2^60 codes
    window = ScoreCache(data).window(range(16))
    assert window.family_score(0, (1, 2, 3)) == bdeu_family_score(data, 0, (1, 2, 3))


@pytest.fixture
def views_built(monkeypatch):
    """The columns of every ``DiscreteDataset.distinct`` call, in order."""
    real, built = DiscreteDataset.distinct, []

    def recording(self, cols):
        built.append(list(cols))
        return real(self, cols)

    monkeypatch.setattr(DiscreteDataset, "distinct", recording)
    return built


def test_a_window_builds_its_view_at_its_first_miss(views_built):
    # a dataset of its own, so its family-score memo starts empty
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    window = ScoreCache(data).window((4, 5, 6))
    assert views_built == []
    window.family_score(5, (4,))
    window.family_score(6, (4, 5))
    assert views_built == [[4, 5, 6]]
    first = exact_order_average(data, (4, 5, 6))
    assert views_built == [[4, 5, 6]] * 2
    # a re-learn of the same window finds every family in the dataset's memo
    again = exact_order_average(data, (4, 5, 6))
    assert views_built == [[4, 5, 6]] * 2
    np.testing.assert_array_equal(again.matrix, first.matrix)


@pytest.fixture
def families(monkeypatch):
    """The families looked up and the families computed, as lists of
    ``(child, parents, ess)`` in call order, each emptied by ``clear()``."""
    lookup, compute = ScoreCache.family_score, av.bdeu_family_score
    looked, computed = [], []

    def looking(self, child, parents):
        looked.append((child, tuple(sorted(parents)), self.ess))
        return lookup(self, child, parents)

    def computing(data, child, parents, ess=10.0, **kwargs):
        computed.append((child, tuple(sorted(parents)), ess))
        return compute(data, child, parents, ess, **kwargs)

    monkeypatch.setattr(ScoreCache, "family_score", looking)
    monkeypatch.setattr(av, "bdeu_family_score", computing)
    return looked, computed


def test_learners_on_one_dataset_score_each_family_once(families):
    looked, computed = families
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    nodes = (4, 5, 6, 7, 8)
    exact_order_average(data, nodes)
    by_dp = set(looked)
    assert sorted(computed) == sorted(by_dp)  # each family computed once
    looked.clear()
    computed.clear()
    greedy_learn(data, nodes)
    assert set(looked) & by_dp  # the two learners share families
    assert not set(computed) & by_dp
    assert len(computed) == len(set(computed))

    # a copy of the dataset and another ess each start with an empty memo
    for run in (lambda: greedy_learn(data.select(range(data.n_vars)), nodes),
                lambda: greedy_learn(data, nodes, ess=5.0)):
        looked.clear()
        computed.clear()
        run()
        assert sorted(computed) == sorted(set(looked))

    # every memoized score is the score on all rows, to the last bit
    for ess, scores in data._family_scores.items():
        for (child, parents), got in scores.items():
            assert got == bdeu_family_score(data, child, parents, ess)
    assert set(data._family_scores) == {10.0, 5.0}


def test_community_blanket_counts_on_one_view(views_built):
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    g = WeightedGraph(data.n_vars, {(0, 4): 1.0, (4, 5): 0.5, (5, 6): 2.0, (1, 9): 1.0})
    community_blanket(data, g, [4, 5])
    assert views_built == [[0, 4, 5, 6]]


# Degenerate inputs give the result of counting every statistic on all rows,
# which is what the view's int64 overflow fallback does.

@pytest.fixture
def constant_column_data():
    rng = np.random.default_rng(11)
    samples = rng.integers(0, 3, size=(300, 4))
    samples[:, 2] = 0
    return DiscreteDataset(["a", "b", "c", "d"], [3, 3, 2, 3], samples)


def on_all_rows(monkeypatch, run, data):
    """``run`` on a copy of ``data``, whose memos start empty, with every
    window and blanket search counting on all of its rows."""
    with monkeypatch.context() as m:
        m.setattr(DiscreteDataset, "distinct", lambda self, cols: self)
        return run(data.select(range(data.n_vars)))


def learned(data, nodes):
    """The exact posterior and the greedy structure of one window."""
    post, greedy = exact_order_average(data, nodes), greedy_learn(data, nodes)
    return post.nodes, post.matrix.tolist(), greedy.edges, greedy.support


@pytest.mark.parametrize("nodes", [(), (2,), (0, 2), (0, 1, 2, 3)])
def test_small_windows_and_a_constant_column(constant_column_data, monkeypatch, nodes):
    data = constant_column_data
    if not nodes:
        # the empty window has a posterior but no structure: a structure needs a node
        post = on_all_rows(monkeypatch, lambda d: exact_order_average(d, nodes), data)
        assert post.nodes == exact_order_average(data, nodes).nodes == ()
        with pytest.raises(InvalidInput, match="nonempty node set"):
            greedy_learn(data, nodes)
        return
    assert learned(data, nodes) == on_all_rows(monkeypatch, lambda d: learned(d, nodes),
                                               data)


def test_zero_row_dataset(monkeypatch):
    data = DiscreteDataset(["a", "b", "c"], [2, 3, 2], np.zeros((0, 3), dtype=np.int32))
    rows = data.distinct((0, 1, 2))
    assert rows.n_rows == 0 and len(rows.weights) == 0
    got = rows.counts((1, 0))
    assert (got.shape, got.dtype, got.sum()) == ((3, 2), np.int64, 0)
    assert bdeu_family_score(rows, 0, (1, 2)) == bdeu_family_score(data, 0, (1, 2)) == 0.0
    assert learned(data, None) == on_all_rows(monkeypatch, lambda d: learned(d, None), data)
    assert learned(data, None)[2] == ()
    with pytest.raises(InvalidInput, match="empty"):
        conditional_mutual_information(rows, 0, 1)
    with pytest.raises(InvalidInput, match="empty"):
        community_blanket(data, WeightedGraph(3), [0, 1])


@pytest.mark.parametrize("community", [[2], [1], [0, 2], [0, 1, 2, 3]])
def test_blankets_with_a_constant_column_and_no_candidates(constant_column_data,
                                                          monkeypatch, community):
    data = constant_column_data
    g = WeightedGraph(4, {(0, 1): 1.0, (1, 3): 0.5})
    got = community_blanket(data, g, community)
    assert got == on_all_rows(monkeypatch, lambda d: community_blanket(d, g, community),
                              data)
    if community == [2]:  # a lone community with no candidates: a one-column view
        assert got.blankets == {2: frozenset()} and got.expanded == (2,)
