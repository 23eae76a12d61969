"""The contingency-table kernel and the count statistics that read it.

``DiscreteDataset.counts`` is checked against a brute-force count of row
tuples.  MI, CMI and BDeu are checked with exact ``==`` against the
per-caller encoders they replaced (see ``oracles.py``): the kernel must
produce the same codes, so every statistic keeps its last bit.  The
distinct-row view that windows and blanket searches count on is checked
the same way against the dataset, a view of a view against the dataset's
view of the same columns, and the learners and the blanket search
on degenerate inputs against their results on all rows.  The family-score
memo of each dataset is checked to compute each family once per dataset
and ``ess``, to the score on all rows.
"""

import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl.averaging as av
import bnsl.data
import bnsl.merge
import bnsl.pipeline
from bnsl.averaging import (ScoreCache, bdeu_family_score, exact_order_average,
                            greedy_learn)
from bnsl.blankets import community_blanket, conditional_mutual_information, iamb
from bnsl.data import DiscreteDataset, DistinctRows, forward_sample, load_network
from bnsl.errors import InvalidInput
from bnsl.pipeline import PipelineConfig, run_pipeline
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
    for child, parents in ((bad, (0,)), (0, (bad,))):
        with pytest.raises(InvalidInput, match=rf"column index {bad} outside 0\.\.2"):
            cache.family_score(child, parents)


def test_a_view_rejects_a_column_it_does_not_hold():
    data = DiscreteDataset([f"v{k}" for k in range(5)], [2] * 5,
                           np.random.default_rng(5).integers(0, 2, size=(40, 5)))
    window = ScoreCache(data, nodes=(2, 0, 1))
    lacks = "is not one of this view's columns"
    for child, parents, bad in ((3, (0,), 3), (0, (1, 4), 4)):
        with pytest.raises(InvalidInput, match=rf"column {bad} {lacks} \(0, 1, 2\)"):
            window.family_score(child, parents)
    with pytest.raises(InvalidInput, match=rf"column 2 {lacks} \(0, 1\)"):
        iamb(data.distinct((0, 1)), 0, [1, 2])
    # a family in the dataset's memo is read, not counted, by any window
    assert ScoreCache(data).family_score(3, (0,)) == bdeu_family_score(data, 3, (0,))
    assert window.family_score(3, (0,)) == bdeu_family_score(data, 3, (0,))


def test_window_past_int64_codes_counts_on_the_dataset():
    rng = np.random.default_rng(3)
    data = DiscreteDataset([f"v{k}" for k in range(18)], [16] * 18,
                           rng.integers(0, 16, size=(5, 18)))
    rows = data.distinct(range(16))  # 16^16 = 2^64 codes: every row once
    assert isinstance(rows, DistinctRows) and rows.memo is data.memo
    assert list(rows.digits) == list(range(16))
    assert all(np.array_equal(rows.digits[c], data.column(c)) for c in range(16))
    assert rows.weights.tolist() == [1.0] * 5
    assert isinstance(data.distinct(range(15)), DistinctRows)  # 2^60 codes
    window = ScoreCache(data, nodes=range(16))
    assert window.family_score(0, (1, 2, 3)) == bdeu_family_score(data, 0, (1, 2, 3))
    with pytest.raises(InvalidInput, match="column 17 is not one of this view's columns"):
        window.family_score(0, (17,))  # outside the window, as for a narrower one


@st.composite
def views_of_views(draw, path):
    """A dataset and column lists S and T, T drawn from S, for which
    ``data.distinct(S).distinct(T)`` takes ``path``: "bincount" (a code
    space no larger than the view's rows: the samples hold every state
    combination of T), "unique" (a larger one: two or more columns of T
    over at most three samples) or "overflow" (S's codes overflow int64,
    so T is coded from every row)."""
    if path == "overflow":
        cards = [16] * draw(st.integers(16, 18))
        least, rows = 16, draw(st.integers(1, 6))
    else:
        cards = draw(st.lists(st.integers(2, 4), min_size=2, max_size=6))
        least = 2 if path == "unique" else 1
        rows = draw(st.integers(1, 3) if path == "unique" else st.integers(0, 10))
    n_vars = len(cards)
    outer = draw(st.permutations(range(n_vars)))[:draw(st.integers(least, n_vars))]
    inner = draw(st.permutations(outer))[:draw(st.integers(
        2 if path == "unique" else 0, 3 if path == "bincount" else len(outer)))]
    samples = [[draw(st.integers(0, c - 1)) for c in cards] for _ in range(rows)]
    if path == "bincount":
        for states in itertools.product(*(range(cards[c]) for c in inner)):
            row = [draw(st.integers(0, c - 1)) for c in cards]
            for c, state in zip(inner, states):
                row[c] = state
            samples.append(row)
    data = DiscreteDataset([f"v{k}" for k in range(n_vars)], cards,
                           np.array(samples, dtype=np.int32).reshape(-1, n_vars))
    return data, list(outer), list(inner)


@pytest.mark.parametrize("path", ["bincount", "unique", "overflow"])
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_view_of_a_view_is_the_datasets_view(path, data):
    dataset, outer, inner = data.draw(views_of_views(path))
    view = dataset.distinct(outer)
    size = math.prod(dataset.cardinalities[c] for c in inner)
    assert path == "overflow" or (size <= len(view.weights)) == (path == "bincount")
    got, want = view.distinct(inner), dataset.distinct(inner)
    assert isinstance(got, DistinctRows) and got.memo is dataset.memo
    assert (got.n_rows, got.cardinalities) == (dataset.n_rows, dataset.cardinalities)
    assert list(got.digits) == list(want.digits) == inner
    for c in inner:
        np.testing.assert_array_equal(got.digits[c], want.digits[c])
    assert got.weights.dtype == want.weights.dtype == np.float64
    np.testing.assert_array_equal(got.weights, want.weights)
    # every subset of T in T's order; a table of more than three 16-state
    # columns would be too large to count
    widest = 3 if path == "overflow" else len(inner)
    for k in range(min(widest, len(inner)) + 1):
        for cols in itertools.combinations(inner, k):
            table, on_all = got.counts(cols), dataset.counts(cols)
            assert (table.shape, table.dtype) == (on_all.shape, on_all.dtype), cols
            np.testing.assert_array_equal(table, on_all)
    for bad in sorted(set(range(dataset.n_vars)) - set(outer))[:1]:
        with pytest.raises(InvalidInput, match=f"column {bad} is not one of this view's"):
            view.distinct(inner + [bad])
    with pytest.raises(InvalidInput, match="outside"):
        view.distinct(inner + [dataset.n_vars])


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
    window = ScoreCache(data, nodes=(4, 5, 6))
    assert views_built == []
    window.scores([(1, (0,))])  # a batch miss builds the view
    window.family_score(6, (4, 5))  # a miss on its own reads the same view
    window.scores([(0, ()), (2, (0, 1)), (1, (0,))])
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
    ``(child, parents, ess)`` in call order, each emptied by ``clear()``.
    A family is looked up by ``ScoreCache.family_score`` or in a batch by
    ``ScoreCache.scores``, and computed by ``bdeu_family_score`` or in a
    batch by ``_score_families``."""
    one, batch = ScoreCache.family_score, ScoreCache.scores
    compute, compute_all = av.bdeu_family_score, av._score_families
    looked, computed = [], []

    def looking(self, child, parents):
        looked.append((child, tuple(sorted(parents)), self.ess))
        return one(self, child, parents)

    def looking_up(self, positions):
        positions = list(positions)
        looked.extend((self.nodes[c], tuple(self.nodes[k] for k in u), self.ess)
                      for c, u in positions)
        return batch(self, positions)

    def computing(data, child, parents, ess=10.0, **kwargs):
        computed.append((child, tuple(sorted(parents)), ess))
        return compute(data, child, parents, ess, **kwargs)

    def computing_all(rows, fams, ess):
        computed.extend((child, parents, ess) for child, parents in fams)
        return compute_all(rows, fams, ess)

    monkeypatch.setattr(ScoreCache, "family_score", looking)
    monkeypatch.setattr(ScoreCache, "scores", looking_up)
    monkeypatch.setattr(av, "bdeu_family_score", computing)
    monkeypatch.setattr(av, "_score_families", computing_all)
    return looked, computed


def test_learners_on_one_dataset_score_each_family_once(families):
    looked, computed = families
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    nodes = (4, 5, 6, 7, 8)
    exact_order_average(data, nodes)
    by_dp = set(looked)
    assert len(by_dp) == 5 * 15  # each child's parent sets of up to 3 of 4 others
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
    bdeu = {key[1]: scores for key, scores in data.memo.items() if key[:1] == ("bdeu",)}
    for ess, scores in bdeu.items():
        for (child, parents), got in scores.items():
            assert got == bdeu_family_score(data, child, parents, ess)
    assert set(bdeu) == {10.0, 5.0}


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


@pytest.mark.parametrize("n_rows", [0, 7])
def test_a_view_of_no_columns(n_rows):
    # one row that every sample shares, or no row when there is no sample
    data = DiscreteDataset(["a", "b"], [2, 3],
                           np.random.default_rng(2).integers(0, 2, size=(n_rows, 2)))
    view = data.distinct(())
    assert view.digits == {}
    assert view.weights.tolist() == ([float(n_rows)] if n_rows else [])
    got, want = view.counts(()), data.counts(())
    assert (got.shape, got.dtype) == (want.shape, want.dtype) == ((), np.int64)
    assert got == want == n_rows


@settings(max_examples=150, deadline=None)
@given(data=datasets(), pick=st.randoms(use_true_random=False))
def test_prefix_slot_keeps_every_table(data, pick):
    # two views of one dataset, each with its own prefix slot; the narrow one
    # lacks a column.  Each call's columns are drawn from the view's previous
    # call: the same leading columns with another last one, a shorter or a
    # longer tuple, one column, no column, any columns, or a column outside
    # the view, which raises and leaves the next call's table right
    every = list(range(data.n_vars))
    held = sorted(pick.sample(every, pick.randint(1, len(every) - 1)))
    wide, narrow = data.distinct(every), data.distinct(held)
    outside = sorted(set(every) - set(held))

    def check(view, cols):
        got, want = view.counts(cols), data.counts(cols)
        assert (got.shape, got.dtype) == (want.shape, want.dtype), cols
        np.testing.assert_array_equal(got, want)

    # the same leading columns on both views, in turn
    head = pick.sample(held, pick.randint(0, len(held) - 1))
    for view, cols in ((wide, every), (narrow, held), (wide, every), (narrow, held)):
        check(view, head + [pick.choice(cols)])

    previous = {id(wide): head, id(narrow): head}
    for _ in range(20):
        view, cols = pick.choice(((wide, every), (narrow, held)))
        prev = previous[id(view)]
        move = pick.choice(("same head", "shorter", "longer", "one", "none", "any",
                            "outside"))
        if move == "outside" and view is narrow:
            bad = pick.choice(outside)
            for wrong in (prev[:-1] + [bad], [bad] + prev):
                with pytest.raises(InvalidInput, match="not one of this view's columns"):
                    view.counts(wrong)
            continue
        if move == "same head" and prev:
            new = prev[:-1] + [pick.choice(cols)]
        elif move == "shorter" and prev:
            new = prev[:pick.randint(0, len(prev) - 1)]
        elif move == "longer":
            new = prev + [pick.choice(cols)]
        elif move == "one":
            new = [pick.choice(cols)]
        elif move == "none":
            new = []
        else:
            new = pick.sample(cols, pick.randint(1, len(cols)))
        check(view, new)
        previous[id(view)] = new


@pytest.mark.parametrize("network,learner,n_cmis", [("alarm", "modelavg", 568),
                                                    ("win95pts", "greedy", 1636)],
                         ids=["alarm-modelavg", "win95pts-greedy"])
def test_every_cmi_of_a_run_equals_the_oracle(monkeypatch, network, learner, n_cmis):
    # IAMB's forward rounds extend one prefix code per round; every CMI they
    # and the backward phase compute must equal the four-bincount oracle on
    # all the samples
    import bnsl.blankets

    real, seen = bnsl.blankets.conditional_mutual_information, []

    def recording(data, x, y, z=()):
        value = real(data, x, y, z)
        seen.append((x, y, tuple(z), value))
        return value

    monkeypatch.setattr(bnsl.blankets, "conditional_mutual_information", recording)
    net = NETWORKS_DIR / f"{network}.net"
    run_pipeline(PipelineConfig(network=str(net), n_samples=20000, seed=0, learner=learner))
    data = forward_sample(load_network(net), 20000, seed=0)
    assert len(seen) == n_cmis and any(z for _, _, z, _ in seen)
    # some (x, y, sorted Z) repeats, so the entropy memo is read, not only filled
    assert len(seen) > len({(x, y, tuple(sorted(z))) for x, y, z, _ in seen})
    for x, y, z, value in seen:
        assert value == cmi_by_four_bincounts(data, x, y, z), (x, y, z)


@pytest.fixture
def counted(monkeypatch):
    """The columns of every ``DistinctRows.counts`` and ``DiscreteDataset.counts``
    call, in order."""
    calls = []
    for cls in (DistinctRows, DiscreteDataset):
        real = cls.counts

        def recording(self, cols, real=real):
            calls.append(tuple(cols))
            return real(self, cols)

        monkeypatch.setattr(cls, "counts", recording)
    return calls


@pytest.mark.parametrize("window,max_parents", [((3, 4, 9, 10, 11, 20), 3),
                                                ((3, 4, 9, 10, 11, 20), 1),
                                                ((0, 5, 7), 3)])
def test_the_dp_counts_each_largest_column_set_once(counted, window, max_parents):
    # every family set is a subset of one of max_parents + 1 columns, so only
    # those are counted, in lexicographic order for the view's prefix slot;
    # the smaller ones are sums of their tables
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    exact_order_average(data, window, max_parents)
    size = min(max_parents + 1, len(window))
    assert counted == list(itertools.combinations(window, size))
    bdeu = data.memo[("bdeu", 10.0)]
    assert len(bdeu) == len(window) * sum(
        math.comb(len(window) - 1, k) for k in range(min(max_parents, len(window) - 1) + 1))
    for (child, parents), got in bdeu.items():
        assert got == bdeu_family_score(data, child, parents)


def test_stacks_are_scored_whenever_they_reach_the_cell_limit(counted, monkeypatch):
    # the window's largest column set has 81 cells and four families; at a
    # limit of 200 cells the batch is scored in several rounds, and the
    # counts and scores are those of one round
    data = forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 2000, seed=0)
    window, rounds, score_stacks = (3, 4, 9, 10, 11, 20), [], av._score_stacks

    def recording(rows, stacks, ess, out):
        rounds.append(sum(t.size for _, tables in stacks.values() for t in tables))
        score_stacks(rows, stacks, ess, out)

    monkeypatch.setattr(av, "_score_stacks", recording)
    monkeypatch.setattr(av, "MAX_FAMILY_CELLS", 200)
    exact_order_average(data, window)
    assert len(rounds) > 10 and max(rounds) < 200 + 4 * 81
    assert counted == list(itertools.combinations(window, 4))
    bdeu = data.memo[("bdeu", 10.0)]
    assert len(bdeu) == 6 * 26
    for (child, parents), got in bdeu.items():
        assert got == bdeu_family_score(data, child, parents)


def test_limits_raise_before_any_count(counted, views_built, monkeypatch):
    # its last node has 8 states: every set of all four nodes needs 64 cells
    rng = np.random.default_rng(8)
    data = DiscreteDataset(["a", "b", "c", "d"], [2, 2, 2, 8],
                           np.column_stack([rng.integers(0, 2, (200, 3)),
                                            rng.integers(0, 8, 200)]))
    monkeypatch.setattr(av, "MAX_FAMILY_CELLS", 32)
    with pytest.raises(av.FamilyTooLarge,
                       match=r"^family \(0 \| \(1, 2, 3\)\) needs 64 count cells$"):
        exact_order_average(data)
    monkeypatch.setattr(av, "SUBSET_BUDGET", 7)
    with pytest.raises(av.BudgetExceeded,
                       match="^child 0: 8 parent sets exceed the budget of 7$"):
        exact_order_average(data)
    assert counted == views_built == []
    assert data.memo.get(("bdeu", 10.0)) == {}


@pytest.mark.parametrize("learner,n_families", [
    ("modelavg", (("alarm", 1574), ("insurance", 1100), ("win95pts", 8384))),
    ("greedy", (("alarm", 527), ("insurance", 357), ("win95pts", 1296)))],
    ids=["modelavg", "greedy"])
def test_every_family_of_the_runs_equals_the_score_on_all_rows(monkeypatch, learner,
                                                                n_families):
    # the sampled windows and resolve's re-learned ones, which count on their
    # community's view, and the merge's re-learned ones, on the dataset
    real, datasets, loaded = av.learn_structure, [], []

    def recording(module):
        def learning(data, nodes, config):
            datasets.append((module.__name__, data))
            return real(data, nodes, config)
        return learning

    def loading(config, load=bnsl.pipeline.load_inputs):
        got = load(config)
        loaded.append(got[0])
        return got

    for module in (bnsl.pipeline, bnsl.merge):
        monkeypatch.setattr(module, "learn_structure", recording(module))
    monkeypatch.setattr(bnsl.pipeline, "load_inputs", loading)
    for network, n in n_families:
        datasets.clear()
        loaded.clear()
        run_pipeline(PipelineConfig(network=str(NETWORKS_DIR / f"{network}.net"),
                                    n_samples=20000, seed=0, learner=learner))
        assert {name for name, _ in datasets} == {"bnsl.pipeline", "bnsl.merge"}
        data, = loaded
        assert all(d.memo is data.memo for _, d in datasets)  # the run's memo
        assert all(isinstance(d, DistinctRows) for name, d in datasets
                   if name == "bnsl.pipeline")
        scores = data.memo[("bdeu", 10.0)]
        assert len(scores) == n
        on_all = data.select(range(data.n_vars))  # the samples with an empty memo
        for (child, parents), got in scores.items():
            assert got == bdeu_family_score(on_all, child, parents), (network, child, parents)
