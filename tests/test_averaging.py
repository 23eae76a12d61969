"""BDeu scoring, order-conditional posteriors, MCMC, and greedy search."""

import inspect
import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

import bnsl.averaging as av
import bnsl.blankets
import bnsl.merge
from bnsl.averaging import (EXACT_MAX_NODES, EdgePosterior, LearnerConfig,
                            LocalStructure, ScoreCache, bdeu_family_score,
                            exact_order_average,
                            feature_posterior_given_order, greedy_learn,
                            learn_structure, load_structure,
                            order_log_marginal, order_mcmc, save_structure,
                            threshold_edges)
from bnsl.data import DiscreteDataset, forward_sample
from bnsl.errors import BudgetExceeded, FamilyTooLarge, InvalidInput

from conftest import DENSE_NETS, chain3, dense_data, random_binary_net
from oracles import dag_enumeration_posterior, family_log_predictive


def make_data(rows, cards, names=None):
    arr = np.asarray(rows, dtype=np.int32)
    names = names or [f"v{k}" for k in range(arr.shape[1])]
    return DiscreteDataset(names, list(cards), arr)


class TestBdeuFamilyScore:
    def test_single_row_closed_form(self):
        data = make_data([[0]], [2])
        assert bdeu_family_score(data, 0, (), ess=1.0) == \
            pytest.approx(math.log(0.5), abs=1e-14)

    def test_two_rows_closed_form(self):
        # P(x1=a) * P(x2=a | x1=a) = 1/2 * 2/3 with ess=2
        data = make_data([[0], [0]], [2])
        assert bdeu_family_score(data, 0, (), ess=2.0) == \
            pytest.approx(math.log(1.0 / 3.0), abs=1e-14)

    def test_empty_data_scores_zero(self):
        data = make_data(np.zeros((0, 2)), [2, 2])
        assert bdeu_family_score(data, 0, (1,)) == 0.0

    def test_matches_sequential_predictive_oracle(self):
        rng = np.random.default_rng(51)
        for _ in range(30):
            cards = [int(rng.integers(2, 4)) for _ in range(4)]
            n = int(rng.integers(20, 250))
            cols = [rng.integers(0, c, size=n) for c in cards]
            for j, c in enumerate(cards):
                cols[j][:c] = np.arange(c)
            data = make_data(np.column_stack(cols), cards)
            child = int(rng.integers(0, 4))
            parents = [v for v in range(4)
                       if v != child and rng.random() < 0.5]
            ess = float(rng.uniform(1.0, 20.0))
            got = bdeu_family_score(data, child, parents, ess=ess)
            want = family_log_predictive(data.samples, child, parents,
                                         cards, ess)
            assert got == pytest.approx(want, abs=1e-9)

    def test_parent_order_and_duplicates_ignored(self, chain_data):
        a = bdeu_family_score(chain_data, 2, (0, 1))
        b = bdeu_family_score(chain_data, 2, (1, 0, 1))
        assert a == b

    def test_child_in_parents_rejected(self, chain_data):
        with pytest.raises(InvalidInput):
            bdeu_family_score(chain_data, 1, (1,))

    def test_family_too_large(self, chain_data, monkeypatch):
        monkeypatch.setattr(av, "MAX_FAMILY_CELLS", 4)
        with pytest.raises(FamilyTooLarge, match=r"\(0 \| \(1, 2\)\) needs 8 count cells"):
            bdeu_family_score(chain_data, 0, (1, 2))
        assert np.isfinite(bdeu_family_score(chain_data, 0, (1,)))

    @pytest.mark.parametrize("ess", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("score", [
        lambda data, ess: bdeu_family_score(data, 0, (), ess=ess),
        lambda data, ess: ScoreCache(data, ess).family_score(0, ())],
        ids=["bdeu_family_score", "ScoreCache"])
    def test_ess_must_be_finite_and_positive(self, chain_data, score, ess):
        with pytest.raises(InvalidInput, match=f"ess must be finite and > 0, got {ess}"):
            score(chain_data, ess)

    def test_cache_is_bit_identical(self, chain_data):
        cache = ScoreCache(chain_data, 10.0)
        for child, parents in [(0, ()), (1, (0,)), (2, (0, 1)), (1, (0, 2))]:
            fresh = bdeu_family_score(chain_data, child, parents)
            cached = cache.family_score(child, parents)
            again = cache.family_score(child, parents)
            assert fresh == cached == again


class TestOrderPosteriors:
    def test_entries_are_probabilities(self, chain_data):
        post = feature_posterior_given_order(chain_data, [0, 1, 2])
        mat = post.matrix
        assert ((mat >= 0.0) & (mat <= 1.0)).all()
        assert np.all(np.diag(mat) == 0.0)

    def test_only_predecessors_get_mass(self, chain_data):
        post = feature_posterior_given_order(chain_data, [2, 1, 0])
        assert post.matrix[0, 1] == 0.0  # 0 comes after 1 in this order
        assert post.matrix[1, 2] == 0.0

    def test_strong_edge_dominates(self, chain_data):
        post = feature_posterior_given_order(chain_data, [0, 1, 2])
        assert post.matrix[0, 1] > 0.9
        assert post.matrix[1, 2] > 0.9

    def test_order_log_marginal_consistency(self, chain_data):
        a = order_log_marginal(chain_data, [0, 1, 2])
        b = order_log_marginal(chain_data, [2, 1, 0])
        assert np.isfinite(a) and np.isfinite(b)
        # the generative order should not be less likely
        assert a >= b - 1e-9

    def test_matches_per_parent_reference(self):
        # reference: one log-sum-exp over the parent sets holding each parent
        rng = np.random.default_rng(56)
        data = forward_sample(random_binary_net(rng, 5, arc_prob=0.6), 400, seed=10)
        order = [3, 0, 4, 1, 2]
        for k in (1, 2):
            mat = feature_posterior_given_order(data, order, max_parents=k).matrix
            total = 0.0
            for p, child in enumerate(order):
                sets = [u for size in range(min(k, p) + 1)
                        for u in itertools.combinations(order[:p], size)]
                scores = [bdeu_family_score(data, child, u) for u in sets]
                logz = logsumexp(scores)
                total += logz
                for j in order[:p]:
                    held = [s for u, s in zip(sets, scores) if j in u]
                    assert mat[j, child] == pytest.approx(
                        math.exp(logsumexp(held) - logz), abs=1e-12)
            assert order_log_marginal(data, order, max_parents=k) == \
                pytest.approx(total, abs=1e-9)

    def test_budget_exceeded(self, chain_data, monkeypatch):
        monkeypatch.setattr(av, "SUBSET_BUDGET", 2)
        with pytest.raises(BudgetExceeded, match="child 2: 4 parent sets exceed the budget of 2"):
            feature_posterior_given_order(chain_data, [0, 1, 2])


class TestExactOrderAverage:
    def test_matches_dag_enumeration_oracle(self):
        rng = np.random.default_rng(52)
        net = random_binary_net(rng, 3, arc_prob=0.7)
        data = forward_sample(net, 80, seed=6)
        got = exact_order_average(data).matrix
        want = dag_enumeration_posterior(data.samples,
                                         list(data.cardinalities))
        assert np.allclose(got, want, atol=1e-9)

    def test_subset_of_nodes(self, chain_data):
        post = exact_order_average(chain_data, nodes=[0, 1])
        assert post.nodes == (0, 1)
        # the matrix is indexed over the subset, in node order; with two
        # dependent nodes the directions are score equivalent at 1/2 each
        assert post.matrix.shape == (2, 2)
        assert post.matrix[0, 1] == pytest.approx(0.5, abs=1e-6)
        assert post.matrix[1, 0] == pytest.approx(0.5, abs=1e-6)

    def test_too_many_nodes_rejected(self):
        rng = np.random.default_rng(53)
        m = EXACT_MAX_NODES + 1
        cols = [rng.integers(0, 2, 20) for _ in range(m)]
        data = make_data(np.column_stack(cols), [2] * m)
        with pytest.raises(InvalidInput, match=f"limited to {EXACT_MAX_NODES} nodes"):
            exact_order_average(data)

    def test_empty_and_single_node_windows(self, chain_data):
        assert exact_order_average(chain_data, nodes=()).matrix.shape == (0, 0)
        assert exact_order_average(chain_data, nodes=[2]).matrix.tolist() == [[0.0]]


def test_limits_are_constants_that_no_function_takes():
    assert (av.SUBSET_BUDGET, av.MAX_FAMILY_CELLS, bnsl.blankets.MAX_CMI_CELLS) == \
        (2 ** 20, 2 ** 22, 2 ** 22)
    for fn in (exact_order_average, order_mcmc, feature_posterior_given_order,
               order_log_marginal, av.ScoreCache.parent_sets, av._order_terms,
               bdeu_family_score, bnsl.blankets.conditional_mutual_information,
               bnsl.merge.resolve):
        assert not {"budget", "max_cells", "t_tri"} & set(inspect.signature(fn).parameters)


# windows of a 3-column dataset whose second node is out of range or not an
# integer (a float or a bool used to be truncated to a node)
BAD_NODES = [(0, -1), (0, 3), (0, 0.5), (0, True)]


def bad_node_message(v) -> str:
    if type(v) is int:
        return f"node {v} outside 0..2"
    return f"node must be an integer, got {v!r}"


@pytest.mark.parametrize("engine", [exact_order_average, order_mcmc])
class TestLimitsOfBothEngines:
    """The exact and the sampled average refuse the same windows."""

    def test_budget_exceeded(self, engine, chain_data, monkeypatch):
        monkeypatch.setattr(av, "SUBSET_BUDGET", 3)
        with pytest.raises(BudgetExceeded, match="4 parent sets exceed the budget of 3"):
            engine(chain_data)  # 4 parent sets per child
        monkeypatch.setattr(av, "SUBSET_BUDGET", 4)
        engine(chain_data)

    def test_family_too_large(self, engine):
        # 60^4 count cells for a child with three parents, 60^3 with two
        rng = np.random.default_rng(57)
        data = make_data(rng.integers(0, 60, size=(100, 4)), [60] * 4)
        with pytest.raises(FamilyTooLarge):
            engine(data, max_parents=3)
        engine(data, max_parents=2)

    @pytest.mark.parametrize("nodes", BAD_NODES)
    def test_node_out_of_range(self, engine, chain_data, nodes):
        with pytest.raises(InvalidInput, match=bad_node_message(nodes[1])):
            engine(chain_data, nodes=nodes)

    @pytest.mark.parametrize("nodes", [(0, 0), (1, 0, 1)])
    def test_duplicate_nodes(self, engine, chain_data, nodes):
        with pytest.raises(InvalidInput, match="^duplicate nodes$"):
            engine(chain_data, nodes=nodes)

    def test_negative_max_parents(self, engine, chain_data):
        with pytest.raises(InvalidInput, match="max_parents must be >= 0, got -1"):
            engine(chain_data, max_parents=-1)

    @pytest.mark.parametrize("value", [1.5, True, "2"])
    def test_max_parents_must_be_an_integer(self, engine, chain_data, value):
        with pytest.raises(InvalidInput, match=f"max_parents must be an integer, got {value!r}"):
            engine(chain_data, max_parents=value)
        got = engine(chain_data, max_parents=np.int64(1)).matrix
        assert np.array_equal(got, engine(chain_data, max_parents=1).matrix)


PER_ORDER_AND_GREEDY = [feature_posterior_given_order, order_log_marginal, greedy_learn]


@pytest.mark.parametrize("learn", PER_ORDER_AND_GREEDY)
@pytest.mark.parametrize("nodes", BAD_NODES)
def test_per_order_and_greedy_reject_nodes_out_of_range(learn, nodes, chain_data):
    with pytest.raises(InvalidInput, match=bad_node_message(nodes[1])):
        learn(chain_data, nodes)


@pytest.mark.parametrize("learn", PER_ORDER_AND_GREEDY)
@pytest.mark.parametrize("nodes", [(0, 0), (1, 0, 1)])
def test_per_order_and_greedy_reject_duplicate_nodes(learn, nodes, chain_data):
    with pytest.raises(InvalidInput, match="^duplicate nodes$"):
        learn(chain_data, nodes)


@pytest.mark.parametrize("learn", PER_ORDER_AND_GREEDY)
@pytest.mark.parametrize("value", [1.5, True])
def test_per_order_and_greedy_max_parents_must_be_an_integer(learn, value, chain_data):
    with pytest.raises(InvalidInput, match=f"max_parents must be an integer, got {value!r}"):
        learn(chain_data, (0, 1, 2), max_parents=value)


@pytest.mark.parametrize("nodes, message", [
    ((0, 0), "^duplicate nodes$"), ((1, 0, 1), "^duplicate nodes$"),
    ((0, -1), "node -1 outside 0..2"), ((0, 3), "node 3 outside 0..2"),
    ((0, 0.5), "node must be an integer, got 0.5"),
    ((0, True), "node must be an integer, got True")])
def test_score_cache_checks_its_window(chain_data, nodes, message):
    with pytest.raises(InvalidInput, match=message):
        ScoreCache(chain_data, nodes=nodes)
    assert ScoreCache(chain_data, nodes=(2, 0)).nodes == (0, 2)
    assert ScoreCache(chain_data).nodes == (0, 1, 2)


@pytest.mark.parametrize("learn", [
    exact_order_average, lambda data: order_mcmc(data, T=2),
    lambda data: feature_posterior_given_order(data, (2, 0, 1)),
    lambda data: order_log_marginal(data, (2, 0, 1)), greedy_learn],
    ids=["exact_order_average", "order_mcmc", "feature_posterior_given_order",
         "order_log_marginal", "greedy_learn"])
def test_each_engine_call_builds_one_score_cache(learn, chain_data, monkeypatch):
    built = []

    class Counted(ScoreCache):
        def __init__(self, *args, **kwargs):
            built.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(av, "ScoreCache", Counted)
    learn(chain_data)
    assert len(built) == 1


class TestOrderMcmc:
    def test_single_node_returns_zeros(self, chain_data):
        post = order_mcmc(chain_data, nodes=[1], T=10)
        assert post.nodes == (1,)
        assert post.matrix.shape == (1, 1)
        assert post.matrix.sum() == 0.0

    def test_deterministic_by_seed(self, chain_data):
        a = order_mcmc(chain_data, T=20, burn_in=10, seed=4)
        b = order_mcmc(chain_data, T=20, burn_in=10, seed=4)
        assert np.array_equal(a.matrix, b.matrix)

    @pytest.mark.parametrize("name, value", [
        ("T", 0), ("burn_in", -5), ("thin", 0), ("T", 1.5), ("T", True), ("T", None),
        ("burn_in", 0.5), ("thin", 1.5), ("seed", -1), ("seed", 1.5)])
    def test_bad_schedule_rejected(self, chain_data, name, value):
        with pytest.raises(InvalidInput, match=f"^{name} must be"):
            order_mcmc(chain_data, **{name: value})

    def test_approaches_exact_average(self, chain_data):
        exact = exact_order_average(chain_data).matrix
        approx = order_mcmc(chain_data, T=150, burn_in=150, seed=0).matrix
        assert np.abs(exact - approx).max() < 0.1


class TestThresholdEdges:
    def _posterior(self, entries):
        mat = np.zeros((3, 3))
        for (i, j), v in entries.items():
            mat[i, j] = v
        return EdgePosterior((0, 1, 2), mat)

    def test_strictly_above_threshold(self):
        post = self._posterior({(0, 1): 0.5, (1, 2): 0.51})
        s = threshold_edges(post)
        assert s.edges == ((1, 2),)

    def test_bidirectional_keeps_larger(self):
        post = self._posterior({(0, 1): 0.7, (1, 0): 0.8})
        assert threshold_edges(post).edges == ((1, 0),)

    def test_bidirectional_tie_keeps_lexicographic(self):
        post = self._posterior({(0, 1): 0.7, (1, 0): 0.7})
        assert threshold_edges(post).edges == ((0, 1),)

    def test_support_records_posterior(self):
        post = self._posterior({(2, 1): 0.9})
        s = threshold_edges(post)
        assert s.support[(2, 1)] == pytest.approx(0.9)

    # a NaN threshold used to keep both directions of every pair, and a text
    # one to fail inside numpy
    @pytest.mark.parametrize("t_avg, message", [
        (math.nan, "t_avg must be in [0, 1], got nan"),
        (2, "t_avg must be in [0, 1], got 2"),
        (-1, "t_avg must be in [0, 1], got -1"),
        ("0.5", "t_avg must be a real number, got '0.5'")])
    def test_threshold_outside_the_unit_interval_rejected(self, t_avg, message):
        post = self._posterior({(0, 1): 0.6, (1, 0): 0.6, (1, 2): 0.7, (2, 1): 0.7,
                                (0, 2): 0.8, (2, 0): 0.8})
        with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
            threshold_edges(post, t_avg)
        assert threshold_edges(post, np.float64(0.5)) == threshold_edges(post, 0.5)

    # a coarse grid mixed in, so that ties and values at the threshold occur
    PROBABILITY = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_one_direction_per_pair_and_support_above_threshold(self, data):
        nodes = data.draw(st.lists(st.integers(0, 50), max_size=6, unique=True),
                          label="nodes")
        k = len(nodes)
        mat = np.array(data.draw(st.lists(self.PROBABILITY, min_size=k * k,
                                          max_size=k * k), label="entries"))
        mat = mat.reshape(k, k) * (1 - np.eye(k))
        t_avg = data.draw(self.PROBABILITY, label="t_avg")
        post = EdgePosterior(tuple(nodes), mat)
        if not nodes:
            with pytest.raises(InvalidInput, match="nonempty node set"):
                threshold_edges(post, t_avg)
            return
        s = threshold_edges(post, t_avg)
        pos = {v: a for a, v in enumerate(nodes)}
        for a, b in s.edges:
            assert (b, a) not in s.edges
            assert s.support[(a, b)] == post.matrix[pos[a], pos[b]] > t_avg


class TestGreedyLearn:
    def test_recovers_chain_skeleton(self, chain_data):
        s = greedy_learn(chain_data)
        assert s.skeleton() == {frozenset({0, 1}), frozenset({1, 2})}

    def test_result_is_acyclic(self):
        for spec in DENSE_NETS:
            s = greedy_learn(dense_data(*spec))
            children = {v: [] for v in s.nodes}
            indeg = {v: 0 for v in s.nodes}
            for p, c in s.edges:
                children[p].append(c)
                indeg[c] += 1
            queue = [v for v in s.nodes if indeg[v] == 0]
            seen = 0
            while queue:
                v = queue.pop()
                seen += 1
                for c in children[v]:
                    indeg[c] -= 1
                    if indeg[c] == 0:
                        queue.append(c)
            assert seen == len(s.nodes), (spec, s.edges)

    def test_respects_max_parents(self):
        rng = np.random.default_rng(55)
        net = random_binary_net(rng, 6, arc_prob=0.8)
        data = forward_sample(net, 3000, seed=9)
        s = greedy_learn(data, max_parents=2)
        indeg = {v: 0 for v in s.nodes}
        for _, c in s.edges:
            indeg[c] += 1
        assert max(indeg.values()) <= 2

    def test_negative_max_parents(self, chain_data):
        with pytest.raises(InvalidInput, match="max_parents must be >= 0, got -1"):
            greedy_learn(chain_data, max_parents=-1)


class TestLearnStructure:
    def test_greedy_dispatch(self, chain_data):
        config = LearnerConfig(learner="greedy")
        direct = greedy_learn(chain_data, max_parents=config.max_parents,
                              ess=config.ess)
        via = learn_structure(chain_data, None, config)
        assert via.edges == direct.edges

    # every setting off its default, so a dropped or swapped one shows
    MODELAVG = LearnerConfig(learner="modelavg", max_parents=1, ess=5.0, t_avg=0.4)

    def test_modelavg_dispatch(self, chain_data):
        via = learn_structure(chain_data, None, self.MODELAVG)
        direct = threshold_edges(exact_order_average(chain_data, max_parents=1,
                                                     ess=5.0), 0.4)
        assert via == direct

    def test_modelavg_window_above_the_exact_limit_rejected(self):
        m = EXACT_MAX_NODES + 1
        data = make_data(np.random.default_rng(58).integers(0, 2, size=(20, m)), [2] * m)
        with pytest.raises(InvalidInput, match=f"limited to {EXACT_MAX_NODES} nodes"):
            learn_structure(data, tuple(range(m)), self.MODELAVG)

    def test_modelavg_passes_the_config_to_the_dp(self, monkeypatch):
        m = EXACT_MAX_NODES
        rng = np.random.default_rng(58)
        data = make_data(rng.integers(0, 2, size=(20, m)), [2] * m)
        signature = inspect.signature(exact_order_average)
        calls = []

        def spy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append(bound.arguments)
            post = np.zeros((m, m))
            post[0, 1] = 0.45  # kept at t_avg 0.4, dropped at 0.5
            return EdgePosterior(tuple(range(m)), post)

        monkeypatch.setattr(av, "exact_order_average", spy)
        for nodes in (tuple(range(m)), None):
            got = learn_structure(data, nodes, self.MODELAVG)
            assert got.edges == ((0, 1),)
        assert len(calls) == 2
        for got, nodes in zip(calls, (tuple(range(m)), None)):
            assert got["data"] is data
            assert got["nodes"] == nodes
            assert (got["max_parents"], got["ess"]) == (1, 5.0)

    def test_invalid_learner_rejected(self):
        with pytest.raises(InvalidInput):
            LearnerConfig(learner="magic")

    @pytest.mark.parametrize("field, value, rule", [
        ("max_parents", -2, ">= 0"), ("ess", 0.0, "> 0"), ("ess", math.nan, "> 0"),
        ("ess", math.inf, "finite"),
        ("t_avg", 1.5, "in \\[0, 1\\]"), ("t_avg", math.nan, "in \\[0, 1\\]"),
        ("max_parents", 1.5, "an integer"), ("max_parents", True, "an integer"),
        ("ess", "10", "a real number"), ("t_avg", True, "a real number"),
    ])
    def test_out_of_range_setting_rejected(self, field, value, rule):
        with pytest.raises(InvalidInput, match=f"{field} must be {rule}, got {value!r}"):
            LearnerConfig(**{field: value})


class TestLocalStructure:
    def test_nodes_sorted_and_edges_validated(self):
        s = LocalStructure((3, 1, 2), ((1, 2),), {(1, 2): 0.5})
        assert s.nodes == (1, 2, 3)
        with pytest.raises(InvalidInput):
            LocalStructure((1, 2), ((1, 5),), {})
        with pytest.raises(InvalidInput):
            LocalStructure((1, 2), ((1, 2), (1, 2)), {})

    def test_support_is_keyed_by_the_stored_edges(self):
        s = LocalStructure((0, 1, 2), ((np.int64(2), 1), (0, 1)),
                           {(0, 1): 0.5, (2, 1): 0.25})
        assert s.support == {(0, 1): 0.5, (2, 1): 0.25}
        assert all(any(k is e for e in s.edges) for k in s.support)
        assert LocalStructure((0, 1), ((0, 1),), {}).support == {}

    def test_plain_int_edge_tuples_are_kept_as_they_are(self):
        edges = ((2, 1), (0, 1))
        s = LocalStructure((0, 1, 2), edges, {edges[0]: 0.5})
        assert s.edges[0] is edges[1] and s.edges[1] is edges[0]
        assert next(iter(s.support)) is edges[0]

    @pytest.mark.parametrize("edge, want", [
        ([np.int64(0), np.int64(1)], (0, 1)),
        ((np.int64(1), 0), (1, 0))])
    def test_other_edges_become_plain_int_tuples(self, edge, want):
        (e,) = LocalStructure((0, 1), (edge,)).edges
        assert e == want
        assert type(e) is tuple and all(type(v) is int for v in e)

    # a bool or a float endpoint used to be truncated to a node
    @pytest.mark.parametrize("edge, message", [
        ((True, False), "^edge endpoint must be an integer, got True$"),
        ((0, 1.0), "^edge endpoint must be an integer, got 1.0$")], ids=["bool", "float"])
    def test_edges_that_are_not_integers_rejected(self, edge, message):
        with pytest.raises(InvalidInput, match=message):
            LocalStructure((0, 1), (edge,))

    def test_support_outside_the_edges_rejected(self):
        with pytest.raises(InvalidInput):
            LocalStructure((0, 1, 2), ((0, 1),), {(0, 1): 0.5, (1, 2): 0.5})
        with pytest.raises(InvalidInput):
            LocalStructure((0, 1), ((0, 1),), {(1, 0): 0.5})

    def test_empty_node_set_rejected(self):
        with pytest.raises(InvalidInput, match="nonempty node set"):
            LocalStructure((), (), {})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -0.25, 1.5])
    def test_support_outside_the_unit_interval_rejected(self, value):
        with pytest.raises(InvalidInput, match=r"support of \(0, 1\) must lie in \[0, 1\]"):
            LocalStructure((0, 1), ((0, 1),), {(0, 1): value})

    def test_skeleton(self):
        s = LocalStructure((0, 1, 2), ((0, 1), (2, 1)), {})
        assert s.skeleton() == {frozenset({0, 1}), frozenset({1, 2})}

    def test_file_round_trip(self, tmp_path):
        s = LocalStructure((0, 1, 4), ((0, 1), (4, 1)),
                           {(0, 1): 0.75, (4, 1): 1.0})
        path = tmp_path / "s.edges"
        save_structure(s, path)
        back = load_structure(path)
        assert back.nodes == s.nodes
        assert back.edges == s.edges

    @pytest.mark.parametrize("text, line", [
        ("# nodes 0 1 2\n0 1\n", 2),
        ("# nodes 0 1 2\n0 -> 1\n1 <- 2\n", 3),
        ("# nodes 0 x\n", 1),
        ("0 -> one\n", 1)])
    def test_malformed_file_names_the_line(self, tmp_path, text, line):
        path = tmp_path / "bad.edges"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(InvalidInput, match=f"line {line}:"):
            load_structure(path)


class TestEdgePosterior:
    def test_rounding_noise_clipped(self):
        mat = np.array([[0.0, 1.0 + 5e-13], [-5e-13, 0.0]])
        post = EdgePosterior((0, 1), mat)
        assert post.matrix[0, 1] == 1.0
        assert post.matrix[1, 0] == 0.0
        assert not post.matrix.flags.writeable

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInput, match="zero diagonal"):
            EdgePosterior((0, 1), np.array([[0.0, 1.5], [0.0, 0.0]]))
        with pytest.raises(InvalidInput, match="zero diagonal"):
            EdgePosterior((0, 1), np.array([[0.3, 0.0], [0.0, 0.0]]))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, value):
        with pytest.raises(InvalidInput, match="in \\[0, 1\\]"):
            EdgePosterior((0, 1), np.array([[0.0, value], [0.0, 0.0]]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput, match="matrix"):
            EdgePosterior((0, 1, 2), np.zeros((2, 2)))
