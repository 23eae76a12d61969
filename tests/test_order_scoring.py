"""Order scoring, order MCMC, the exact average and greedy search against
references.

The sampler walks each proposed order through the window's memo; it must
give exactly what a fresh full rescore gives, both taking the library's
``logsumexp``.  The subset dynamic program, which reads its parent-set
scores from the same ``ScoreCache.parent_sets``, must give what averaging
over every order gives, to 1e-9.  Greedy search, which checks its moves
against one ancestor map per round and keeps each child's toggled family
scores until a move changes that child, must learn exactly the edges of a
search that walks the graph and reads the score cache for every candidate
move, on generated windows and on every window that the greedy pipeline
learns on alarm, insurance and win95pts.
"""

from __future__ import annotations

import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bnsl.averaging as av
import bnsl.merge
import bnsl.pipeline
from bnsl.data import forward_sample, load_network
from bnsl.pipeline import PipelineConfig, run_pipeline

from conftest import DENSE_NETS, NETWORKS_DIR, dense_data, random_binary_net
from oracles import (exact_order_average_by_enumeration, greedy_learn_reference,
                     order_mcmc_reference)

SMALL = forward_sample(random_binary_net(np.random.default_rng(62), 7, arc_prob=0.5),
                       300, seed=12)
SMALL_CACHE = av.ScoreCache(SMALL)


def pipeline_windows(network: str, seed: int, learner: str = "modelavg") -> list[dict]:
    """``order_mcmc`` arguments for every window one pipeline run learns:
    the window and the run's scoring settings, with the sampler's default
    schedule and the window's index as its seed.  A modelavg run averages
    these windows exactly, so the test runs the sampler itself."""
    real = av.learn_structure
    sig = inspect.signature(real)
    windows = []

    def recording(*args, **kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        lc = a["config"]
        windows.append(dict(data=a["data"], max_parents=lc.max_parents, ess=lc.ess,
                            seed=len(windows), nodes=a["nodes"]))
        return real(*args, **kwargs)

    mp = pytest.MonkeyPatch()
    for module in (bnsl.pipeline, bnsl.merge):  # each holds its own reference
        mp.setattr(module, "learn_structure", recording)
    try:
        run_pipeline(PipelineConfig(network=str(NETWORKS_DIR / f"{network}.net"),
                                    n_samples=20000, seed=seed, learner=learner))
    finally:
        mp.undo()
    return windows


@pytest.mark.parametrize("network,seed,n_windows",
                         [("alarm", 0, 44), ("insurance", 0, 28)])
def test_pipeline_windows_match_full_rescoring(network, seed, n_windows):
    windows = pipeline_windows(network, seed)
    assert len(windows) == n_windows
    for args in windows:
        got = av.order_mcmc(**args)
        want = order_mcmc_reference(**args)
        assert got.nodes == want.nodes
        assert np.array_equal(got.matrix, want.matrix), args["nodes"]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_exact_average_matches_order_enumeration(data):
    window = data.draw(st.lists(st.integers(0, SMALL.n_vars - 1), min_size=2,
                                max_size=7, unique=True), label="window")
    max_parents = data.draw(st.integers(0, 3), label="max_parents")
    got = av.exact_order_average(SMALL, window, max_parents)
    want = exact_order_average_by_enumeration(SMALL, window, max_parents)
    assert got.nodes == want.nodes
    assert np.abs(got.matrix - want.matrix).max() <= 1e-9


def test_parent_sets_by_size_then_lexicographically(monkeypatch):
    cache = av.ScoreCache(SMALL, nodes=(5, 1, 3, 0))
    assert cache.nodes == (0, 1, 3, 5)
    sets, scores = cache.parent_sets(0, 0b1110, 2)
    assert sets == [(), (1,), (2,), (3,), (1, 2), (1, 3), (2, 3)]
    assert scores == [SMALL_CACHE.family_score(0, tuple(cache.nodes[k] for k in u))
                      for u in sets]
    monkeypatch.setattr(av, "SUBSET_BUDGET", 6)
    with pytest.raises(av.BudgetExceeded, match="child 0: 7 parent sets exceed"):
        cache.parent_sets(0, 0b1110, 2)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_batch_gives_the_per_family_scores(data):
    # the DP's batch of every family of a window, or any sublist of it in
    # any order and with repeats, on a memo that some families already fill
    window = data.draw(st.lists(st.integers(0, SMALL.n_vars - 1), min_size=1,
                                unique=True), label="window")
    max_parents = data.draw(st.integers(0, 3), label="max_parents")
    cache = av.ScoreCache(SMALL.select(range(SMALL.n_vars)), nodes=window)  # an empty memo
    nodes, full = cache.nodes, (1 << len(window)) - 1
    every = [(c, u) for c in range(len(nodes))
             for u in cache.listed_parent_sets(c, full ^ (1 << c), max_parents)]
    for c, u in data.draw(st.lists(st.sampled_from(every)), label="filled first"):
        cache.family_score(nodes[c], [nodes[k] for k in u])
    batch = data.draw(st.one_of(st.permutations(every), st.lists(st.sampled_from(every))),
                      label="batch")
    want = [av.bdeu_family_score(SMALL, nodes[c], [nodes[k] for k in u]) for c, u in batch]
    assert cache.scores(batch) == want
    assert cache.scores(batch) == want  # now every family is a hit


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_rescored_terms_equal_a_fresh_walk(data):
    window = data.draw(st.lists(st.integers(0, SMALL.n_vars - 1), min_size=2,
                                unique=True), label="window")
    max_parents = data.draw(st.integers(1, 3), label="max_parents")
    cache, memo = av.ScoreCache(SMALL, nodes=window), {}
    order = data.draw(st.permutations(range(len(window))), label="order")
    a, b = data.draw(st.lists(st.integers(0, len(window) - 1), min_size=2,
                              max_size=2, unique=True), label="swap")
    av._order_terms(cache, max_parents, order, memo)
    order[a], order[b] = order[b], order[a]
    # as the sampler walks a proposal, on a warm memo
    got = av._order_terms(cache, max_parents, order, memo)
    fresh = av._order_terms(av.ScoreCache(SMALL, nodes=window), max_parents, order, {})
    assert len(got) == len(fresh) == len(window)
    mask = 0
    for c, term, (logz, row) in zip(order, got, fresh):
        assert term is memo[c, mask]  # the memoized term itself
        assert term[0] == logz and np.array_equal(term[1], row)
        mask |= 1 << c
    total = 0.0
    for logz, _ in got:
        total += logz
    assert total == av.order_log_marginal(SMALL, [cache.nodes[k] for k in order],
                                          max_parents)


@settings(max_examples=40, deadline=None)
@given(window=st.lists(st.integers(0, SMALL.n_vars - 1), min_size=1, unique=True),
       T=st.integers(1, 12), burn_in=st.integers(0, 20), thin=st.integers(1, 4),
       max_parents=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1))
def test_order_mcmc_matches_full_rescoring(window, T, burn_in, thin, max_parents, seed):
    args = dict(T=T, burn_in=burn_in, thin=thin, max_parents=max_parents, seed=seed,
                nodes=window)
    got = av.order_mcmc(SMALL, **args)
    want = order_mcmc_reference(SMALL, **args)
    assert got.nodes == want.nodes
    assert np.array_equal(got.matrix, want.matrix)


GREEDY_DATA = [SMALL] + [dense_data(*spec) for spec in DENSE_NETS]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_greedy_matches_a_walk_per_move(data):
    dataset = GREEDY_DATA[data.draw(st.integers(0, len(GREEDY_DATA) - 1), label="dataset")]
    window = data.draw(st.none() | st.lists(st.integers(0, dataset.n_vars - 1),
                                            min_size=1, unique=True), label="window")
    max_parents = data.draw(st.integers(0, 3), label="max_parents")
    got = av.greedy_learn(dataset, window, max_parents)
    assert got.edges == greedy_learn_reference(dataset, window, max_parents)


@pytest.fixture(scope="module")
def alarm0():
    return forward_sample(load_network(NETWORKS_DIR / "alarm.net"), 20000, 0)


@pytest.mark.parametrize("network,n_windows,largest",
                         [("alarm", 46, 8), ("insurance", 28, 8), ("win95pts", 72, 11)])
def test_greedy_pipeline_windows_match_a_walk_per_move(network, n_windows, largest):
    # the windows of the greedy pipeline reach sizes that the generated ones do not
    windows = pipeline_windows(network, 0, learner="greedy")
    assert (len(windows), max(len(w["nodes"]) for w in windows)) == (n_windows, largest)
    for w in windows:
        args = (w["data"], w["nodes"], w["max_parents"], w["ess"])
        assert av.greedy_learn(*args).edges == greedy_learn_reference(*args), w["nodes"]


# Each call below once failed with "entries must lie in [0, 1]": a row sum
# of exp(score - log Z), or the normalized order weights, rounded up to
# about 1 + 2e-12.

def test_exact_average_of_an_alarm_window_is_accepted(alarm0):
    post = av.exact_order_average(alarm0, (15, 30, 31, 32))
    assert post.nodes == (15, 30, 31, 32)
    want = exact_order_average_by_enumeration(alarm0, (15, 30, 31, 32))
    assert np.abs(post.matrix - want.matrix).max() <= 1e-9


def test_order_posterior_row_never_exceeds_one(alarm0):
    # the row of child 34 given {12, 22} summed to 1 + 1.7e-12 for parent 12
    order = [22, 12, 34, 16, 28, 1, 15, 36, 2]
    post = av.feature_posterior_given_order(alarm0, order)
    pos = {v: k for k, v in enumerate(post.nodes)}
    assert post.matrix[pos[12], pos[34]] == 1.0


def test_order_mcmc_on_an_alarm_window_is_accepted(alarm0):
    nodes = (1, 2, 12, 15, 16, 22, 28, 34, 36)
    post = av.order_mcmc(alarm0, T=30, nodes=nodes, seed=7)
    assert post.nodes == nodes
