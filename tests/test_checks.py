"""Every public function that takes a node index or a count checks it the
same way: a bool, a float or a string raises ``InvalidInput`` (they used to
be truncated to an int, or to fail inside numpy), and a numpy integer gives
what the plain int gives."""

import re

import numpy as np
import pytest

from bnsl import (DiscreteDataset, EdgePosterior, GroundTruthNet, LocalStructure,
                  Partition, ScoreCache, WeightedGraph, bdeu_family_score,
                  community_blanket, conditional_mutual_information,
                  consensus_partition, discretize, forward_sample, g_test, iamb,
                  inner_markov_graph, load_network, mutual_information, order_mcmc,
                  rnn_sample)
from bnsl.errors import InvalidInput, check_nodes
from bnsl.pipeline import structure_from_dict

from conftest import NETWORKS_DIR

NET = load_network(NETWORKS_DIR / "fivehub.net")
DATA = forward_sample(NET, 200, seed=0)  # 9 columns
TABLE = np.random.default_rng(0).normal(size=(20, 2))
IMG = {0: {1}, 1: {0}, 2: set()}
CPTS = [np.full((1, 2), 0.5), np.full((2, 2), 0.5)]  # a -> b

# (name in the message, a valid plain int, the call of the site on v)
SITES = {
    "mutual_information": ("column index", 1, lambda v: mutual_information(DATA, v, 0)),
    "cmi": ("column index", 2,
            lambda v: conditional_mutual_information(DATA, 0, 1, (v,))),
    "bdeu_family_score": ("column index", 2, lambda v: bdeu_family_score(DATA, 0, (v,))),
    "g_test": ("column index", 2, lambda v: g_test(DATA, 0, 1, (v,))),
    "iamb_x": ("column index", 1, lambda v: iamb(DATA, v, [0, 2])),
    "iamb_candidates": ("column index", 1, lambda v: iamb(DATA, 0, [v, 2])),
    "community_blanket": ("node", 1,
                          lambda v: community_blanket(DATA, WeightedGraph(9), [0, v])),
    "inner_markov_graph": ("node", 1, lambda v: inner_markov_graph([0, v], {0: {1}})),
    "distinct": ("column index", 2, lambda v: DATA.distinct([v, 0]).counts((0, 2)).tolist()),
    "select": ("column index", 2, lambda v: DATA.select([v, 0]).samples.tolist()),
    "score_cache": ("node", 2, lambda v: ScoreCache(DATA, nodes=(0, v)).nodes),
    "edge_posterior": ("node", 1, lambda v: EdgePosterior((0, v), np.zeros((2, 2))).nodes),
    "local_structure": ("node", 1, lambda v: LocalStructure((0, v), ((0, 1),))),
    "local_structure_edge": ("edge endpoint", 1,
                             lambda v: LocalStructure((0, 1), ((0, v),)).edges),
    "partition": ("node", 1, lambda v: Partition(2, ((0, v),))),
    "structure_from_dict": ("node", 1,
                            lambda v: structure_from_dict({"nodes": [0, v], "edges": []})),
    "structure_from_dict_edge": ("edge endpoint", 1, lambda v: structure_from_dict(
        {"nodes": [0, 1], "edges": [[0, v]]})),
    "forward_sample_n": ("n", 5, lambda v: forward_sample(NET, v, 0).samples.tolist()),
    "forward_sample_seed": ("seed", 1, lambda v: forward_sample(NET, 5, v).samples.tolist()),
    "discretize": ("bins", 2, lambda v: discretize(TABLE, v).samples.tolist()),
    "rnn_sample": ("max_learn_size", 2, lambda v: rnn_sample(IMG, {}, max_learn_size=v)),
    "rnn_sample_seed": ("seed", 1, lambda v: rnn_sample(IMG, {}, seed=v)),
    "ground_truth_net": ("arc endpoint", 1, lambda v: GroundTruthNet(
        ("a", "b"), (("x", "y"),) * 2, ((0, v),), CPTS).arcs),
    "dataset_cardinality": ("cardinality", 3, lambda v: DiscreteDataset(
        ("a", "b"), (v, 3), [[2, 0], [0, 2]]).cardinalities),
    "consensus_partition": ("max_comm", 4, lambda v: consensus_partition(DATA, max_comm=v)),
    "weighted_graph": ("n", 2, lambda v: WeightedGraph(v).n),
    "partition_n": ("n", 1, lambda v: Partition(v, ((0,),))),
    "order_mcmc": ("T", 2, lambda v: order_mcmc(DATA, T=v, nodes=(0, 1)).matrix.tolist()),
}


@pytest.mark.parametrize("site", SITES)
@pytest.mark.parametrize("bad", [0.5, True, "1"], ids=["float", "bool", "text"])
def test_site_rejects_what_is_not_an_integer(site, bad):
    name, _, call = SITES[site]
    message = f"{name} must be an integer, got {bad!r}"
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize("site", SITES)
def test_site_takes_a_numpy_integer_as_the_plain_int(site):
    _, good, call = SITES[site]
    assert call(np.int64(good)) == call(good)


@pytest.mark.parametrize("site, value, message", [
    ("mutual_information", 9, "column index 9 outside 0..8"),
    ("cmi", -1, "column index -1 outside 0..8"),
    ("bdeu_family_score", 9, "column index 9 outside 0..8"),
    ("iamb_candidates", 9, "column index 9 outside 0..8"),
    ("community_blanket", 9, "node 9 outside 0..8"),
    ("distinct", 9, "column index 9 outside 0..8"),
    ("select", -1, "column index -1 outside 0..8"),  # no longer the last column
    ("partition", 2, "node 2 outside 0..1"),
    ("forward_sample_n", -1, "n must be >= 0, got -1"),
    ("forward_sample_seed", -1, "seed must be >= 0, got -1"),
    ("discretize", 1, "bins must be >= 2, got 1"),
    ("rnn_sample", 0, "max_learn_size must be >= 1, got 0"),
    ("rnn_sample_seed", -1, "seed must be >= 0, got -1"),
    ("ground_truth_net", 2, "arc endpoint 2 outside 0..1"),
    ("weighted_graph", -1, "n must be >= 0, got -1"),
    ("order_mcmc", 0, "T must be >= 1, got 0")])
def test_site_rejects_an_index_out_of_range_or_a_count_too_small(site, value, message):
    with pytest.raises(InvalidInput, match=f"^{re.escape(message)}$"):
        SITES[site][2](value)


def test_check_nodes_returns_plain_ints():
    got = check_nodes("node", [np.int64(3), 0, np.uint8(2)], 4)
    assert got == (3, 0, 2) and all(type(v) is int for v in got)
    assert check_nodes("node", iter([5, 7])) == (5, 7)  # no range without n
