"""Float sums added first to last, whatever the Python version.

From Python 3.12 ``sum`` compensates float rounding, so ``sum([0.1] * 10)``
is 1.0 there and 0.9999999999999999 on 3.10 and 3.11.  Each library sum
below must give the plain left-to-right result.  Every case is chosen so
that the left-to-right and the correctly rounded (``math.fsum``) results
differ, so a compensated sum would fail it.
"""

import math

import numpy as np
import pytest

from bnsl.averaging import LocalStructure
from bnsl.blankets import mb_candidates
from bnsl.data import ordered_sum
from bnsl.merge import combine_structures
from bnsl.evaluate import partition_diagnostics
from bnsl.partition import Partition, _own_and_norm2, _similarities
from bnsl.weights import WeightedGraph


def left_to_right(values):
    total = 0.0
    for v in values:
        total += v
    return total


def star(n_leaves, w):
    """Node 0 joined to nodes 1..n_leaves, every edge of weight w."""
    return WeightedGraph(n_leaves + 1, {(0, k): w for k in range(1, n_leaves + 1)})


@pytest.mark.parametrize("values", [[0.1] * 10, [0.1] * 6, [0.1] * 15, [1e16, 1.0, -1e16]])
def test_ordered_sum(values):
    assert left_to_right(values) != math.fsum(values)
    assert ordered_sum(values) == left_to_right(values)
    assert ordered_sum(iter(values)) == left_to_right(values)


def test_ordered_sum_of_nothing_is_zero():
    assert ordered_sum([]) == 0.0


def test_tanimoto_dot():
    # nodes 0 and 1 share the neighbours 2, 3 and 4, whose dot terms are
    # 1e16, 1 and -1e16 in ascending key order; the edges are added in
    # another order
    big, one = 1e8, 1.0
    g = WeightedGraph(5, {(0, 4): -big * big, (0, 2): big, (0, 3): one / big,
                          (1, 3): big, (1, 2): big, (1, 4): one})
    u, v = [big, one / big, -big * big], [big, big, one]  # in ascending key order
    terms = [x * y for x, y in zip(u, v)]
    assert terms == [big * big, one, -big * big]
    dot = left_to_right(terms)
    assert dot == 0.0 != math.fsum(terms)  # 1.0, as is adding in the order added
    own = [left_to_right(u) / 3, left_to_right(v) / 3]
    na = left_to_right(w * w for w in u + own[:1])
    nb = left_to_right(w * w for w in v + own[1:])
    edges = g.edges()
    k1, k2, sim = _similarities(g, edges)
    across = [{edges[a][0], edges[b][0]} == {0, 1} for a, b in zip(k1, k2)]
    assert sum(across) == 3
    assert sim[across].tolist() == [dot / (na + nb - dot)] * 3


def test_inclusive_vector_mean_and_norm():
    a, b = np.array(star(6, 0.1).edges()).T
    own, norm2 = _own_and_norm2(a, b, np.full(6, 0.1))
    mean = left_to_right([0.1] * 6) / 6
    assert mean != math.fsum([0.1] * 6) / 6
    assert own.tolist() == [mean] + [0.1] * 6
    assert norm2[0] == left_to_right(w * w for w in [0.1] * 6 + [mean])
    assert norm2[1:].tolist() == [left_to_right([0.1 * 0.1, 0.1 * 0.1])] * 6


@pytest.mark.parametrize("n_leaves", [6, 15])
def test_blanket_candidate_mean(n_leaves):
    # all leaves or none clear the mean, and the two sums disagree on which
    mean = left_to_right([0.1] * n_leaves) / n_leaves
    assert (0.1 >= mean) != (0.1 >= math.fsum([0.1] * n_leaves) / n_leaves)
    want = frozenset(range(1, n_leaves + 1)) if 0.1 >= mean else frozenset()
    assert mb_candidates(star(n_leaves, 0.1), 0) == want


def test_combined_support_mean():
    structs = [LocalStructure((0, 1), ((0, 1),), {(0, 1): 0.1}) for _ in range(6)]
    mean = left_to_right([0.1] * 6) / 6
    assert mean != math.fsum([0.1] * 6) / 6
    assert combine_structures(structs).support[(0, 1)] == mean


def test_partition_diagnostics_average_path():
    # ten 3-node paths, each with average shortest path 4/3
    g = WeightedGraph(30, {(a + k, a + k + 1): 1.0 for a in range(0, 30, 3) for k in (0, 1)})
    p = Partition(30, tuple((a, a + 1, a + 2) for a in range(0, 30, 3)))
    paths = [4 / 3] * 10
    assert left_to_right(paths) != math.fsum(paths)
    got = partition_diagnostics(p, g)
    assert got["per_community_avg_path"] == paths
    assert got["avg_shortest_path"] == left_to_right(paths) / 10
