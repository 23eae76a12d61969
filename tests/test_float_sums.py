"""Float sums added first to last, whatever the Python version.

From Python 3.12 ``sum`` compensates float rounding, so ``sum([0.1] * 10)``
is 1.0 there and 0.9999999999999999 on 3.10 and 3.11.  Each library sum
below must give the plain left-to-right result.  Every case is chosen so
that the left-to-right and the correctly rounded (``math.fsum``) results
differ, so a compensated sum would fail it.
"""

import math

import pytest

from bnsl.averaging import LocalStructure
from bnsl.blankets import mb_candidates
from bnsl.data import ordered_sum
from bnsl.merge import combine_structures
from bnsl.partition import _inclusive_vectors, _tanimoto
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
    a = {k: 0.1 for k in range(10)}
    b = {k: 1.0 for k in range(10)}
    dot = left_to_right([0.1] * 10)
    assert dot != math.fsum([0.1] * 10)
    assert _tanimoto(a, b, 1.0, 1.0) == dot / (2.0 - dot)


def test_inclusive_vector_mean_and_norm():
    incl, norm2 = _inclusive_vectors(star(6, 0.1))
    mean = left_to_right([0.1] * 6) / 6
    assert mean != math.fsum([0.1] * 6) / 6
    assert incl[0][0] == mean
    assert norm2[0] == left_to_right(w * w for w in incl[0].values())


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
