"""The contingency-table kernel and the count statistics that read it.

``DiscreteDataset.counts`` is checked against a brute-force count of row
tuples.  MI, CMI and BDeu are checked with exact ``==`` against the
per-caller encoders they replaced (see ``oracles.py``): the kernel must
produce the same codes, so every statistic keeps its last bit.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from bnsl.averaging import bdeu_family_score
from bnsl.blankets import conditional_mutual_information
from bnsl.data import DiscreteDataset, forward_sample, load_network
from bnsl.weights import mutual_information

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
