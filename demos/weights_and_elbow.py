"""Pairwise variable weights and the elbow cut that sparsifies them.

Every pair of variables gets a dependence weight; seven weight
functions are available, from raw mutual information to entropy and
PageRank normalized variants.  Each function gives a dense symmetric
matrix of pair weights.  The elbow cut sorts the weights, draws a chord
from the strongest to the weakest, and keeps the pairs at or above the
point farthest from that chord as a sparse weighted graph.
"""

from pathlib import Path

import numpy as np

from bnsl import (elbow_threshold, elbow_truncate, forward_sample, load_network,
                  weight_matrix)
from bnsl.weights import WEIGHT_FUNCTIONS

NETWORKS = Path(__file__).resolve().parents[1] / "networks"


def main():
    net = load_network(NETWORKS / "insurance.net")
    data = forward_sample(net, 10000, seed=1)
    upper = np.triu_indices(net.n_vars, 1)
    n_pairs = upper[0].size
    print(f"{net.n_vars} variables, {n_pairs} pairs")

    for fn in WEIGHT_FUNCTIONS:
        w = weight_matrix(data, fn)
        kept = elbow_truncate(w)
        flag = " (keeps every pair)" if kept.m == n_pairs else ""
        print(f"{fn:<12} threshold {elbow_threshold(w[upper]):.4f} keeps "
              f"{kept.m}/{n_pairs} pairs{flag}")

    kept = elbow_truncate(weight_matrix(data, "MI"))
    top = sorted(kept.edges(), key=lambda e: -kept.weight(*e))[:5]
    print("strongest retained pairs under MI:")
    for i, j in top:
        print(f"  {net.names[i]} -- {net.names[j]} ({kept.weight(i, j):.4f})")


if __name__ == "__main__":
    main()
