"""Shared fixtures: small hand-built networks and sampled datasets."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from bnsl.data import GroundTruthNet, forward_sample

REPO_ROOT = Path(__file__).resolve().parent.parent
NETWORKS_DIR = REPO_ROOT / "networks"


def chain3(strength: float = 0.85) -> GroundTruthNet:
    """Binary chain a -> b -> c with symmetric copy noise."""
    s, w = strength, 1.0 - strength
    return GroundTruthNet(
        names=["a", "b", "c"],
        states=[("s0", "s1")] * 3,
        arcs=((0, 1), (1, 2)),
        cpts=[
            np.array([[0.55, 0.45]]),
            np.array([[s, w], [w, s]]),
            np.array([[s, w], [w, s]]),
        ],
    )


def collider3(strength: float = 0.9) -> GroundTruthNet:
    """Binary collider a -> c <- b (an OR gate with noise)."""
    s, w = strength, 1.0 - strength
    return GroundTruthNet(
        names=["a", "b", "c"],
        states=[("s0", "s1")] * 3,
        arcs=((0, 2), (1, 2)),
        cpts=[
            np.array([[0.5, 0.5]]),
            np.array([[0.5, 0.5]]),
            np.array([[s, w], [w, s], [w, s], [w, s]]),
        ],
    )


def random_binary_net(rng: np.random.Generator, n_vars: int,
                      arc_prob: float = 0.5, max_parents: int = 3,
                      sharp: bool = False) -> GroundTruthNet:
    """A random binary DAG over a shuffled variable order.

    With ``sharp`` the conditional rows put 0.9 on a dominant state that
    follows an AND/OR gate of the parents, giving strong blankets; without
    it, rows are moderate Dirichlet draws.
    """
    order = rng.permutation(n_vars)
    arcs = []
    parents: dict[int, list[int]] = {i: [] for i in range(n_vars)}
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            p, c = int(order[i]), int(order[j])
            if len(parents[c]) < max_parents and rng.random() < arc_prob:
                arcs.append((p, c))
                parents[c].append(p)
    cpts = []
    for v in range(n_vars):
        pa = sorted(parents[v])
        q = 2 ** len(pa)
        if not pa:
            p1 = rng.uniform(0.3, 0.7)
            cpts.append(np.array([[1.0 - p1, p1]]))
        elif sharp:
            gate_and = rng.random() < 0.5
            rows = np.empty((q, 2))
            for cfg in range(q):
                bits = [(cfg >> (len(pa) - 1 - k)) & 1 for k in range(len(pa))]
                hot = all(bits) if gate_and else any(bits)
                rows[cfg] = [0.1, 0.9] if hot else [0.9, 0.1]
            cpts.append(rows)
        else:
            rows = rng.dirichlet((1.5, 1.5), size=q)
            cpts.append(0.9 * rows + 0.05)
    states = [("s0", "s1")] * n_vars
    names = [f"v{k}" for k in range(n_vars)]
    return GroundTruthNet(names=names, states=states, arcs=tuple(sorted(arcs)),
                          cpts=cpts)


# (rng seed, variables, arc probability, sample seed) of dense networks,
# which give a greedy search many reversals that its cycle test must refuse
DENSE_NETS = [(54, 6, 0.5, 8), (61, 8, 0.7, 9), (62, 9, 0.9, 10), (63, 10, 0.4, 11)]


def dense_data(net_seed: int, n_vars: int, arc_prob: float, seed: int):
    """2000 samples of the ``DENSE_NETS`` network of these settings."""
    net = random_binary_net(np.random.default_rng(net_seed), n_vars, arc_prob=arc_prob)
    return forward_sample(net, 2000, seed=seed)


@pytest.fixture(scope="session")
def chain_net():
    return chain3()


@pytest.fixture(scope="session")
def chain_data(chain_net):
    return forward_sample(chain_net, 5000, seed=7)
