"""Markov blanket discovery and blanket-bounded sub-community sampling.

Blankets come from IAMB: grow a candidate blanket by repeatedly admitting
the variable with the highest conditional mutual information given the
current blanket, as long as a G-test rejects conditional independence,
then shrink by re-testing each member against the rest.  The IAMB runs of
one community share one :meth:`~bnsl.data.DiscreteDataset.distinct` view
of the community and its candidates, so each CI test counts the few
distinct rows of those columns rather than every sample, with the same
result to the last bit.  Every CMI reads its entropies from the dataset's
memo, so an entropy that the searches of several communities need is
computed once per dataset; a CMI of more than ``MAX_CMI_CELLS`` cells is
refused.  Learning windows ("sub-communities") are sampled by walking an
inner markov graph and padding each core with the blankets of its members,
which is what lets a community be learned in isolation from the rest of
the network.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy.special import chdtrc  # chi2.sf without importing scipy.stats

from .data import DiscreteDataset, check_columns, ordered_sum
from .errors import ConditioningSetTooLarge, InvalidInput
from .weights import WeightedGraph, entropy

MAX_CMI_CELLS = 2 ** 22


def mb_candidates(g: WeightedGraph, x: int) -> frozenset[int]:
    """Neighbors of x whose edge weight is at least x's mean incident weight."""
    adj = g.adjacency(x)
    if not adj:
        return frozenset()
    mean = ordered_sum(adj.values()) / len(adj)
    return frozenset(v for v, w in adj.items() if w >= mean)


def conditional_mutual_information(data: DiscreteDataset, x: int, y: int,
                                   z: Sequence[int] = ()) -> float:
    """CMI(X; Y | Z) in nats, as H(ZX) + H(ZY) - H(ZXY) - H(Z), Z sorted.

    The four entropies come from the entropy memo of one dataset, shared by
    its distinct-row views (see :mod:`bnsl.data`).  Each is keyed by the
    ordered column tuple of its table, such as ``z + (x,)``, never by a set,
    because the order of the cells fixes the order of summation.  On any
    miss the (Z, X, Y) table is counted once and only the missing entries
    are filled from it and its marginals, so every value equals the one
    computed without the memo.  A stand-in without a memo computes all four.
    Every input check, ``MAX_CMI_CELLS`` too, runs before the memo is read.
    """
    if data.n_rows == 0:
        raise InvalidInput("dataset is empty")
    z = tuple(sorted(set(int(v) for v in z)))
    check_columns(data, (x, y) + z)
    if x == y or x in z or y in z:
        raise InvalidInput("x, y and z must be disjoint")
    cards = data.cardinalities
    cells = math.prod(cards[v] for v in z + (x, y))
    if cells > MAX_CMI_CELLS:
        raise ConditioningSetTooLarge(
            f"CMI({x}; {y} | {z}) needs {cells} count cells")
    memo = getattr(data, "_entropies", {})
    keys = (z + (x,), z + (y,), z + (x, y), z)
    if any(k not in memo for k in keys):
        t = data.counts(keys[2]).reshape(-1, cards[x], cards[y])
        for k, axes in zip(keys, (2, 1, (), (1, 2))):
            if k not in memo:
                memo[k] = entropy(t.sum(axis=axes))
    h = memo[keys[0]] + memo[keys[1]] - memo[keys[2]] - memo[keys[3]]
    return max(float(h), 0.0)


def g_test(data: DiscreteDataset, x: int, y: int,
           z: Sequence[int] = ()) -> tuple[float, int, float]:
    """G statistic, degrees of freedom and p-value for X vs Y given Z."""
    z = tuple(sorted(set(int(v) for v in z)))
    return _g_of_cmi(data, x, y, z, conditional_mutual_information(data, x, y, z))


def _g_of_cmi(data: DiscreteDataset, x: int, y: int, z: Sequence[int],
              cmi: float) -> tuple[float, int, float]:
    """``g_test`` of X vs Y given Z from CMI(X; Y | Z), already computed."""
    g = 2.0 * data.n_rows * cmi
    cards = data.cardinalities
    df = (cards[x] - 1) * (cards[y] - 1) * math.prod(cards[v] for v in z)
    return g, df, float(chdtrc(df, g))


def iamb(data: DiscreteDataset, x: int, candidates: Sequence[int],
         alpha: float = 0.05) -> frozenset[int]:
    """IAMB Markov blanket of x within the given candidate set.

    Forward phase: admit the candidate maximizing CMI(x; c | blanket)
    (ties to the smallest index) while the G-test rejects independence at
    ``alpha``; stop the first time the best candidate fails.  The test
    reuses the CMI that chose the candidate.  Backward phase: drop any
    member that tests independent given the others.
    """
    if not (0 < alpha < 1):
        raise InvalidInput("alpha must be in (0, 1)")
    cand = sorted(set(int(c) for c in candidates) - {x})
    cmb: list[int] = []
    while True:
        rest = [c for c in cand if c not in cmb]
        if not rest:
            break
        cmi = [conditional_mutual_information(data, x, c, cmb) for c in rest]
        k = max(range(len(rest)), key=cmi.__getitem__)  # the first of ties
        best = rest[k]
        _, _, p = _g_of_cmi(data, x, best, cmb, cmi[k])
        if p < alpha:
            cmb.append(best)
        else:
            break
    for y in sorted(cmb):
        others = [c for c in cmb if c != y]
        _, _, p = g_test(data, x, y, others)
        if p >= alpha:
            cmb.remove(y)
    return frozenset(cmb)


@dataclass(frozen=True)
class BlanketResult:
    """Per-member blankets of one community and the blanket-expanded set."""

    community: tuple[int, ...]
    blankets: dict[int, frozenset[int]]
    expanded: tuple[int, ...]


def community_blanket(data: DiscreteDataset, g: WeightedGraph,
                      community: Sequence[int], alpha: float = 0.05) -> BlanketResult:
    """IAMB blanket of every community member, searched over the member's
    weight-graph candidates plus the rest of the community.  Every search
    counts on the distinct rows of the community and all its candidates."""
    comm = tuple(sorted(set(int(v) for v in community)))
    if not comm:
        raise InvalidInput("empty community")
    cands = {x: (set(mb_candidates(g, x)) | set(comm)) - {x} for x in comm}
    rows = data.distinct(sorted(set(comm).union(*cands.values())))
    blankets = {x: iamb(rows, x, cands[x], alpha) for x in comm}
    expanded = set(comm)
    for b in blankets.values():
        expanded |= b
    return BlanketResult(comm, blankets, tuple(sorted(expanded)))


def inner_markov_graph(community: Sequence[int],
                       blankets: Mapping[int, frozenset[int]]) -> dict[int, set[int]]:
    """Adjacency on the community: x ~ y iff either is in the other's blanket."""
    comm = sorted(set(int(v) for v in community))
    adj: dict[int, set[int]] = {v: set() for v in comm}
    for i, x in enumerate(comm):
        for y in comm[i + 1:]:
            if y in blankets.get(x, ()) or x in blankets.get(y, ()):
                adj[x].add(y)
                adj[y].add(x)
    return adj


@dataclass(frozen=True)
class SubCommunity:
    """A learning window: a sampled core plus the blankets of its members."""

    core: tuple[int, ...]
    members: tuple[int, ...]


def rnn_sample(img: Mapping[int, set[int]], blankets: Mapping[int, frozenset[int]],
               max_learn_size: int = 15, seed: int = 0) -> list[SubCommunity]:
    """Sample blanket-padded sub-communities until coverage and count.

    Each draw starts at a uniformly chosen unvisited node; the core is the
    start plus its inner-markov neighbors, members are the core plus every
    core member's blanket.  While the member set exceeds
    ``max_learn_size``, the non-start core node of smallest inner-markov
    degree leaves the core (ties to the smallest index); if the core alone
    still overflows, blanket members of smallest degree are dropped.
    Sampling stops once every node has appeared in some core *and* at
    least ceil(2 |C| / max_learn_size) draws were made.
    """
    nodes = sorted(img)
    if not nodes:
        raise InvalidInput("empty inner markov graph")
    if max_learn_size < 1:
        raise InvalidInput("max_learn_size must be >= 1")
    k = -(-2 * len(nodes) // max_learn_size)
    rng = np.random.default_rng(seed)
    visited: set[int] = set()
    out: list[SubCommunity] = []
    while len(visited) < len(nodes) or len(out) < k:
        pool = sorted(set(nodes) - visited) or nodes
        start = pool[int(rng.integers(len(pool)))]
        core = {start} | set(img[start])

        def expand(c: set[int]) -> set[int]:
            members = set(c)
            for v in c:
                members |= blankets.get(v, frozenset())
            return members

        members = expand(core)
        while len(members) > max_learn_size and len(core) > 1:
            victim = min((v for v in core if v != start),
                         key=lambda v: (len(img[v]), v))
            core.remove(victim)
            members = expand(core)
        if len(members) > max_learn_size:
            spare = sorted(members - core,
                           key=lambda v: (len(img.get(v, ())), v))
            members = core | set(spare[len(members) - max_learn_size:])
        visited |= core
        out.append(SubCommunity(tuple(sorted(core)), tuple(sorted(members))))
    return out
