"""Markov blanket discovery and blanket-bounded sub-community sampling.

Blankets come from IAMB: grow a candidate blanket by repeatedly admitting
the variable with the highest conditional mutual information given the
current blanket, as long as a G-test rejects conditional independence,
then shrink by re-testing each member against the rest.  The IAMB runs of
one community share one :meth:`~bnsl.data.DiscreteDataset.distinct` view
of the community and its candidates, so each CI test counts the few
distinct rows of those columns rather than every sample, with the same
result to the last bit.  Every CMI reads its entropies from the dataset's
memo, one lookup each, so an entropy that the searches of several
communities need is computed once per dataset; a miss is filled from the
one table the CMI counts, without re-checking it.  A CMI of more than
``MAX_CMI_CELLS`` cells is refused.  Learning windows ("sub-communities")
are sampled by walking an inner markov graph and padding each core with
the blankets of its members, which is what lets a community be learned in
isolation from the rest of the network.  Every window lies inside the
community and its blankets, so :func:`community_blanket` returns the view
it searched on, and the pipeline learns the community's windows on it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .data import DiscreteDataset, DistinctRows, ordered_sum
from .errors import ConditioningSetTooLarge, InvalidInput, check_nodes, check_number
from .special import chi2_sf_below
from .weights import WeightedGraph, _entropy

MAX_CMI_CELLS = 2 ** 22


def mb_candidates(g: WeightedGraph, x: int) -> frozenset[int]:
    """Neighbors of x whose edge weight is at least x's mean incident weight,
    added left to right in ascending neighbour order."""
    adj = g.adjacency(x)
    if not adj:
        return frozenset()
    mean = ordered_sum(adj[v] for v in sorted(adj)) / len(adj)
    return frozenset(v for v, w in adj.items() if w >= mean)


def conditional_mutual_information(data: DiscreteDataset, x: int, y: int,
                                   z: Sequence[int] = ()) -> float:
    """CMI(X; Y | Z) in nats, as H(ZX) + H(ZY) - H(ZXY) - H(Z), Z sorted.

    The four entropies come from the dataset's memo, shared by its views
    (see :mod:`bnsl.data`), under ``"entropy"``.  Each is keyed by the
    ordered column tuple of its table, such as ``z + (x,)``, never by a set,
    because the order of the cells fixes the order of summation.  On any
    miss the (Z, X, Y) table is counted once and only the missing entries
    are filled from it and its marginals, so every value equals the one
    computed without the memo.  Every input check, ``MAX_CMI_CELLS`` too,
    runs before the memo is read.
    """
    if data.n_rows == 0:
        raise InvalidInput("dataset is empty")
    x, y, *z = check_nodes("column index", (x, y, *z), len(data.cardinalities))
    z = tuple(sorted(set(z)))
    if x == y or x in z or y in z:
        raise InvalidInput("x, y and z must be disjoint")
    cards = data.cardinalities
    cells = math.prod(cards[v] for v in z + (x, y))
    if cells > MAX_CMI_CELLS:
        raise ConditioningSetTooLarge(
            f"CMI({x}; {y} | {z}) needs {cells} count cells")
    memo = data.memo.setdefault("entropy", {})
    keys = (z + (x,), z + (y,), z + (x, y), z)
    hs = [memo.get(k) for k in keys]
    if None in hs:
        t = data.counts(keys[2]).reshape(-1, cards[x], cards[y])
        for k, (key, axes) in enumerate(zip(keys, (2, 1, (), (1, 2)))):
            if hs[k] is None:
                hs[k] = memo[key] = _entropy(t.sum(axis=axes), data.n_rows)
    h = hs[0] + hs[1] - hs[2] - hs[3]
    return max(float(h), 0.0)


def g_test(data: DiscreteDataset, x: int, y: int,
           z: Sequence[int] = ()) -> tuple[float, int, float]:
    """G statistic, degrees of freedom and p-value for X vs Y given Z; the
    p-value is ``scipy.special.chdtrc``'s, imported here so that importing
    bnsl does not load scipy."""
    from scipy.special import chdtrc  # chi2.sf without importing scipy.stats

    z = tuple(sorted(set(check_nodes("column index", z))))
    g, df = _g_of_cmi(data, x, y, z, conditional_mutual_information(data, x, y, z))
    return g, df, float(chdtrc(df, g))


def _g_of_cmi(data: DiscreteDataset, x: int, y: int, z: Sequence[int],
              cmi: float) -> tuple[float, int]:
    """G statistic and degrees of freedom of X vs Y given Z from
    CMI(X; Y | Z), already computed."""
    cards = data.cardinalities
    return (2.0 * data.n_rows * cmi,
            (cards[x] - 1) * (cards[y] - 1) * math.prod(cards[v] for v in z))


def _dependent(data: DiscreteDataset, x: int, y: int, z: Sequence[int],
               cmi: float, alpha: float) -> bool:
    """Whether the G-test of X vs Y given Z, from CMI(X; Y | Z), rejects
    independence at ``alpha``: the decision of ``g_test``'s p-value < alpha."""
    g, df = _g_of_cmi(data, x, y, z, cmi)
    return chi2_sf_below(df, g, alpha)


def iamb(data: DiscreteDataset, x: int, candidates: Sequence[int],
         alpha: float = 0.05) -> frozenset[int]:
    """IAMB Markov blanket of x within the given candidate set.

    Forward phase: admit the candidate maximizing CMI(x; c | blanket)
    (ties to the smallest index) while the G-test rejects independence at
    ``alpha``; stop the first time the best candidate fails.  The test
    reuses the CMI that chose the candidate.  Backward phase: drop any
    member that tests independent given the others.  Each test decides
    as ``g_test``'s p-value would, without importing scipy
    (:func:`bnsl.special.chi2_sf_below`).
    """
    if not (0 < alpha < 1):
        raise InvalidInput("alpha must be in (0, 1)")
    x, *cand = check_nodes("column index", (x, *candidates), len(data.cardinalities))
    cand = sorted(set(cand) - {x})
    cmb: list[int] = []
    while True:
        rest = [c for c in cand if c not in cmb]
        if not rest:
            break
        cmi = [conditional_mutual_information(data, x, c, cmb) for c in rest]
        k = max(range(len(rest)), key=cmi.__getitem__)  # the first of ties
        best = rest[k]
        if _dependent(data, x, best, cmb, cmi[k], alpha):
            cmb.append(best)
        else:
            break
    for y in sorted(cmb):
        others = [c for c in cmb if c != y]
        if not _dependent(data, x, y, others,
                          conditional_mutual_information(data, x, y, others), alpha):
            cmb.remove(y)
    return frozenset(cmb)


@dataclass(frozen=True)
class BlanketResult:
    """Per-member blankets of one community and the blanket-expanded set.

    ``rows`` is the view the searches counted on, which holds every column
    of ``expanded``; it is not compared."""

    community: tuple[int, ...]
    blankets: dict[int, frozenset[int]]
    expanded: tuple[int, ...]
    rows: DistinctRows = field(repr=False, compare=False)


def community_blanket(data: DiscreteDataset, g: WeightedGraph,
                      community: Sequence[int], alpha: float = 0.05) -> BlanketResult:
    """IAMB blanket of every community member, searched over the member's
    weight-graph candidates plus the rest of the community.  Every search
    counts on the distinct rows of the community and all its candidates,
    which the result keeps as ``rows``."""
    comm = tuple(sorted(set(check_nodes("node", community, data.n_vars))))
    if not comm:
        raise InvalidInput("empty community")
    cands = {x: (set(mb_candidates(g, x)) | set(comm)) - {x} for x in comm}
    rows = data.distinct(sorted(set(comm).union(*cands.values())))
    blankets = {x: iamb(rows, x, cands[x], alpha) for x in comm}
    expanded = set(comm)
    for b in blankets.values():
        expanded |= b
    return BlanketResult(comm, blankets, tuple(sorted(expanded)), rows)


def inner_markov_graph(community: Sequence[int],
                       blankets: Mapping[int, frozenset[int]]) -> dict[int, set[int]]:
    """Adjacency on the community: x ~ y iff either is in the other's blanket."""
    comm = sorted(set(check_nodes("node", community)))
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
    check_number("max_learn_size", max_learn_size, least=1)
    check_number("seed", seed, least=0)
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
