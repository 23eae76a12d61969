"""Overlapping community detection and second-order consensus partitions.

Communities are found by clustering *edges*: edges sharing a node are
agglomerated by single linkage on the Tanimoto similarity of their outer
endpoints' weighted inclusive neighborhoods, the dendrogram is cut at the
level of maximum average partition density, and each edge cluster projects
to the union of its endpoints.  A node then belongs to every community one
of its edges landed in, which is what makes the partitions overlapping.

A consensus partition re-runs this under several weight functions and
stacks every community of every partition as one row of a 0/1 membership
matrix M.  Node v's partition support matrix is the rows of M that hold v,
so the share of them that also hold u is ``(M^T M)[v, u] / (M^T M)[v, v]``.
Node pairs whose symmetrized co-occurrence clears a threshold are linked,
and that second-order network is clustered the same way.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DiscreteDataset, ordered_sum, reading
from .errors import InvalidInput
from .weights import (WEIGHT_FUNCTIONS, PairStats, WeightedGraph, elbow_truncate,
                      pair_stats, weight_matrix)


@dataclass(frozen=True)
class Partition:
    """Overlapping communities over nodes ``0..n-1``; order is preserved."""

    n: int
    communities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise InvalidInput(f"n must be >= 0, got {self.n!r}")
        comms = tuple(tuple(sorted(set(int(x) for x in c))) for c in self.communities)
        object.__setattr__(self, "communities", comms)
        seen = set()
        covered = set()
        for c in comms:
            if not c:
                raise InvalidInput("empty community")
            if c[0] < 0 or c[-1] >= self.n:
                raise InvalidInput(f"community {c} outside 0..{self.n - 1}")
            if c in seen:
                raise InvalidInput(f"duplicate community {c}")
            seen.add(c)
            covered.update(c)
        if covered != set(range(self.n)):
            raise InvalidInput("communities must cover every node")

    def sizes(self) -> list[int]:
        return [len(c) for c in self.communities]

    def communities_of(self, v: int) -> list[int]:
        return [k for k, c in enumerate(self.communities) if v in c]


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _tanimoto(a: dict[int, float], b: dict[int, float], na: float, nb: float) -> float:
    """Tanimoto similarity of two vectors given their squared norms."""
    dot = ordered_sum(w * b[k] for k, w in a.items() if k in b)
    den = na + nb - dot
    return dot / den if den > 0 else 0.0


def _inclusive_vectors(g: WeightedGraph) -> tuple[dict[int, dict[int, float]],
                                                   dict[int, float]]:
    """Each non-isolated node's weighted inclusive neighborhood (its own
    entry is its mean incident weight) and that vector's squared norm."""
    incl: dict[int, dict[int, float]] = {}
    for v in range(g.n):
        adj = g.adjacency(v)
        if adj:
            vec = dict(adj)
            vec[v] = ordered_sum(adj.values()) / len(adj)
            incl[v] = vec
    norm2 = {v: ordered_sum(w * w for w in vec.values()) for v, vec in incl.items()}
    return incl, norm2


def link_communities(g: WeightedGraph) -> Partition:
    """Edge clustering cut at maximum partition density.

    Deterministic: edges are taken in lexicographic order and similarity
    ties resolve the same way.  Isolated nodes come back as singleton
    communities; an edgeless graph is all singletons.
    """
    edges = g.edges()
    m = len(edges)
    isolated = [v for v in range(g.n) if g.degree(v) == 0]

    incl, norm2 = _inclusive_vectors(g)

    eindex = {e: k for k, e in enumerate(edges)}
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(g.n)}
    for e in edges:
        incident[e[0]].append(e)
        incident[e[1]].append(e)

    # edge pairs sharing node k are scored by their outer endpoints (u, v);
    # incident[k] lists those in ascending order, so u < v and the similarity
    # of each pair is computed once, always with the same argument order
    sims = []
    memo: dict[tuple[int, int], float] = {}
    for k in range(g.n):
        inc = incident[k]
        for a in range(len(inc)):
            for b in range(a + 1, len(inc)):
                e1, e2 = inc[a], inc[b]
                u = e1[0] if e1[1] == k else e1[1]
                v = e2[0] if e2[1] == k else e2[1]
                s = memo.get((u, v))
                if s is None:
                    s = memo[(u, v)] = -_tanimoto(incl[u], incl[v], norm2[u], norm2[v])
                sims.append((s, e1, e2))
    sims.sort()

    # merge one level of equal similarity at a time and keep the densest cut.
    # terms holds each cluster's partition density term, keyed by its root;
    # a cluster of 2 nodes adds nothing and has none.  A merged cluster's
    # term moves to the end, so the terms are added in order of last merge
    # at every level.  The best level's clusters are rebuilt after the scan.
    uf = _UnionFind(m)
    n_edges = [1] * m
    nodes = [set(e) for e in edges]
    terms: dict[int, float] = {}
    best_density, best_end, end = 0.0, 0, 0
    for _, level in itertools.groupby(sims, key=lambda t: t[0]):
        for _, e1, e2 in level:
            end += 1
            ra, rb = uf.find(eindex[e1]), uf.find(eindex[e2])
            if uf.union(ra, rb):  # ra stays the root
                n_edges[ra] += n_edges[rb]
                nodes[ra] |= nodes[rb]
                terms.pop(ra, None)
                terms.pop(rb, None)
                mc, nc = n_edges[ra], len(nodes[ra])
                if nc > 2:
                    terms[ra] = mc * (mc - nc + 1) / ((nc - 2) * (nc - 1))
        d = 2.0 * ordered_sum(terms.values()) / m
        if d > best_density:
            best_density, best_end = d, end

    uf = _UnionFind(m)
    for _, e1, e2 in sims[:best_end]:
        uf.union(eindex[e1], eindex[e2])
    best: dict[int, set[int]] = {}
    for k, e in enumerate(edges):
        best.setdefault(uf.find(k), set()).update(e)
    comms = {tuple(sorted(s)) for s in best.values()}
    comms.update((v,) for v in isolated)
    return Partition(g.n, tuple(sorted(comms)))


def membership(partitions: Sequence[Partition]) -> np.ndarray:
    """The (R, n) 0/1 matrix with one row per community of every partition,
    in partition order and then community order.  Node v's partition
    support matrix is the rows that hold v."""
    if not partitions:
        raise InvalidInput("need at least one partition")
    n = partitions[0].n
    if any(p.n != n for p in partitions):
        raise InvalidInput("partitions must share one node universe")
    comms = [c for p in partitions for c in p.communities]
    m = np.zeros((len(comms), n), dtype=np.int64)
    for r, c in enumerate(comms):
        m[r, list(c)] = 1
    return m


def co_occurrence(partitions: Sequence[Partition]) -> np.ndarray:
    """The (n, n) matrix whose entry [v, u] is the fraction of v's
    membership rows that also contain u; the diagonal is 1."""
    # in float64, which BLAS multiplies; the counts of shared communities
    # are integers far below 2^53, so they come out exact
    m = membership(partitions).astype(np.float64)
    gram = m.T @ m
    return gram / np.diag(gram)[:, None]


def second_order_network(partitions: Sequence[Partition],
                         t_co: float = 0.5) -> WeightedGraph:
    """Symmetrized co-occurrence graph over all nodes.

    Edge weight is (c(u->v) + c(v->u)) / 2 where c(u->v) is u's
    co-occurrence fraction with v; pairs below ``t_co`` (or never
    co-grouped) are absent.
    """
    frac = co_occurrence(partitions)
    w = (frac + frac.T) / 2.0
    return WeightedGraph.from_matrix(w, (w > 0.0) & (w >= t_co))


def consensus_partition(source: DiscreteDataset | PairStats,
                        fns: Sequence[str] = WEIGHT_FUNCTIONS,
                        t_co: float = 0.5,
                        max_comm: int = 25) -> Partition:
    """Second-order consensus partition of the dataset's variables.

    ``source`` is a dataset or its :class:`~bnsl.weights.PairStats`; pass
    the stats to reuse MI already computed for other weight graphs.  One
    overlapping partition is built per weight function (all-pairs weights,
    elbow truncation, link communities); their agreement forms the
    second-order network, which is clustered the same way.  A community
    larger than ``max_comm`` gets its own consensus on its columns (a slice
    of the same stats), for at most three consensus levels in all.  One
    still too large at the third level, or one that its consensus leaves
    whole, is split by dropping the weakest edges of its MI subgraph until
    every part fits.  A constant (zero-entropy) variable shares information
    with nothing and gets its own singleton community; with fewer than two
    varying variables (an empty dataset has none) all are singletons.  A
    standardized weight function whose pair weights are all equal ranks
    nothing and is left out; if no function is left, the variables form
    one community.
    """
    if not fns:
        raise InvalidInput("need at least one weight function")
    if max_comm < 1:
        raise InvalidInput(f"max_comm must be >= 1, got {max_comm!r}")
    n = source.n_vars
    data = source.data if isinstance(source, PairStats) else source
    if data.n_rows == 0:
        return Partition(n, tuple((v,) for v in range(n)))
    stats = pair_stats(source)
    varying = [v for v in range(n) if stats.h[v] > 0]
    if len(varying) < 2:
        return Partition(n, tuple((v,) for v in range(n)))
    out = [(v,) for v in range(n) if v not in varying]
    out.extend(_capped_consensus(stats, varying, fns, t_co, max_comm, depth=2))
    return Partition(n, tuple(sorted(set(out))))


def _ranks_nothing(stats: PairStats, fn: str) -> bool:
    """A standardized weight function whose pair weights are all equal,
    which ``weight_matrix`` cannot standardize."""
    if not fn.endswith("_sn"):
        return False
    w = stats.pearson if fn == "Pearson_sn" else stats.mi
    return float(w[np.triu_indices(stats.n_vars, 1)].std()) == 0


def _consensus_once(stats: PairStats, fns: Sequence[str], t_co: float) -> Partition:
    partitions = [link_communities(elbow_truncate(weight_matrix(stats, fn)))
                  for fn in fns if not _ranks_nothing(stats, fn)]
    if not partitions:
        return Partition(stats.n_vars, (tuple(range(stats.n_vars)),))
    return link_communities(second_order_network(partitions, t_co))


def _capped_consensus(stats: PairStats, nodes: list[int], fns: Sequence[str],
                      t_co: float, max_comm: int, depth: int) -> list[tuple[int, ...]]:
    """Consensus communities of ``nodes`` (indices into ``stats``), each of
    at most ``max_comm`` nodes.  A larger one is re-partitioned with one
    less ``depth``; once the depth is spent, or when the consensus leaves
    the whole list as one community, it is tighten-split instead."""
    sub = stats if len(nodes) == stats.n_vars else stats.select(nodes)
    out: list[tuple[int, ...]] = []
    for c in _consensus_once(sub, fns, t_co).communities:
        part = [nodes[k] for k in c]
        if len(part) <= max_comm:
            out.append(tuple(part))
        elif depth > 0 and len(part) < len(nodes):
            out.extend(_capped_consensus(stats, part, fns, t_co, max_comm, depth - 1))
        else:
            out.extend(tuple(part[k] for k in t)
                       for t in _tighten_split(stats.select(part), max_comm))
    return out


def _tighten_split(sub: PairStats, max_comm: int) -> list[tuple[int, ...]]:
    """Split by dropping the weakest MI edges until every part fits."""
    g = WeightedGraph.from_matrix(weight_matrix(sub, "MI"))
    while True:
        part = link_communities(g)
        if all(len(c) <= max_comm for c in part.communities):
            return list(part.communities)
        ranked = sorted(g.edges(), key=lambda e: (g.weight(*e), e))
        drop = max(1, len(ranked) // 10)
        g = WeightedGraph(g.n, {e: g.weight(*e) for e in ranked[drop:]})


def save_partition(p: Partition, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {p.n}\n")
        for c in p.communities:
            fh.write(" ".join(str(v) for v in c) + "\n")


def load_partition(path) -> Partition:
    n = None
    comms = []
    with reading(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                if line.startswith("# nodes"):
                    n = int(line.split()[2])
                    if n < 0:
                        raise ValueError(n)
                    continue
                line = line.split("#", 1)[0].strip()
                if line:
                    comms.append(tuple(int(t) for t in line.split()))
            except (ValueError, IndexError) as e:
                raise InvalidInput(f"line {line_no}: expected '# nodes <n>' with "
                                   f"n >= 0 or node indices, got {line.strip()!r}") from e
        if n is None:
            n = 1 + max(v for c in comms for v in c) if comms else 0
        return Partition(n, tuple(comms))
