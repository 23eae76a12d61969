"""Overlapping community detection and second-order consensus partitions.

Communities are found by clustering *edges*: edges sharing a node are
agglomerated by single linkage on the Tanimoto similarity of their outer
endpoints' weighted inclusive neighborhoods, the dendrogram is cut at the
level of maximum average partition density, and each edge cluster projects
to the union of its endpoints.  A node then belongs to every community one
of its edges landed in, which is what makes the partitions overlapping.

A node's inclusive vector lists its neighbours in ascending order, then
the node itself with its mean edge weight, so a graph's communities depend
on its weighted edges alone.  A call scores every pair of edges that share
a node with array operations, once per distinct pair of outer endpoints,
and adds each mean, norm and dot product left to right in key order.
Single linkage joins two clusters only along the minimum spanning forest
of the edge-pair graph (Gower & Ross 1969, "Minimum spanning trees and
single linkage cluster analysis", JRSS C 18), so Borůvka rounds over
those arrays find the forest's at most m - 1 entries, and the union-find
and the partition density run on them alone.  Apart from the singletons
of isolated nodes, a call's cost grows with the edges and the edge pairs
of its graph, not with its node count.

A consensus partition re-runs this under several weight functions and
stacks every community of every partition as one row of a 0/1 membership
matrix M.  Node v's partition support matrix is the rows of M that hold v,
so the share of them that also hold u is ``(M^T M)[v, u] / (M^T M)[v, v]``.
Node pairs whose symmetrized co-occurrence clears a threshold are linked,
and that second-order network is clustered the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .data import DiscreteDataset, ordered_sum, reading
from .errors import InvalidInput, check_nodes, check_number
from .weights import (WEIGHT_FUNCTIONS, PairStats, WeightedGraph, elbow_truncate,
                      pair_stats, weight_matrix)


@dataclass(frozen=True)
class Partition:
    """Overlapping communities over nodes ``0..n-1``; order is preserved."""

    n: int
    communities: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        check_number("n", self.n, least=0)
        comms = tuple(tuple(sorted(set(check_nodes("node", c, self.n))))
                      for c in self.communities)
        object.__setattr__(self, "communities", comms)
        seen = set()
        covered = set()
        for c in comms:
            if not c:
                raise InvalidInput("empty community")
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


def _find(parent: list[int], x: int) -> int:
    """The root of ``x`` in the union-find forest ``parent``, halving the path."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _tanimoto(dot: np.ndarray, na: np.ndarray, nb: np.ndarray) -> np.ndarray:
    """Tanimoto similarity of vector pairs given their dot products and
    squared norms; 0 where the denominator is not positive."""
    den = na + nb - dot
    out = np.zeros_like(dot)
    np.divide(dot, den, out=out, where=den > 0)
    return out


def _edge_pairs(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of edges that share a node, as edge indices k1 < k2 and
    the shared node, for edges (a[k], b[k]) with a < b in lexicographic
    order.  The outer endpoint of k1 is then below that of k2."""
    m = a.size
    # each node's incident edges, contiguous: first those where it is b,
    # then those where it is a, each in edge order, so in ascending order
    # of the other endpoint and of edge index
    shared = np.concatenate((b, a))
    order = np.argsort(shared, kind="stable")
    shared, edge = shared[order], np.concatenate((np.arange(m), np.arange(m)))[order]
    later = np.cumsum(np.bincount(shared))[shared] - np.arange(2 * m) - 1
    first = np.repeat(np.arange(2 * m), later)
    offset = np.arange(first.size) - np.repeat(np.cumsum(later) - later, later)
    return edge[first], edge[first + 1 + offset], shared[first]


def _own_and_norm2(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> tuple[
        np.ndarray, np.ndarray]:
    """Each node's own entry, the mean weight of its edges, and the squared
    norm of its inclusive vector, for the sorted edges (a[k], b[k]) of
    weight w[k] on nodes 0..n-1 that each have one.  The (b, a)
    concatenation lists each node's edges in ascending neighbour order, the
    order of its vector, and both add them left to right."""
    at, ww = np.concatenate((b, a)), np.concatenate((w, w))
    own = np.zeros(at.max() + 1)
    np.add.at(own, at, ww)  # one term at a time, so left to right
    own /= np.bincount(at)
    norm2 = np.zeros_like(own)
    np.add.at(norm2, at, ww * ww)
    return own, norm2 + own * own


def _similarities(g: WeightedGraph, edges: list[tuple[int, int]]) -> tuple[
        np.ndarray, np.ndarray, np.ndarray]:
    """Every pair of the sorted ``edges`` that shares a node, as edge
    indices k1 < k2, with the Tanimoto similarity of the inclusive vectors
    of the pair's outer endpoints u < v.

    Each distinct outer pair is scored once.  Its dot product adds the
    common keys left to right in the order of u's vector (its neighbours in
    ascending order, then u): the nodes that u and v both neighbour (the
    shared nodes of its edge pairs) and, when u and v are adjacent, v and u.
    """
    nodes, ends = np.unique(np.array(edges), return_inverse=True)
    n = nodes.size
    a, b = ends.reshape(-1, 2).T
    w = np.array([g.weight(*e) for e in edges])
    own, norm2 = _own_and_norm2(a, b, w)

    k1, k2, shared = _edge_pairs(a, b)
    u = a[k1] + b[k1] - shared
    key = u * n + (a[k2] + b[k2] - shared)
    # number the distinct outer pairs in ascending order of (u, v)
    order = np.argsort(key, kind="stable")
    sorted_key = key[order]
    new = np.ones(key.size, dtype=bool)
    np.not_equal(sorted_key[1:], sorted_key[:-1], out=new[1:])
    pair = np.empty_like(order)
    pair[order] = np.cumsum(new) - 1
    pair_key = sorted_key[new]
    pu, pv = pair_key // n, pair_key % n

    # each dot's terms by key: one per edge pair at the shared node, and for
    # an adjacent outer pair, which edge e joins, one at v and one at u, last
    ab = a * n + b  # ascending, as the edges are sorted
    e = np.minimum(np.searchsorted(ab, pair_key), len(edges) - 1)
    adjacent = np.flatnonzero(ab[e] == pair_key)
    e = e[adjacent]
    of = np.concatenate((pair, adjacent, adjacent))
    at_key = np.concatenate((shared, pv[adjacent], np.full(adjacent.size, n)))
    term = np.concatenate((w[k1] * w[k2], w[e] * own[pv[adjacent]], own[pu[adjacent]] * w[e]))
    order = np.argsort(of * (n + 1) + at_key)
    dot = np.zeros(pair_key.size)
    np.add.at(dot, of[order], term[order])  # one term at a time, so left to right
    return k1, k2, _tanimoto(dot, norm2[pu], norm2[pv])[pair]


def _spanning_forest(k1: np.ndarray, k2: np.ndarray, m: int) -> np.ndarray:
    """The minimum spanning forest of the graph on ``m`` vertices whose
    edge of rank r joins k1[r] and k2[r], as its ranks in ascending order.

    The ranks are distinct, so the forest is unique, and it holds exactly
    the edges at which Kruskal's scan in rank order joins two trees.
    Borůvka rounds find it: each tree takes its lightest edge to another
    tree, and the trees so joined merge, which at least halves their count.
    """
    ids = np.arange(m)
    comp = ids
    rank = np.arange(k1.size)
    in_forest = np.zeros(k1.size, dtype=bool)
    while True:
        ca, cb = comp[k1], comp[k2]
        live = np.flatnonzero(ca != cb)
        if not live.size:
            return np.flatnonzero(in_forest)
        k1, k2, rank, ca, cb = k1[live], k2[live], rank[live], ca[live], cb[live]
        # each tree's lightest edge to another tree, as its position in
        # these arrays, which keep rank order
        lightest = np.full(m, live.size)
        np.minimum.at(lightest, ca, np.arange(live.size))
        np.minimum.at(lightest, cb, np.arange(live.size))
        trees = np.flatnonzero(lightest < live.size)
        at = lightest[trees]
        in_forest[rank[at]] = True
        # each tree points at the tree across that edge; two trees that
        # chose the same edge point at each other, and the lower one
        # becomes the root of the trees that now merge
        to = ids.copy()
        to[trees] = np.where(ca[at] == trees, cb[at], ca[at])
        roots = np.flatnonzero((to[to] == ids) & (to > ids))
        to[roots] = roots
        while not np.array_equal(hop := to[to], to):
            to = hop
        comp = to[comp]


def link_communities(g: WeightedGraph) -> Partition:
    """Edge clustering cut at maximum partition density.

    Edge pairs are merged by single linkage on their similarity (most
    similar first; ties to the lexicographically smaller pair of edge
    indices, with the edges in lexicographic order), one level of equal
    similarity at a time.  Single linkage joins two clusters only along
    the minimum spanning forest of the edge-pair graph (Gower & Ross 1969,
    JRSS C 18), so the similarities of all edge pairs are computed as
    arrays, the forest is found by array passes, and the merging and the
    partition density run on its at most m - 1 entries alone.  An inclusive
    vector is the node's neighbours in ascending order, then the node
    itself, so only the weighted edges matter, not the order they were
    added in.  Isolated nodes come back as singleton communities, and apart
    from them the cost grows with the edges and edge pairs, not with
    ``g.n``; an edgeless graph is all singletons.
    """
    edges = g.edges()
    m = len(edges)
    touched = {v for e in edges for v in e}
    comms = {(v,) for v in range(g.n) if v not in touched}
    if m == 0:
        return Partition(g.n, tuple(sorted(comms)))

    k1, k2, sim = _similarities(g, edges)
    # ascending (-similarity, k1, k2): the keys are unique, so any sort
    # of them gives this order, and the stable sort by -similarity keeps it
    order = np.argsort(k1 * m + k2)
    order = order[np.argsort(-sim[order], kind="stable")]
    k1, k2, sim = k1[order], k2[order], sim[order]
    forest = _spanning_forest(k1, k2, m)
    f1, f2, level = k1[forest].tolist(), k2[forest].tolist(), sim[forest]
    # the forest entries that end a level of equal similarity
    level_ends = (np.flatnonzero(level[1:] != level[:-1]) + 1).tolist() + [forest.size]

    # merge one level at a time and keep the densest cut.  terms holds
    # each cluster's partition density term, keyed by its root; a cluster
    # of 2 nodes adds nothing and has none.  A merged cluster's term moves
    # to the end, so the terms are added in order of last merge at every
    # level.  The best level's clusters are rebuilt after the scan.
    parent = list(range(m))
    n_edges = [1] * m
    nodes = [set(e) for e in edges]
    terms: dict[int, float] = {}
    best_density, best_end, start = 0.0, 0, 0
    for end in level_ends:
        for x, y in zip(f1[start:end], f2[start:end]):
            ra, rb = _find(parent, x), _find(parent, y)
            parent[rb] = ra  # ra stays the root
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
        start = end

    parent = list(range(m))
    for x, y in zip(f1[:best_end], f2[:best_end]):
        parent[_find(parent, y)] = _find(parent, x)
    best: dict[int, set[int]] = {}
    for k, e in enumerate(edges):
        best.setdefault(_find(parent, k), set()).update(e)
    comms.update(tuple(sorted(s)) for s in best.values())
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
    check_number("max_comm", max_comm, least=1)
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
