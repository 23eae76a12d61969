"""Combining local structures: edge unions, triplet repair, greedy merging.

Structures learned on overlapping node sets are combined in three layers:
:func:`combine_structures` unions the edge sets of several structures (a
community's sub-structures, or two pool entries), :func:`resolve`
re-learns the triangles above the elbow of its weight subgraph to repair
edges that blanket isolation may have distorted, and the community pool
is folded together pairwise, always merging the two structures with the
largest node-set Jaccard similarity.  A merge round combines the pair's
edges once; when the two node sets overlap, it hands the result to one
:func:`resolve` on the weight subgraph of the overlap and its neighbours
in the combined edges, so triangles are re-learned there and every other
edge passes through.  Each pair's rank is computed once, when the later of its two
structures enters the pool, so a pool of n structures costs (n - 1)^2
Jaccard evaluations.  An entry's node set is built once, as it enters, so
each evaluation is one set intersection; the union's size follows from
the two set sizes.  The ranks live in a binary heap, so finding each
round's pair costs O(log n) per rank pushed or skipped, O(n^2 log n) in
all, where rescanning and refiltering every live pair each round costs
O(n^3).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Sequence

from .averaging import LearnerConfig, LocalStructure, learn_structure
from .data import DiscreteDataset, ordered_sum
from .errors import InvalidInput
from .partition import link_communities
from .weights import WeightedGraph, elbow_threshold


def jaccard(a, b) -> float:
    """|a & b| / |a | b| for two nonempty node sets."""
    sa, sb = set(a), set(b)
    if not sa or not sb:
        raise InvalidInput("jaccard needs nonempty sets")
    return len(sa & sb) / len(sa | sb)


def combine_structures(structs: Sequence[LocalStructure],
                       conflicts: list | None = None) -> LocalStructure:
    """Union of the structures' nodes and edges.

    A pair learned with opposite directions in different structures keeps
    the direction with the higher mean support (ties to the
    lexicographically smaller edge); such pairs are appended to
    ``conflicts`` when a list is supplied.  A missing support counts as 1.
    """
    if not structs:
        raise InvalidInput("need at least one structure")
    nodes = set()
    votes: dict[tuple[int, int], list[float]] = {}
    for s in structs:
        nodes |= set(s.nodes)
        for e in s.edges:
            votes.setdefault(e, []).append(s.support.get(e, 1.0))
    mean = {e: ordered_sum(v) / len(v) for e, v in votes.items()}
    edges = {}
    for e, m in sorted(mean.items()):
        rev = (e[1], e[0])
        if rev in edges:
            if m > mean[rev] or (m == mean[rev] and e < rev):
                del edges[rev]
                edges[e] = m
                kept, dropped = e, rev
            else:
                kept, dropped = rev, e
            if conflicts is not None:
                conflicts.append({"kept": kept, "dropped": dropped,
                                  "support_kept": mean[kept],
                                  "support_dropped": mean[dropped]})
        else:
            edges[e] = m
    return LocalStructure(tuple(nodes), tuple(edges), edges)


@dataclass(frozen=True)
class TripletGraph:
    """Union of the edges of all triangles whose weights clear a threshold."""

    graph: WeightedGraph
    triangles: tuple[tuple[int, int, int], ...]


def collect_triplets(g: WeightedGraph, t_tri: float) -> TripletGraph:
    """Triangles of g with all three edge weights strictly above t_tri."""
    strong = [e for e in g.edges() if g.weight(*e) > t_tri]
    above: dict[int, set[int]] = {}  # each node's strong neighbours above it
    for i, j in strong:
        above.setdefault(i, set()).add(j)
    triangles = tuple((i, j, k) for i, j in strong
                      for k in sorted(above[i] & above.get(j, set())))
    kept = {e: g.weight(*e) for i, j, k in triangles for e in ((i, j), (i, k), (j, k))}
    return TripletGraph(WeightedGraph(g.n, kept), triangles)


def resolve(structure: LocalStructure, g: WeightedGraph, data: DiscreteDataset,
            config: LearnerConfig, windows: list | None = None) -> LocalStructure:
    """Re-learn tightly coupled triangles of the structure's neighborhood.

    Triplets are collected from the weight subgraph induced by the
    structure's nodes, above that subgraph's elbow threshold (an edge at the
    elbow is in no triangle), clustered with link communities, and each
    cluster is re-learned with the configured learner; edges inside a
    cluster are replaced by the re-learned ones, everything else passes through.
    Never introduces an edge between nodes sharing neither a cluster nor a
    prior edge, and returns the structure as it is when no triangle clears
    the threshold.  The size of each re-learned cluster is appended to
    ``windows`` when a list is supplied.
    """
    sub = g.subgraph(structure.nodes)
    if sub.m == 0:
        return structure
    trip = collect_triplets(sub, elbow_threshold([sub.weight(*e) for e in sub.edges()]))
    if not trip.triangles:
        return structure
    # cluster on the triangles' nodes, relabelled in ascending order, which
    # keeps the order of the edges and so the clusters
    nodes = sorted({v for t in trip.triangles for v in t})
    at = {v: k for k, v in enumerate(nodes)}
    local = WeightedGraph(len(nodes), {(at[i], at[j]): trip.graph.weight(i, j)
                                       for i, j in trip.graph.edges()})
    clusters = [[nodes[k] for k in c] for c in link_communities(local).communities]
    relearned = []
    for cl in clusters:
        if windows is not None:
            windows.append(len(cl))
        relearned.append(learn_structure(data, cl, config))
    outside = [e for e in structure.edges
               if not any(e[0] in cl and e[1] in cl for cl in clusters)]
    # the clusters lie inside the structure's nodes, so the node set is unchanged
    kept = LocalStructure(structure.nodes, tuple(outside),
                          {e: structure.support.get(e, 1.0) for e in outside})
    merged = combine_structures([kept] + relearned)
    return LocalStructure(structure.nodes, merged.edges, merged.support)


@dataclass
class MergeResult:
    """Final structure of a pool merge plus its bookkeeping."""

    structure: LocalStructure
    merge_sequence: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]
    jaccard_evaluations: int
    conflicts: list = field(default_factory=list)


def merge_all(pool: Sequence[LocalStructure], g: WeightedGraph,
              data: DiscreteDataset, config: LearnerConfig) -> MergeResult:
    """Fold a pool of structures into one by repeated max-Jaccard merging.

    Each round merges the pair of structures whose node sets have the
    largest Jaccard similarity (ties: larger union first, then the
    lexicographically smallest pair of node sets, then the smallest pair
    of pool positions, merged entries numbered on from ``len(pool)``); the
    pair's edges are combined and resolved on the overlap neighborhood.
    A pair is ranked once, when its later structure enters the pool, so a
    pool of n structures spends (n - 1)^2 Jaccard evaluations; the count
    is returned.  Each entry's node set is built once, when it enters, and
    an evaluation intersects two of them: |a | b| = |a| + |b| - |a & b|.
    The ranks are kept in a heap, so the ranking work is O(n^2 log n)
    rather than the O(n^3) of rescanning every live pair each round.
    """
    if not pool:
        raise InvalidInput("empty pool")
    evals = 0
    conflicts: list = []
    sequence: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    # each live entry with its node set and that set's size, built once as it enters
    entries: dict[int, tuple[LocalStructure, frozenset[int], int]] = {}
    # min-heap of (-jaccard, -union, lo nodes, hi nodes, i, j), unique by (i, j).
    # A merge leaves the ranks of its two entries in place (lazy deletion);
    # a pop skips them, and once they outnumber the live pairs the heap is
    # filtered and rebuilt, so after each round it holds at most twice the live pairs.
    ranks: list[tuple] = []
    ids = itertools.count()

    def enter(s: LocalStructure) -> None:
        nonlocal evals
        k = next(ids)
        key = s.nodes
        nodes = frozenset(key)
        size = len(nodes)
        for i, (other, other_nodes, other_size) in entries.items():
            inter = len(other_nodes & nodes)
            union = other_size + size - inter
            lo, hi = (other.nodes, key) if other.nodes <= key else (key, other.nodes)
            heappush(ranks, (-(inter / union), -union, lo, hi, i, k))
        evals += len(entries)
        entries[k] = (s, nodes, size)

    for s in pool:
        enter(s)
    while len(entries) > 1:
        best = heappop(ranks)
        while best[4] not in entries or best[5] not in entries:
            best = heappop(ranks)
        i, j = best[4:]
        sequence.append(best[2:4])
        (a, a_nodes, _), (b, b_nodes, _) = entries.pop(i), entries.pop(j)

        merged = combine_structures([a, b], conflicts)
        overlap = a_nodes & b_nodes
        if overlap:
            scope = set(overlap)
            for x, y in merged.edges:
                if x in overlap:
                    scope.add(y)
                if y in overlap:
                    scope.add(x)
            merged = resolve(merged, g.subgraph(scope), data, config)
        enter(merged)
        if len(ranks) > len(entries) * (len(entries) - 1):
            ranks[:] = [r for r in ranks if r[4] in entries and r[5] in entries]
            heapify(ranks)

    return MergeResult(entries.popitem()[1][0], tuple(sequence), evals, conflicts)
