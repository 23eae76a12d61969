"""Scoring learned structures against ground truth, plus partition stats.

Precision, recall and F-score are reported in percentage points:
precision = 100 * tp / (tp + fp), recall = 100 * tp / (tp + fn), F is
their harmonic mean, and any 0/0 is defined as 0.  Comparison is
skeleton-level (undirected adjacency) by default; pass ``directed=True``
to compare arcs.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .averaging import LocalStructure
from .data import GroundTruthNet, ordered_sum
from .errors import InvalidInput
from .partition import Partition
from .weights import WeightedGraph


def metrics_from_counts(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    """(precision, recall, F) in percentage points from edge counts."""
    if min(tp, fp, fn) < 0:
        raise InvalidInput("counts must be nonnegative")
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    f = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f


@dataclass(frozen=True)
class EvalReport:
    tp: int
    fp: int
    fn: int
    precision: float
    recall: float
    f_score: float
    directed: bool = False

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def score_structure(learned: LocalStructure, truth: GroundTruthNet,
                    directed: bool = False) -> EvalReport:
    """Count hits/misses/extras of a learned structure against the truth."""
    if set(learned.nodes) != set(range(truth.n_vars)):
        raise InvalidInput("learned structure must cover exactly the truth's variables")
    if directed:
        got: set = set(learned.edges)
        want: set = set(truth.arcs)
    else:
        got = learned.skeleton()
        want = truth.skeleton()
    tp = len(got & want)
    fp = len(got - want)
    fn = len(want - got)
    precision, recall, f = metrics_from_counts(tp, fp, fn)
    return EvalReport(tp, fp, fn, precision, recall, f, directed)


_HIST_BINS = [(1, 5), (6, 10), (11, 15), (16, 20), (21, 25), (26, 30),
              (31, 35), (36, 40), (41, 45), (46, 50)]


def partition_diagnostics(p: Partition, g: WeightedGraph) -> dict:
    """Size and distance statistics of a partition over a weighted graph.

    Shortest paths are hop counts inside each community's induced
    subgraph; disconnected pairs are excluded and communities without any
    connected pair (singletons included) contribute 0.
    """
    if p.n != g.n:
        raise InvalidInput("partition and graph must share one node universe")
    avg_paths = []
    diameters = []
    for c in p.communities:
        dists = []
        members = set(c)
        for src in c:
            # BFS restricted to the community
            seen = {src: 0}
            frontier = [src]
            while frontier:
                nxt = []
                for u in frontier:
                    for v in g.neighbors(u):
                        if v in members and v not in seen:
                            seen[v] = seen[u] + 1
                            nxt.append(v)
                frontier = nxt
            dists.extend(d for v, d in seen.items() if v > src)
        avg_paths.append(sum(dists) / len(dists) if dists else 0.0)
        diameters.append(max(dists) if dists else 0)
    sizes = p.sizes()
    hist = {f"{lo}-{hi}": sum(1 for s in sizes if lo <= s <= hi)
            for lo, hi in _HIST_BINS}
    hist[">50"] = sum(1 for s in sizes if s > 50)
    return {
        "communities": len(sizes),
        "sizes": sizes,
        "avg_size": sum(sizes) / len(sizes),
        "size_histogram": hist,
        "avg_shortest_path": ordered_sum(avg_paths) / len(avg_paths),
        "avg_diameter": sum(diameters) / len(diameters),
        "per_community_avg_path": avg_paths,
        "per_community_diameter": diameters,
    }
