"""Pairwise variable weights, weighted graphs and the elbow cut.

Seven weight functions are supported on discrete data, all derived from
empirical mutual information or Pearson correlation on integer state
codes:

    MI          plain mutual information in nats
    MI_plus     2*MI(X,Y) / (H(X) + H(Y))
    MI_sqrt     MI(X,Y) / sqrt(H(X) * H(Y))
    MI_pr       MI(X,Y) / (sqrt(PR(X)) * sqrt(PR(Y)))   PR from the MI graph
    MI_sn       MI standardized over all pair weights (zero mean, unit std)
    Pearson     |rho| on integer state codes
    Pearson_sn  |rho| standardized over all pair weights

The five MI functions derive from one :class:`PairStats`: the MI of every
pair and the entropy of every column, each computed once per dataset by
:func:`pair_stats`.  It counts every one- and two-column table at once, in
one blocked product of the dataset's one-hot encoding
(:meth:`DiscreteDataset.pair_tables`), then makes one
:func:`mutual_information` call per pair on those tables.  MI and MI_sn
read the MI matrix, MI_plus and MI_sqrt divide it elementwise by the
entropies, and MI_pr divides it by the PageRank of the MI graph.  Share
one ``PairStats`` between callers (and slice it with
:meth:`PairStats.select` for a column subset) to avoid recomputing MI; a
dataset passed instead gets a fresh ``PairStats``.  The Pearson functions
read |rho| from the stats, computed at most once on the stats' own
dataset; a dataset passed instead computes it without any MI.

Every pair has a weight, so :func:`weight_matrix` returns a dense
``(V, V)`` array; :func:`pagerank` and :func:`elbow_truncate` read its
upper triangle in row-major order, and only the pairs the elbow cut keeps
become a sparse :class:`WeightedGraph`.  That graph stores each weight
once, in one adjacency map with an entry only for a node that has an edge,
so building it or taking a subgraph costs in its edges, not in ``n``.  Each
node's map keeps the order in which its edges were added, because
``ordered_sum`` adds ``adjacency(v).values()`` left to right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .data import DiscreteDataset, check_columns, reading
from .errors import InvalidInput

WEIGHT_FUNCTIONS = ("MI", "MI_plus", "MI_sqrt", "MI_pr", "MI_sn", "Pearson", "Pearson_sn")
_DAMPING, _TOL = 0.85, 1e-10  # PageRank


class WeightedGraph:
    """Undirected weighted graph on nodes ``0..n-1``; absent pair = no edge.

    One map, ``_adj[i][j] == _adj[j][i]``, holds each weight; only a node
    with an edge has an entry.  Each node's map keeps its edges' first-added
    order, since callers add ``adjacency(v).values()`` with ``ordered_sum``.
    """

    def __init__(self, n: int, weights: dict[tuple[int, int], float] | None = None):
        if n < 0:
            raise InvalidInput("n must be >= 0")
        self.n = n
        self._adj: dict[int, dict[int, float]] = {}
        for (i, j), w in (weights or {}).items():
            self.add_edge(i, j, w)

    @classmethod
    def from_matrix(cls, w: np.ndarray, keep=True) -> "WeightedGraph":
        """Weight ``w[i, j]`` on each pair i < j, in lexicographic order, where
        ``keep`` (True or an ``(n, n)`` boolean mask) holds."""
        i, j = np.nonzero(np.triu(np.broadcast_to(keep, w.shape), 1))  # row-major
        return cls(w.shape[0], dict(zip(zip(i.tolist(), j.tolist()), w[i, j].tolist())))

    def add_edge(self, i: int, j: int, w: float) -> None:
        i, j = (i, j) if i < j else (j, i)
        if i == j or not (0 <= i < self.n and 0 <= j < self.n):
            raise InvalidInput(f"bad edge ({i}, {j}) for n={self.n}")
        w = float(w)
        if not math.isfinite(w):
            raise InvalidInput(f"non-finite weight on ({i}, {j})")
        self._adj.setdefault(i, {})[j] = w
        self._adj.setdefault(j, {})[i] = w

    @property
    def m(self) -> int:
        return sum(map(len, self._adj.values())) // 2

    def edges(self) -> list[tuple[int, int]]:
        return sorted((i, j) for i, adj in self._adj.items() for j in adj if i < j)

    def weight(self, i: int, j: int) -> float:
        return self._adj[i][j]

    def has_edge(self, i: int, j: int) -> bool:
        return j in self._adj.get(i, ())

    def neighbors(self, i: int) -> list[int]:
        return sorted(self.adjacency(i))

    def adjacency(self, i: int) -> dict[int, float]:
        return self._adj.get(i, {})

    def degree(self, i: int) -> int:
        return len(self.adjacency(i))

    def subgraph(self, nodes: Iterable[int]) -> "WeightedGraph":
        """Induced subgraph; node indices are preserved (n stays the same)."""
        keep = set(nodes)
        pairs = sorted((i, j) for i in keep for j in self.adjacency(i) if i < j and j in keep)
        return WeightedGraph(self.n, {(i, j): self._adj[i][j] for i, j in pairs})

    def __eq__(self, other) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self.n == other.n and self._adj == other._adj


def entropy(counts) -> float:
    """Shannon entropy in nats of a nonnegative count vector."""
    c = np.asarray(counts, dtype=np.float64).ravel()
    if c.size == 0 or (c < 0).any() or c.sum() <= 0:
        raise InvalidInput("counts must be nonnegative with a positive total")
    p = c[c > 0] / c.sum()
    return float(-(p * np.log(p)).sum())


def mutual_information(data: DiscreteDataset, i: int, j: int) -> float:
    """Empirical MI in nats between columns i and j; zero cells are skipped."""
    if data.n_rows == 0:
        raise InvalidInput("dataset is empty")
    check_columns(data, (i, j))
    return _mi_from_joint(data.counts((i, j)).astype(np.float64))


def _mi_from_joint(joint: np.ndarray) -> float:
    n = joint.sum()
    pi = joint.sum(axis=1) / n
    pj = joint.sum(axis=0) / n
    mask = joint > 0
    pij = joint[mask] / n
    outer = np.outer(pi, pj)[mask]
    return float(max((pij * np.log(pij / outer)).sum(), 0.0))


def _checked_matrix(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise InvalidInput(f"weight matrix must be 2-D and square, got shape {w.shape}")
    if not np.isfinite(w).all():
        raise InvalidInput("weight matrix holds a non-finite value")
    return w


def pagerank(w: np.ndarray) -> np.ndarray:
    """Weighted PageRank by power iteration; dangling mass spreads uniformly.

    The upper triangle of the square matrix ``w`` holds the pair weights; a
    zero weight is no edge.  Damping is 0.85, and iteration stops once a
    step moves the scores by less than 1e-10 in total.  Scores are positive
    and sum to one, invariant to a uniform rescaling of all weights.
    """
    w = _checked_matrix(w)
    n = w.shape[0]
    if n == 0:
        raise InvalidInput("empty graph")
    ii, jj = np.triu_indices(n, 1)
    ww = w[ii, jj]
    strength = np.zeros(n)
    np.add.at(strength, ii, ww)
    np.add.at(strength, jj, ww)
    dangling = strength <= 0
    safe = np.where(dangling, 1.0, strength)
    v = np.full(n, 1.0 / n)
    while True:
        nxt = np.full(n, (1.0 - _DAMPING) / n)
        nxt += _DAMPING * v[dangling].sum() / n
        np.add.at(nxt, jj, _DAMPING * v[ii] * ww / safe[ii])
        np.add.at(nxt, ii, _DAMPING * v[jj] * ww / safe[jj])
        if np.abs(nxt - v).sum() < _TOL:
            return nxt / nxt.sum()
        v = nxt


@dataclass(frozen=True, eq=False)
class PairStats:
    """A dataset with the MI of every column pair and the entropy of every column.

    ``mi`` is the symmetric ``(V, V)`` matrix of :func:`mutual_information`
    (zero diagonal) and ``h`` the ``(V,)`` column entropies in nats; both
    are read-only.
    """

    data: DiscreteDataset
    mi: np.ndarray = field(repr=False)
    h: np.ndarray = field(repr=False)

    def __post_init__(self):
        n = self.data.n_vars
        if self.mi.shape != (n, n) or self.h.shape != (n,):
            raise InvalidInput(f"pair statistics must be ({n}, {n}) and ({n},)")
        self.mi.flags.writeable = False
        self.h.flags.writeable = False

    @property
    def n_vars(self) -> int:
        return self.data.n_vars

    @cached_property
    def pearson(self) -> np.ndarray:
        """|rho| of every column pair, computed once on this stats' dataset."""
        return _abs_pearson(self.data)

    def select(self, indices: Sequence[int]) -> "PairStats":
        """Column subset in the given order, like :meth:`DiscreteDataset.select`.

        Each pair keeps the MI computed on this dataset.  For ascending
        ``indices`` every weight then equals, bit for bit, one computed on
        ``data.select(indices)``; a reordering can differ from that in the
        last bits, because MI(i, j) and MI(j, i) add the same terms in
        transposed order.
        """
        idx = list(indices)
        return PairStats(self.data.select(idx), self.mi[np.ix_(idx, idx)], self.h[idx])


def pair_stats(source: DiscreteDataset | PairStats) -> PairStats:
    """MI of every pair i < j and entropy of every column; stats pass through.

    The tables come from one blocked one-hot product,
    :meth:`DiscreteDataset.pair_tables`; then one :func:`mutual_information`
    per pair and one :func:`entropy` per column read them.  The tables equal
    the dataset's own, so every value keeps its last bit.
    """
    if isinstance(source, PairStats):
        return source
    data = source
    if data.n_rows == 0:
        raise InvalidInput("dataset is empty")
    tables = data.pair_tables()
    n = data.n_vars
    mi = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            mi[i, j] = mi[j, i] = mutual_information(tables, i, j)
    h = np.array([entropy(tables.counts((i,))) for i in range(n)])
    return PairStats(data, mi, h)


def weight_matrix(source: DiscreteDataset | PairStats, fn: str) -> np.ndarray:
    """All-pairs weights under one of the seven functions.

    ``source`` is a dataset or its :class:`PairStats`.  Returns a read-only
    ``(V, V)`` matrix whose upper triangle, ``w[i, j]`` for i < j, holds
    the weight of each pair; it is symmetric up to the last bit (Pearson's
    two triangles can round apart), and its diagonal is no pair's weight.
    Functions with an entropy denominator reject zero-entropy variables;
    the standardized variants reject an all-equal weight multiset.
    """
    if fn not in WEIGHT_FUNCTIONS:
        raise InvalidInput(f"unknown weight function '{fn}'")
    n = source.n_vars
    if n < 2:
        raise InvalidInput("need at least 2 variables")

    if fn in ("Pearson", "Pearson_sn"):
        w = source.pearson if isinstance(source, PairStats) else _abs_pearson(source)
    else:
        stats = pair_stats(source)
        w, h = stats.mi, stats.h
        if fn == "MI_pr":
            pr = pagerank(w)
            w = w / np.sqrt(np.outer(pr, pr))
        elif fn in ("MI_plus", "MI_sqrt"):
            zero = np.flatnonzero(h <= 0)
            if zero.size:
                raise InvalidInput(f"variable '{stats.data.names[zero[0]]}' has zero "
                                   f"entropy; '{fn}' is undefined")
            w = 2.0 * w / (h[:, None] + h) if fn == "MI_plus" else w / np.sqrt(np.outer(h, h))
    if fn.endswith("_sn"):
        w = _standardize(w)
    w.flags.writeable = False
    return w


def _abs_pearson(data: DiscreteDataset) -> np.ndarray:
    """|rho| of every column pair on integer state codes, read-only."""
    with np.errstate(invalid="ignore", divide="ignore"):
        corr = np.corrcoef(data.samples.T.astype(np.float64))
    w = np.abs(np.nan_to_num(corr, nan=0.0))  # constant columns carry no signal
    w.flags.writeable = False
    return w


def _standardize(w: np.ndarray) -> np.ndarray:
    """Shift and scale by the mean and std of the pair weights (i < j)."""
    vals = w[np.triu_indices(w.shape[0], 1)]
    mu, sd = float(vals.mean()), float(vals.std())
    if sd == 0:
        raise InvalidInput("all pair weights are equal; standardization is undefined")
    return (w - mu) / sd


def elbow_threshold(weights) -> float:
    """The elbow of the sorted weight curve: the weight to keep at or above.

    Weights are sorted descending; the elbow is the point of maximum
    perpendicular distance to the chord joining the first and last point
    (ties resolved toward the first index).  With one weight, or all
    equal, it is the smallest weight, which keeps everything.
    """
    ws = np.sort(np.asarray(weights, dtype=np.float64))[::-1]
    if ws.size == 0:
        raise InvalidInput("no weights to cut")
    if not np.isfinite(ws).all():
        raise InvalidInput("non-finite weight")
    m = ws.size
    if m == 1 or ws[0] == ws[-1]:
        return float(ws[-1])
    x = np.arange(m, dtype=np.float64)
    dx, dy = float(m - 1), float(ws[-1] - ws[0])
    # |cross| / |chord| = point-to-line distance from (x_i, w_i) to the chord
    dist = np.abs(dx * (ws - ws[0]) - dy * x) / math.hypot(dx, dy)
    return float(ws[int(dist.argmax())])


def elbow_truncate(w: np.ndarray) -> WeightedGraph:
    """The graph of the pairs i < j of the square matrix ``w`` whose weight
    is at or above the :func:`elbow_threshold` of the upper triangle, with
    its edges in row-major order."""
    w = _checked_matrix(w)
    threshold = elbow_threshold(w[np.triu_indices(w.shape[0], 1)])
    return WeightedGraph.from_matrix(w, w >= threshold)


def save_weighted_graph(g: WeightedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"nodes\t{g.n}\n")
        for i, j in g.edges():
            fh.write(f"{i}\t{j}\t{g.weight(i, j)!r}\n")


def load_weighted_graph(path) -> WeightedGraph:
    with reading(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "nodes" or not header[1].isdecimal():
            raise InvalidInput("line 1: expected a 'nodes <n>' header")
        g = WeightedGraph(int(header[1]))
        for line_no, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                i, j, w = line.split()
                i, j, w = int(i), int(j), float(w)
            except ValueError as e:
                raise InvalidInput(f"line {line_no}: expected '<i> <j> <weight>', "
                                   f"got {line.strip()!r}") from e
            try:
                if g.has_edge(i, j):
                    raise InvalidInput(f"pair ({i}, {j}) is listed twice")
                g.add_edge(i, j, w)
            except InvalidInput as e:
                raise InvalidInput(f"line {line_no}: {e}") from e
    return g
