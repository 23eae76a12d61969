"""Discrete Bayesian networks, datasets, sampling and discretization.

Network files are line oriented, UTF-8, with ``#`` starting a comment:

    var <name> <k> <state0> ... <state{k-1}>
    arc <parent> <child>
    cpt <child> | <parent-state...> : p0 ... p{k-1}

A ``cpt`` line gives one conditional row per joint parent configuration;
parent state labels are listed in ascending parent index order (the order
the parents were declared as ``var`` lines).  Datasets are tab-separated:
a header row of variable names, a ``# cardinalities k0 k1 ...`` line giving
each variable's number of states, then one row of integer state indices per
sample.  The cardinalities line keeps a state that no row holds; a file
without it gets each variable's largest observed state + 1.

:func:`forward_sample` draws each state as the number of steps of its CDF
row at or below a uniform draw.  A :class:`DiscreteDataset` memoizes the
entropies of its count tables, keyed by their ordered columns, for the
CMI of the blanket searches, and per ``ess`` the BDeu score of each
(child, parent set), for every :class:`bnsl.averaging.ScoreCache` on it.
Its distinct-row views share the entropies.  So every community of a run
shares each statistic, while a new dataset starts with empty memos.
"""

from __future__ import annotations

import heapq
import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInput, NetworkFormatError

_PROB_TOL = 1e-9
# rows per block of the one-hot product in DiscreteDataset.pair_tables: a
# float32 block product sums at most this many ones per cell, far below 2^24,
# so every partial count is exact
_ONE_HOT_BLOCK = 2048


def ordered_sum(values: Iterable[float]) -> float:
    """The values added first to last, starting from 0.0.  ``sum`` is not
    used: from Python 3.12 it compensates float rounding, so its result
    can differ in the last bit between Python versions."""
    return reduce(operator.add, values, 0.0)


def _row_codes(digits: Sequence[np.ndarray], radices: Sequence[int], n: int) -> np.ndarray:
    """Row k of ``digits`` as one int64 in mixed radix ``radices``, first column
    slowest, by a loop: ``np.ravel_multi_index`` is slower on long columns."""
    if not digits:
        return np.zeros(n, dtype=np.int64)
    code = np.asarray(digits[0], dtype=np.int64)
    for d, r in zip(digits[1:], radices[1:]):
        code = code * r + d
    return code


@contextmanager
def reading(path):
    """``path`` opened as UTF-8 text; a ``ValueError`` raised while it is open,
    a decode error too, raises ``InvalidInput`` with the path as a prefix."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield fh
        except InvalidInput as e:  # keeps its class and attributes
            e.args = (f"{path}: {e}",)
            raise
        except ValueError as e:
            raise InvalidInput(f"{path}: {e}") from e


def check_columns(data, cols: Iterable[int]) -> None:
    """Raise ``InvalidInput`` unless every index in ``cols`` names a column of
    ``data`` (``0 <= c < V``, V the length of ``data.cardinalities``)."""
    v = len(data.cardinalities)
    for c in cols:
        if not 0 <= c < v:
            raise InvalidInput(f"column index {c} outside 0..{v - 1}")


@dataclass(eq=False)
class GroundTruthNet:
    """A discrete Bayesian network with full CPTs.

    ``cpts[i]`` has shape ``(q_i, r_i)`` where ``q_i`` is the product of
    the parent cardinalities (1 for roots) and ``r_i`` the cardinality of
    variable ``i``.  Row order is the mixed-radix order of parent states,
    parents sorted by ascending variable index, first parent slowest.
    """

    names: tuple[str, ...]
    states: tuple[tuple[str, ...], ...]
    arcs: tuple[tuple[int, int], ...]
    cpts: list[np.ndarray] = field(repr=False)

    def __post_init__(self):
        self.names = tuple(self.names)
        self.states = tuple(tuple(s) for s in self.states)
        self.arcs = tuple(sorted(set((int(p), int(c)) for p, c in self.arcs)))
        n = len(self.names)
        if len(set(self.names)) != n:
            raise InvalidInput("duplicate variable names")
        if len(self.states) != n or len(self.cpts) != n:
            raise InvalidInput("states/cpts length must match names")
        for s in self.states:
            if len(s) < 2:
                raise InvalidInput("every variable needs at least 2 states")
        for p, c in self.arcs:
            if p == c or not (0 <= p < n and 0 <= c < n):
                raise InvalidInput(f"bad arc ({p}, {c})")
        self.topological_order()  # raises on a cycle
        cpts = []
        for i in range(n):
            q = math.prod(len(self.states[p]) for p in self.parents_of(i))
            r = len(self.states[i])
            t = np.asarray(self.cpts[i], dtype=np.float64)
            if t.shape != (q, r):
                raise InvalidInput(
                    f"cpt for '{self.names[i]}' must have shape ({q}, {r}), got {t.shape}")
            # each check asks for the good side, which a NaN never is
            if not ((t >= 0).all() and (np.abs(t.sum(axis=1) - 1.0) <= _PROB_TOL).all()):
                raise InvalidInput(f"cpt rows for '{self.names[i]}' must be distributions")
            cpts.append(t)
        self.cpts = cpts

    @property
    def n_vars(self) -> int:
        return len(self.names)

    @property
    def cardinalities(self) -> tuple[int, ...]:
        return tuple(len(s) for s in self.states)

    def parents_of(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(p for p, c in self.arcs if c == i))

    def children_of(self, i: int) -> tuple[int, ...]:
        return tuple(sorted(c for p, c in self.arcs if p == i))

    def topological_order(self) -> list[int]:
        """Kahn's algorithm, lowest index first; raises on a cycle."""
        n = len(self.names)
        indeg = [0] * n
        out: list[list[int]] = [[] for _ in range(n)]
        for p, c in self.arcs:
            indeg[c] += 1
            out[p].append(c)
        ready = [i for i in range(n) if indeg[i] == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            i = heapq.heappop(ready)
            order.append(i)
            for c in out[i]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, c)
        if len(order) != n:
            raise NetworkFormatError("arcs contain a cycle")
        return order

    def skeleton(self) -> set[frozenset[int]]:
        return {frozenset((p, c)) for p, c in self.arcs}

    def __eq__(self, other) -> bool:
        if not isinstance(other, GroundTruthNet):
            return NotImplemented
        return (self.names == other.names and self.states == other.states
                and self.arcs == other.arcs
                and all(np.array_equal(a, b) for a, b in zip(self.cpts, other.cpts)))


@dataclass(eq=False)
class DiscreteDataset:
    """Complete discrete samples: an ``(N, V)`` integer matrix plus schema.

    ``samples`` is a read-only int32 copy in column-major (Fortran) order,
    so ``column(i)``, which :meth:`counts` reads for every count statistic
    (MI, entropy, CMI and BDeu), is a contiguous view.  Two stand-ins give
    the same counts from less work: :meth:`distinct` (a :class:`DistinctRows`)
    for a column subset from its distinct rows, which is what a learning
    window or a blanket search reads, and :meth:`pair_tables` (a
    :class:`PairTables`) for every one- and two-column table from one
    one-hot product, which is what the pairwise MI of the weights reads.

    ``_entropies`` and ``_family_scores`` are its memos (module docstring);
    :meth:`distinct` views share the entropies, :meth:`select` starts anew.
    """

    names: tuple[str, ...]
    cardinalities: tuple[int, ...]
    samples: np.ndarray = field(repr=False)
    _entropies: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    _family_scores: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    def __post_init__(self):
        self.names = tuple(self.names)
        self.cardinalities = tuple(int(c) for c in self.cardinalities)
        if len(set(self.names)) != len(self.names):
            raise InvalidInput("duplicate variable names")
        if len(self.cardinalities) != len(self.names):
            raise InvalidInput("cardinalities length must match names")
        if any(c < 2 for c in self.cardinalities):
            raise InvalidInput("every variable needs cardinality >= 2")
        a = np.asarray(self.samples)
        if a.ndim != 2 or a.shape[1] != len(self.names):
            raise InvalidInput(f"samples must be (N, {len(self.names)})")
        a = np.array(a, dtype=np.int32, order="F")
        for j, c in enumerate(self.cardinalities):
            col = a[:, j]
            if col.size and (col.min() < 0 or col.max() >= c):
                raise InvalidInput(f"column '{self.names[j]}' has states outside [0, {c})")
        a.flags.writeable = False
        self.samples = a

    @property
    def n_rows(self) -> int:
        return self.samples.shape[0]

    @property
    def n_vars(self) -> int:
        return self.samples.shape[1]

    def column(self, i: int) -> np.ndarray:
        return self.samples[:, i]

    def counts(self, cols: Sequence[int]) -> np.ndarray:
        """Contingency table of ``cols`` (at least one column), shaped by their
        cardinalities: entry ``[s0, s1, ...]`` counts the rows with column
        ``cols[k]`` in state ``s_k``, by one ``np.bincount`` of the row codes."""
        shape = tuple(self.cardinalities[c] for c in cols)
        code = _row_codes([self.column(c) for c in cols], shape, self.n_rows)
        return np.bincount(code, minlength=math.prod(shape)).reshape(shape)

    def distinct(self, cols: Sequence[int]) -> "DistinctRows | DiscreteDataset":
        """The rows of ``cols`` counted once each, for :meth:`counts` of any
        subset of ``cols``; the dataset itself when their mixed-radix code
        would overflow int64.  The codes are counted by ``np.bincount`` when
        the code space is no larger than the row count, otherwise sorted by
        ``np.unique``; both give the rows in ascending code order.  The view
        shares the dataset's entropy memo."""
        cols = tuple(int(c) for c in cols)
        shape = tuple(self.cardinalities[c] for c in cols)
        size = math.prod(shape)
        if size > np.iinfo(np.int64).max:
            return self
        code = _row_codes([self.column(c) for c in cols], shape, self.n_rows)
        if size <= self.n_rows:  # a table no larger than the code array
            mult = np.bincount(code, minlength=size)
            rows = np.flatnonzero(mult)
            mult = mult[rows]
        else:
            rows, mult = np.unique(code, return_counts=True)
        return DistinctRows(self.n_rows, self.cardinalities,
                            dict(zip(cols, np.unravel_index(rows, shape))),
                            mult.astype(np.float64), self._entropies)

    def pair_tables(self) -> "PairTables":
        """Every one- and two-column table of the dataset, for :meth:`counts`
        of one or two columns, from the Gram matrix ``X^T X`` of the one-hot
        encoding ``X`` (N by the sum of the cardinalities).  ``X`` is built and
        multiplied ``_ONE_HOT_BLOCK`` rows at a time in float32, and the block
        products are summed in float64, so every count is exact."""
        offsets = np.cumsum((0,) + self.cardinalities)
        width = int(offsets[-1])
        gram = np.zeros((width, width))
        for start in range(0, self.n_rows, _ONE_HOT_BLOCK):
            block = self.samples[start:start + _ONE_HOT_BLOCK] + offsets[:-1]
            x = np.zeros((block.shape[0], width), dtype=np.float32)
            np.put_along_axis(x, block, 1.0, axis=1)
            gram += x.T @ x
        return PairTables(self.names, self.n_rows, self.cardinalities,
                          offsets, gram.astype(np.int64))

    def select(self, indices: Sequence[int]) -> "DiscreteDataset":
        """Column subset in the given order (names kept, indices renumbered)."""
        idx = list(indices)
        return DiscreteDataset(
            names=tuple(self.names[i] for i in idx),
            cardinalities=tuple(self.cardinalities[i] for i in idx),
            samples=self.samples[:, idx],
        )


@dataclass(frozen=True, eq=False)
class DistinctRows:
    """The distinct rows of some columns of a dataset, with multiplicities.

    ``digits[c]`` holds column ``c``'s state in each distinct row and
    ``weights`` how many of the ``n_rows`` samples share that row.  It
    stands in for the dataset wherever a statistic reads only ``n_rows``,
    ``cardinalities`` (the dataset's, indexed by its column numbers) and
    ``counts``, which is the dataset's table for any subset of the columns.
    The multiplicities are whole numbers below 2^53, so the float sums of
    ``np.bincount`` are exact and every statistic keeps its last bit.
    ``_entropies`` is the entropy memo of the dataset the view came from.
    """

    n_rows: int
    cardinalities: tuple[int, ...]
    digits: dict[int, np.ndarray] = field(repr=False)
    weights: np.ndarray = field(repr=False)
    _entropies: dict = field(default_factory=dict, repr=False, compare=False)

    def counts(self, cols: Sequence[int]) -> np.ndarray:
        """:meth:`DiscreteDataset.counts` of ``cols``, from the distinct rows."""
        shape = tuple(self.cardinalities[c] for c in cols)
        code = _row_codes([self.digits[c] for c in cols], shape, len(self.weights))
        return np.bincount(code, self.weights, math.prod(shape)).astype(
            np.int64).reshape(shape)


@dataclass(frozen=True, eq=False)
class PairTables:
    """Every one- and two-column contingency table of a dataset.

    ``gram`` is the int64 Gram matrix of the dataset's one-hot encoding:
    the block ``gram[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]]``
    is the table of columns ``(i, j)``, and the diagonal of block ``(i, i)``
    the table of column ``i``.  It stands in for the dataset wherever a
    statistic reads only ``names``, ``n_rows``, ``cardinalities`` and
    ``counts`` of one or two columns, as :func:`bnsl.weights.pair_stats` does.
    """

    names: tuple[str, ...]
    n_rows: int
    cardinalities: tuple[int, ...]
    offsets: np.ndarray = field(repr=False)
    gram: np.ndarray = field(repr=False)

    def counts(self, cols: Sequence[int]) -> np.ndarray:
        """:meth:`DiscreteDataset.counts` of one or two columns, from the Gram
        matrix."""
        if not 1 <= len(cols) <= 2:
            raise InvalidInput("pair tables count one or two columns")
        o = self.offsets
        i, j = cols[0], cols[-1]
        block = self.gram[o[i]:o[i + 1], o[j]:o[j + 1]]
        return block.diagonal().copy() if len(cols) == 1 else block.copy()


def parse_network(text: str) -> GroundTruthNet:
    """Parse the line-oriented network format into a validated net."""
    names: list[str] = []
    states: list[tuple[str, ...]] = []
    index: dict[str, int] = {}
    arcs: list[tuple[int, int]] = []
    arc_seen: set[tuple[int, int]] = set()
    # cpt rows are collected per child as {config_index: (line_no, probs)}
    rows: dict[int, dict[int, np.ndarray]] = {}
    cpt_lines: list[tuple[int, list[str]]] = []

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tok = line.split()
        kind = tok[0]
        if kind == "var":
            if len(tok) < 3:
                raise NetworkFormatError("var needs a name and a state count", line_no)
            name = tok[1]
            if name in index:
                raise NetworkFormatError(f"duplicate variable '{name}'", line_no)
            try:
                k = int(tok[2])
            except ValueError:
                raise NetworkFormatError(f"bad state count '{tok[2]}'", line_no) from None
            labels = tok[3:]
            if k < 2:
                raise NetworkFormatError("state count must be >= 2", line_no)
            if len(labels) != k or len(set(labels)) != k:
                raise NetworkFormatError(f"expected {k} distinct state labels", line_no)
            index[name] = len(names)
            names.append(name)
            states.append(tuple(labels))
        elif kind == "arc":
            if len(tok) != 3:
                raise NetworkFormatError("arc needs a parent and a child", line_no)
            try:
                p, c = index[tok[1]], index[tok[2]]
            except KeyError as e:
                raise NetworkFormatError(f"unknown variable {e}", line_no) from None
            if p == c:
                raise NetworkFormatError("self arc", line_no)
            if (p, c) in arc_seen:
                raise NetworkFormatError(f"duplicate arc {tok[1]} -> {tok[2]}", line_no)
            arc_seen.add((p, c))
            arcs.append((p, c))
        elif kind == "cpt":
            cpt_lines.append((line_no, tok))  # resolved after all vars/arcs are known
        else:
            raise NetworkFormatError(f"unknown directive '{kind}'", line_no)

    parents = {i: tuple(sorted(p for p, c in arc_seen if c == i)) for i in range(len(names))}

    for line_no, tok in cpt_lines:
        if len(tok) < 2 or tok[1] not in index:
            raise NetworkFormatError("cpt needs a known child variable", line_no)
        child = index[tok[1]]
        rest = tok[2:]
        if rest and rest[0] == "|":
            rest = rest[1:]
        if ":" not in rest:
            raise NetworkFormatError("cpt needs ':' before probabilities", line_no)
        cut = rest.index(":")
        labels, probs_tok = rest[:cut], rest[cut + 1:]
        pars = parents[child]
        if len(labels) != len(pars):
            raise NetworkFormatError(
                f"'{names[child]}' has {len(pars)} parents, got {len(labels)} state labels",
                line_no)
        cfg = 0
        for p, lab in zip(pars, labels):
            if lab not in states[p]:
                raise NetworkFormatError(
                    f"'{lab}' is not a state of '{names[p]}'", line_no)
            cfg = cfg * len(states[p]) + states[p].index(lab)
        try:
            probs = np.array([float(t) for t in probs_tok], dtype=np.float64)
        except ValueError:
            raise NetworkFormatError("bad probability token", line_no) from None
        if probs.size != len(states[child]):
            raise NetworkFormatError(
                f"'{names[child]}' has {len(states[child])} states, got {probs.size} "
                "probabilities", line_no)
        if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= _PROB_TOL):  # NaN too
            raise NetworkFormatError("probability row must sum to 1", line_no)
        per_child = rows.setdefault(child, {})
        if cfg in per_child:
            raise NetworkFormatError("duplicate cpt row for this configuration", line_no)
        per_child[cfg] = probs

    cpts = []
    for i in range(len(names)):
        q = math.prod(len(states[p]) for p in parents[i])
        got = rows.get(i, {})
        if len(got) != q:
            raise NetworkFormatError(
                f"'{names[i]}' needs {q} cpt rows, got {len(got)}")
        cpts.append(np.stack([got[c] for c in range(q)]))

    return GroundTruthNet(tuple(names), tuple(states), tuple(arcs), cpts)


def serialize_network(net: GroundTruthNet) -> str:
    """Inverse of :func:`parse_network`; floats are written exactly."""
    out = []
    for name, labels in zip(net.names, net.states):
        out.append(f"var {name} {len(labels)} " + " ".join(labels))
    for p, c in net.arcs:
        out.append(f"arc {net.names[p]} {net.names[c]}")
    for i, name in enumerate(net.names):
        pars = net.parents_of(i)
        dims = [len(net.states[p]) for p in pars]
        for cfg in range(net.cpts[i].shape[0]):
            labels = [net.states[p][k] for p, k in zip(pars, np.unravel_index(cfg, dims))]
            probs = " ".join(repr(float(v)) for v in net.cpts[i][cfg])
            out.append(f"cpt {name} | " + " ".join(labels) + " : " + probs)
    return "\n".join(out) + "\n"


def load_network(path) -> GroundTruthNet:
    with reading(path) as fh:
        return parse_network(fh.read())


def save_network(net: GroundTruthNet, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_network(net))


def forward_sample(net: GroundTruthNet, n: int, seed: int) -> DiscreteDataset:
    """Ancestral sampling: draw each variable given its sampled parents.

    Deterministic for a fixed ``(net, n, seed)``; variables are drawn in
    topological order (lowest index first among ready nodes).
    """
    if n < 0:
        raise InvalidInput("n must be >= 0")
    rng = np.random.default_rng(seed)
    cards = net.cardinalities
    out = np.zeros((n, net.n_vars), dtype=np.int32, order="F")
    for i in net.topological_order():
        pars = net.parents_of(i)
        cfg = _row_codes([out[:, p] for p in pars], [cards[p] for p in pars], n)
        cdf = np.cumsum(net.cpts[i], axis=1)
        u = rng.random(n)
        # the state is the number of CDF steps before the last at or below u:
        # a cumulative sum of nonnegative terms never decreases, so that is
        # the first state whose cumulative probability exceeds u, and the last
        # state takes the rest of [0, 1) however the row's sum rounds
        out[:, i] = (u >= cdf[:, :-1].T[:, cfg]).sum(axis=0, dtype=np.int32)
    return DiscreteDataset(net.names, cards, out)


def discretize(table, bins: int, names: Sequence[str] | None = None) -> DiscreteDataset:
    """Equal-frequency binning per column; equal values share a bin.

    Each distinct value v is assigned bin ``floor(count_below(v) * bins / N)``
    and bin codes are then compacted to consecutive integers, so bins hold
    N/bins entries up to tie-group granularity.  A column whose values all
    collapse into one bin (constant columns in particular), or that holds a
    NaN, is rejected; an infinite value keeps its place in the order.
    """
    a = np.asarray(table, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] == 0:
        raise InvalidInput("table must be a nonempty 2-D array")
    if bins < 2:
        raise InvalidInput("bins must be >= 2")
    n, v = a.shape
    if names is None:
        names = tuple(f"x{j}" for j in range(v))
    cols = []
    cards = []
    for j in range(v):
        if np.isnan(a[:, j]).any():
            raise InvalidInput(f"column '{names[j]}' holds NaN")
        distinct, first_pos = _distinct_with_counts_below(a[:, j])
        codes = (first_pos * bins) // n
        codes = np.unique(codes, return_inverse=True)[1]  # compact to 0..B-1
        card = int(codes.max()) + 1 if codes.size else 0
        if card < 2:
            raise InvalidInput(
                f"column '{names[j]}' yields a single state after binning")
        cols.append(codes[np.searchsorted(distinct, a[:, j])])
        cards.append(card)
    return DiscreteDataset(tuple(names), tuple(cards), np.stack(cols, axis=1))


def _distinct_with_counts_below(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distinct values and, for each, how many entries are smaller."""
    order = np.sort(col)
    mask = np.empty(order.shape, dtype=bool)
    mask[0] = True
    np.not_equal(order[1:], order[:-1], out=mask[1:])
    distinct = order[mask]
    first_pos = np.flatnonzero(mask)
    return distinct, first_pos


def save_dataset(ds: DiscreteDataset, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(ds.names) + "\n")
        fh.write("# cardinalities " + " ".join(str(k) for k in ds.cardinalities) + "\n")
        np.savetxt(fh, ds.samples, fmt="%d", delimiter="\t")


def load_dataset(path) -> DiscreteDataset:
    """Read a TSV dataset.  Cardinalities come from its ``# cardinalities``
    line; a file without one gets the max observed state + 1, and at least
    2, so a constant column loads."""
    cardinalities = None
    with reading(path) as fh:
        header = fh.readline().rstrip("\n")
        if not header:
            raise InvalidInput("dataset file is empty")
        names = tuple(header.split("\t"))
        start = fh.tell()
        line = fh.readline()
        if line.startswith("# cardinalities"):
            fields = line.split()[2:]
            try:
                cardinalities = tuple(int(k) for k in fields)
            except ValueError as e:
                raise InvalidInput("cardinalities must be integers, "
                                   f"got {line.strip()!r}") from e
            if len(cardinalities) != len(names):
                raise InvalidInput(f"{len(cardinalities)} cardinalities "
                                   f"for {len(names)} variables")
            start = fh.tell()
            line = fh.readline()
        # find the first row past the empty and comment lines, which loadtxt
        # skips too; without one it would warn that the input holds no data
        while line and not line.split("#", 1)[0].rstrip("\n"):
            start = fh.tell()
            line = fh.readline()
        if line:
            fh.seek(start)
            body = np.loadtxt(fh, dtype=np.int64, delimiter="\t", ndmin=2)
        else:
            body = np.empty((0, len(names)), dtype=np.int64)
        if cardinalities is None:
            if body.shape[0] == 0:
                raise InvalidInput("cannot infer cardinalities from an empty dataset")
            cardinalities = tuple(max(2, int(body[:, j].max()) + 1) for j in range(len(names)))
        return DiscreteDataset(names, cardinalities, body)
