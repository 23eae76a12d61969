"""Bayesian model averaging over node orders with BDeu family scores.

Conditional on a total order of the nodes, parent sets of each child are
subsets of its predecessors, so the posterior over structures factorizes
per child and edge posteriors have the closed form

    P(j -> i | D, order) = sum_{U ni j} exp(score(i, U)) / sum_U exp(score(i, U))

with U ranging over predecessor subsets up to ``max_parents``.  The order
itself is integrated out exactly, for windows of up to ``EXACT_MAX_NODES``
nodes; ``order_mcmc`` estimates the same average by Metropolis-Hastings
over transpositions, as a library function the pipeline does not call.

The exact average is the forward-backward subset dynamic program of
Koivisto & Sood (2004, "Exact Bayesian structure discovery in Bayesian
networks", JMLR 5).  Every family of at most ``max_parents`` parents is
scored once through the score cache, and a zeta transform in log space
gives log Z(c, S) = log sum_{U in S} exp(score(c, U)) for every child c
and predecessor set S.  The forward sums alpha(S) add the orders of S over
their last node, alpha(S) = sum_{c in S} alpha(S - c) Z(c, S - c), and the
backward sums beta(T) the orders of T placed after the rest over their
first node, beta(T) = sum_{c in T} Z(c, V - T) beta(T - c); both fill one
popcount layer at a time.  Over all orders, c has predecessors S with
weight alpha(S) Z(c, S) beta(V - S - c) / alpha(V), and given S it has
parent j with probability 1 - Z(c, S - j) / Z(c, S), so

    P(j -> c | D) = sum_{S ni j} alpha(S) Z(c, S) beta(V - S - c) / alpha(V)
                                  * (1 - Z(c, S - j) / Z(c, S)).

This takes O(m^2 2^m) time and m 2^m floats for a window of m nodes.

Every learner call scores its families through one ``ScoreCache``: the
window of its nodes.  The window shares the dataset's memo for ``ess``
with every other window on that dataset and, at its first miss, codes its
columns once into their distinct rows (``DiscreteDataset.distinct``); each
miss is then counted on those rows, weighted by how many samples share
each, which gives the full sample's score to the last bit.  A window of m
columns over N samples has at most min(N, prod of cardinalities) distinct
rows, usually far fewer than N, and a window that ``resolve`` re-learns
finds every family in the memo and codes nothing.

One ``_OrderScorer`` per window is the only code that lists and scores a
child's parent sets under ``max_parents`` and ``SUBSET_BUDGET``.  The DP
reads it once per child for the table above.  For the per-order and
sampled posteriors and the order marginal it memoizes, by child and a
bitmask of its predecessors, the log normalizer of the sum above and the
child's row of edge posteriors, so the sampler walks each proposed order
whole at one memo lookup per position.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaln, logsumexp

from .data import DiscreteDataset, check_columns, ordered_sum, reading
from .errors import (BudgetExceeded, FamilyTooLarge, InvalidInput, check_number,
                     check_number_types)

MAX_FAMILY_CELLS = 2 ** 22
SUBSET_BUDGET = 2 ** 20
# the largest window the DP averages, and so the largest modelavg window;
# its log Z table then holds 16 * 2^16 floats (8 MB)
EXACT_MAX_NODES = 16


@dataclass(frozen=True)
class EdgePosterior:
    """Directed edge posteriors over ``nodes``; entry [a, b] is P(a -> b)."""

    nodes: tuple[int, ...]
    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=np.float64)
        k = len(self.nodes)
        if m.shape != (k, k):
            raise InvalidInput(f"matrix must be ({k}, {k})")
        if not ((-1e-12 <= m) & (m <= 1 + 1e-12)).all() or np.diagonal(m).any():  # NaN too
            raise InvalidInput("entries must lie in [0, 1] with a zero diagonal")
        m = np.clip(m, 0.0, 1.0)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "nodes", tuple(int(v) for v in self.nodes))


def _plain_edge(e) -> tuple[int, int]:
    """The edge as a tuple of two plain ints.  One that already is such a
    tuple is returned as the same object, so structures combined from
    others share their edge tuples."""
    if type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int:
        return e
    a, b = e
    return int(a), int(b)


@dataclass(frozen=True)
class LocalStructure:
    """A directed structure over a nonempty node subset, with per-edge
    support in [0, 1] keyed by the stored edge tuples (an edge without
    support counts as 1)."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    support: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        nodes = tuple(sorted(set(int(v) for v in self.nodes)))
        if not nodes:
            raise InvalidInput("a structure needs a nonempty node set")
        object.__setattr__(self, "nodes", nodes)
        ns = set(nodes)
        edges = tuple(sorted(map(_plain_edge, self.edges)))
        for a, b in edges:
            if a == b or a not in ns or b not in ns:
                raise InvalidInput(f"edge ({a}, {b}) outside the node set")
        if len(set(edges)) != len(edges):
            raise InvalidInput("duplicate edges")
        support = {e: self.support[e] for e in edges if e in self.support}
        if len(support) != len(self.support):
            raise InvalidInput("support keyed by an edge the structure lacks")
        for e, v in support.items():
            if not 0.0 <= v <= 1.0:  # NaN too
                raise InvalidInput(f"support of {e} must lie in [0, 1], got {v!r}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "support", support)

    def skeleton(self) -> set[frozenset[int]]:
        return {frozenset(e) for e in self.edges}


class ScoreCache:
    """BDeu family scores by (child, parent set) within the window ``nodes``
    of one dataset (every column when None; kept sorted), read from and
    added to the dataset's memo for ``ess``.  A miss is counted on the
    distinct rows of the window, built at the first miss; a family outside
    the window then raises ``InvalidInput``."""

    def __init__(self, data: DiscreteDataset, ess: float = 10.0, nodes=None):
        if not 0 < ess < math.inf:  # NaN too
            raise InvalidInput(f"ess must be finite and > 0, got {ess!r}")
        nodes = range(data.n_vars) if nodes is None else tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise InvalidInput("duplicate nodes")
        for v in nodes:
            check_number("node", v)
            if not 0 <= v < data.n_vars:
                raise InvalidInput(f"node {v} outside 0..{data.n_vars - 1}")
        self.data = data
        self.ess = float(ess)
        self.nodes = tuple(sorted(map(int, nodes)))
        self._scores = data._family_scores.setdefault(self.ess, {})
        self._rows = None

    def family_score(self, child: int, parents) -> float:
        key = (child, tuple(sorted(parents)))
        got = self._scores.get(key)
        if got is None:
            if self._rows is None:
                self._rows = self.data.distinct(self.nodes)
            got = self._scores[key] = bdeu_family_score(self._rows, child, key[1], self.ess)
        return got


def bdeu_family_score(data: DiscreteDataset, child: int, parents,
                      ess: float = 10.0) -> float:
    """BDeu log marginal likelihood of one child given a parent set.

    Pseudo-counts are ``ess / (q * r)`` per cell, q the number of parent
    configurations and r the child cardinality.  An empty dataset scores 0,
    and more than ``MAX_FAMILY_CELLS`` cells raise ``FamilyTooLarge``.
    """
    parents = tuple(sorted(set(int(p) for p in parents)))
    check_columns(data, (child,) + parents)
    if child in parents:
        raise InvalidInput("child cannot be its own parent")
    if not 0 < ess < math.inf:  # NaN too
        raise InvalidInput(f"ess must be finite and > 0, got {ess!r}")
    cards = data.cardinalities
    r = cards[child]
    q = math.prod(cards[p] for p in parents)
    if q * r > MAX_FAMILY_CELLS:
        raise FamilyTooLarge(
            f"family ({child} | {parents}) needs {q * r} count cells")
    counts = data.counts(parents + (child,)).reshape(q, r).astype(np.float64)
    a_jk = ess / (q * r)
    a_j = ess / q
    nj = counts.sum(axis=1)
    score = (gammaln(a_j) - gammaln(a_j + nj)).sum()
    score += (gammaln(a_jk + counts) - gammaln(a_jk)).sum()
    return float(score)


_Term = tuple[float, np.ndarray]  # (log Z, row) of one position of an order


class _OrderScorer:
    """Order scores of one learning window, memoized by (child, predecessors).

    Orders here are sequences of window positions: position k stands for
    ``nodes[k]``, the k-th smallest node of the cache's window.
    ``parent_sets(c, mask)`` scores, through the cache, the parent sets of
    position c among the predecessors in the bitmask ``mask`` (bit k set
    for position k), up to ``max_parents`` and within ``SUBSET_BUDGET``.
    ``child(c, mask)`` keeps log Z = log sum_U exp(score(c, U)) over them
    with the row P(j -> c | predecessors), and ``walk`` returns these terms
    position by position: the order marginal adds their log Z from first to
    last and the posterior fills one column per row.
    """

    def __init__(self, cache: ScoreCache, max_parents: int):
        check_number("max_parents", max_parents, least=0)
        self.cache = cache
        self.nodes = cache.nodes
        self.pos = {v: a for a, v in enumerate(self.nodes)}
        self.max_parents = max_parents
        self._memo: dict[tuple[int, int], _Term] = {}

    def parent_sets(self, c: int, mask: int) -> tuple[list[tuple[int, ...]], list[float]]:
        """The parent sets of position c within ``mask``, as tuples of
        positions by size and then lexicographically, with their scores."""
        ps = [k for k in range(len(self.nodes)) if mask >> k & 1]
        top = min(self.max_parents, len(ps))
        total = sum(math.comb(len(ps), s) for s in range(top + 1))
        if total > SUBSET_BUDGET:
            raise BudgetExceeded(f"child {self.nodes[c]}: {total} parent sets "
                                 f"exceed the budget of {SUBSET_BUDGET}")
        sets = [u for size in range(top + 1) for u in itertools.combinations(ps, size)]
        nodes = self.nodes
        scores = [self.cache.family_score(nodes[c], tuple(nodes[k] for k in u))
                  for u in sets]
        return sets, scores

    def child(self, c: int, mask: int) -> _Term:
        key = (c, mask)
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = self._enumerate(c, mask)
        return got

    def _enumerate(self, c: int, mask: int) -> _Term:
        sets, scores = self.parent_sets(c, mask)
        logz = float(logsumexp(scores))
        members = np.array([k for u in sets for k in u], dtype=np.intp)
        weights = np.repeat(np.exp(np.array(scores) - logz), [len(u) for u in sets])
        # a parent held by every set that carries weight gets a sum of
        # exp(score - log Z) that rounding can lift above 1 by a few ulps
        row = np.bincount(members, weights, minlength=len(self.nodes))
        return logz, np.minimum(row, 1.0)

    def walk(self, order) -> list[_Term]:
        """(log Z, row) of every position of ``order``, first to last."""
        mask = 0
        terms = []
        for c in order:
            terms.append(self.child(c, mask))
            mask |= 1 << c
        return terms

    def log_marginal(self, order) -> float:
        """log P(D | order), the per-child log Z added from first to last."""
        return _log_marginal(self.walk(order))

    def posterior(self, order) -> np.ndarray:
        """Edge posteriors given the order; column of c is P(. -> c)."""
        mat = np.zeros((len(self.nodes), len(self.nodes)))
        for c, (_, row) in zip(order, self.walk(order)):
            mat[:, c] = row
        return mat


def _log_marginal(terms) -> float:
    return ordered_sum(logz for logz, _ in terms)


def feature_posterior_given_order(data: DiscreteDataset, order,
                                  max_parents: int = 3,
                                  ess: float = 10.0) -> EdgePosterior:
    """Exact edge posteriors conditional on one total order.

    ``order`` lists node indices from first (no predecessors) to last; the
    posterior of j -> i is zero unless j precedes i.
    """
    order = tuple(order)
    scorer = _OrderScorer(ScoreCache(data, ess, order), max_parents)
    return EdgePosterior(scorer.nodes,
                         scorer.posterior([scorer.pos[v] for v in order]))


def order_log_marginal(data: DiscreteDataset, order, max_parents: int = 3,
                       ess: float = 10.0) -> float:
    """log P(D | order): per-child log-sum over admissible parent sets."""
    order = tuple(order)
    scorer = _OrderScorer(ScoreCache(data, ess, order), max_parents)
    return scorer.log_marginal([scorer.pos[v] for v in order])


def _log_z_table(scorer: _OrderScorer) -> np.ndarray:
    """log Z(c, S) for every window position c and predecessor bitmask S.

    Row c starts as score(c, U) at the mask of every parent set U that
    ``scorer`` lists for c among all other positions, and -inf elsewhere.
    A zeta transform in log space over the bits of the other positions
    turns each entry into log sum_{U in S} exp(score(c, U)); masks holding
    c itself stay -inf, which keeps c out of its own predecessors below.
    """
    m = len(scorer.nodes)
    full = (1 << m) - 1
    lz = np.full((m, 1 << m), -np.inf)
    for c in range(m):
        sets, scores = scorer.parent_sets(c, full ^ (1 << c))
        lz[c, [sum(1 << k for k in u) for u in sets]] = scores
        for k in range(m):
            if k != c:
                t = lz[c].reshape(-1, 2, 1 << k)  # t[:, 1] holds the masks with bit k
                np.logaddexp(t[:, 1], t[:, 0], out=t[:, 1])
    return lz


def exact_order_average(data: DiscreteDataset, nodes=None, max_parents: int = 3,
                        ess: float = 10.0) -> EdgePosterior:
    """Average edge posteriors over every order, weighted by exp(marginal).

    Exact, by the subset dynamic program of the module docstring, for up
    to ``EXACT_MAX_NODES`` nodes.
    """
    cache = ScoreCache(data, ess, nodes)
    if len(cache.nodes) > EXACT_MAX_NODES:
        raise InvalidInput(f"exact averaging is limited to {EXACT_MAX_NODES} nodes")
    scorer = _OrderScorer(cache, max_parents)
    m = len(scorer.nodes)
    lz = _log_z_table(scorer)
    full = (1 << m) - 1
    masks = np.arange(1 << m)
    bits = (1 << np.arange(m))[:, None]
    size = sum((masks >> k) & 1 for k in range(m))
    child = np.arange(m)[:, None]
    # -inf until filled: a term whose child c is not in s reads a mask
    # holding c, where lz is -inf, so it drops out of the sums
    alpha = np.full(1 << m, -np.inf)
    beta = np.full(1 << m, -np.inf)
    alpha[0] = beta[0] = 0.0
    for k in range(1, m + 1):
        s = masks[size == k]
        rest = s ^ bits  # row c: s without c
        alpha[s] = np.logaddexp.reduce(alpha[rest] + lz[child, rest], axis=0)
        beta[s] = np.logaddexp.reduce(lz[child, full ^ s] + beta[rest], axis=0)
    post = np.zeros((m, m))
    for c in range(m):
        # the orders that give c the predecessors S, as a share of all orders;
        # masks holding c get lz = -inf and weight 0
        logw = alpha + lz[c] + beta[full ^ (1 << c) ^ masks]
        # their sum is alpha(V) for every c, but exp(logw - alpha(V)) rounds
        # (near -2e4 one ulp of alpha(V) is 4e-12), so divide by the sum taken
        w = np.exp(logw - logw.max())
        w /= w.sum()
        # 0 rather than -inf where w is 0, so that no row reads -inf - -inf
        lzc = np.where(np.isneginf(lz[c]), 0.0, lz[c])
        for j in range(m):
            if j == c:
                continue
            # the pairs (S - j, S) over the masks S holding j
            pair = lzc.reshape(-1, 2, 1 << j)
            rows = -np.expm1(pair[:, 0] - pair[:, 1])  # 1 - Z(c, S - j) / Z(c, S)
            post[j, c] = (w.reshape(-1, 2, 1 << j)[:, 1] * rows).sum()
    return EdgePosterior(scorer.nodes, post)


def order_mcmc(data: DiscreteDataset, T: int = 100, burn_in: int | None = None,
               thin: int | None = None, max_parents: int = 3, ess: float = 10.0,
               seed: int = 0, nodes=None) -> EdgePosterior:
    """Metropolis-Hastings over orders; returns the mean edge posterior.

    Proposals transpose two uniformly chosen positions and are accepted
    with min(1, exp(delta log marginal)).  ``burn_in`` defaults to 10 * m
    and ``thin`` to m.  Deterministic for fixed inputs and seed.  Each step
    walks the proposed order whole through the window's memo and adds its
    log marginal from first to last, exactly as ``order_log_marginal`` does.
    """
    cache = ScoreCache(data, ess, nodes)
    m = len(cache.nodes)
    for name, value, least in (("T", T, 1), ("burn_in", burn_in, 0), ("thin", thin, 1)):
        if value is not None or name == "T":
            check_number(name, value)
            if value < least:
                raise InvalidInput(f"{name} must be >= {least}")
    check_number("seed", seed, least=0)
    scorer = _OrderScorer(cache, max_parents)
    if m == 1:
        return EdgePosterior(scorer.nodes, np.zeros((1, 1)))
    burn_in = 10 * m if burn_in is None else burn_in
    thin = m if thin is None else thin
    rng = np.random.default_rng(seed)
    order = rng.permutation(m).tolist()
    terms = scorer.walk(order)
    cur = _log_marginal(terms)
    acc = np.zeros((m, m))
    kept = 0
    for step in range(1, burn_in + T * thin + 1):
        a, b = rng.choice(m, size=2, replace=False).tolist()
        order[a], order[b] = order[b], order[a]
        moved = scorer.walk(order)
        new = _log_marginal(moved)
        if math.log(rng.random()) < new - cur:
            terms, cur = moved, new
        else:
            order[a], order[b] = order[b], order[a]
        if step > burn_in and (step - burn_in) % thin == 0:
            for c, (_, row) in zip(order, terms):
                acc[:, c] += row
            kept += 1
    return EdgePosterior(scorer.nodes, acc / kept)


def threshold_edges(post: EdgePosterior, t_avg: float = 0.5) -> LocalStructure:
    """Keep directed edges whose posterior exceeds ``t_avg``.

    If both directions clear the threshold only the larger survives; exact
    ties keep the lexicographically smaller direction.
    """
    edges = []
    support = {}
    k = len(post.nodes)
    for a in range(k):
        for b in range(k):
            if a == b or post.matrix[a, b] <= t_avg:
                continue
            fwd, rev = post.matrix[a, b], post.matrix[b, a]
            if rev > t_avg and (rev > fwd or (rev == fwd and (b, a) < (a, b))):
                continue
            e = (post.nodes[a], post.nodes[b])
            edges.append(e)
            support[e] = float(fwd)
    return LocalStructure(post.nodes, tuple(edges), support)


def greedy_learn(data: DiscreteDataset, nodes=None, max_parents: int = 3,
                 ess: float = 10.0) -> LocalStructure:
    """Steepest-ascent hill climbing with add/delete/reverse moves.

    The search is fully deterministic (fixed move ordering, ties to the
    lexicographically smallest move).  Adding u -> v is legal iff v is not
    an ancestor of u, and reversing u -> v iff u is not an ancestor of any
    other parent p of v (a path from u to p cannot use u -> v, as p -> v
    would close a cycle).
    """
    check_number("max_parents", max_parents, least=0)
    cache = ScoreCache(data, ess, nodes)
    nodes = cache.nodes
    parents = {v: frozenset() for v in nodes}
    current = {v: cache.family_score(v, ()) for v in nodes}
    anc: dict[int, set[int]] = {}  # in the current graph, filled on first use

    def ancestors(x: int) -> set[int]:
        if x not in anc:
            got = anc[x] = set()
            stack = [x]
            while stack:
                new = parents[stack.pop()] - got
                got |= new
                stack += new
        return anc[x]

    def moves():
        """Each legal move as its delta, its tie key, and the child, new
        parent set and score of every child it changes."""
        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                pv = parents[v]
                if u in pv:
                    without = pv - {u}
                    sv = cache.family_score(v, without)
                    yield sv - current[v], (1, u, v), ((v, without, sv),)
                    if (len(parents[u]) < max_parents
                            and not any(u in ancestors(p) for p in without)):
                        nu = parents[u] | {v}
                        su = cache.family_score(u, nu)
                        yield ((sv - current[v]) + (su - current[u]), (2, u, v),
                               ((v, without, sv), (u, nu, su)))
                elif len(pv) < max_parents and v not in ancestors(u):
                    nv = pv | {u}
                    sv = cache.family_score(v, nv)
                    yield sv - current[v], (0, u, v), ((v, nv, sv),)

    # each round applies the move of largest gain, ties to the smallest key
    while best := min((m for m in moves() if m[0] > 0.0), key=lambda m: (-m[0], m[1]),
                      default=None):
        for v, pv, sv in best[2]:
            parents[v], current[v] = pv, sv
        anc.clear()
    edges = tuple(sorted((u, v) for v in nodes for u in parents[v]))
    return LocalStructure(nodes, edges, {e: 1.0 for e in edges})


@dataclass(frozen=True)
class LearnerConfig:
    """How a node subset gets its local structure learned."""

    learner: str = "modelavg"  # "modelavg" or "greedy"
    max_parents: int = 3
    ess: float = 10.0
    t_avg: float = 0.5

    def __post_init__(self):
        if self.learner not in ("modelavg", "greedy"):
            raise InvalidInput(f"unknown learner '{self.learner}'")
        check_number_types(self, integers=("max_parents",), reals=("ess", "t_avg"))
        for name, ok, rule in (
                ("max_parents", self.max_parents >= 0, ">= 0"),
                ("ess", self.ess > 0, "> 0"),
                ("ess", math.isfinite(self.ess), "finite"),
                ("t_avg", 0 <= self.t_avg <= 1, "in [0, 1]")):
            if not ok:
                raise InvalidInput(f"{name} must be {rule}, got {getattr(self, name)!r}")


def learn_structure(data: DiscreteDataset, nodes, config: LearnerConfig) -> LocalStructure:
    """Run the configured learner on a node subset.

    Model averaging thresholds the exact order-averaged posteriors, so it
    takes windows of up to ``EXACT_MAX_NODES`` nodes and raises
    ``InvalidInput`` on a larger one.
    """
    if config.learner == "greedy":
        return greedy_learn(data, nodes, config.max_parents, config.ess)
    post = exact_order_average(data, nodes, config.max_parents, config.ess)
    return threshold_edges(post, config.t_avg)


def save_structure(s: LocalStructure, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# nodes {' '.join(str(v) for v in s.nodes)}\n")
        for a, b in s.edges:
            fh.write(f"{a} -> {b}\n")


def load_structure(path) -> LocalStructure:
    nodes: tuple[int, ...] = ()
    edges = []
    with reading(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            try:
                if line.startswith("# nodes"):
                    nodes = tuple(int(t) for t in line.split()[2:])
                    continue
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                a, arrow, b = line.split()
                if arrow != "->":
                    raise ValueError(arrow)
                edges.append((int(a), int(b)))
            except ValueError as e:
                raise InvalidInput(f"line {line_no}: expected '<a> -> <b>' "
                                   f"or '# nodes <v>...', got {line.strip()!r}") from e
        if not nodes:
            nodes = tuple(sorted({v for e in edges for v in e}))
        return LocalStructure(nodes, tuple(edges))
