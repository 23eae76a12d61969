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
columns once into their distinct rows (the ``distinct`` of the dataset or
view it was given), whose counts, weighted by how many samples share each
row, give the full sample's tables.  The pipeline gives each window its
community's view, so the window codes that view's rows, not the N
samples.  A window of m columns over N samples has at most
min(N, prod of cardinalities) distinct rows, usually far fewer than N,
and a window that ``resolve`` re-learns finds every family in the memo
and codes nothing.  The subset DP and the order engines hand all their
misses to the window at once (``ScoreCache.scores``): each column set
U + {c} is counted once, a set inside a larger needed one by summing an
axis of that one's table (the cached sufficient statistics of Moore &
Lee 1998, "Cached sufficient statistics for efficient machine learning
with large datasets", JAIR 8), and the families of equal table shape are
scored as one stack whose row sums are each family's own pairwise sums,
so every score equals ``bdeu_family_score`` on all rows to the last bit.
Greedy search reads one family at a time, as its moves need them.

``ScoreCache.listed_parent_sets`` is the only code that lists a child's
parent sets under ``max_parents`` and ``SUBSET_BUDGET``.  The DP lists
every child's sets, each within the budget, before it scores them all in
one batch; ``ScoreCache.parent_sets`` scores one child's.  For the
per-order and sampled posteriors and the order marginal, ``_order_terms``
keeps in a memo, by child and a bitmask of its predecessors, the log
normalizer of the sum above and the child's row of edge posteriors, so the
sampler walks each proposed order whole at one memo lookup per position.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .data import DiscreteDataset, ordered_sum, reading
from .errors import (BudgetExceeded, FamilyTooLarge, InvalidInput, check_nodes,
                     check_number, check_number_types)
from .special import gammaln, logsumexp

MAX_FAMILY_CELLS = 2 ** 22
SUBSET_BUDGET = 2 ** 20
# the largest window the DP averages, and so the largest modelavg window;
# its log Z table then holds 16 * 2^16 floats (8 MB)
EXACT_MAX_NODES = 16
# the local learners that ``learn_structure`` runs, by ``LearnerConfig.learner``
LEARNERS = ("modelavg", "greedy")


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
        object.__setattr__(self, "nodes", check_nodes("node", self.nodes))


def _plain_edge(e) -> tuple[int, int]:
    """The edge as a tuple of two plain ints.  One that already is such a
    tuple is returned as the same object, so structures combined from
    others share their edge tuples."""
    if type(e) is tuple and len(e) == 2 and type(e[0]) is int and type(e[1]) is int:
        return e
    a, b = e
    return check_nodes("edge endpoint", (a, b))


@dataclass(frozen=True)
class LocalStructure:
    """A directed structure over a nonempty node subset, with per-edge
    support in [0, 1] keyed by the stored edge tuples (an edge without
    support counts as 1)."""

    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    support: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self):
        nodes = tuple(sorted(set(check_nodes("node", self.nodes))))
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
    added to the dataset's memo under ``("bdeu", ess)``.  Misses are
    counted on the distinct rows of the window, built at the first miss; a
    family outside the window then raises ``InvalidInput``.

    ``family_score`` scores one family and counts its miss alone, as
    greedy search needs.  ``scores`` takes a batch of families by window
    position and scores all its misses in one pass (``_score_families``):
    each column set is counted or summed from a larger one once, and the
    families of equal (q, r) share their arithmetic as one stack.  The
    tables live only for the call.  ``listed_parent_sets`` lists a child's
    parent sets for the order engines, and ``parent_sets`` scores them."""

    def __init__(self, data: DiscreteDataset, ess: float = 10.0, nodes=None):
        if not 0 < ess < math.inf:  # NaN too
            raise InvalidInput(f"ess must be finite and > 0, got {ess!r}")
        n_vars = len(data.cardinalities)
        nodes = range(n_vars) if nodes is None else check_nodes("node", nodes, n_vars)
        if len(set(nodes)) != len(nodes):
            raise InvalidInput("duplicate nodes")
        self.data = data
        self.ess = float(ess)
        self.nodes = tuple(sorted(nodes))
        self._memo = data.memo.setdefault(("bdeu", self.ess), {})
        self._rows = None

    def _view(self):
        if self._rows is None:
            self._rows = self.data.distinct(self.nodes)
        return self._rows

    def family_score(self, child: int, parents) -> float:
        key = (child, tuple(sorted(parents)))
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = bdeu_family_score(self._view(), child, key[1], self.ess)
        return got

    def scores(self, families) -> list[float]:
        """The scores of ``families``, pairs (c, u) of a window position and
        an ascending tuple of positions.  Every miss is checked against
        ``MAX_FAMILY_CELLS`` before any is counted, and then all of them are
        counted and scored in one pass."""
        nodes, memo = self.nodes, self._memo
        keys = [(nodes[c], tuple(nodes[k] for k in u)) for c, u in families]
        missing = [key for key in dict.fromkeys(keys) if key not in memo]
        if missing:
            cards = self.data.cardinalities
            for child, parents in missing:
                _family_shape(cards, child, parents)
            memo.update(zip(missing, _score_families(self._view(), missing, self.ess)))
        return [memo[key] for key in keys]

    def listed_parent_sets(self, c: int, mask: int,
                           max_parents: int) -> list[tuple[int, ...]]:
        """The parent sets of window position c (``nodes[c]``) among the
        positions in the bitmask ``mask`` (bit k set for ``nodes[k]``), up
        to ``max_parents`` and within ``SUBSET_BUDGET``, as tuples of
        positions by size and then lexicographically."""
        ps = [k for k in range(len(self.nodes)) if mask >> k & 1]
        top = min(max_parents, len(ps))
        total = sum(math.comb(len(ps), s) for s in range(top + 1))
        if total > SUBSET_BUDGET:
            raise BudgetExceeded(f"child {self.nodes[c]}: {total} parent sets "
                                 f"exceed the budget of {SUBSET_BUDGET}")
        return [u for size in range(top + 1) for u in itertools.combinations(ps, size)]

    def parent_sets(self, c: int, mask: int,
                    max_parents: int) -> tuple[list[tuple[int, ...]], list[float]]:
        """``listed_parent_sets`` with their scores."""
        sets = self.listed_parent_sets(c, mask, max_parents)
        return sets, self.scores([(c, u) for u in sets])


def _family_shape(cards, child: int, parents: tuple[int, ...]) -> tuple[int, int]:
    """(q, r) of the family's table: q parent configurations and r child
    states.  More than ``MAX_FAMILY_CELLS`` cells raise ``FamilyTooLarge``."""
    r = cards[child]
    q = math.prod(cards[p] for p in parents)
    if q * r > MAX_FAMILY_CELLS:
        raise FamilyTooLarge(
            f"family ({child} | {parents}) needs {q * r} count cells")
    return q, r


def bdeu_family_score(data: DiscreteDataset, child: int, parents,
                      ess: float = 10.0) -> float:
    """BDeu log marginal likelihood of one child given a parent set.

    Pseudo-counts are ``ess / (q * r)`` per cell, q the number of parent
    configurations and r the child cardinality.  An empty dataset scores 0,
    and more than ``MAX_FAMILY_CELLS`` cells raise ``FamilyTooLarge``.
    log Gamma(a + n) is read from the dataset's table for the pseudo-count
    a, kept in its memo under ``"gammaln"`` (``_gammaln_table``).  The
    family is scored as a stack of one by ``_bdeu_scores``.
    """
    child, *parents = check_nodes("column index", (child, *parents), len(data.cardinalities))
    parents = tuple(sorted(set(parents)))
    if child in parents:
        raise InvalidInput("child cannot be its own parent")
    if not 0 < ess < math.inf:  # NaN too
        raise InvalidInput(f"ess must be finite and > 0, got {ess!r}")
    q, r = _family_shape(data.cardinalities, child, parents)
    counts = data.counts(parents + (child,)).reshape(1, q, r)
    return float(_bdeu_scores(data, counts, ess)[0])


def _score_families(rows, families, ess: float) -> list[float]:
    """The BDeu scores of ``families``, distinct (child, ascending parents)
    pairs of columns that ``rows`` holds, each within ``MAX_FAMILY_CELLS``.

    Family (c, U) reads the table of its column set S = U + {c}
    (``_set_tables``) with the child's axis moved last, which is its (q, r)
    table over the sorted parents; one ``transpose`` moves it, as
    ``np.moveaxis`` costs several times more on these small tables.  The families of equal (q, r) are scored
    as one stack by ``_bdeu_scores``.  The stacks are scored and emptied
    whenever they reach ``MAX_FAMILY_CELLS`` cells, so they never hold more
    than that plus the families of one column set.
    """
    by_set: dict[tuple[int, ...], list[int]] = {}
    for k, (child, parents) in enumerate(families):
        by_set.setdefault(tuple(sorted(parents + (child,))), []).append(k)
    cards = rows.cardinalities
    out = [0.0] * len(families)
    stacks: dict[tuple[int, int], tuple[list[int], list[np.ndarray]]] = {}
    held = 0
    for s, t in _set_tables(rows, by_set):
        for k in by_set[s]:
            child = families[k][0]
            q, r = t.size // cards[child], cards[child]
            members, tables = stacks.setdefault((q, r), ([], []))
            members.append(k)
            at = s.index(child)
            axes = tuple(range(at)) + tuple(range(at + 1, len(s))) + (at,)
            tables.append(t.transpose(axes).reshape(q, r))
            held += t.size
        if held >= MAX_FAMILY_CELLS:
            _score_stacks(rows, stacks, ess, out)
            held = 0
    _score_stacks(rows, stacks, ess, out)
    return out


def _set_tables(rows, need):
    """(S, table of S) for every column set S in ``need``, once each.

    The sets go largest first and then in lexicographic order, so
    consecutive counts share the view's prefix slot.  After a set, depth
    first, come the needed sets of one column fewer that have not come yet,
    each summed over that column of the set's table; only a set with no
    needed superset of one more column is counted by ``rows.counts``.
    Integer sums are exact, so every table equals its count, and only the
    tables along one such chain are held at a time.  The subset DP and an
    order's parent sets need every subset of a needed set that holds its
    child, so only their largest sets are counted.
    """
    done = set()

    def down(s, t):
        for i in range(len(s)):
            sub = s[:i] + s[i + 1:]
            if sub in need and sub not in done:
                done.add(sub)
                yield from down(sub, t.sum(axis=i))
        yield s, t

    for s in sorted(need, key=lambda s: (-len(s), s)):
        if s not in done:
            done.add(s)
            yield from down(s, rows.counts(s))


def _score_stacks(rows, stacks: dict, ess: float, out: list[float]) -> None:
    """Score and empty ``stacks``, which map (q, r) to the indices of
    families and their tables, writing each score at its index in ``out``."""
    for members, tables in stacks.values():
        for k, score in zip(members, _bdeu_scores(rows, np.stack(tables), ess).tolist()):
            out[k] = score
    stacks.clear()


def _bdeu_scores(data, counts: np.ndarray, ess: float) -> np.ndarray:
    """The BDeu scores of the families whose (q, r) tables ``counts``
    stacks as one C-contiguous (n, q, r) array, all of ``data``."""
    n, q, r = counts.shape
    nj = counts.sum(axis=2)
    tables = data.memo.setdefault("gammaln", {})
    t_j = _gammaln_table(tables, ess / q, data.n_rows, nj)
    t_jk = _gammaln_table(tables, ess / (q * r), data.n_rows, counts)
    return _bdeu_sum(t_j, t_jk, nj, counts)


def _gammaln_table(tables: dict, a: float, n_rows: int, n: np.ndarray) -> np.ndarray:
    """The table of log Gamma(a + k) for the counts k = 0..``n_rows``, kept in
    ``tables`` and filled at 0 and at the counts ``n``.  An entry not filled
    yet is NaN."""
    t = tables.get(a)
    if t is None:
        t = tables[a] = np.full(n_rows + 1, np.nan)
        t[0] = gammaln(a)
    for k in set(n[np.isnan(t[n])].tolist()):
        t[k] = gammaln(a + k)
    return t


def _bdeu_sum(t_j: np.ndarray, t_jk: np.ndarray, nj: np.ndarray,
              counts: np.ndarray) -> np.ndarray:
    """Each family's BDeu sum over its parent configurations, then over its
    cells, for the (n, q) ``nj`` and the (n, q, r) ``counts``.  Each sum is
    the row sum of a C-contiguous (n, q) or (n, q * r) array, which is the
    pairwise sum of that row alone, as ``np.sum`` takes it on one family:
    a score one ulp off can break a tie between Markov-equivalent
    directions.  (``np.add.reduceat`` would add each row left to right.)"""
    n = len(counts)
    return ((t_j[0] - t_j[nj]).sum(axis=1)
            + (t_jk[counts] - t_jk[0]).reshape(n, -1).sum(axis=1))


_Term = tuple[float, np.ndarray]  # (log Z, row) of one position of an order


def _order_terms(cache: ScoreCache, max_parents: int, order, memo: dict) -> list[_Term]:
    """(log Z, row) of every position of ``order``, first to last.

    ``order`` lists window positions (position k stands for
    ``cache.nodes[k]``).  The term of position c with the predecessors in
    the bitmask S is log Z = log sum_U exp(score(c, U)) over the parent sets
    U that ``cache.parent_sets`` lists, with the row P(j -> c | S); ``memo``
    keeps it by (c, S).  The order marginal adds the log Z from first to
    last, and the posterior fills one column per row.
    """
    mask = 0
    terms = []
    for c in order:
        got = memo.get((c, mask))
        if got is None:
            sets, scores = cache.parent_sets(c, mask, max_parents)
            logz = float(logsumexp(scores))
            members = np.array([k for u in sets for k in u], dtype=np.intp)
            weights = np.repeat(np.exp(np.array(scores) - logz), [len(u) for u in sets])
            # a parent held by every set that carries weight gets a sum of
            # exp(score - log Z) that rounding can lift above 1 by a few ulps
            row = np.bincount(members, weights, minlength=len(cache.nodes))
            got = memo[c, mask] = (logz, np.minimum(row, 1.0))
        terms.append(got)
        mask |= 1 << c
    return terms


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
    cache = ScoreCache(data, ess, order)
    check_number("max_parents", max_parents, least=0)
    order = [cache.nodes.index(v) for v in order]
    mat = np.zeros((len(order), len(order)))
    for c, (_, row) in zip(order, _order_terms(cache, max_parents, order, {})):
        mat[:, c] = row  # column of c is P(. -> c)
    return EdgePosterior(cache.nodes, mat)


def order_log_marginal(data: DiscreteDataset, order, max_parents: int = 3,
                       ess: float = 10.0) -> float:
    """log P(D | order): per-child log-sum over admissible parent sets."""
    order = tuple(order)
    cache = ScoreCache(data, ess, order)
    check_number("max_parents", max_parents, least=0)
    return _log_marginal(_order_terms(cache, max_parents,
                                      [cache.nodes.index(v) for v in order], {}))


def _log_z_table(cache: ScoreCache, max_parents: int) -> np.ndarray:
    """log Z(c, S) for every window position c and predecessor bitmask S.

    Row c starts as score(c, U) at the mask of every parent set U that
    ``cache.listed_parent_sets`` lists for c among all other positions, and
    -inf elsewhere.  Every child's sets are listed, each within the budget,
    before one ``cache.scores`` call scores them all.  A zeta transform in
    log space over the bits of the other positions turns each entry into
    log sum_{U in S} exp(score(c, U)); masks holding c itself stay -inf,
    which keeps c out of its own predecessors below.
    """
    m = len(cache.nodes)
    full = (1 << m) - 1
    listed = [cache.listed_parent_sets(c, full ^ (1 << c), max_parents) for c in range(m)]
    scores = iter(cache.scores([(c, u) for c, sets in enumerate(listed) for u in sets]))
    lz = np.full((m, 1 << m), -np.inf)
    for c, sets in enumerate(listed):
        lz[c, [sum(1 << k for k in u) for u in sets]] = list(itertools.islice(scores, len(sets)))
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
    check_number("max_parents", max_parents, least=0)
    m = len(cache.nodes)
    lz = _log_z_table(cache, max_parents)
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
    return EdgePosterior(cache.nodes, post)


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
            check_number(name, value, least=least)
    check_number("seed", seed, least=0)
    check_number("max_parents", max_parents, least=0)
    if m == 1:
        return EdgePosterior(cache.nodes, np.zeros((1, 1)))
    burn_in = 10 * m if burn_in is None else burn_in
    thin = m if thin is None else thin
    rng = np.random.default_rng(seed)
    order = rng.permutation(m).tolist()
    memo: dict[tuple[int, int], _Term] = {}
    terms = _order_terms(cache, max_parents, order, memo)
    cur = _log_marginal(terms)
    acc = np.zeros((m, m))
    kept = 0
    for step in range(1, burn_in + T * thin + 1):
        a, b = rng.choice(m, size=2, replace=False).tolist()
        order[a], order[b] = order[b], order[a]
        moved = _order_terms(cache, max_parents, order, memo)
        new = _log_marginal(moved)
        if math.log(rng.random()) < new - cur:
            terms, cur = moved, new
        else:
            order[a], order[b] = order[b], order[a]
        if step > burn_in and (step - burn_in) % thin == 0:
            for c, (_, row) in zip(order, terms):
                acc[:, c] += row
            kept += 1
    return EdgePosterior(cache.nodes, acc / kept)


def threshold_edges(post: EdgePosterior, t_avg: float = 0.5) -> LocalStructure:
    """Keep directed edges whose posterior exceeds ``t_avg``.

    If both directions clear the threshold only the larger survives; exact
    ties keep the lexicographically smaller direction.  ``t_avg`` must be a
    real number in [0, 1].
    """
    check_number("t_avg", t_avg, real=True)
    if not 0 <= t_avg <= 1:  # NaN too
        raise InvalidInput(f"t_avg must be in [0, 1], got {t_avg!r}")
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

    Each child keeps the score of its family with one candidate parent
    toggled, read from the score cache the first time a move that needs
    it is legal.  A move changes the families of one or two children, so
    only their toggled scores are dropped; every other child's are reused
    in the next round, and each round's scan only compares numbers.
    """
    check_number("max_parents", max_parents, least=0)
    cache = ScoreCache(data, ess, nodes)
    family = cache.family_score
    nodes = cache.nodes
    parents = {v: frozenset() for v in nodes}
    current = {v: family(v, ()) for v in nodes}
    toggled: dict[int, dict[int, float]] = {v: {} for v in nodes}  # by child, then parent
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

    # each round applies the move of largest gain, ties to the smallest
    # key (kind, u, v) with kinds add 0, delete 1, reverse 2
    while True:
        best = (0.0, ())  # (-gain, key): a move must gain more than 0
        rows = [(v, parents[v], toggled[v], current[v], len(parents[v]) < max_parents)
                for v in nodes]
        for u, pu, tu, cu, u_room in rows:
            au = ancestors(u)
            for v, pv, tv, cv, v_room in rows:
                if u == v:
                    continue
                if u in pv:
                    sv = tv.get(u)
                    if sv is None:
                        sv = tv[u] = family(v, pv - {u})
                    gain = sv - cv
                    if -gain <= best[0] and (-gain, (1, u, v)) < best:
                        best = (-gain, (1, u, v), sv)
                    if u_room and not any(u in ancestors(p) for p in pv if p != u):
                        su = tu.get(v)
                        if su is None:
                            su = tu[v] = family(u, pu | {v})
                        both = gain + (su - cu)
                        if -both <= best[0] and (-both, (2, u, v)) < best:
                            best = (-both, (2, u, v), sv, su)
                elif v_room and v not in au:
                    sv = tv.get(u)
                    if sv is None:
                        sv = tv[u] = family(v, pv | {u})
                    gain = sv - cv
                    if -gain <= best[0] and (-gain, (0, u, v)) < best:
                        best = (-gain, (0, u, v), sv)
        if not best[1]:
            break
        kind, u, v = best[1]
        parents[v] = parents[v] ^ {u}
        current[v] = best[2]
        toggled[v] = {}
        if kind == 2:
            parents[u] = parents[u] | {v}
            current[u] = best[3]
            toggled[u] = {}
        anc.clear()
    edges = tuple(sorted((u, v) for v in nodes for u in parents[v]))
    return LocalStructure(nodes, edges, {e: 1.0 for e in edges})


@dataclass(frozen=True)
class LearnerConfig:
    """How a node subset gets its local structure learned."""

    learner: str = "modelavg"  # one of LEARNERS
    max_parents: int = 3
    ess: float = 10.0
    t_avg: float = 0.5

    def __post_init__(self):
        if self.learner not in LEARNERS:
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
