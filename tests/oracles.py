"""Reference implementations used to cross-check library results.

Every helper here recomputes a quantity with a deliberately different
algorithm from the one in the library (plain dict loops instead of
vectorized counting, threshold sweeps instead of agglomerative merges,
sequential predictive products instead of gamma-function algebra, a
graph walk per candidate move instead of one ancestor map per round), so a
test that compares the two exercises independent code paths.  The one
exception is the section of earlier per-caller encoders, which repeat the
library's arithmetic on purpose so that a test can compare with ``==``.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left

import networkx as nx
import numpy as np
from scipy.special import gammaln


# ---------------------------------------------------------------------------
# Information measures.
# ---------------------------------------------------------------------------

def entropy_of(counts) -> float:
    total = float(sum(counts))
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return h


def mutual_information_of(xs, ys) -> float:
    n = len(xs)
    joint: dict[tuple[int, int], int] = {}
    mx: dict[int, int] = {}
    my: dict[int, int] = {}
    for a, b in zip(xs, ys):
        joint[(a, b)] = joint.get((a, b), 0) + 1
        mx[a] = mx.get(a, 0) + 1
        my[b] = my.get(b, 0) + 1
    mi = 0.0
    for (a, b), c in joint.items():
        p = c / n
        mi += p * math.log(p * n * n / (mx[a] * my[b]))
    return max(mi, 0.0)


def conditional_mi_of(xs, ys, zs) -> float:
    """CMI via the weighted sum of per-stratum mutual informations."""
    n = len(xs)
    strata: dict[tuple, list[int]] = {}
    for idx, key in enumerate(zip(*zs)) if zs else enumerate([()] * n):
        strata.setdefault(tuple(key), []).append(idx)
    cmi = 0.0
    for rows in strata.values():
        w = len(rows) / n
        cmi += w * mutual_information_of([xs[i] for i in rows],
                                         [ys[i] for i in rows])
    return cmi


# ---------------------------------------------------------------------------
# Per-caller encoders: MI, CMI and BDeu as each coded its own columns before
# ``DiscreteDataset.counts`` took the counting over.  Same codes, same float
# arithmetic, so the library must match these bit for bit.
# ---------------------------------------------------------------------------

def _entropy_nats(counts) -> float:
    c = np.asarray(counts, dtype=np.float64).ravel()
    p = c[c > 0] / c.sum()
    return float(-(p * np.log(p)).sum())


def mi_by_pair_code(data, i: int, j: int) -> float:
    """MI from the two-column code ``i * r_j + j``."""
    ri, rj = data.cardinalities[i], data.cardinalities[j]
    joint = np.bincount(data.column(i).astype(np.int64) * rj + data.column(j),
                        minlength=ri * rj).reshape(ri, rj).astype(np.float64)
    n = joint.sum()
    pi = joint.sum(axis=1) / n
    pj = joint.sum(axis=0) / n
    mask = joint > 0
    pij = joint[mask] / n
    outer = np.outer(pi, pj)[mask]
    return float(max((pij * np.log(pij / outer)).sum(), 0.0))


def cmi_by_four_bincounts(data, x: int, y: int, z=()) -> float:
    """H(XZ) + H(YZ) - H(XYZ) - H(Z), one ``bincount`` pass per term."""
    z = tuple(sorted(set(int(v) for v in z)))
    cards = data.cardinalities
    cfg_z = np.zeros(data.n_rows, dtype=np.int64)
    for v in z:
        cfg_z = cfg_z * cards[v] + data.column(v)
    cfg_xz = cfg_z * cards[x] + data.column(x)
    cfg_yz = cfg_z * cards[y] + data.column(y)
    cfg_xyz = cfg_xz * cards[y] + data.column(y)
    h = (_entropy_nats(np.bincount(cfg_xz)) + _entropy_nats(np.bincount(cfg_yz))
         - _entropy_nats(np.bincount(cfg_xyz)) - _entropy_nats(np.bincount(cfg_z)))
    return max(float(h), 0.0)


def bdeu_by_parent_loop(data, child: int, parents, ess: float = 10.0) -> float:
    """BDeu with the parent configuration built one sorted parent at a time."""
    parents = tuple(sorted(set(int(p) for p in parents)))
    cards = data.cardinalities
    r = cards[child]
    q = 1
    for p in parents:
        q *= cards[p]
    cfg = np.zeros(data.n_rows, dtype=np.int64)
    for p in parents:
        cfg = cfg * cards[p] + data.column(p)
    counts = np.bincount(cfg * r + data.column(child), minlength=q * r)
    counts = counts.reshape(q, r).astype(np.float64)
    a_jk = ess / (q * r)
    a_j = ess / q
    nj = counts.sum(axis=1)
    score = (gammaln(a_j) - gammaln(a_j + nj)).sum()
    score += (gammaln(a_jk + counts) - gammaln(a_jk)).sum()
    return float(score)


# ---------------------------------------------------------------------------
# PageRank by dense power iteration.
# ---------------------------------------------------------------------------

def pagerank_of(weights, damping: float = 0.85, tol: float = 1e-10) -> np.ndarray:
    """PageRank of the undirected graph whose pair weights are the upper
    triangle of ``weights``, by dense matrix power iteration."""
    w = np.triu(weights, 1)
    w = w + w.T
    n = w.shape[0]
    strength = w.sum(axis=0)
    m = np.zeros((n, n))
    for j in range(n):
        if strength[j] > 0:
            m[:, j] = w[:, j] / strength[j]
        else:
            m[:, j] = 1.0 / n
    v = np.full(n, 1.0 / n)
    for _ in range(10000):
        nxt = (1.0 - damping) / n + damping * (m @ v)
        if np.abs(nxt - v).sum() < tol:
            v = nxt
            break
        v = nxt
    return v / v.sum()


# ---------------------------------------------------------------------------
# Pair weights, one scalar statistic per pair.
# ---------------------------------------------------------------------------

def pair_weights_of(data, fn: str) -> dict[tuple[int, int], float]:
    """Every pair's weight from scalar per-pair and per-column statistics.

    Unlike the other helpers, this one shares bnsl's scalar primitives
    (``mutual_information``, ``entropy``, ``pagerank``): it is the
    bit-exact reference for how the seven functions combine them.  Each
    pair's MI is computed on its own, the normalizations are scalar
    arithmetic in a dict loop, and Pearson is ``np.corrcoef`` on a
    row-major copy of the samples.
    """
    from bnsl.weights import entropy, mutual_information, pagerank

    n = data.n_vars
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if fn in ("Pearson", "Pearson_sn"):
        rows = np.ascontiguousarray(data.samples)
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = np.nan_to_num(np.corrcoef(rows.T.astype(np.float64)), nan=0.0)
        w = {(i, j): abs(float(corr[i, j])) for i, j in pairs}
    else:
        w = {(i, j): mutual_information(data, i, j) for i, j in pairs}
        h = [entropy(np.bincount(data.column(i), minlength=data.cardinalities[i]))
             for i in range(n)]
        if fn == "MI_pr":
            mi = np.zeros((n, n))
            for (i, j), v in w.items():
                mi[i, j] = mi[j, i] = v
            pr = pagerank(mi)
            w = {(i, j): v / math.sqrt(pr[i] * pr[j]) for (i, j), v in w.items()}
        elif fn == "MI_plus":
            w = {(i, j): 2.0 * v / (h[i] + h[j]) for (i, j), v in w.items()}
        elif fn == "MI_sqrt":
            w = {(i, j): v / math.sqrt(h[i] * h[j]) for (i, j), v in w.items()}
    if fn.endswith("_sn"):
        vals = np.array(list(w.values()))
        mu, sd = float(vals.mean()), float(vals.std())
        w = {k: (v - mu) / sd for k, v in w.items()}
    return w


# ---------------------------------------------------------------------------
# Equal-frequency codes by sorting and bisection.
# ---------------------------------------------------------------------------

def equal_frequency_codes(column, bins: int) -> list[int]:
    ordered = sorted(column)
    n = len(column)
    raw = [bisect_left(ordered, v) * bins // n for v in column]
    remap = {r: i for i, r in enumerate(sorted(set(raw)))}
    return [remap[r] for r in raw]


# ---------------------------------------------------------------------------
# Link communities by threshold sweep over edge-similarity levels.
# ---------------------------------------------------------------------------

def _inclusive_neighborhood(g, node: int) -> dict[int, float]:
    adj = dict(g.adjacency(node))
    vec = dict(adj)
    vec[node] = sum(adj.values()) / len(adj) if adj else 0.0
    return vec


def _tanimoto_of(a: dict[int, float], b: dict[int, float]) -> float:
    dot = sum(w * b[k] for k, w in a.items() if k in b)
    na = sum(w * w for w in a.values())
    nb = sum(w * w for w in b.values())
    denom = na + nb - dot
    return dot / denom if denom > 0 else 0.0


def edge_pair_similarities_of(g) -> dict[tuple[int, int], float]:
    """The Tanimoto similarity of every pair of edges that share a node,
    keyed by their indices k1 < k2 in ``g.edges()``, by dict loops that add
    left to right.  A node's inclusive vector is its adjacency in ascending
    neighbour order with its mean weight appended, and the dot product of
    the outer endpoints u < v runs over u's keys."""
    def add(values):
        total = 0.0
        for x in values:
            total += x
        return total

    vec = {}
    for v in range(g.n):
        adj = {k: g.weight(v, k) for k in g.neighbors(v)}
        if adj:
            vec[v] = {**adj, v: add(adj.values()) / len(adj)}
    norm2 = {v: add(w * w for w in x.values()) for v, x in vec.items()}
    edges = g.edges()
    out = {}
    for k1, e1 in enumerate(edges):
        for k2 in range(k1 + 1, len(edges)):
            shared = set(e1) & set(edges[k2])
            if shared:
                (c,) = shared
                u, v = sorted((sum(e1) - c, sum(edges[k2]) - c))
                dot = add(w * vec[v][k] for k, w in vec[u].items() if k in vec[v])
                den = norm2[u] + norm2[v] - dot
                out[k1, k2] = dot / den if den > 0 else 0.0
    return out


def partition_density_of(clusters) -> float:
    """Average partition density of a list of edge lists."""
    m_total = sum(len(c) for c in clusters)
    if m_total == 0:
        return 0.0
    acc = 0.0
    for c in clusters:
        nodes = {v for e in c for v in e}
        mc, nc = len(c), len(nodes)
        if nc > 2:
            acc += mc * (mc - nc + 1) / ((nc - 2) * (nc - 1))
    return 2.0 / m_total * acc


def link_communities_of(g):
    """Best-density link clustering found by sweeping similarity thresholds.

    Single-linkage merging up to similarity level t yields the connected
    components of the edge-pair graph restricted to similarities >= t, so
    sweeping the distinct similarity values (plus an above-maximum level
    for the zero-merge state) visits exactly the clusterings the
    agglomerative procedure can produce.  The highest-threshold clustering
    of maximum density wins, matching the fewest-merges tie rule.  Returns
    node communities as a sorted tuple of sorted tuples.
    """
    edges = list(g.edges())
    if not edges:
        return tuple((v,) for v in range(g.n))
    hoods = {v: _inclusive_neighborhood(g, v) for v in range(g.n)}
    sims = {}
    for shared in range(g.n):
        incident = [e for e in edges if shared in e]
        for e1, e2 in itertools.combinations(incident, 2):
            a = e1[0] if e1[1] == shared else e1[1]
            b = e2[0] if e2[1] == shared else e2[1]
            key = tuple(sorted((e1, e2)))
            sims[key] = max(sims.get(key, -1.0),
                            _tanimoto_of(hoods[a], hoods[b]))
    levels = sorted(set(sims.values()), reverse=True)
    best_clusters = [[e] for e in edges]
    best_density = partition_density_of(best_clusters)
    for t in levels:
        pair_graph = nx.Graph()
        pair_graph.add_nodes_from(edges)
        for (e1, e2), s in sims.items():
            if s >= t:
                pair_graph.add_edge(e1, e2)
        clusters = [sorted(c) for c in nx.connected_components(pair_graph)]
        d = partition_density_of(clusters)
        if d > best_density + 1e-12:
            best_density, best_clusters = d, clusters
    communities = set()
    covered = set()
    for c in best_clusters:
        nodes = tuple(sorted({v for e in c for v in e}))
        communities.add(nodes)
        covered.update(nodes)
    for v in range(g.n):
        if v not in covered:
            communities.add((v,))
    return tuple(sorted(communities))


def co_occurrence_of(partitions) -> list[list[float]]:
    """Entry [v][u]: of the communities holding v, across all partitions,
    the share that also hold u, counted one community at a time."""
    comms = [set(c) for p in partitions for c in p.communities]
    out = []
    for v in range(partitions[0].n):
        holding = [c for c in comms if v in c]
        out.append([sum(u in c for c in holding) / len(holding)
                    for u in range(partitions[0].n)])
    return out


# ---------------------------------------------------------------------------
# Ancestral sampling by the first CDF entry above each draw.
# ---------------------------------------------------------------------------

def argmax_forward_sample(net, n: int, seed: int) -> np.ndarray:
    """``forward_sample``'s samples, each state drawn as the first index whose
    cumulative probability exceeds the uniform draw (an argmax over an
    (n, k) gather of the CDF rows), from the same random stream."""
    rng = np.random.default_rng(seed)
    cards = net.cardinalities
    out = np.zeros((n, net.n_vars), dtype=np.int32, order="F")
    for i in net.topological_order():
        cfg = np.zeros(n, dtype=np.int64)
        for p in net.parents_of(i):
            cfg = cfg * cards[p] + out[:, p]
        cdf = np.cumsum(net.cpts[i], axis=1)
        cdf[:, -1] = 1.0
        u = rng.random(n)
        out[:, i] = (u[:, None] < cdf[cfg]).argmax(axis=1)
    return out


# ---------------------------------------------------------------------------
# Structural Markov blankets.
# ---------------------------------------------------------------------------

def markov_blanket_of(net, x: int) -> frozenset[int]:
    parents = set(net.parents_of(x))
    children = set(net.children_of(x))
    spouses = set()
    for c in children:
        spouses |= set(net.parents_of(c))
    return frozenset((parents | children | spouses) - {x})


# ---------------------------------------------------------------------------
# BDeu by sequential Dirichlet-multinomial prediction.
# ---------------------------------------------------------------------------

def family_log_predictive(samples, child: int, parents, cards,
                          ess: float = 10.0) -> float:
    """ln P(child column | parent columns) accumulated row by row.

    Walks the data once, multiplying the posterior-predictive probability
    of each observation given the rows seen so far.  No gamma functions
    are involved, so this is an independent route to the same marginal
    likelihood as the closed-form score.
    """
    parents = tuple(sorted(parents))
    q = 1
    for p in parents:
        q *= cards[p]
    r = cards[child]
    a_jk = ess / (q * r)
    a_j = ess / q
    seen: dict[tuple, dict[int, int]] = {}
    totals: dict[tuple, int] = {}
    logp = 0.0
    for row in samples:
        key = tuple(int(row[p]) for p in parents)
        x = int(row[child])
        cell = seen.setdefault(key, {})
        tot = totals.get(key, 0)
        logp += math.log((a_jk + cell.get(x, 0)) / (a_j + tot))
        cell[x] = cell.get(x, 0) + 1
        totals[key] = tot + 1
    return logp


def dag_log_predictive(samples, arcs, cards, ess: float = 10.0,
                       _memo: dict | None = None) -> float:
    parents: dict[int, list[int]] = {i: [] for i in range(len(cards))}
    for p, c in arcs:
        parents[c].append(p)
    total = 0.0
    for child in range(len(cards)):
        key = (child, tuple(sorted(parents[child])))
        if _memo is not None and key in _memo:
            total += _memo[key]
            continue
        score = family_log_predictive(samples, child, parents[child],
                                      cards, ess)
        if _memo is not None:
            _memo[key] = score
        total += score
    return total


# ---------------------------------------------------------------------------
# Edge posteriors by DAG enumeration with linear-extension weighting.
# ---------------------------------------------------------------------------

def _is_acyclic(m: int, arcs) -> bool:
    children: dict[int, list[int]] = {i: [] for i in range(m)}
    indeg = [0] * m
    for p, c in arcs:
        children[p].append(c)
        indeg[c] += 1
    queue = [v for v in range(m) if indeg[v] == 0]
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                queue.append(c)
    return seen == m


def _linear_extensions(m: int, arcs) -> int:
    count = 0
    for perm in itertools.permutations(range(m)):
        pos = {v: i for i, v in enumerate(perm)}
        if all(pos[p] < pos[c] for p, c in arcs):
            count += 1
    return count


def dag_enumeration_posterior(samples, cards, ess: float = 10.0,
                              max_parents: int = 3) -> np.ndarray:
    """P(i -> j) by enumerating every bounded-in-degree DAG.

    Each DAG is weighted by exp(log marginal likelihood) times its number
    of linear extensions, which makes the result comparable to averaging
    order-conditional posteriors uniformly over all orders.
    """
    m = len(cards)
    all_arcs = [(i, j) for i in range(m) for j in range(m) if i != j]
    memo: dict = {}
    log_weights, dags = [], []
    for mask in range(1 << len(all_arcs)):
        arcs = [a for k, a in enumerate(all_arcs) if mask >> k & 1]
        indeg = [0] * m
        for _, c in arcs:
            indeg[c] += 1
        if max(indeg, default=0) > max_parents or not _is_acyclic(m, arcs):
            continue
        ext = _linear_extensions(m, arcs)
        score = dag_log_predictive(samples, arcs, cards, ess, memo)
        log_weights.append(score + math.log(ext))
        dags.append(arcs)
    top = max(log_weights)
    weights = [math.exp(lw - top) for lw in log_weights]
    z = sum(weights)
    post = np.zeros((m, m))
    for w, arcs in zip(weights, dags):
        for p, c in arcs:
            post[p, c] += w / z
    return post


# ---------------------------------------------------------------------------
# Naive full-rescan merge scheduling.
# ---------------------------------------------------------------------------

def naive_merge_sequence(keys):
    """Greedy max-Jaccard merge order with a full rescan every round.

    ``keys`` is a list of node tuples.  Every round recomputes all pair
    similarities (each counted as one evaluation), merges the best pair
    (ties: larger union first, then lexicographically smallest pair of
    keys), and records the sorted key pair.  Returns (sequence, evals).
    """
    pool = [tuple(sorted(k)) for k in keys]
    sequence = []
    evals = 0
    while len(pool) > 1:
        best_rank, best = None, None
        for a, b in itertools.combinations(range(len(pool)), 2):
            sa, sb = set(pool[a]), set(pool[b])
            s = len(sa & sb) / len(sa | sb)
            evals += 1
            rank = (-s, -len(sa | sb), tuple(sorted((pool[a], pool[b]))))
            if best_rank is None or rank < best_rank:
                best_rank, best = rank, (a, b)
        a, b = best
        ka, kb = pool[a], pool[b]
        sequence.append(tuple(sorted((ka, kb))))
        merged = tuple(sorted(set(ka) | set(kb)))
        pool = [k for i, k in enumerate(pool) if i not in (a, b)]
        pool.append(merged)
    return sequence, evals


# ---------------------------------------------------------------------------
# Order MCMC with a full rescore on every step.
# ---------------------------------------------------------------------------

def order_mcmc_reference(data, T: int = 100, burn_in: int | None = None,
                         thin: int | None = None, max_parents: int = 3,
                         ess: float = 10.0, seed: int = 0, nodes=None):
    """The transposition chain of ``order_mcmc``, rescoring whole orders.

    Same random stream and acceptance rule as the library, but the memo is
    keyed by frozensets of predecessor nodes, log Z comes from
    ``scipy.special.logsumexp``, every step recomputes the full order log
    marginal, and every kept sample builds a full posterior matrix.  Rows
    are clipped at 1, as the library clips them.  Returns the mean
    posterior as an ``EdgePosterior``.
    """
    from scipy.special import logsumexp

    from bnsl.averaging import SUBSET_BUDGET, EdgePosterior, ScoreCache

    cache = ScoreCache(data, ess)
    nodes = tuple(sorted(range(data.n_vars) if nodes is None else nodes))
    m = len(nodes)
    pos = {v: a for a, v in enumerate(nodes)}
    memo: dict = {}

    def child(c, preds):
        key = (c, frozenset(preds))
        if key not in memo:
            ps = sorted(preds)
            top = min(max_parents, len(ps))
            total = sum(math.comb(len(ps), s) for s in range(top + 1))
            if total > SUBSET_BUDGET:
                raise ValueError(f"child {c}: {total} parent sets over budget")
            sets = [u for size in range(top + 1)
                    for u in itertools.combinations(ps, size)]
            scores = [cache.family_score(c, u) for u in sets]
            logz = float(logsumexp(scores))
            members = np.array([pos[j] for u in sets for j in u], dtype=np.intp)
            weights = np.repeat(np.exp(np.array(scores) - logz),
                                [len(u) for u in sets])
            row = np.bincount(members, weights, minlength=m)
            memo[key] = (logz, np.minimum(row, 1.0))
        return memo[key]

    def log_marginal(order):
        total = 0.0
        for p, c in enumerate(order):
            total += child(c, order[:p])[0]
        return total

    def posterior(order):
        mat = np.zeros((m, m))
        for p, c in enumerate(order):
            mat[:, pos[c]] = child(c, order[:p])[1]
        return mat

    if m == 1:
        return EdgePosterior(nodes, np.zeros((1, 1)))
    burn_in = 10 * m if burn_in is None else burn_in
    thin = m if thin is None else thin
    rng = np.random.default_rng(seed)
    order = [nodes[k] for k in rng.permutation(m)]
    cur = log_marginal(order)
    acc = np.zeros((m, m))
    kept = 0
    for step in range(1, burn_in + T * thin + 1):
        a, b = rng.choice(m, size=2, replace=False)
        order[a], order[b] = order[b], order[a]
        new = log_marginal(order)
        if math.log(rng.random()) < new - cur:
            cur = new
        else:
            order[a], order[b] = order[b], order[a]
        if step > burn_in and (step - burn_in) % thin == 0:
            acc += posterior(order)
            kept += 1
    return EdgePosterior(nodes, acc / kept)


# ---------------------------------------------------------------------------
# Exact order averaging by enumerating every order.
# ---------------------------------------------------------------------------

def exact_order_average_by_enumeration(data, nodes=None, max_parents: int = 3,
                                       ess: float = 10.0):
    """Edge posteriors averaged over all m! orders, weighted by exp(marginal).

    Each order is walked through the library's ``_order_terms``, whose
    per-order terms the sampler tests check separately, on one memo for all
    orders, and the order weights are normalized by their own sum.
    Feasible for about 8 nodes.
    """
    from bnsl.averaging import (EdgePosterior, ScoreCache, _log_marginal, _order_terms,
                                logsumexp)

    cache = ScoreCache(data, ess, nodes)
    m = len(cache.nodes)
    memo: dict = {}
    logw, posts = [], []
    for o in itertools.permutations(range(m)):
        terms = _order_terms(cache, max_parents, o, memo)
        logw.append(_log_marginal(terms))
        post = np.zeros((m, m))
        for c, (_, row) in zip(o, terms):
            post[:, c] = row
        posts.append(post)
    logw = np.array(logw)
    w = np.exp(logw - logsumexp(logw))
    w /= w.sum()
    return EdgePosterior(cache.nodes, np.tensordot(w, np.stack(posts), axes=1))


# ---------------------------------------------------------------------------
# Greedy hill climbing with a graph walk per candidate move.
# ---------------------------------------------------------------------------

def greedy_learn_reference(data, nodes=None, max_parents: int = 3, ess: float = 10.0):
    """The steepest-ascent search of ``greedy_learn``, checking each
    candidate move by its own walk up the parents.

    Same move order, tie key ``(0|1|2, u, v)`` and score deltas as the
    library, but parent sets are mutable sets, a reversal is tested by
    taking u -> v out of the graph, walking from v and putting it back,
    and the best move is applied by its kind.  Family scores are read
    through ``ScoreCache.family_score``.  Returns the edges as a sorted
    tuple.
    """
    from bnsl.averaging import ScoreCache

    cache = ScoreCache(data, ess, nodes)
    nodes = cache.nodes
    parents: dict[int, set[int]] = {v: set() for v in nodes}

    def creates_cycle(tail: int, head: int) -> bool:
        # adding tail -> head closes a cycle iff head is an ancestor of tail
        stack, seen = [tail], set()
        while stack:
            x = stack.pop()
            if x == head:
                return True
            for p in parents[x]:
                if p not in seen:
                    seen.add(p)
                    stack.append(p)
        return False

    def family(v: int) -> float:
        return cache.family_score(v, tuple(parents[v]))

    current = {v: family(v) for v in nodes}
    while True:
        best = None

        def consider(delta: float, key: tuple, move: tuple) -> None:
            nonlocal best
            if delta <= 0.0:
                return
            if best is None or delta > best[0] or (delta == best[0] and key < best[1]):
                best = (delta, key, move)

        for u in nodes:
            for v in nodes:
                if u == v:
                    continue
                if u in parents[v]:
                    without = cache.family_score(v, tuple(parents[v] - {u}))
                    consider(without - current[v], (1, u, v), ("del", u, v, without, None))
                    if len(parents[u]) < max_parents:
                        parents[v].discard(u)
                        cyc = creates_cycle(v, u)
                        parents[v].add(u)
                        if not cyc:
                            nu = cache.family_score(u, tuple(parents[u] | {v}))
                            delta = (without - current[v]) + (nu - current[u])
                            consider(delta, (2, u, v), ("rev", u, v, without, nu))
                elif len(parents[v]) < max_parents and not creates_cycle(u, v):
                    nv = cache.family_score(v, tuple(parents[v] | {u}))
                    consider(nv - current[v], (0, u, v), ("add", u, v, nv, None))
        if best is None:
            break
        _, _, (kind, u, v, sv, su) = best
        if kind == "add":
            parents[v].add(u)
            current[v] = sv
        elif kind == "del":
            parents[v].remove(u)
            current[v] = sv
        else:
            parents[v].remove(u)
            parents[u].add(v)
            current[v] = sv
            current[u] = su
    return tuple(sorted((u, v) for v in nodes for u in parents[v]))
