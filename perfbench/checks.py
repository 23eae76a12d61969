"""Output checks of the benchmark, written apart from bnsl.

Every check either recomputes a result with code of its own (the network
reader, the edge counts, the full-rescan merge order) or tests a property
the method must have.  Checks return a list of problems; an empty list
means the output passed.  Results are read by attribute only, so the
tests can hand in corrupted copies.
"""

from __future__ import annotations

from typing import Iterable, Sequence


def read_network(text: str) -> tuple[list[str], set[tuple[int, int]]]:
    """Variable names and directed arcs of a network file's text."""
    names: list[str] = []
    arcs: list[tuple[str, str]] = []
    for raw in text.splitlines():
        tok = raw.split("#", 1)[0].split()
        if tok and tok[0] == "var":
            names.append(tok[1])
        elif tok and tok[0] == "arc":
            arcs.append((tok[1], tok[2]))
    index = {name: k for k, name in enumerate(names)}
    return names, {(index[a], index[b]) for a, b in arcs}


def skeleton_counts(edges: Iterable[tuple[int, int]],
                    truth: Iterable[tuple[int, int]]) -> tuple[int, int, int]:
    """(tp, fp, fn) of an edge set against the truth, ignoring direction."""
    got = {frozenset(e) for e in edges}
    want = {frozenset(e) for e in truth}
    return len(got & want), len(got - want), len(want - got)


def f_score(tp: int, fp: int, fn: int) -> float:
    """Skeleton F in percentage points; 0/0 counts as 0."""
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    total = precision + recall
    return 2 * precision * recall / total if total else 0.0


def structure_problems(nodes: Iterable[int], edges: Sequence[tuple[int, int]],
                       n_vars: int) -> list[str]:
    """The structure covers exactly 0..n_vars-1, with no self-loop and no
    pair in both directions."""
    out = []
    if set(nodes) != set(range(n_vars)):
        out.append(f"structure covers {len(set(nodes))} nodes, not the {n_vars} variables")
    arcs = set(edges)
    for a, b in sorted(arcs):
        if a == b:
            out.append(f"self-loop on {a}")
        elif (b, a) in arcs and a < b:
            out.append(f"pair {a}, {b} in both directions")
    return out


def pipeline_problems(result, names: Sequence[str], truth: set[tuple[int, int]],
                      max_comm: int, min_f: float | None = None) -> list[str]:
    """Every check on one ``run_pipeline`` result against its network."""
    s, report = result.structure, result.report
    out = structure_problems(s.nodes, s.edges, len(names))
    tp, fp, fn = skeleton_counts(s.edges, truth)
    if (tp, fp, fn) != (report.tp, report.fp, report.fn):
        out.append(f"report counts {(report.tp, report.fp, report.fn)} "
                   f"!= recomputed {(tp, fp, fn)}")
    f = f_score(tp, fp, fn)
    if abs(f - report.f_score) > 1e-9:
        out.append(f"report F {report.f_score} != recomputed {f}")
    comms = result.partition.communities
    covered = set().union(*map(set, comms))
    if covered != set(range(len(names))):
        out.append(f"partition covers {len(covered)} of {len(names)} variables")
    largest = max((len(c) for c in comms), default=0)
    if largest > max_comm:
        out.append(f"community of {largest} exceeds max_comm {max_comm}")
    rounds = len(result.run_report["merge_sequence"])
    if rounds != len(comms) - 1:
        out.append(f"{rounds} merge rounds for {len(comms)} communities")
    if min_f is not None and f < min_f:
        out.append(f"skeleton F {f:.2f} below {min_f}")
    return out


def reference_merge_sequence(node_sets: Sequence[Sequence[int]]) -> list:
    """Merge order by a full rescan of every live pair in every round.

    The best pair has the largest Jaccard similarity, then the larger
    union, then the lexicographically smaller pair of sorted node tuples;
    the pair is replaced by its union.  Returns the sorted key pairs.
    """
    pool = [(k, set(k)) for k in (tuple(sorted(ns)) for ns in node_sets)]
    sequence = []
    while len(pool) > 1:
        best = None
        for a in range(len(pool)):
            ka, sa = pool[a]
            for b in range(a + 1, len(pool)):
                kb, sb = pool[b]
                inter = len(sa & sb)
                union = len(sa) + len(sb) - inter
                sim = inter / union
                if best is not None and (sim < best[0] or (
                        sim == best[0] and union < best[1])):
                    continue
                pair = (ka, kb) if ka < kb else (kb, ka)
                if best is None or sim > best[0] or union > best[1] or pair < best[2]:
                    best = (sim, union, pair, a, b)
        _, _, pair, a, b = best
        sequence.append(pair)
        merged = pool[a][1] | pool[b][1]
        pool = [p for k, p in enumerate(pool) if k not in (a, b)]
        pool.append((tuple(sorted(merged)), merged))
    return sequence


def merge_problems(result, node_sets: Sequence[Sequence[int]],
                   reference: Sequence, pool_arcs: set[tuple[int, int]]) -> list[str]:
    """Checks on one ``merge_all`` result over an edge-only pool."""
    out = []
    n = len(node_sets)
    got = [tuple(tuple(k) for k in pair) for pair in result.merge_sequence]
    if got != list(reference):
        first = next((r for r, (g, w) in enumerate(zip(got, reference)) if g != w),
                     min(len(got), len(reference)))
        out.append(f"merge sequence departs from the full-rescan reference "
                   f"at round {first}")
    union = set().union(*map(set, node_sets))
    if set(result.structure.nodes) != union:
        out.append("final node set is not the union of the pool")
    if result.jaccard_evaluations > 2 * n * (n - 1):
        out.append(f"{result.jaccard_evaluations} Jaccard evaluations "
                   f"exceed 2n(n-1) = {2 * n * (n - 1)}")
    if {frozenset(e) for e in result.structure.edges} != {frozenset(e) for e in pool_arcs}:
        out.append("merged skeleton is not the union of the pool's arcs")
    return out


def arcs_on_cycles(edges: Iterable[tuple[int, int]]) -> int:
    """Arcs whose ends lie in one strongly connected component."""
    succ: dict[int, list[int]] = {}
    arcs = list(edges)
    for a, b in arcs:
        succ.setdefault(a, []).append(b)
        succ.setdefault(b, [])
    comp = _strong_components(succ)
    return sum(1 for a, b in arcs if comp[a] == comp[b])


def _strong_components(succ: dict[int, list[int]]) -> dict[int, int]:
    """Component id of every node (iterative Tarjan)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    stack: list[int] = []
    on_stack: set[int] = set()
    for root in succ:
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            w = next(it, None)
            if w is None:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    while True:
                        x = stack.pop()
                        on_stack.discard(x)
                        comp[x] = v
                        if x == v:
                            break
            elif w not in index:
                index[w] = low[w] = len(index)
                stack.append(w)
                on_stack.add(w)
                work.append((w, iter(succ[w])))
            elif w in on_stack:
                low[v] = min(low[v], index[w])
    return comp
